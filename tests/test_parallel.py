"""Slice-parallel kernels: chunking, error propagation, and results that do not
depend on the worker count."""

import dataclasses
import os
import signal
import sys
import time

import numpy as np
import pytest

import tubal as tb
from tubal import tensor
from tubal.solve import AdmmConfig


def _with_workers(monkeypatch, count, fn):
    """fn() with `count` workers, every stack split, on a pool of its own."""
    saved = tensor._pool
    monkeypatch.setattr(tensor, "_WORKERS", count)
    monkeypatch.setattr(tensor, "_PARALLEL_MIN", 0)
    tensor._new_pool()
    try:
        return fn()
    finally:
        tensor._pool.shutdown()
        tensor._pool = saved


@pytest.mark.parametrize("n, workers", [(7, 3), (2, 3), (1, 3), (6, 1)])
def test_sliced_chunks_cover_the_axis(monkeypatch, n, workers):
    seen = []
    _with_workers(monkeypatch, workers,
                  lambda: tensor._sliced(n, n, lambda lo, hi: seen.append((lo, hi))))
    seen.sort()
    assert len(seen) == min(n, workers)
    assert seen[0][0] == 0 and seen[-1][1] == n
    assert all(a[1] == b[0] and a[0] < a[1] for a, b in zip(seen, seen[1:]))


def test_small_stacks_stay_in_the_calling_thread(monkeypatch):
    monkeypatch.setattr(tensor, "_WORKERS", 3)
    seen = []
    tensor._sliced(9, tensor._PARALLEL_MIN - 1, lambda lo, hi: seen.append((lo, hi)))
    assert seen == [(0, 9)]


def test_sliced_propagates_a_worker_error(monkeypatch):
    def task(lo, hi):
        if lo > 0:
            raise np.linalg.LinAlgError("chunk failed")

    with pytest.raises(np.linalg.LinAlgError, match="chunk failed"):
        _with_workers(monkeypatch, 3, lambda: tensor._sliced(6, 6, task))


def _spectral_outputs(shape, seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal(shape)
    b = gen.standard_normal((shape[1], 3, shape[2]))
    sv = tb.singular_values(a)
    f = tb.tsvd(a)
    skinny = tb.tsvd(a, mode="skinny", k=2)
    slice_top = np.linalg.svd(tb.fft_dim3(a).transpose(2, 0, 1), compute_uv=False)[:, 0]
    return [
        tb.tprod(a, b),
        f.u, f.s, f.v, skinny.u, skinny.s, skinny.v,
        tb.svt(a, 0.5 * sv[0]),  # full SVD
        tb.svt(a, 1.01 * slice_top.max()),  # full SVD that keeps nothing
        np.array([tb.tnn(a), tb.spectral_norm(a), tb.avg_rank(a), tb.tubal_rank(a)]),
    ]


# odd and even n3, n1 != n2, and h = n3 // 2 + 1 below the worker count
@pytest.mark.parametrize("shape", [(7, 5, 4), (6, 9, 5), (5, 4, 1), (4, 6, 2), (2, 5, 3)])
def test_spectral_routines_bitwise_for_any_worker_count(monkeypatch, shape):
    one = _with_workers(monkeypatch, 1, lambda: _spectral_outputs(shape, sum(shape)))
    three = _with_workers(monkeypatch, 3, lambda: _spectral_outputs(shape, sum(shape)))
    for x, y in zip(one, three):
        assert x.tobytes() == y.tobytes()


def _completion_outputs(dims, r, p, seed):
    if r is None:  # full tubal rank
        m_full = np.random.default_rng(seed).standard_normal(dims)
    else:
        m_full = tb.rand_low_tubal(*dims, r, seed=seed, scale="inv_n")
    mask = tb.make_bernoulli_mask(dims, p, seed=seed + 1)
    xhat, report = tb.solve_completion(mask, m_full, AdmmConfig(record_history=True))
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
              if f.name != "wall_time"}
    return xhat.tobytes(), fields


@pytest.mark.parametrize("dims, r, p", [
    ((64, 64, 32), 3, 0.5),  # zero, truncated and full SVT calls
    ((12, 12, 4), None, 0.9),  # full tubal rank
])
def test_completion_bitwise_for_any_worker_count(monkeypatch, dims, r, p):
    one = _with_workers(monkeypatch, 1, lambda: _completion_outputs(dims, r, p, seed=71))
    # more workers than cores, switching threads often: a chunk that lost
    # its output would change the result
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        three = _with_workers(monkeypatch, 3, lambda: _completion_outputs(dims, r, p, seed=71))
    finally:
        sys.setswitchinterval(interval)
    assert one == three
    if r is not None:
        assert min(one[1]["svt_paths"].values()) > 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_its_own_pool(monkeypatch):
    # without the reset, a child would queue its chunks on the parent's
    # pool, whose threads it does not have, and wait for them forever
    a = np.random.default_rng(5).standard_normal((6, 5, 4))
    expected = tb.tprod(a, a.transpose(1, 0, 2))

    def both():
        tb.tprod(a, a.transpose(1, 0, 2))  # the pool exists before the fork
        pid = os.fork()
        if pid == 0:
            ok = tb.tprod(a, a.transpose(1, 0, 2)).tobytes() == expected.tobytes()
            os._exit(0 if ok else 1)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                return status
            time.sleep(0.01)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        return None

    assert _with_workers(monkeypatch, 3, both) == 0
