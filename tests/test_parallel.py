"""Slice-parallel kernels: chunking, error propagation, and results that do not
depend on the worker count."""

import dataclasses
import errno
import multiprocessing
import os
import signal
import sys
import time

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import tubal as tb
from tubal import lab, tensor
from tubal.errors import NonFiniteValues
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


# -- trials on one process per CPU ---------------------------------------------

def _with_processes(monkeypatch, count, fn):
    """fn() with `count` workers, the shipped stack threshold, and the slice
    pool's threads started before any fork; returns (fn(), sizes of the
    process pools built)."""
    built = []

    class Counting(ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            built.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(lab, "ProcessPoolExecutor", Counting)
    shipped = tensor._PARALLEL_MIN

    def run():
        tensor._sliced(count, count, lambda lo, hi: time.sleep(0.01))
        monkeypatch.setattr(tensor, "_PARALLEL_MIN", shipped)
        return fn()

    return _with_workers(monkeypatch, count, run), built


def _driver_outputs():
    return (
        tb.phase_grid("gaussian", (5, 5, 2), values=[20, 40], ranks=[1, 2], trials=2,
                      base_seed=3),
        tb.phase_grid("completion", (6, 6, 3), values=[0.4, 0.9], ranks=[1], trials=2,
                      base_seed=4),
        tb.run_table1([(4, 2, 1, 43), (5, 2, 2, 61), (4, 2, 9, 10)], base_seed=5),
        # a rate of 1.5 is rejected inside the trial, in a worker
        tb.run_table2([(6, 3, 1, 0.8), (6, 3, 1, 1.5), (7, 2, 2, 0.9)], base_seed=6),
    )


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_drivers_equal_for_any_process_count(monkeypatch):
    one, built = _with_processes(monkeypatch, 1, _driver_outputs)
    assert built == []
    assert one[3][1]["error"].startswith("InvalidRate: ")
    for count in (2, 3):
        many, built = _with_processes(monkeypatch, count, _driver_outputs)
        assert built == [min(count, trials) for trials in (8, 4, 2, 3)]
        assert repr(many) == repr(one)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_tubal_error_in_a_worker_is_recorded_as_in_process(monkeypatch):
    solve = lab.solve_gaussian

    def rejecting(gmap, y, cfg):
        if gmap.m == 40:
            raise NonFiniteValues("measurement vector y contains NaN or Inf entries")
        return solve(gmap, y, cfg)

    monkeypatch.setattr(lab, "solve_gaussian", rejecting)

    def grid():
        return tb.phase_grid("gaussian", (5, 5, 2), values=[20, 40], ranks=[1], trials=3,
                             base_seed=3).cells

    one, _ = _with_processes(monkeypatch, 1, grid)
    three, built = _with_processes(monkeypatch, 3, grid)
    assert built == [3] and repr(three) == repr(one)  # nan != nan
    assert one[1].errors == [f"trial {t}: NonFiniteValues: measurement vector y contains "
                             "NaN or Inf entries" for t in range(3)]
    assert one[0].errors == [] and np.isnan(one[1].mean_rel_err)


def _buggy_trial(*spec):
    raise RuntimeError(f"trial bug at seed {spec[4]}")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_any_other_worker_error_propagates(monkeypatch):
    monkeypatch.setattr(lab, "_trial", _buggy_trial)
    seed = tb.derive_seed(3, "completion", 0.9, 1, 0, "tensor")
    with pytest.raises(RuntimeError, match=f"^trial bug at seed {seed}$"):
        _with_processes(monkeypatch, 2, lambda: tb.phase_grid(
            "completion", (5, 5, 2), values=[0.9], ranks=[1], trials=2, base_seed=3))


def test_stacks_at_the_threshold_build_no_pool(monkeypatch):
    def grid():  # half-spectrum stacks of 2 * 5 * 5 = 50 elements
        return tb.phase_grid("completion", (5, 5, 2), values=[0.9], ranks=[1], trials=2,
                             base_seed=3).cells

    def at(threshold):
        monkeypatch.setattr(tensor, "_PARALLEL_MIN", threshold)
        return grid()

    one, _ = _with_processes(monkeypatch, 1, grid)
    assert _with_processes(monkeypatch, 2, lambda: at(50)) == (one, [])
    assert _with_processes(monkeypatch, 2, lambda: at(51)) == (one, [2])


def _eagain(*_, **__):
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("refuse", ["executor", "second fork"])
def test_no_process_to_spare_runs_the_trials_in_process(monkeypatch, refuse):
    def grid():
        return tb.phase_grid("gaussian", (5, 5, 2), values=[20, 40], ranks=[1], trials=2,
                             base_seed=3).cells

    monkeypatch.setattr(tensor, "_WORKERS", 1)
    one = grid()
    monkeypatch.setattr(tensor, "_WORKERS", 3)
    forks = []
    if refuse == "executor":
        monkeypatch.setattr(lab, "ProcessPoolExecutor", _eagain)
    else:  # one worker starts, then fork fails: that worker must not be left waiting
        fork = os.fork

        def fork_once():
            forks.append(len(forks))
            return fork() if len(forks) == 1 else _eagain()

        monkeypatch.setattr(os, "fork", fork_once)
    children = set(multiprocessing.active_children())
    cells = grid()
    left = set(multiprocessing.active_children()) - children
    for proc in left:  # fail the test rather than hang the interpreter's exit
        proc.kill()
    assert cells == one and not left
    assert forks == ([] if refuse == "executor" else [0, 1])
