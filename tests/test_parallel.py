"""Slice-parallel kernels and FFTs, the split map fill and Gram product,
the slice threads of a solve, trials on processes: chunking, error
propagation, one level of parallelism, and results that do not depend on
the worker count."""

import dataclasses
import errno
import importlib
import multiprocessing
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
import scipy.fft

import tubal as tb
from conftest import traced_peak
from tubal import lab, rng, solve, tensor
from tubal.errors import NonFiniteValues
from tubal.solve import AdmmConfig

# the package exports the function tsvd under the module's name
tsvd = importlib.import_module("tubal.tsvd")


def _with_workers(monkeypatch, count, fn):
    """fn() with `count` workers and every stack split."""
    monkeypatch.setattr(tensor, "_cpu_count", lambda: count)
    monkeypatch.setattr(tensor, "_PARALLEL_MIN", 0)
    return fn()


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
    monkeypatch.setattr(tensor, "_cpu_count", lambda: 3)
    seen = []
    tensor._sliced(9, tensor._PARALLEL_MIN - 1, lambda lo, hi: seen.append((lo, hi)))
    assert seen == [(0, 9)]


def test_sliced_propagates_a_worker_error(monkeypatch):
    def task(lo, hi):
        if lo > 0:
            raise np.linalg.LinAlgError("chunk failed")

    with pytest.raises(np.linalg.LinAlgError, match="chunk failed"):
        _with_workers(monkeypatch, 3, lambda: tensor._sliced(6, 6, task))


# small, prime, odd and even n3, and powers of two and three
_FFT_N3 = list(range(1, 20)) + [31, 32, 33, 64, 97, 100, 101, 127, 128, 243, 256]


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("n3", _FFT_N3)
def test_ffts_match_numpy_bitwise(monkeypatch, n3, split):
    # numpy.fft and scipy.fft run the same pocketfft code: the split FFTs
    # match both, on a contiguous and a strided tensor, for 1-3 CPUs
    a = np.random.default_rng(n3).standard_normal((9, 7, n3))
    half = (n3 // 2 + 1) * 9 * 7
    monkeypatch.setattr(tensor, "_PARALLEL_MIN", half if split else half + 1)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(tensor, "_cpu_count", lambda: cpus)
        for x in (a, a.transpose(1, 0, 2)):  # a contiguous and a strided tensor
            assert tensor._split(x.shape) == split
            f = tensor._rfft3(x)
            assert f.shape == (n3 // 2 + 1,) + x.shape[:2] and f.flags.c_contiguous
            assert f.tobytes() == np.fft.rfft(x, axis=2).transpose(2, 0, 1).tobytes()
            assert f.tobytes() == scipy.fft.rfft(x.transpose(2, 0, 1), axis=0).tobytes()
            back = tensor._irfft3(f, n3)
            assert back.tobytes() == np.fft.irfft(f.transpose(1, 2, 0), n=n3, axis=2).tobytes()
            assert back.tobytes() == scipy.fft.irfft(f.transpose(1, 2, 0), n=n3,
                                                     axis=2).tobytes()
            # a strided stack, as the rebuild of kept columns passes it
            part = tensor._irfft3(f[:, :, :2], n3)
            assert part.tobytes() == scipy.fft.irfft(f[:, :, :2].transpose(1, 2, 0), n=n3,
                                                     axis=2).tobytes()


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("shape", [(9, 7, 6), (9, 7, 5), (1, 7, 5), (4, 90, 64)])
def test_measured_inverse_fft_matches_numpy(monkeypatch, shape, split):
    # the change that _irfft3 measures as it writes over out, against plain
    # numpy, with nothing, some or everything skipped, in blocks of one row
    # and of several, on 1-3 CPUs; out gets the plain transform's bits
    n1, n2, n3 = shape
    gen = np.random.default_rng(sum(shape))
    f = tensor._rfft3(gen.standard_normal(shape))
    plain = np.fft.irfft(f.transpose(1, 2, 0), n=n3, axis=2)
    old = gen.standard_normal(shape)
    monkeypatch.setattr(tensor, "_PARALLEL_MIN", f.size if split else f.size + 1)
    for p in (0.0, 0.4, 1.0):
        skip = np.flatnonzero(gen.random(shape) < p)
        measured = np.ones(old.size, dtype=bool)
        measured[skip] = False
        expected = np.abs(plain - old).reshape(-1)[measured].max(initial=0.0)
        assert (expected == 0.0) == (p == 1.0)
        for block, cpus in ((1, 1), (1, 3), (tensor._BLOCK, 2), (tensor._BLOCK, 3)):
            monkeypatch.setattr(tensor, "_BLOCK", block)
            monkeypatch.setattr(tensor, "_cpu_count", lambda: cpus)
            out = old.copy()
            got, change = tensor._irfft3(f, n3, out, skip)
            assert got is out and out.tobytes() == plain.tobytes()
            assert change == expected


def test_ffts_of_overflowing_input_do_not_warn(monkeypatch):
    # the SVT raises NonFiniteValues on such a spectrum; the FFTs, split or
    # not, only return it
    a = np.full((9, 7, 5), 1.7e308)
    for workers in (1, 3):
        f = _with_workers(monkeypatch, workers, lambda: tensor._rfft3(a))
        assert not np.isfinite(f).all()
        assert not np.isfinite(tensor._irfft3(f, 5)).all()


# square, tall and wide stacks, with odd and even n3
@pytest.mark.parametrize("shape", [(40, 40, 5), (50, 36, 4), (36, 50, 3), (7, 5, 6)])
def test_svt_full_path_matches_the_batched_rebuild(monkeypatch, shape):
    # the full path overwrites the spectrum with the left vectors and then
    # with the rebuilt slices; bit for bit it is the batched formula
    y = np.random.default_rng(sum(shape)).standard_normal(shape)
    u, s, vh = np.linalg.svd(scipy.fft.rfft(y.transpose(2, 0, 1), axis=0),
                             full_matrices=False)
    for tau in (0.5 * s.max(), 0.9 * np.median(s), 1.01 * s[:, 0].max()):
        shr = np.maximum(s - tau, 0.0)
        k = int((shr > 0).sum(axis=1).max())
        g = (u[:, :, :k] * shr[:, None, :k]) @ vh[:, :k]
        expected = scipy.fft.irfft(g.transpose(1, 2, 0), n=shape[2], axis=2)
        for workers in (1, 2, 3):
            state = tsvd._SvtState()
            x, t = _with_workers(monkeypatch, workers, lambda: tsvd._svt_freq(y, tau, state))
            # a full SVD that keeps nothing makes a zero call
            path = "full" if k else "zero"
            assert state.paths == {"zero": 0, "truncated": 0, "full": 0} | {path: 1}
            assert x.tobytes() == expected.tobytes()
            assert t == float(tensor._spectral_mean(shr, shape[2]).sum())


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


def _fill_outputs(count, used):
    """normal_fill of count deviates from a generator that drew `used`
    uniforms first, and the generator's next five draws."""
    gen = tb.substream(8, "fill", count)
    gen.random(used)
    out = tb.normal_fill(gen, count)
    return out.tobytes(), gen.random(5).tobytes()


@pytest.mark.parametrize("used", [0, 1])
@pytest.mark.parametrize("count, block", [
    (1001, 64), (2 * 64 * 3, 64), (2 * 64 * 3 - 1, 64),
    (2 * rng._BLOCK + 3, rng._BLOCK),  # two blocks of the shipped size
])
def test_normal_fill_bitwise_for_any_cpu_count(monkeypatch, count, block, used):
    # the reference draws every uniform from gen in stream order, not from
    # states moved ahead as the blocks draw theirs
    gen = tb.substream(8, "fill", count)
    gen.random(used)
    npairs = (count + 1) // 2
    u = gen.random(2 * npairs)
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:npairs]))
    angle = 2.0 * np.pi * u[npairs:]
    expected = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1).ravel()
    serial = expected[:count].tobytes(), gen.random(5).tobytes()
    monkeypatch.setattr(rng, "_BLOCK", block)
    for cpus in (1, 2, 3):
        assert _with_workers(monkeypatch, cpus, lambda: _fill_outputs(count, used)) == serial


@pytest.mark.parametrize("m, d", [(70, 50), (30, 50)])  # direct and Woodbury
def test_gram_triangle_bitwise_for_any_cpu_count(monkeypatch, m, d):
    # the Gram and its Cholesky factor, on the tile grid
    a = tb.make_gaussian_map(m, (d, 1, 1), seed=2).a
    src = a if m < d else a.T
    monkeypatch.setattr(solve, "_TILE", 16)
    grids = [_with_workers(monkeypatch, cpus, lambda: solve._factor(src)) for cpus in (1, 2, 3)]
    one, two, three = (b"".join(panel.tobytes(order="A") for panel in grid) for grid in grids)
    assert one == two == three
    k = len(src)
    low = np.zeros((k, k))
    for panel in grids[0]:
        hi = panel.shape[1]
        low[hi - len(panel):hi, :hi] = panel
    low = np.tril(low)
    step = solve._TILE // 8  # each diagonal block of the factor holds its inverse
    for lo in range(0, k, step):
        low[lo:lo + step, lo:lo + step] = np.linalg.inv(low[lo:lo + step, lo:lo + step])
    exact = src @ src.T + np.eye(k)
    assert np.abs(low @ low.T - exact).max() <= 1e-13 * np.abs(exact).max()


def test_normal_fill_on_one_cpu_holds_no_radius_array(monkeypatch):
    # the blocks run inline: beside the output a fill holds a few
    # block-sized buffers, not a radius uniform for every pair (1.5 outputs)
    monkeypatch.setattr(rng, "_BLOCK", 1024)
    count = 100_000
    gen = tb.substream(8, "fill", count)
    peak, _ = traced_peak(
        lambda: _with_workers(monkeypatch, 1, lambda: tb.normal_fill(gen, count)))
    assert peak <= 1.1 * 8 * count


def test_normal_fill_of_another_bit_generator_is_serial(monkeypatch):
    # a PCG64 stream cannot be moved ahead by a count of draws
    def fill():
        gen = np.random.Generator(np.random.PCG64(8))
        return tb.normal_fill(gen, 1001), gen.random(5).tobytes()

    monkeypatch.setattr(rng, "_BLOCK", 64)
    out, after = _with_workers(monkeypatch, 2, fill)
    u = np.random.Generator(np.random.PCG64(8)).random(1002)
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:501]))
    angle = 2.0 * np.pi * u[501:]
    expected = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1).ravel()
    assert out.tobytes() == expected[:1001].tobytes()
    gen = np.random.Generator(np.random.PCG64(8))
    gen.random(1002)
    assert after == gen.random(5).tobytes()


def _gaussian_outputs(m, dims, seed):
    x0 = tb.rand_low_tubal(*dims, 1, seed=seed)
    gmap = tb.make_gaussian_map(m, dims, seed=seed + 1)
    xhat, report = tb.solve_gaussian(gmap, tb.apply_map(gmap, x0),
                                     AdmmConfig(record_history=True))
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
              if f.name != "wall_time"}
    return gmap.a.tobytes(), xhat.tobytes(), fields


@pytest.mark.parametrize("m", [150, 60])  # direct and Woodbury, d = 108
def test_gaussian_bitwise_for_any_worker_count(monkeypatch, m):
    # small blocks and tiles, so that the map fill and the Gram are split
    monkeypatch.setattr(rng, "_BLOCK", 256)
    monkeypatch.setattr(solve, "_TILE", 16)
    one = _with_workers(monkeypatch, 1, lambda: _gaussian_outputs(m, (6, 6, 3), seed=73))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = [_with_workers(monkeypatch, cpus, lambda: _gaussian_outputs(m, (6, 6, 3), seed=73))
                for cpus in (2, 3)]
    finally:
        sys.setswitchinterval(interval)
    assert many == [one, one]
    assert one[2]["converged"]


def _split_svt():
    """A 6x5x4 tensor, a threshold that keeps a value, and their svt."""
    a = np.random.default_rng(5).standard_normal((6, 5, 4))
    tau = 0.5 * tb.singular_values(a)[0]
    return a, tau, tb.svt(a, tau)


def test_no_slice_thread_outlives_its_call(monkeypatch):
    seen = []

    def run():
        tensor._sliced(6, 6, lambda lo, hi: seen.append((lo, threading.current_thread().name)))
        _split_svt()

    _with_workers(monkeypatch, 3, run)
    names = [name for _, name in sorted(seen)]
    assert names[0] == threading.current_thread().name
    assert len(names) == 3 and all(n.startswith("tubal-slices") for n in names[1:])
    assert not [t for t in threading.enumerate() if t.name.startswith("tubal-slices")]


def _count_thread_starts(monkeypatch):
    """The names of the threads started from now on, in start order."""
    started = []
    start = threading.Thread.start

    def counting(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


def test_a_solve_starts_its_slice_threads_once(monkeypatch):
    # the split calls of one solve share the threads the first one starts
    split = []
    on_threads = tensor._on_threads
    monkeypatch.setattr(tensor, "_on_threads", lambda tasks: (split.append(len(tasks)),
                                                              on_threads(tasks)))
    started = _count_thread_starts(monkeypatch)
    m_full = tb.rand_low_tubal(36, 36, 4, 2, seed=5, scale="inv_n")
    mask = tb.make_bernoulli_mask(m_full.shape, 0.6, seed=6)
    for _ in range(2):
        _with_workers(monkeypatch, 3, lambda: tb.solve_completion(mask, m_full,
                                                                  AdmmConfig(max_iter=80)))
    assert len(split) > 20 and set(split) == {3}
    assert len(started) == 4 and all(name.startswith("tubal-slices") for name in started)
    assert not [t for t in threading.enumerate() if t.name.startswith("tubal-slices")]


def test_a_solve_that_raises_leaves_no_thread(monkeypatch):
    # the iterate overflows after the slice threads started
    calls = []
    svt_freq = solve._svt_freq

    def overflowing(y, tau, state, out=None, skip=None):
        calls.append(tau)
        if len(calls) == 5:
            y = y.copy()
            y[0, 0, 0] = np.inf
        return svt_freq(y, tau, state, out=out, skip=skip)

    monkeypatch.setattr(solve, "_svt_freq", overflowing)
    started = _count_thread_starts(monkeypatch)
    gen = np.random.default_rng(7)
    mask = tb.make_bernoulli_mask((12, 12, 4), 0.9, seed=8)
    with pytest.raises(NonFiniteValues):
        _with_workers(monkeypatch, 3, lambda: tb.solve_completion(
            mask, gen.standard_normal((12, 12, 4)), AdmmConfig(mu0=1.0)))
    assert len(calls) == 5 and len(started) == 2
    assert not [t for t in threading.enumerate() if t.name.startswith("tubal-slices")]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs an affinity mask of two CPUs or more")
def test_bitwise_with_the_affinity_mask_narrowed_to_one_cpu(monkeypatch):
    monkeypatch.setattr(tensor, "_PARALLEL_MIN", 0)

    def outputs():
        return (_completion_outputs((36, 36, 4), 2, 0.6, seed=74),
                _gaussian_outputs(150, (6, 6, 3), seed=75))

    mask = os.sched_getaffinity(0)
    wide = outputs()
    os.sched_setaffinity(0, {min(mask)})
    try:
        assert tensor._cpu_count() == 1
        narrow = outputs()
    finally:
        os.sched_setaffinity(0, mask)
    assert narrow == wide


def test_affinity_narrowed_after_import_is_honoured(monkeypatch):
    monkeypatch.setattr(tensor, "_PARALLEL_MIN", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    seen = []
    tensor._sliced(9, 9, lambda lo, hi: seen.append((lo, hi)))
    assert sorted(seen) == [(0, 3), (3, 6), (6, 9)]


@pytest.mark.parametrize("cpu_max, count", [
    ("100000 100000\n", 1), ("150000 100000\n", 2), ("max 100000\n", 3), (None, 3)])
def test_a_cgroup_cpu_quota_caps_the_count(monkeypatch, tmp_path, cpu_max, count):
    # None: no cpu.max file, as without a cgroup v2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(tensor, "_CPU_MAX", str(tmp_path / "cpu.max"))
    if cpu_max is not None:
        (tmp_path / "cpu.max").write_text(cpu_max)
    assert tensor._cpu_count() == count


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_splits_its_own_stacks(monkeypatch):
    # a child forked after the parent split a stack has none of the
    # parent's threads: its own split calls, the FFTs' among them, must
    # start theirs

    def both():
        a, tau, expected = _split_svt()  # the FFT and slice threads ran before the fork
        assert tensor._split(a.shape) and tensor._cpu_count() > 1
        pid = os.fork()
        if pid == 0:
            ok = tb.svt(a, tau).tobytes() == expected.tobytes()
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
    """fn() with `count` workers and the shipped stack threshold; returns
    (fn(), sizes of the process pools built)."""
    built = []
    fork = type(multiprocessing.get_context("fork"))
    pool = fork.Pool

    def counting(self, processes=None, *args, **kwargs):
        built.append(processes)
        return pool(self, processes, *args, **kwargs)

    monkeypatch.setattr(fork, "Pool", counting)
    monkeypatch.setattr(tensor, "_cpu_count", lambda: count)
    return fn(), built


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


def _buggy_trial(spec):
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


def _guard_trial_processes(monkeypatch):
    """Make a trial process that starts a thread raise; the FFTs split over
    the slice threads too, so this covers them."""
    parent = os.getpid()
    start = threading.Thread.start

    def guarded_start(thread):
        if os.getpid() != parent:
            raise RuntimeError(f"thread {thread.name} started in a trial process")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", guarded_start)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_desk_grids_split_nothing_in_a_trial_process(monkeypatch):
    # one level of parallelism: a trial on a worker process starts no thread
    _guard_trial_processes(monkeypatch)

    def desk_grids():  # the sizes of perfbench's cli_desk, with its Gaussian values
        dof = [tb.dof(12, 12, 3, r) for r in (1, 2, 3)]
        return (
            tb.phase_grid("gaussian", (12, 12, 3), values=[dof[1] // 2, dof[1], 3 * dof[0] + 1,
                                                           3 * dof[2] + 1],
                          ranks=[1, 2, 3], trials=2, base_seed=6),
            tb.phase_grid("completion", (20, 20, 10), values=[0.3, 0.6], ranks=[2, 4],
                          trials=2, base_seed=7),
        )

    (gaussian, completion), built = _with_processes(monkeypatch, 2, desk_grids)
    assert built == [2, 2]  # both grids ran on processes
    assert max(gaussian.values) * 12 * 12 * 3 == 245376
    assert all(not cell.errors for cell in gaussian.cells + completion.cells)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_trial_processes_split_no_fill_or_gram(monkeypatch):
    # fills and Grams that the calling process splits stay whole in a trial
    # process, and their trials still run on processes, as the parent's did
    monkeypatch.setattr(rng, "_BLOCK", 256)
    monkeypatch.setattr(solve, "_TILE", 16)
    dims, m = (12, 12, 3), 200  # a stack of 288 values; a 200 x 432 map
    split = []
    on_threads = tensor._on_threads
    monkeypatch.setattr(tensor, "_on_threads", lambda tasks: (split.append(len(tasks)),
                                                              on_threads(tasks)))
    _with_processes(monkeypatch, 2, lambda: tb.solve_gaussian(
        tb.make_gaussian_map(m, dims, seed=1), np.zeros(m), AdmmConfig(max_iter=1)))
    assert split.count(2) >= 3  # the fill, the Gram and the factor's steps, in the calling process

    def grid():
        return tb.phase_grid("gaussian", dims, values=[100, m], ranks=[1], trials=2,
                             base_seed=9)

    one, built = _with_processes(monkeypatch, 1, grid)
    assert built == []
    _guard_trial_processes(monkeypatch)
    two, built = _with_processes(monkeypatch, 2, grid)
    assert built == [2]
    assert repr(two) == repr(one)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_completion_trial_on_a_worker_starts_no_thread(monkeypatch):
    # every kernel splits in the calling process, but the trials run on
    # processes, where a solve's thread scope starts no thread
    monkeypatch.setattr(tensor, "_PARALLEL_MIN", 0)
    monkeypatch.setattr(tensor, "_split", lambda dims: False)

    def grid():
        return tb.phase_grid("completion", (8, 8, 4), values=[0.5, 0.9], ranks=[1], trials=2,
                             base_seed=11)

    one, built = _with_processes(monkeypatch, 1, grid)
    assert built == []
    _guard_trial_processes(monkeypatch)
    two, built = _with_processes(monkeypatch, 2, grid)
    assert built == [2] and repr(two) == repr(one)
    assert all(not cell.errors for cell in two.cells)


def _eagain(*_, **__):
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("refuse", ["first fork", "second fork"])
def test_no_process_to_spare_runs_the_trials_in_process(monkeypatch, refuse):
    def grid():
        return tb.phase_grid("gaussian", (5, 5, 2), values=[20, 40], ranks=[1], trials=2,
                             base_seed=3).cells

    monkeypatch.setattr(tensor, "_cpu_count", lambda: 1)
    one = grid()
    monkeypatch.setattr(tensor, "_cpu_count", lambda: 3)
    forks = []
    refused = 1 if refuse == "first fork" else 2
    fork = os.fork

    def refusing_fork():
        # after the second fork fails, the worker the first one started
        # must not be left waiting
        forks.append(len(forks))
        return _eagain() if len(forks) == refused else fork()

    monkeypatch.setattr(os, "fork", refusing_fork)
    children = set(multiprocessing.active_children())
    cells = grid()
    left = set(multiprocessing.active_children()) - children
    for proc in left:  # fail the test rather than hang the interpreter's exit
        proc.kill()
    assert cells == one and not left
    assert forks == list(range(refused))
