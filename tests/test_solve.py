"""ADMM solvers: trivial cases, small exact recovery, schedule invariants."""

import importlib
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import tubal as tb
from tubal import tensor
from tubal.errors import DimMismatch, EmptyTensor, InvalidSolverConfig, NonFiniteValues
from tubal.solve import AdmmConfig, _admm, _penalty
from tubal.tensor import unvec, vec
from tubal.tsvd import _svt_freq

# the package exports the function tsvd under the module's name
tsvd_module = importlib.import_module("tubal.tsvd")
solve_module = importlib.import_module("tubal.solve")

RNG = np.random.default_rng(31337)


def test_config_validation():
    with pytest.raises(InvalidSolverConfig):
        AdmmConfig(rho=1.0)
    with pytest.raises(InvalidSolverConfig):
        AdmmConfig(mu0=0.0)
    with pytest.raises(InvalidSolverConfig):
        AdmmConfig(mu0=1.0, mu_max=0.5)
    with pytest.raises(InvalidSolverConfig):
        AdmmConfig(mu_max=float("inf"))
    for eps in (0.0, float("inf"), float("nan")):
        with pytest.raises(InvalidSolverConfig):
            AdmmConfig(eps=eps)
    with pytest.raises(InvalidSolverConfig):
        AdmmConfig(max_iter=0)
    for max_iter in (2.5, float("nan"), float("inf")):
        with pytest.raises(InvalidSolverConfig):
            AdmmConfig(max_iter=max_iter)
    assert AdmmConfig(max_iter=3.0) == AdmmConfig(max_iter=3)
    assert type(AdmmConfig(max_iter=3.0).max_iter) is int


def test_penalty_trajectory_exact():
    cfg = AdmmConfig()
    for k in (0, 1, 5, 100, 400):
        assert _penalty(cfg, k) == min(cfg.mu0 * cfg.rho ** k, cfg.mu_max)
    # rho ** k leaves the float range at k = 7448
    assert _penalty(cfg, 10 ** 4) == 1e10
    # past it, a tiny mu0 keeps the product below mu_max
    tiny = AdmmConfig(mu0=1e-305)
    assert _penalty(tiny, 7448) == pytest.approx(1e-305 * 1.1 ** 3724 * 1.1 ** 3724, rel=1e-12)
    assert _penalty(tiny, 7700) == 1e10


def test_gaussian_zero_measurements_give_zero():
    gmap = tb.make_gaussian_map(25, (3, 3, 2), seed=1)
    xhat, report = tb.solve_gaussian(gmap, np.zeros(25))
    assert np.abs(xhat).max() == 0.0
    assert report.converged and report.iterations <= 2
    assert all(v <= AdmmConfig.eps for v in report.residuals.values())


def test_gaussian_small_exact_recovery():
    # 4x4x2, tubal rank 1, m = 3*1*(4+4-1)*2 + 1 = 43 measurements
    m = tb.gaussian_bound(4, 4, 2, 1)
    assert m == 43
    x0 = tb.rand_low_tubal(4, 4, 2, 1, seed=3)
    gmap = tb.make_gaussian_map(m, (4, 4, 2), seed=5)
    xhat, report = tb.solve_gaussian(gmap, tb.apply_map(gmap, x0))
    assert report.converged
    assert tb.rel_error(xhat, x0) <= 1e-5
    assert tb.tnn(xhat) <= tb.tnn(x0) * (1 + 1e-6)


def test_gaussian_woodbury_and_direct_paths_agree():
    # m < d exercises the Woodbury branch; m >= d the direct factorization
    x0 = tb.rand_low_tubal(4, 4, 3, 1, seed=11)
    d = 48
    for m in (d - 5, d - 1, d, d + 1, d + 5):
        gmap = tb.make_gaussian_map(m, (4, 4, 3), seed=13)
        xhat, report = tb.solve_gaussian(gmap, tb.apply_map(gmap, x0))
        assert report.converged
        assert tb.rel_error(xhat, x0) <= 1e-4


def _reference_solve_gaussian(gmap, y, cfg):
    """The z-update with explicit passes: A^T (y - lam1/mu) and A z - y every iteration."""
    a = gmap.a
    m, d = a.shape
    gram = a @ a.T if m < d else a.T @ a
    gram[np.diag_indices_from(gram)] += 1.0
    factor = scipy.linalg.cho_factor(gram)

    def solve_system(w):
        if m < d:
            return w - a.T @ scipy.linalg.cho_solve(factor, a @ w)
        return scipy.linalg.cho_solve(factor, w)

    x, z, lam2 = (np.zeros(gmap.dims) for _ in range(3))
    lam1 = np.zeros(m)

    def step(mu, svt_state):
        nonlocal x, z, lam1, lam2
        x_new, objective = _svt_freq(z - lam2 / mu, 1.0 / mu, svt_state)
        z_vec = solve_system(a.T @ (y - lam1 / mu) + vec(lam2) / mu + vec(x_new))
        z_new = unvec(z_vec, gmap.dims)
        feas = a @ z_vec - y
        lam1 = lam1 + mu * feas
        lam2 = lam2 + mu * (x_new - z_new)
        residuals = {
            "res_x": float(np.abs(x_new - x).max()),
            "res_z": float(np.abs(z_new - z).max()),
            "res_feas": float(np.abs(feas).max()),
            "res_gap": float(np.abs(x_new - z_new).max()),
        }
        x, z = x_new, z_new
        return x, objective, residuals

    return _admm(cfg, step, time.perf_counter())


@pytest.mark.parametrize("m", [43, 60])  # Woodbury (m < d = 48), direct
@pytest.mark.parametrize("max_iter", [500, 3])
def test_gaussian_step_matches_explicit_passes(m, max_iter):
    x0 = tb.rand_low_tubal(4, 4, 3, 1, seed=11)
    gmap = tb.make_gaussian_map(m, (4, 4, 3), seed=13)
    y = tb.apply_map(gmap, x0)
    cfg = AdmmConfig(max_iter=max_iter, record_history=True)
    x1, r1 = tb.solve_gaussian(gmap, y, cfg)
    x2, r2 = _reference_solve_gaussian(gmap, y, cfg)
    assert r1.iterations == r2.iterations
    assert r1.converged == r2.converged == (max_iter == 500)
    assert np.linalg.norm(x1 - x2) <= 1e-10 * np.linalg.norm(x2)
    columns = ["iter", "objective", "res_x", "res_z", "res_feas", "res_gap", "mu"]
    # each history value within 1e-9 of the largest value in its column
    scale = {c: max(abs(row[c]) for row in r2.history) for c in columns}
    for row1, row2 in zip(r1.history, r2.history):
        assert list(row1) == list(row2) == columns
        for c in columns:
            assert abs(row1[c] - row2[c]) <= 1e-9 * scale[c]
    assert r1.residuals == pytest.approx(r2.residuals, rel=1e-9, abs=1e-12)
    # the report does not depend on whether a history was kept
    x3, r3 = tb.solve_gaussian(gmap, y, AdmmConfig(max_iter=max_iter))
    assert np.array_equal(x1, x3)
    assert r3.iterations == r1.iterations and r3.residuals == r1.residuals


def test_gaussian_dim_mismatch():
    gmap = tb.make_gaussian_map(10, (2, 2, 2), seed=0)
    with pytest.raises(DimMismatch):
        tb.solve_gaussian(gmap, np.zeros(11))


def test_solvers_reject_nonfinite_data():
    gmap = tb.make_gaussian_map(10, (2, 2, 2), seed=0)
    y = np.zeros(10)
    y[3] = np.nan
    with pytest.raises(NonFiniteValues):
        tb.solve_gaussian(gmap, y)
    mask = tb.make_bernoulli_mask((3, 3, 2), 0.5, seed=0)
    m_obs = np.zeros((3, 3, 2))
    m_obs[tuple(np.argwhere(mask.observed)[0])] = np.inf
    with pytest.raises(NonFiniteValues):
        tb.solve_completion(mask, m_obs)
    # unobserved entries are discarded before the check
    m_obs = np.where(mask.observed, 0.0, np.nan)
    _, report = tb.solve_completion(mask, m_obs)
    assert report.converged


def test_overflowing_iterate_raises_nonfinite_values():
    # finite data whose first SVT input overflows to inf
    mask = tb.make_bernoulli_mask((6, 6, 3), 0.5, 0)
    with pytest.raises(NonFiniteValues):
        tb.solve_completion(mask, np.full((6, 6, 3), 1.7e308), AdmmConfig(max_iter=60))
    gmap = tb.make_gaussian_map(200, (4, 4, 3), seed=0)
    with pytest.raises(NonFiniteValues):
        tb.solve_gaussian(gmap, np.full(200, 1.7e308), AdmmConfig(max_iter=60))


def test_triangular_solves_match_cho_solve(monkeypatch):
    # the tile grid's factor and solves against LAPACK on the dense system:
    # one tile, one short or full tile, a tile and a row, two tiles and three
    # rows; tiles of several blocks of tile // 8 rows, with a short last
    # block, a short last tile and a short last block in a short last tile
    for tile, sizes in ((8, (1, 7, 8, 9, 19)), (32, (29, 32, 70, 99)),
                        (64, (64, 130, 187))):
        monkeypatch.setattr(solve_module, "_TILE", tile)
        for k in sizes:
            for m, d in ((k + 3, k), (k, k + 3)):  # the systems of the direct and Woodbury paths
                a = tb.make_gaussian_map(m, (d, 1, 1), seed=k).a
                src = a if m < d else a.T
                dense = scipy.linalg.cho_factor(src @ src.T + np.eye(k))
                factor = solve_module._blocks(solve_module._factor(src))
                for b in RNG.standard_normal((3, k)):
                    oracle = scipy.linalg.cho_solve(dense, b)
                    got = solve_module._cho_solve(factor, b)
                    assert np.abs(got - oracle).max() <= 1e-13 * np.abs(oracle).max()


def _factor_peak():
    # the grid of a k x k system, k = 3T, holds (k^2 + k T) / 2 doubles, and
    # no step copies a tile
    tile = 128
    k = 3 * tile
    src = tb.make_gaussian_map(k + 10, (k, 1, 1), seed=4).a.T
    tracemalloc.start()
    try:
        solve_module._factor(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, 8 * (k * k + k * tile) / 2


def test_factor_holds_half_the_system(monkeypatch):
    monkeypatch.setattr(solve_module, "_TILE", 128)
    peak, half = _factor_peak()
    assert peak <= 1.05 * half


@pytest.mark.parametrize("cpus", [1, 2, 3, 4, 6, 8])
def test_factor_holds_half_the_system_on_threads(monkeypatch, cpus):
    # however many threads share a step, none copies a tile
    monkeypatch.setattr(tensor, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(tensor, "_PARALLEL_MIN", 0)
    monkeypatch.setattr(solve_module, "_TILE", 128)
    peak, half = _factor_peak()
    assert peak <= 1.05 * half


def test_completion_holds_no_stack_of_left_vectors(monkeypatch):
    # every SVT call that is not zero takes the full path (slices below
    # _MIN_SIDE) and keeps a small rank.  Beside x, the observed data and
    # its duals, a call holds its input, the spectrum F, which the SVD's
    # left vectors and then the rebuilt slices overwrite, and V^H: measured
    # 7.1 tensors of n1 n2 n3 doubles; a stack of left vectors or of rebuilt
    # slices beside F adds more than one (8.5 measured)
    monkeypatch.setattr(tensor, "_cpu_count", lambda: 1)
    monkeypatch.setattr(tsvd_module, "_SVD_BATCH", 1)  # one slice per LAPACK call
    dims = (30, 30, 16)
    m_full = tb.rand_low_tubal(*dims, 2, seed=1, scale="inv_n")
    mask = tb.make_bernoulli_mask(dims, 0.6, seed=2)
    tb.solve_completion(mask, m_full)  # numpy's lazy imports are not the solve's
    tracemalloc.start()
    try:
        xhat, report = tb.solve_completion(mask, m_full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged and report.svt_paths["truncated"] == 0
    assert report.svt_paths["full"] > 0 and tb.rel_error(xhat, m_full) <= 1e-6
    assert peak <= 7.5 * 8 * np.prod(dims)


def test_full_rank_completion_holds_no_copy_of_right_vectors(monkeypatch):
    # every Fourier slice of the data is one orthogonal matrix, so each SVT
    # call that is not zero keeps every column of every slice.  The state
    # then keeps V^H itself, conjugated in place: measured 9.5 tensors of
    # n1 n2 n3 doubles; a conjugate copy of V^H beside it adds 0.7 (10.3
    # measured)
    monkeypatch.setattr(tensor, "_cpu_count", lambda: 1)
    monkeypatch.setattr(tsvd_module, "_SVD_BATCH", 1)
    dims = (30, 30, 8)
    m_full = np.zeros(dims)
    m_full[:, :, 0] = np.linalg.qr(np.random.default_rng(5).standard_normal(dims[:2]))[0]
    mask = tb.make_bernoulli_mask(dims, 1.0, seed=2)
    tb.solve_completion(mask, m_full)
    tracemalloc.start()
    try:
        xhat, report = tb.solve_completion(mask, m_full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged and report.svt_paths["full"] > 0
    assert tb.tubal_rank(xhat) == 30 and tb.rel_error(xhat, m_full) <= 1e-6
    assert peak <= 9.9 * 8 * np.prod(dims)


def test_gaussian_rejects_empty_tensor():
    with pytest.raises(EmptyTensor):
        tb.solve_gaussian(tb.make_gaussian_map(3, (0, 3, 2), 0), np.zeros(3))


def test_completion_rejects_empty_tensor():
    with pytest.raises(EmptyTensor):
        tb.solve_completion(tb.make_bernoulli_mask((0, 3, 2), 0.5, seed=0),
                            np.zeros((0, 3, 2)))


def test_gaussian_not_converged_report():
    x0 = tb.rand_low_tubal(4, 4, 2, 1, seed=3)
    gmap = tb.make_gaussian_map(43, (4, 4, 2), seed=5)
    cfg = AdmmConfig(max_iter=3)
    xhat, report = tb.solve_gaussian(gmap, tb.apply_map(gmap, x0), cfg)
    assert not report.converged and report.iterations == 3
    assert np.isfinite(xhat).all()


def test_gaussian_deterministic_and_history():
    x0 = tb.rand_low_tubal(3, 3, 2, 1, seed=21)
    gmap = tb.make_gaussian_map(25, (3, 3, 2), seed=22)
    y = tb.apply_map(gmap, x0)
    cfg = AdmmConfig(record_history=True)
    x1, r1 = tb.solve_gaussian(gmap, y, cfg)
    x2, r2 = tb.solve_gaussian(gmap, y, cfg)
    assert np.array_equal(x1, x2)
    assert r1.iterations == r2.iterations
    assert len(r1.history) == r1.iterations
    for row1, row2 in zip(r1.history, r2.history):
        assert row1 == row2
    # slices below the sketch's minimum side: the exact zero (from the norms,
    # or from the singular values while no vectors are kept), then the full SVD
    assert r1.svt_paths == {"zero": 61, "truncated": 0, "full": 89}
    mus = [row["mu"] for row in r1.history]
    cfg0 = AdmmConfig()
    assert mus == [min(cfg0.mu0 * cfg0.rho ** k, cfg0.mu_max)
                   for k in range(r1.iterations)]


def test_completion_fully_observed():
    m_full = tb.rand_low_tubal(8, 8, 4, 2, seed=31, scale="inv_n")
    mask = tb.make_bernoulli_mask((8, 8, 4), 1.0, seed=32)
    xhat, report = tb.solve_completion(mask, tb.proj_omega(mask, m_full))
    assert report.converged
    assert tb.rel_error(xhat, m_full) <= 1e-6


def test_completion_small_exact_recovery():
    m_full = tb.rand_low_tubal(20, 20, 10, 2, seed=41, scale="inv_n")
    mask = tb.make_bernoulli_mask((20, 20, 10), 0.7, seed=42)
    xhat, report = tb.solve_completion(mask, tb.proj_omega(mask, m_full))
    assert report.converged
    assert tb.rel_error(xhat, m_full) <= 1e-5
    assert tb.tubal_rank(xhat, 1e-3) == 2
    assert tb.tnn(xhat) <= tb.tnn(m_full) * (1 + 1e-6)


def test_completion_unobserved_entries_ignored():
    # the solver reads only observed entries, so garbage elsewhere changes nothing
    m_full = tb.rand_low_tubal(10, 10, 4, 1, seed=51, scale="inv_n")
    mask = tb.make_bernoulli_mask((10, 10, 4), 0.8, seed=52)
    clean = tb.proj_omega(mask, m_full)
    dirty = clean + tb.proj_omega_c(mask, np.full((10, 10, 4), 9.0))
    x1, _ = tb.solve_completion(mask, clean)
    x2, _ = tb.solve_completion(mask, dirty)
    assert np.array_equal(x1, x2)


def test_completion_dim_mismatch():
    mask = tb.make_bernoulli_mask((3, 3, 3), 0.5, seed=0)
    with pytest.raises(DimMismatch):
        tb.solve_completion(mask, np.zeros((3, 3, 4)))


def test_completion_residual_names_and_history():
    m_full = tb.rand_low_tubal(6, 6, 3, 1, seed=61, scale="inv_n")
    mask = tb.make_bernoulli_mask((6, 6, 3), 0.9, seed=62)
    m_obs = tb.proj_omega(mask, m_full)
    cfg = AdmmConfig(record_history=True)
    _, report = tb.solve_completion(mask, m_obs, cfg)
    assert set(report.residuals) == {"res_x", "res_e", "res_feas"}
    assert report.converged
    assert all(v <= cfg.eps for v in report.residuals.values())
    assert len(report.history) == report.iterations
    # the residuals of a run capped at k, against the iterates at k - 1 and k
    k = report.iterations // 2
    x_prev, _ = tb.solve_completion(mask, m_obs, AdmmConfig(max_iter=k - 1))
    x, capped = tb.solve_completion(mask, m_obs, AdmmConfig(max_iter=k))
    change = np.abs(x - x_prev)
    assert capped.residuals["res_x"] == change.max()
    assert capped.residuals["res_e"] == change[~mask.observed].max() > 0
    assert capped.residuals["res_feas"] == np.abs(x - m_full)[mask.observed].max() > 0
    # nothing is unobserved at p = 1
    full = tb.make_bernoulli_mask((6, 6, 3), 1.0, seed=62)
    _, capped = tb.solve_completion(full, m_full, AdmmConfig(max_iter=k))
    assert capped.residuals["res_e"] == 0.0 < capped.residuals["res_x"]


def _completion_problem(dims, r, p, seed):
    if r is None:  # full tubal rank
        m_full = np.random.default_rng(seed).standard_normal(dims)
    else:
        m_full = tb.rand_low_tubal(*dims, r, seed=seed, scale="inv_n")
    return m_full, tb.make_bernoulli_mask(dims, p, seed=seed + 1)


def _completion(dims, r, p, seed):
    m_full, mask = _completion_problem(dims, r, p, seed)
    xhat, report = tb.solve_completion(mask, tb.proj_omega(mask, m_full))
    assert sum(report.svt_paths.values()) == report.iterations
    return m_full, xhat, report


def test_completion_svt_paths():
    m_full, xhat, report = _completion((64, 64, 32), 3, 0.5, seed=71)
    assert report.converged and tb.rel_error(xhat, m_full) <= 1e-6
    assert report.svt_paths["zero"] > 0 and report.svt_paths["truncated"] > 0
    # slices below the minimum side, and a spectrum with no gap, stay on the full SVD
    for dims, r, p in [((20, 20, 5), 2, 0.7), ((40, 40, 4), None, 0.9)]:
        _, _, report = _completion(dims, r, p, seed=73)
        assert report.svt_paths["truncated"] == 0 and report.svt_paths["full"] > 0


def test_completion_iterations_match_full_svd(monkeypatch):
    rows = [(50, 50, 3, 0.47), (50, 50, 5, 0.57)]
    adaptive = tb.run_table2(rows)
    monkeypatch.setattr(tsvd_module, "_MIN_SIDE", 10 ** 9)
    full = tb.run_table2(rows)
    for a, b in zip(adaptive, full):
        assert a["iterations"] == b["iterations"]
        assert a["rel_error"] == pytest.approx(b["rel_error"], rel=1e-3)


def _reference_solve_completion(mask, m_obs, cfg):
    """The step with an explicit slack tensor e and a full-size dual."""
    m_obs = tb.proj_omega(mask, m_obs)
    x, e, dual = (np.zeros(mask.dims) for _ in range(3))

    def step(mu, svt_state):
        nonlocal x, e, dual
        scaled_dual = dual / mu
        x_new, objective = _svt_freq(m_obs - e + scaled_dual, 1.0 / mu, svt_state)
        e_new = tb.proj_omega_c(mask, m_obs - x_new + scaled_dual)
        gap = m_obs - x_new - e_new
        dual = dual + mu * gap
        residuals = {
            "res_x": float(np.abs(x_new - x).max()),
            "res_e": float(np.abs(e_new - e).max()),
            "res_feas": float(np.abs(gap).max()),
        }
        x, e = x_new, e_new
        return x, objective, residuals

    return _admm(cfg, step, time.perf_counter())


def _spy_svt_calls(monkeypatch):
    """Record (scaled, zero, above) for every SVT call of solve_completion:
    scaled is True for the calls of the scaled zero phase, zero says whether
    the call returned the exact zero, and above whether the largest slice
    norm of its input (scaled, in the phase) exceeds tau, so that only the
    singular values can make it zero."""
    calls = []
    phase = tsvd_module._ScaledZero.__call__

    def phase_spy(self, c, tau, state):
        zero = phase(self, c, tau, state)
        calls.append((True, zero, c * self.top > tau))
        return zero

    def svt_spy(y, tau, state, out=None):
        zeros = state.paths["zero"]
        top = tsvd_module._slice_norms(tsvd_module._rfft3(y)).max()  # out may be y
        result = _svt_freq(y, tau, state, out=out)
        calls.append((False, state.paths["zero"] > zeros, bool(top > tau)))
        return result

    monkeypatch.setattr(tsvd_module._ScaledZero, "__call__", phase_spy)
    monkeypatch.setattr(solve_module, "_svt_freq", svt_spy)
    return calls


@pytest.mark.parametrize("dims, r, p, settings", [
    ((64, 64, 32), 3, 0.5, {}),  # zero, truncated and full SVT calls
    ((20, 20, 5), 2, 1.0, {}),  # nothing unobserved
    ((12, 12, 4), None, 0.9, {}),  # full tubal rank
    ((20, 20, 5), 2, 0.7, {"max_iter": 3, "mu0": 1.0}),  # stopped at the cap, x nonzero
    # a zero phase whose zero calls the scaled singular values settle, not
    # the scaled norms, on slices of at least _MIN_SIDE
    ((36, 36, 3), None, 0.5, {}),
])
@pytest.mark.parametrize("record_history", [True, False])
def test_completion_step_matches_slack_tensor_step(monkeypatch, dims, r, p, settings,
                                                   record_history):
    m_full, mask = _completion_problem(dims, r, p, seed=71)
    m_obs = tb.proj_omega(mask, m_full)
    cfg = AdmmConfig(record_history=record_history, **settings)
    calls = _spy_svt_calls(monkeypatch)
    x1, r1 = tb.solve_completion(mask, m_obs, cfg)
    scaled = [call for call in calls if call[0]]
    x2, r2 = _reference_solve_completion(mask, m_obs, cfg)
    assert x1.tobytes() == x2.tobytes() and np.abs(x1).max() > 0
    fields = ("iterations", "converged", "residuals", "mu_final", "objective",
              "history", "svt_paths")
    assert [getattr(r1, f) for f in fields] == [getattr(r2, f) for f in fields]
    if dims == (64, 64, 32):
        assert min(r1.svt_paths.values()) > 0
    if dims == (36, 36, 3):
        assert scaled.count((True, True, True)) >= 5


@pytest.mark.parametrize("margin, settled_by", [
    (0.8, "norm test"),  # the margin reaches tau while the scaled norm is below it
    (0.01, "values first"),  # the scaled norm is above tau: the singular values decide
])
def test_scaled_zero_inside_the_margin_runs_the_exact_call(monkeypatch, margin, settled_by):
    # a scaled top singular value within the margin of tau hands the call,
    # and every later one, to _svt_freq on the exact input; results stay
    # bitwise
    m_full, mask = _completion_problem((36, 36, 3), None, 0.5, seed=71)
    m_obs = tb.proj_omega(mask, m_full)
    x1, r1 = tb.solve_completion(mask, m_obs)
    monkeypatch.setattr(tsvd_module, "_SCALED_MARGIN", margin)
    calls = _spy_svt_calls(monkeypatch)
    x2, r2 = tb.solve_completion(mask, m_obs)
    assert x2.tobytes() == x1.tobytes() and r2.svt_paths == r1.svt_paths
    assert r2.iterations == r1.iterations and r2.residuals == r1.residuals
    handed = [i for i, call in enumerate(calls) if call[0] and not call[1]]
    assert len(handed) == 1 and not any(call[0] for call in calls[handed[0] + 1:])
    # the exact call is a zero call too: the norm test settles it, or a full
    # SVD that keeps nothing
    assert calls[handed[0] + 1] == (False, True, settled_by == "values first")
