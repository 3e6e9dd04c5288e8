"""Experiment harness: formulas, incoherence, tangent projections, grids."""

import numpy as np
import pytest

import tubal as tb
from tubal.errors import (
    EmptyTensor,
    InvalidEpsilon,
    InvalidParameter,
    InvalidRank,
    InvalidRate,
    MapTooLarge,
    TooLarge,
    ZeroMeasurements,
)

RNG = np.random.default_rng(5150)


def test_size_rule_raises_before_allocating():
    # 2**45 entries, or a 2**38-value map: every check raises before the
    # array is made
    big = (2 ** 15, 2 ** 15, 2 ** 15)
    with pytest.raises(TooLarge):
        tb.rand_low_tubal(*big, 1, 0)
    with pytest.raises(TooLarge):
        tb.make_bernoulli_mask(big, 0.5, 0)
    with pytest.raises(TooLarge):
        tb.phase_grid("completion", big, [0.5], [1], 1)
    with pytest.raises(MapTooLarge):
        tb.phase_grid("gaussian", (64, 64, 64), [10, 2 ** 20], [1], 1)
    with pytest.raises(TooLarge):
        tb.identity(2 ** 15, 2 ** 15)
    with pytest.raises(TooLarge):
        tb.unit_basis(0, 0, 0, big)
    assert issubclass(MapTooLarge, TooLarge)


def test_rand_low_tubal_rank_and_determinism():
    for r in (1, 2, 3):
        x = tb.rand_low_tubal(10, 10, 5, r, seed=100 + r)
        assert tb.tubal_rank(x, 1e-6) == r
    full = tb.rand_low_tubal(4, 6, 3, 4, seed=7)
    assert tb.tubal_rank(full, 1e-6) == 4
    a = tb.rand_low_tubal(5, 5, 3, 2, seed=1)
    b = tb.rand_low_tubal(5, 5, 3, 2, seed=1)
    assert np.array_equal(a, b)
    with pytest.raises(InvalidRank):
        tb.rand_low_tubal(4, 4, 2, 0, seed=0)
    with pytest.raises(InvalidRank):
        tb.rand_low_tubal(4, 4, 2, 5, seed=0)


@pytest.mark.parametrize("formula, low", [
    (lambda r: tb.rand_low_tubal(4, 4, 2, r, seed=0), 1),
    (lambda r: tb.dof(4, 4, 2, r), 0),
    (lambda r: tb.gaussian_bound(4, 4, 2, r), 1),
    (lambda r: tb.robust_bound(4, 4, 2, r, epsilon=0.5), 1),
    (lambda r: tb.completion_rate_bound(4, 4, 2, r, mu=1.0, c0=1.0), 1),
])
def test_rank_rules_are_shared(formula, low):
    # every generator and formula takes a whole rank in [low, min(n1, n2)]
    for r in (low - 1, 1.5, 9, float("nan")):
        with pytest.raises(InvalidRank):
            formula(r)
    assert np.array_equal(formula(2.0), formula(2))


def test_table_rows_with_a_fractional_rank_or_count_record_an_error():
    rows = tb.run_table1([(4, 2, 1.5, 43), (4, 2, 1, 30.5), (4.5, 2, 1, 43), (4, 2.5, 1, 43)])
    assert rows[0]["error"] == "InvalidRank: rank 1.5 is not a whole number"
    assert rows[1]["error"].startswith("InvalidParameter: ")
    assert rows[2]["error"] == "InvalidParameter: tensor dimension 4.5 is not a whole number"
    assert rows[3]["error"] == "InvalidParameter: tensor dimension 2.5 is not a whole number"


def test_table_rows_with_whole_floats_draw_the_trials_of_the_ints():
    ints = tb.run_table1([(4, 2, 1, 20)], base_seed=3)
    assert tb.run_table1([(4, 2, 1.0, 20)], base_seed=3) == ints
    assert tb.run_table1([(4, 2, 1, 20.0)], base_seed=3) == ints
    assert ints[0]["rank_estimate"] == 1
    assert tb.run_table1([(4.0, 2.0, 1, 20)], base_seed=3) == ints
    rates = tb.run_table2([(6, 3, 1, 0.9)], base_seed=3)
    assert tb.run_table2([(6, 3, 1.0, 0.9)], base_seed=3) == rates
    assert tb.run_table2([(6.0, 3.0, 1, 0.9)], base_seed=3) == rates


@pytest.mark.parametrize("formula", [
    lambda n: tb.rand_low_tubal(n, 4, 2, 1, seed=0).tobytes(),
    lambda n: tb.dof(n, 4, 2, 1),
    lambda n: tb.gaussian_bound(n, 4, 2, 1),
    lambda n: tb.robust_bound(n, 4, 2, 1, epsilon=0.5),
    lambda n: tb.completion_rate_bound(n, 4, 2, 1, mu=1.0, c0=1.0),
])
def test_dimensions_are_whole_numbers(formula):
    # every generator and formula takes whole dimensions; 4.0 gives the result of 4
    for n in (4.5, float("nan"), float("inf")):
        with pytest.raises(InvalidParameter):
            formula(n)
    assert formula(4.0) == formula(4) and type(formula(4.0)) is type(formula(4))


def test_rand_low_tubal_rejects_empty_shape_and_bad_scale():
    for dims in [(4, 4, 0), (0, 4, 2), (4, 4, -1)]:
        with pytest.raises(EmptyTensor):
            tb.rand_low_tubal(*dims, 1, seed=0)
    with pytest.raises(EmptyTensor):
        tb.phase_grid("gaussian", (4, 4, 0), values=[10], ranks=[1], trials=1)
    with pytest.raises(InvalidParameter):
        tb.rand_low_tubal(4, 4, 2, 1, seed=0, scale="bogus")


def test_rand_low_tubal_scales_differ():
    # factor entries have variance 1 (unit) vs 1/n (inv_n), so the product
    # entries shrink by a factor n = 30
    a = tb.rand_low_tubal(30, 30, 4, 2, seed=9, scale="unit")
    b = tb.rand_low_tubal(30, 30, 4, 2, seed=9, scale="inv_n")
    assert np.std(a) / np.std(b) == pytest.approx(30.0, rel=0.2)


def test_dof_values():
    assert tb.dof(10, 10, 5, 2) == 180
    assert tb.dof(50, 50, 50, 3) == 14550
    assert tb.dof(7, 9, 2, 0) == 0


def test_gaussian_bound_values():
    assert tb.gaussian_bound(10, 10, 5, 2) == 541
    assert tb.gaussian_bound(20, 20, 5, 4) == 2161
    assert tb.gaussian_bound(30, 30, 5, 6) == 4861


def test_robust_bound():
    exact = tb.gaussian_bound(10, 10, 5, 2)
    nearly = tb.robust_bound(10, 10, 5, 2, epsilon=1e-9)
    assert nearly in (exact, exact + 1)
    assert tb.robust_bound(10, 10, 5, 2, epsilon=0.5) == int(np.ceil((3 * 180 + 1.5) / 0.25))
    with pytest.raises(InvalidEpsilon):
        tb.robust_bound(10, 10, 5, 2, epsilon=1.0)


def test_completion_rate_bound_scaling():
    base = tb.completion_rate_bound(40, 40, 10, 2, mu=1.5, c0=0.25)
    assert tb.completion_rate_bound(40, 40, 10, 4, mu=1.5, c0=0.25) == pytest.approx(2 * base)
    square = tb.completion_rate_bound(40, 40, 10, 2, mu=1.5, c0=0.25)
    explicit = 0.25 * 1.5 * 2 * np.log(40 * 10) ** 2 / (40 * 10)
    assert square == pytest.approx(explicit)


def test_completion_rate_bound_golden_sweep():
    golden = {
        0.1: 0.014691767035199104,
        0.25: 0.03672941758799775,
        0.5: 0.0734588351759955,
        1.0: 0.146917670351991,
    }
    for c0, expected in golden.items():
        assert tb.completion_rate_bound(50, 50, 50, 3, mu=2.0, c0=c0) == expected
    assert tb.completion_rate_bound(40, 60, 10, 2, mu=1.5, c0=0.25) == \
        0.07672632940084456


def test_incoherence_closed_forms():
    for n, n3 in [(4, 2), (6, 3)]:
        fac = tb.tsvd(tb.identity(n, n3), mode="skinny", k=n)
        assert tb.incoherence(fac) == pytest.approx(n3)
    u = tb.unit_basis(0, 0, 0, (4, 5, 3))
    fac = tb.tsvd(u, mode="skinny", k=1)
    assert tb.incoherence(fac) == pytest.approx(max(4 * 3, 5 * 3))


def test_incoherence_at_least_one():
    for t in range(5):
        a = tb.rand_low_tubal(8, 6, 4, 2, seed=200 + t)
        fac = tb.tsvd(a, mode="skinny")
        assert tb.incoherence(fac) >= 1.0 - 1e-9


def test_incoherence_matches_direct_tprod():
    a = tb.rand_low_tubal(6, 5, 3, 2, seed=77)
    fac = tb.tsvd(a, mode="skinny")
    r = fac.k
    mu_direct = 0.0
    for i in range(6):
        e = tb.column_basis(i, 6, 3)
        energy = np.linalg.norm(tb.tprod(tb.ctranspose(fac.u), e)) ** 2
        mu_direct = max(mu_direct, (6 * 3 / r) * energy)
    for j in range(5):
        e = tb.column_basis(j, 5, 3)
        energy = np.linalg.norm(tb.tprod(tb.ctranspose(fac.v), e)) ** 2
        mu_direct = max(mu_direct, (5 * 3 / r) * energy)
    assert tb.incoherence(fac) == pytest.approx(mu_direct)


def test_proj_t_fixes_source_tensor():
    m = tb.rand_low_tubal(6, 6, 4, 2, seed=88)
    fac = tb.tsvd(m, mode="skinny")
    assert np.linalg.norm(tb.proj_t(fac, m) - m) <= 1e-9 * np.linalg.norm(m)
    assert np.linalg.norm(tb.proj_t_perp(fac, m)) <= 1e-9 * np.linalg.norm(m)


def test_proj_t_idempotent_orthogonal():
    m = tb.rand_low_tubal(6, 5, 3, 2, seed=89)
    fac = tb.tsvd(m, mode="skinny")
    for t in range(5):
        z = np.random.default_rng(890 + t).standard_normal((6, 5, 3))
        pz = tb.proj_t(fac, z)
        assert np.linalg.norm(tb.proj_t(fac, pz) - pz) <= 1e-9 * max(np.linalg.norm(pz), 1.0)
        assert abs(tb.inner(pz, tb.proj_t_perp(fac, z))) <= 1e-9 * np.linalg.norm(z) ** 2


def test_tangent_projection_unit_bound():
    # ||P_T(e_ijk)||_F^2 <= mu * r * (n1 + n2) / (n1 * n2), square case 2*mu*r/n
    n, n3, r = 6, 3, 2
    m = tb.rand_low_tubal(n, n, n3, r, seed=90)
    fac = tb.tsvd(m, mode="skinny")
    mu = tb.incoherence(fac)
    bound = 2 * mu * r / n
    for i in range(n):
        for j in range(n):
            for k in range(n3):
                e = tb.unit_basis(i, j, k, (n, n, n3))
                assert np.linalg.norm(tb.proj_t(fac, e)) ** 2 <= bound + 1e-9


def test_rel_error_and_psnr():
    x = RNG.standard_normal((3, 3, 2))
    assert tb.rel_error(x, x) == 0.0
    assert tb.psnr(x, x) == float("inf")
    assert tb.rel_error(2 * x, np.zeros_like(x)) == float("inf")
    assert tb.rel_error(3.0 * (x + 0.1), 3.0 * x) == pytest.approx(
        tb.rel_error(x + 0.1, x))
    m = np.full((2, 2, 2), 0.0)
    m[0, 0, 0] = 1.0
    xhat = m + 0.1
    assert tb.psnr(xhat, m) == pytest.approx(20.0)
    zero = np.zeros((2, 2, 2))
    assert tb.psnr(np.ones((2, 2, 2)), zero) == float("-inf")
    assert tb.psnr(zero, zero) == float("inf")


@pytest.mark.parametrize("e", [-700, 530, 660, 1000])
def test_rel_error_scales_exactly_where_squares_leave_the_float_range(e):
    # 2**e-scaled entries whose squares underflow (e = -700) or overflow
    x = RNG.standard_normal((3, 3, 2))
    big = np.ldexp(x, e)
    assert tb.rel_error(np.ldexp(x + 0.1, e), big) == tb.rel_error(x + 0.1, x)
    assert tb.rel_error(np.zeros_like(x), big) == 1.0
    assert tb.rel_error(-big, big) == 2.0


def test_run_table1_empty_and_error_rows():
    assert tb.run_table1([]) == []
    rows = tb.run_table1([(4, 2, 9, 10)])  # rank 9 > min dim: recorded, not raised
    assert "error" in rows[0]


def test_drivers_propagate_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("solver bug")

    monkeypatch.setattr("tubal.lab.solve_gaussian", broken)
    monkeypatch.setattr("tubal.lab.solve_completion", broken)
    with pytest.raises(TypeError):
        tb.run_table1([(4, 2, 1, 43)])
    with pytest.raises(TypeError):
        tb.run_table2([(4, 2, 1, 0.9)])
    with pytest.raises(TypeError):
        tb.phase_grid("completion", (4, 4, 2), values=[0.9], ranks=[1], trials=1)


def _no_trial(*_, **__):
    raise AssertionError("a trial started")


@pytest.mark.parametrize("kind, values, error", [
    ("completion", [0.5, 2.0], InvalidRate),
    ("completion", [0.0], InvalidRate),
    ("completion", [float("nan")], InvalidRate),
    ("gaussian", [40, 0], ZeroMeasurements),
    ("gaussian", [float("nan")], ZeroMeasurements),
    ("gaussian", [float("inf")], ZeroMeasurements),
])
def test_phase_grid_checks_values_before_any_trial(monkeypatch, kind, values, error):
    monkeypatch.setattr("tubal.lab._trial", _no_trial)
    with pytest.raises(error):
        tb.phase_grid(kind, (4, 4, 2), values=values, ranks=[1], trials=1)


@pytest.mark.parametrize("kwargs, error", [
    ({"threshold": float("nan")}, InvalidParameter),
    ({"threshold": float("inf")}, InvalidParameter),
    ({"threshold": -1e-3}, InvalidParameter),
    ({"ranks": [1, 9]}, InvalidRank),
    ({"ranks": [0]}, InvalidRank),
    ({"ranks": [1.5]}, InvalidRank),
    ({"kind": "gaussian", "values": [32, 30.9]}, InvalidParameter),
    ({"trials": 1.5}, InvalidParameter),
    ({"dims": (4.7, 4, 2)}, InvalidParameter),
    ({"dims": (4, 4, float("nan"))}, InvalidParameter),
])
def test_phase_grid_checks_arguments_before_any_trial(monkeypatch, kwargs, error):
    args = {"kind": "completion", "dims": (4, 4, 2), "values": [0.9], "ranks": [1],
            "trials": 2, **kwargs}
    monkeypatch.setattr("tubal.lab._trial", _no_trial)
    with pytest.raises(error):
        tb.phase_grid(**args)


def test_phase_grid_runs_whole_float_counts():
    # a whole count given as a float runs, and records the m it used
    whole = tb.phase_grid("gaussian", (4, 4, 2), values=[32.0], ranks=[1],
                          trials=1, base_seed=5)
    plain = tb.phase_grid("gaussian", (4, 4, 2), values=[32], ranks=[1],
                          trials=1, base_seed=5)
    assert whole.cells == plain.cells and whole.cells[0].m_or_p == 32.0


def test_phase_grid_runs_whole_float_ranks_as_ints():
    # a whole rank given as a float runs the trials of the int rank
    whole = tb.phase_grid("gaussian", (4, 4, 2), values=[20], ranks=[1.0],
                          trials=3, base_seed=5)
    plain = tb.phase_grid("gaussian", (4, 4, 2), values=[20], ranks=[1],
                          trials=3, base_seed=5)
    assert whole.cells == plain.cells and whole.ranks == [1]
    # and so do whole dimensions and trial counts
    whole = tb.phase_grid("gaussian", (4.0, 4, 2.0), values=[20], ranks=[1],
                          trials=3.0, base_seed=5)
    assert whole.cells == plain.cells and whole.dims == (4, 4, 2) and whole.trials == 3


def test_run_table1_small_row():
    rows = tb.run_table1([(4, 2, 1, tb.gaussian_bound(4, 4, 2, 1))], base_seed=3)
    row = rows[0]
    assert row["converged"] and row["rank_estimate"] == 1
    assert row["rel_error"] <= 1e-5


def test_run_table2_small_row():
    rows = tb.run_table2([(10, 6, 1, 0.8)], base_seed=4)
    row = rows[0]
    assert row["converged"] and row["rank_estimate"] == 1
    assert row["rel_error"] <= 1e-5


def test_phase_grid_full_measurement_cell():
    d = 4 * 4 * 2
    grid = tb.phase_grid("gaussian", (4, 4, 2), values=[d], ranks=[1],
                         trials=2, base_seed=5)
    assert grid.cells[0].successes == 2
    assert grid.cells[0].success_rate == 1.0


def test_phase_grid_under_information_limit_fails():
    # fewer measurements than degrees of freedom: no trial can succeed
    d = tb.dof(12, 12, 3, 3)
    grid = tb.phase_grid("gaussian", (12, 12, 3), values=[d - 50], ranks=[3],
                         trials=5, base_seed=12)
    assert grid.cells[0].successes == 0


def test_phase_grid_success_monotone_in_m():
    n, n3, r = 20, 3, 2
    d, mb = tb.dof(n, n, n3, r), tb.gaussian_bound(n, n, n3, r)
    values = [d - 50, d + 100, (d + mb) // 2, mb]
    grid = tb.phase_grid("gaussian", (n, n, n3), values=values, ranks=[r],
                         trials=5, base_seed=1)
    rates = [c.success_rate for c in grid.cells]
    assert all(a <= b for a, b in zip(rates, rates[1:]))
    assert rates[0] == 0.0 and rates[-1] == 1.0


def test_phase_grid_deterministic():
    g1 = tb.phase_grid("completion", (8, 8, 4), values=[0.9], ranks=[1],
                       trials=3, base_seed=6)
    g2 = tb.phase_grid("completion", (8, 8, 4), values=[0.9], ranks=[1],
                       trials=3, base_seed=6)
    assert g1.cells[0].successes == g2.cells[0].successes
    assert g1.cells[0].mean_rel_err == g2.cells[0].mean_rel_err


def test_phase_grid_validation():
    with pytest.raises(ValueError):
        tb.phase_grid("nope", (4, 4, 2), [8], [1], trials=1)
    with pytest.raises(ValueError):
        tb.phase_grid("gaussian", (4, 4, 2), [], [1], trials=1)
    with pytest.raises(ValueError):
        tb.phase_grid("gaussian", (4, 4, 2), [8], [1], trials=0)
