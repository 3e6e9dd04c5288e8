"""Spectral toolkit: factorization quality, norm identities, thresholding."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tubal as tb
from tubal.errors import (
    EmptyTensor,
    InvalidParameter,
    NegativeThreshold,
    NonFiniteValues,
)

# the package exports the function tsvd under the module's name
tsvd_module = importlib.import_module("tubal.tsvd")

def _rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


@pytest.mark.parametrize("shape", [(4, 4, 3), (5, 3, 4), (3, 6, 1), (2, 2, 5), (6, 5, 2),
                                   (3, 5, 6)])
def test_tsvd_reconstruction_and_orthogonality(shape):
    a = _rand(shape, sum(shape))
    f = tb.tsvd(a)
    assert np.linalg.norm(f.compose() - a) <= 1e-9 * np.linalg.norm(a)
    n3 = shape[2]
    i_k = tb.identity(f.k, n3)
    assert np.linalg.norm(tb.tprod(tb.ctranspose(f.u), f.u) - i_k) <= 1e-9
    assert np.linalg.norm(tb.tprod(tb.ctranspose(f.v), f.v) - i_k) <= 1e-9


def test_tsvd_f_diagonal_and_ordering():
    a = _rand((5, 4, 3), 9)
    f = tb.tsvd(a)
    for k in range(3):
        s_slice = f.s[:, :, k]
        assert np.abs(s_slice - np.diag(np.diag(s_slice))).max() <= 1e-12
    spec = f.spectrum
    assert np.all(spec >= -1e-12)
    assert np.all(np.diff(spec) <= 1e-12)


def test_tsvd_identity_tensor():
    f = tb.tsvd(tb.identity(3, 2))
    assert np.allclose(f.spectrum, np.ones(3))
    assert np.linalg.norm(f.compose() - tb.identity(3, 2)) <= 1e-12


def test_tsvd_matrix_reduction():
    m = _rand((4, 3, 1), 31)
    f = tb.tsvd(m)
    ref = np.linalg.svd(m[:, :, 0], compute_uv=False)
    assert np.abs(f.spectrum - ref).max() <= 1e-10


def test_tsvd_skinny_truncates_to_rank():
    a = tb.rand_low_tubal(5, 5, 4, 2, seed=17)
    f = tb.tsvd(a, mode="skinny")
    assert f.k == 2
    assert np.linalg.norm(f.compose() - a) <= 1e-9 * np.linalg.norm(a)
    i_k = tb.identity(2, 4)
    assert np.linalg.norm(tb.tprod(tb.ctranspose(f.u), f.u) - i_k) <= 1e-9
    assert np.linalg.norm(tb.tprod(tb.ctranspose(f.v), f.v) - i_k) <= 1e-9
    full = tb.tsvd(a)
    assert full.spectrum[2] <= 1e-9 * full.spectrum[0]


def test_tsvd_rejects_bad_mode_and_tolerance():
    a = tb.rand_low_tubal(5, 5, 3, 2, seed=1)
    for kwargs in [{"mode": "thin"}, {"mode": "skinny", "rank_tol": 1.5},
                   {"mode": "skinny", "rank_tol": -1}]:
        with pytest.raises(InvalidParameter):
            tb.tsvd(a, **kwargs)


def test_tsvd_skinny_zero_tensor():
    f = tb.tsvd(np.zeros((3, 4, 2)), mode="skinny")
    assert f.k == 0 and f.spectrum.size == 0
    assert np.abs(f.compose()).max() == 0.0


def test_tsvd_compose_odd_n3():
    a = _rand((4, 4, 5), 73)
    f = tb.tsvd(a)
    assert np.linalg.norm(f.compose() - a) <= 1e-9 * np.linalg.norm(a)


def test_tubal_rank_cases():
    assert tb.tubal_rank(np.zeros((3, 3, 2))) == 0
    assert tb.tubal_rank(tb.identity(4, 3)) == 4
    for r in (1, 2, 3):
        a = tb.rand_low_tubal(10, 10, 5, r, seed=40 + r)
        assert tb.tubal_rank(a, 1e-6) == r


def test_tnn_identity_and_matrix_cases():
    for n, n3 in [(2, 1), (3, 4), (5, 2)]:
        assert abs(tb.tnn(tb.identity(n, n3)) - n) <= 1e-12
    d = np.zeros((2, 2, 1))
    d[0, 0, 0], d[1, 1, 0] = 3.0, 1.0
    assert abs(tb.tnn(d) - 4.0) <= 1e-12


def test_tnn_matches_bdiag_oracle():
    a = _rand((4, 5, 3), 55)
    oracle = np.linalg.svd(tb.bdiag(tb.fft_dim3(a)), compute_uv=False).sum() / 3
    assert abs(tb.tnn(a) - oracle) <= 1e-10 * oracle


def test_spectral_norm_cases():
    assert abs(tb.spectral_norm(tb.identity(4, 3)) - 1.0) <= 1e-12
    a = np.zeros((3, 3, 2))
    a[1, 2, 0] = 7.0
    assert abs(tb.spectral_norm(a) - 7.0) <= 1e-12
    b = _rand((3, 3, 4), 60)
    oracle = np.linalg.norm(tb.bcirc(b), 2)
    assert abs(tb.spectral_norm(b) - oracle) <= 1e-9


def test_tnn_spectral_duality():
    a = _rand((4, 4, 3), 61)
    for t in range(10):
        b = _rand((4, 4, 3), 600 + t)
        b = b / tb.spectral_norm(b)
        assert tb.inner(a, b) <= tb.tnn(a) * (1 + 1e-8)
    f = tb.tsvd(a, mode="skinny")
    b_star = tb.tprod(f.u, tb.ctranspose(f.v))
    assert tb.inner(a, b_star) >= 0.999 * tb.tnn(a)


def test_avg_rank_cases():
    assert tb.avg_rank(np.zeros((3, 3, 4))) == 0.0
    for n, n3 in [(3, 2), (4, 3)]:
        assert tb.avg_rank(tb.identity(n, n3)) == n
    # rank-1 first frontal slice only: bcirc rank is n3, average rank 1
    a = np.zeros((4, 4, 3))
    a[:, :, 0] = np.outer(_rand((4,), 70), _rand((4,), 71))
    direct = np.linalg.matrix_rank(tb.bcirc(a), tol=1e-6 * tb.spectral_norm(a))
    assert abs(tb.avg_rank(a, 1e-6) - direct / 3) <= 1e-12


def test_svt_trivial_and_matrix_cases():
    y = _rand((3, 4, 2), 80)
    assert np.array_equal(tb.svt(y, 0.0), y)
    d = np.zeros((2, 2, 1))
    d[0, 0, 0], d[1, 1, 0] = 3.0, 1.0
    out = tb.svt(d, 2.0)
    assert np.abs(out[:, :, 0] - np.diag([1.0, 0.0])).max() <= 1e-12
    with pytest.raises(NegativeThreshold):
        tb.svt(y, -0.5)
    with pytest.raises(NegativeThreshold):
        tb.svt(y, float("nan"))


def test_zero_third_dimension_rejected():
    a = np.zeros((3, 2, 0))
    for call in (lambda: tb.tprod(a, np.zeros((2, 4, 0))), lambda: tb.tsvd(a),
                 lambda: tb.tnn(a), lambda: tb.tubal_rank(a), lambda: tb.spectral_norm(a),
                 lambda: tb.svt(a, 0.5), lambda: tb.svt(a, 0.0), lambda: tb.fft_dim3(a),
                 lambda: tb.ifft_dim3(a.astype(complex))):
        with pytest.raises(EmptyTensor):
            call()



def _with_entry(value):
    a = _rand((4, 3, 3), 2)
    a[1, 2, 0] = value
    return a


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("call", [tb.tnn, tb.tubal_rank, tb.singular_values, tb.spectral_norm,
                                  tb.avg_rank, tb.tsvd, lambda a: tb.svt(a, 0.5)])
def test_nonfinite_entries_rejected(call, value):
    with pytest.raises(NonFiniteValues):
        call(_with_entry(value))


def test_svt_of_entries_whose_slice_norm_overflows():
    # finite entries whose squared slice norm is past the float range
    a = _rand((4, 4, 2), 3)
    x = tb.svt(1e300 * a, 0.5e300)
    assert np.abs(x - 1e300 * tb.svt(a, 0.5)).max() <= 1e-12 * 1e300 * np.abs(a).max()


@pytest.mark.parametrize("call, error", [
    (lambda: tb.tsvd(_rand((4, 3, 3), 1), "skinny", k=-1), InvalidParameter),
    (lambda: tb.tsvd(_rand((4, 3, 3), 1), "skinny", k=2.5), InvalidParameter),
    (lambda: tb.identity(2.5, 3), InvalidParameter),
    (lambda: tb.unvec(np.zeros(10), (2.5, 2, 2)), InvalidParameter),
    (lambda: tb.unvec(np.arange(4.0), (-2, -2, 1)), EmptyTensor),
    (lambda: tb.unvec(np.arange(4.0), (2, -2, -1)), EmptyTensor),
    (lambda: tb.column_basis(1.5, 4, 3), InvalidParameter),
    (lambda: tb.tube_basis(0, 2.5), InvalidParameter),
    (lambda: tb.unit_basis(0, 0, 0, (2, 2, 0)), EmptyTensor),
    (lambda: tb.ctranspose(np.zeros((2, 2, 0))), EmptyTensor),
])
def test_bad_counts_dims_and_indices_raise_named_errors(call, error):
    with pytest.raises(error):
        call()


def test_whole_float_counts_and_indices_act_as_ints():
    a = _rand((4, 3, 3), 1)
    assert tb.tsvd(a, "skinny", k=2.0).k == 2
    assert tb.tsvd(a, "skinny", k=0).k == 0
    assert tb.identity(2.0, 3).tobytes() == tb.identity(2, 3).tobytes()
    assert tb.column_basis(1.0, 4, 3).tobytes() == tb.column_basis(1, 4, 3).tobytes()


def _svt_slice_oracle(y, tau):
    """Independent path: threshold every slice of the full spectrum."""
    f = tb.fft_dim3(y)
    out = np.empty_like(f)
    for k in range(y.shape[2]):
        u, s, vh = np.linalg.svd(f[:, :, k], full_matrices=False)
        out[:, :, k] = (u * np.maximum(s - tau, 0.0)) @ vh
    return tb.ifft_dim3(out)


def test_svt_matches_slice_oracle():
    for shape in [(4, 4, 3), (3, 5, 2), (5, 3, 4), (4, 6, 6), (2, 3, 1)]:
        y = _rand(shape, 81)
        out = tb.svt(y, 0.5)
        assert np.abs(out - _svt_slice_oracle(y, 0.5)).max() <= 1e-9


def test_svt_minimizes_objective():
    y = _rand((4, 4, 3), 82)
    tau = 0.5

    def objective(x):
        return tau * tb.tnn(x) + 0.5 * np.linalg.norm(x - y) ** 2

    x = tb.svt(y, tau)
    base = objective(x)
    assert base <= objective(y) + 1e-12
    for t in range(20):
        probe = x + 0.05 * _rand(y.shape, 8200 + t)
        assert base <= objective(probe) + 1e-12


def test_svt_nonexpansive():
    for t in range(10):
        x = _rand((4, 5, 3), 900 + t)
        y = _rand((4, 5, 3), 950 + t)
        lhs = np.linalg.norm(tb.svt(x, 0.7) - tb.svt(y, 0.7))
        assert lhs <= np.linalg.norm(x - y) + 1e-12


@pytest.mark.parametrize("trial", range(15))
def test_matrix_reduction_suite(trial):
    gen = np.random.default_rng(4000 + trial)
    m = gen.standard_normal((5, 4, 1))
    flat = m[:, :, 0]
    sv = np.linalg.svd(flat, compute_uv=False)
    assert abs(tb.tnn(m) - sv.sum()) <= 1e-10 * sv.sum()
    assert abs(tb.spectral_norm(m) - sv[0]) <= 1e-10 * sv[0]
    assert tb.tubal_rank(m, 1e-6) == np.linalg.matrix_rank(flat, tol=1e-6 * sv[0])
    tau = 0.5 * sv[0]
    u, s, vh = np.linalg.svd(flat, full_matrices=False)
    expected = (u * np.maximum(s - tau, 0.0)) @ vh
    assert np.abs(tb.svt(m, tau)[:, :, 0] - expected).max() <= 1e-10


def _assert_matches_full_svt(y, tau, state):
    """The stateful SVT agrees with the slice oracle's full SVDs.

    The certificate bounds each slice's error by 1e-10 times its top
    singular value, so x is compared at the scale of the input y.
    """
    x, t = tsvd_module._svt_freq(y, tau, state)
    # the state holds nothing after a zero call, else a kept rank and its spectrum
    assert (state.v is None) == (state.svals is None) == (not x.any())
    x_ref = _svt_slice_oracle(y, tau)
    t_ref = tb.tnn(x_ref)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(y)
    assert abs(t - t_ref) <= 1e-10 * t_ref


@settings(max_examples=40)
@given(n1=st.integers(32, 44), n2=st.integers(32, 44), n3=st.integers(1, 5),
       r=st.integers(1, 4), log_noise=st.floats(-4.0, -0.5), frac=st.floats(0.02, 1.0),
       seed=st.integers(0, 2 ** 16))
def test_stateful_svt_matches_full_svt(n1, n2, n3, r, log_noise, frac, seed):
    # a short solve-like sequence: tau shrinks and the input drifts a little
    gen = np.random.default_rng(seed)
    low = tb.tprod(gen.standard_normal((n1, r, n3)), gen.standard_normal((r, n2, n3)))
    noise = 10.0 ** log_noise
    y = low + noise * gen.standard_normal((n1, n2, n3))
    tau = frac * tb.spectral_norm(y)
    state = tsvd_module._SvtState()
    for _ in range(4):
        _assert_matches_full_svt(y, tau, state)
        y = y + 1e-3 * noise * gen.standard_normal(y.shape)
        tau /= 1.1
    assert sum(state.paths.values()) == 4


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the truncated path's certificate covers only the kept "
                   "triplets, so a discarded value above tau can pass it")
def test_truncated_svt_keeps_a_value_just_above_tau():
    # a 64x60 slice with a dense tail just under tau: after two calls that
    # keep rank 3, the third input has a fourth value just above tau, which
    # the full SVD keeps; the warm sketch drops it (relative error 3.4e-4)
    gen = np.random.default_rng(0)
    u = np.linalg.qr(gen.standard_normal((64, 64)))[0]
    v = np.linalg.qr(gen.standard_normal((60, 60)))[0]

    def slice_with(head, tail):
        s = np.zeros(60)
        s[:48] = head + [tail] * 44
        return ((u[:, :60] * s) @ v.T)[:, :, None]

    state = tsvd_module._SvtState()
    first = slice_with([10, 8, 6, 0.3], 0.3 * 0.838)
    tsvd_module._svt_freq(first, 3.0, state)
    tsvd_module._svt_freq(first, 0.5, state)
    _assert_matches_full_svt(slice_with([10, 8, 6, 1.0042], 0.838), 1.0, state)


def test_svt_zero_path_is_exact():
    y = _rand((40, 36, 4), 90)
    # each Fourier slice's Frobenius norm is at most sqrt(n3) * ||y||_F
    tau = 2.0 * np.linalg.norm(y)
    state = tsvd_module._SvtState()
    x, t = tsvd_module._svt_freq(y, tau, state)
    assert np.array_equal(x, np.zeros(y.shape)) and t == 0.0
    assert state.paths == {"zero": 1, "truncated": 0, "full": 0}
    assert np.abs(tb.svt(y, tau)).max() == 0.0


def _spy_svd(monkeypatch):
    """Record vectors=True/False for every call of tsvd._svd."""
    calls = []
    svd = tsvd_module._svd
    monkeypatch.setattr(tsvd_module, "_svd",
                        lambda f, vectors=True: calls.append(vectors) or svd(f, vectors))
    return calls


def test_svt_full_svd_that_keeps_nothing_is_zero(monkeypatch):
    # no slice keeps a singular value, but every slice's Frobenius norm is
    # above tau: the full SVD keeps nothing, and the call is a zero call,
    # which leaves nothing in the state
    y = _rand((40, 36, 4), 93)
    tau, keep = 1.01 * tb.spectral_norm(y), 0.5 * tb.spectral_norm(y)
    f = tsvd_module._rfft3(y)
    assert np.linalg.norm(f, axis=(1, 2)).min() > tau
    state = tsvd_module._SvtState()
    calls = _spy_svd(monkeypatch)
    tsvd_module._svt_freq(y, 2.0 * np.linalg.norm(y), state)  # zero from the norms
    assert calls == []
    x, t = tsvd_module._svt_freq(y, tau, state)
    assert np.array_equal(x, np.zeros(y.shape)) and t == 0.0
    assert calls == [True]
    assert state.paths == {"zero": 2, "truncated": 0, "full": 0}
    assert state.v is None and state.svals is None
    # so a next call that keeps a value takes the full SVD: no sketch
    # without a last spectrum
    x, _ = tsvd_module._svt_freq(y, keep, state)
    assert calls == [True, True]
    assert state.paths == {"zero": 2, "truncated": 0, "full": 1}
    assert np.linalg.norm(x - _svt_slice_oracle(y, keep)) <= 1e-10 * np.linalg.norm(y)


def test_svt_call_makes_at_most_one_svd(monkeypatch):
    # a fresh state (every public svt call) goes straight to the full SVD;
    # at a tau above the spectral norm it keeps nothing, a zero call
    y = _rand((40, 36, 4), 93)
    taus = (0.5 * tb.spectral_norm(y), 1.01 * tb.spectral_norm(y))
    calls = _spy_svd(monkeypatch)
    for tau, path in zip(taus, ("full", "zero")):
        state = tsvd_module._SvtState()
        tsvd_module._svt_freq(y, tau, state)
        assert state.paths == {"zero": 0, "truncated": 0, "full": 0} | {path: 1}
    assert calls == [True, True]  # one SVD, with vectors, per call


def _rank_four_slice(tail):
    """A 40 x 36 x 1 tensor with singular values 10, 8, 6 and `tail`."""
    gen = np.random.default_rng(91)
    u = np.linalg.qr(gen.standard_normal((40, 4)))[0]
    v = np.linalg.qr(gen.standard_normal((36, 4)))[0]
    return ((u * [10.0, 8.0, 6.0, tail]) @ v.T)[:, :, None]


@pytest.mark.parametrize("tail, path", [(0.98, "full"), (0.5, "truncated")])
def test_svt_near_threshold_takes_full_path(tail, path):
    # the first call (full SVD) leaves a spectrum that predicts a cheap
    # sketch; at tau = 1 a fourth value of 0.98 sits inside the Ritz margin
    y = _rank_four_slice(tail)
    state = tsvd_module._SvtState()
    _assert_matches_full_svt(y, 3.0, state)
    _assert_matches_full_svt(y, 1.0, state)
    assert state.paths[path] == 1 + (path == "full")


@pytest.mark.parametrize("k_stale", [1, 9])
def test_svt_stale_right_vectors(k_stale):
    gen = np.random.default_rng(92)
    y = tb.tprod(gen.standard_normal((48, 4, 6)), gen.standard_normal((4, 40, 6)))
    y = y + 1e-2 * gen.standard_normal(y.shape)
    tau = 0.2 * tb.spectral_norm(y)
    state = tsvd_module._SvtState()
    _assert_matches_full_svt(y, tau, state)
    # right vectors of the wrong rank and unrelated to y
    v = gen.standard_normal((4, 40, k_stale)) + 1j * gen.standard_normal((4, 40, k_stale))
    state.v = np.linalg.qr(v)[0]
    _assert_matches_full_svt(y, tau / 1.1, state)
    assert sum(state.paths.values()) == 2


def test_plan_reads_the_last_spectrum():
    # one slice of 40 x 40: a state that holds nothing (a fresh state, or a
    # zero last call) plans the full SVD; a kept rank of 1 with
    # sigma_l / sigma_1 = 0.01 plans one power step of a 9-column sketch
    shape = (1, 40, 40)
    state = tsvd_module._SvtState()
    assert tsvd_module._plan(shape, 1.0, state) is None
    state.leave(np.ones((1, 40, 1)),
                np.array([[2.0, 0.3, 0.2, 0.1, 0.05, 0.04, 0.03, 0.025, 0.02, 0.01]]))
    assert tsvd_module._plan(shape, 1.0, state) == (9, 1)


def test_slice_norms_match_numpy():
    f = tsvd_module._rfft3(_rand((9, 7, 6), 94))
    norms = tsvd_module._slice_norms(f)
    assert np.abs(norms - np.linalg.norm(f, axis=(1, 2))).max() <= 1e-14 * norms.max()
    with np.errstate(all="raise"):  # an overflowing sum is inf, without a warning
        assert np.isinf(tsvd_module._slice_norms(1e300 * f)).all()
