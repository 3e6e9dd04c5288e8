"""Core algebra: transforms, the tensor product and its block-circulant oracle."""

import numpy as np
import pytest

import tubal as tb
from tubal.errors import (
    DimMismatch,
    IndexOutOfRange,
    LengthMismatch,
    NonFiniteValues,
    SymmetryViolation,
)

RNG = np.random.default_rng(20240601)


def test_fft_round_trip_exhaustive_small_shapes():
    for n1 in range(1, 9):
        for n2 in range(1, 9):
            for n3 in (1, 2, 3, 4, 5, 8):
                a = RNG.standard_normal((n1, n2, n3))
                back = tb.ifft_dim3(tb.fft_dim3(a))
                assert np.linalg.norm(back - a) <= 1e-12 * max(np.linalg.norm(a), 1.0)


def test_fft_length_one_tube_is_identity():
    a = RNG.standard_normal((2, 3, 1))
    f = tb.fft_dim3(a)
    assert np.abs(f - a).max() == 0.0


def test_fft_of_constant_tube():
    a = np.ones((3, 2, 2))
    f = tb.fft_dim3(a)
    assert np.allclose(f[2, 0, :], [2.0, 0.0])


def test_fft_conjugate_symmetry():
    for shape in [(3, 4, 5), (2, 2, 4), (5, 1, 7), (4, 4, 1)]:
        f = tb.fft_dim3(RNG.standard_normal(shape))
        n3 = shape[2]
        scale = np.abs(f).max()
        assert np.abs(f[:, :, 0].imag).max() <= 1e-12 * scale
        for i in range(1, n3):
            assert np.abs(np.conj(f[:, :, i]) - f[:, :, n3 - i]).max() <= 1e-12 * scale


def test_ifft_zero_and_constant_cases():
    assert np.abs(tb.ifft_dim3(np.zeros((2, 2, 3), dtype=complex))).max() == 0.0
    f = np.zeros((1, 1, 2), dtype=complex)
    f[0, 0, 0] = 2.0
    assert np.allclose(tb.ifft_dim3(f).ravel(), [1.0, 1.0])


def test_ifft_rejects_broken_symmetry():
    f = tb.fft_dim3(RNG.standard_normal((3, 3, 4)))
    f[0, 0, 1] += 1j * 10.0 * np.abs(f).max()
    with pytest.raises(SymmetryViolation):
        tb.ifft_dim3(f)


def test_tprod_identity_law():
    a = RNG.standard_normal((4, 3, 5))
    assert np.abs(tb.tprod(a, tb.identity(3, 5)) - a).max() <= 1e-12
    assert np.abs(tb.tprod(tb.identity(4, 5), a) - a).max() <= 1e-12


def test_tprod_matrix_case():
    a = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
    b = np.array([[1.0], [0.0]]).reshape(2, 1, 1)
    assert np.allclose(tb.tprod(a, b).ravel(), [1.0, 3.0])


def test_tprod_tube_circular_convolution():
    a = np.array([[[1.0, 2.0]]])
    b = np.array([[[3.0, 4.0]]])
    assert np.allclose(tb.tprod(a, b).ravel(), [11.0, 10.0])


def test_tprod_dim_mismatch():
    with pytest.raises(DimMismatch):
        tb.tprod(RNG.standard_normal((2, 3, 4)), RNG.standard_normal((2, 3, 4)))
    with pytest.raises(DimMismatch):
        tb.tprod(RNG.standard_normal((2, 3, 4)), RNG.standard_normal((3, 2, 5)))


@pytest.mark.parametrize("trial", range(20))
def test_tprod_matches_oracle(trial):
    gen = np.random.default_rng(1000 + trial)
    n1, n2, ell, n3 = gen.integers(1, 6, size=4)
    a = gen.standard_normal((n1, n2, n3))
    b = gen.standard_normal((n2, ell, n3))
    assert np.abs(tb.tprod(a, b) - tb.tprod_oracle(a, b)).max() <= 1e-10


def test_tprod_mirrored_slices_match_full_spectrum():
    # the product computes only the n3//2+1 independent frequency slices;
    # the all-slices path must agree to 1e-12
    for trial in range(10):
        gen = np.random.default_rng(2000 + trial)
        n3 = int(gen.integers(2, 7))
        a = gen.standard_normal((4, 3, n3))
        b = gen.standard_normal((3, 5, n3))
        fc_full = np.einsum("ijk,jlk->ilk", tb.fft_dim3(a), tb.fft_dim3(b))
        full = tb.ifft_dim3(fc_full)
        assert np.abs(tb.tprod(a, b) - full).max() <= 1e-12 * max(np.abs(full).max(), 1.0)


def test_tprod_oracle_zero():
    a = np.zeros((3, 2, 4))
    b = RNG.standard_normal((2, 5, 4))
    assert np.abs(tb.tprod_oracle(a, b)).max() == 0.0


def test_tprod_associativity():
    for trial in range(5):
        gen = np.random.default_rng(50 + trial)
        a = gen.standard_normal((3, 4, 3))
        b = gen.standard_normal((4, 2, 3))
        c = gen.standard_normal((2, 5, 3))
        left = tb.tprod(tb.tprod(a, b), c)
        right = tb.tprod(a, tb.tprod(b, c))
        assert np.abs(left - right).max() <= 1e-10


def test_bcirc_single_slice():
    a = RNG.standard_normal((3, 2, 1))
    assert np.array_equal(tb.bcirc(a), a[:, :, 0])


def test_bcirc_tube_layout():
    a = np.array([[[1.0, 2.0, 3.0]]])
    expected = np.array([[1.0, 3.0, 2.0], [2.0, 1.0, 3.0], [3.0, 2.0, 1.0]])
    assert np.array_equal(tb.bcirc(a), expected)


def test_bcirc_block_diagonalization():
    a = RNG.standard_normal((3, 4, 5))
    n1, n2, n3 = a.shape
    F = np.fft.fft(np.eye(n3))
    M = np.kron(F, np.eye(n1)) @ tb.bcirc(a) @ np.kron(np.linalg.inv(F), np.eye(n2))
    f = tb.fft_dim3(a)
    for k in range(n3):
        block = M[k * n1:(k + 1) * n1, k * n2:(k + 1) * n2]
        assert np.abs(block - f[:, :, k]).max() <= 1e-10
        M[k * n1:(k + 1) * n1, k * n2:(k + 1) * n2] = 0.0
    assert np.abs(M).max() <= 1e-10


def test_bcirc_size_guard():
    with pytest.raises(DimMismatch):
        tb.bcirc(np.zeros((64, 64, 16)))


def test_ctranspose_involution_and_matrix_case():
    a = RNG.standard_normal((4, 3, 6))
    assert np.array_equal(tb.ctranspose(tb.ctranspose(a)), a)
    m = RNG.standard_normal((3, 5, 1))
    assert np.array_equal(tb.ctranspose(m)[:, :, 0], m[:, :, 0].T)


def test_ctranspose_anti_homomorphism():
    a = RNG.standard_normal((3, 4, 4))
    b = RNG.standard_normal((4, 2, 4))
    lhs = tb.ctranspose(tb.tprod(a, b))
    rhs = tb.tprod(tb.ctranspose(b), tb.ctranspose(a))
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_identity_values_and_transform():
    i2 = tb.identity(2, 1)
    assert np.array_equal(i2[:, :, 0], np.eye(2))
    f = tb.fft_dim3(tb.identity(3, 4))
    for k in range(4):
        assert np.abs(f[:, :, k] - np.eye(3)).max() <= 1e-12


def test_norms_zero_and_single_entry():
    z = tb.norms(np.zeros((2, 3, 4)))
    assert z == (0.0, 0.0, 0.0, 0.0)
    a = np.zeros((3, 3, 2))
    a[1, 2, 0] = -3.0
    n = tb.norms(a)
    assert n.fro == 3.0 and n.l1 == 3.0 and n.linf == 3.0 and n.linf2 == 3.0


def test_norms_parseval():
    a = RNG.standard_normal((4, 5, 3))
    bd = tb.bdiag(tb.fft_dim3(a))
    assert abs(tb.norms(a).fro - np.linalg.norm(bd) / np.sqrt(3)) <= 1e-10


def test_norms_linf2_matches_direct_max():
    a = RNG.standard_normal((4, 5, 3))
    horiz = max(np.linalg.norm(a[i, :, :]) for i in range(4))
    lat = max(np.linalg.norm(a[:, j, :]) for j in range(5))
    assert abs(tb.norms(a).linf2 - max(horiz, lat)) <= 1e-12


@pytest.mark.parametrize("e", [-700, 530, 660, 1000])
def test_norms_scale_exactly_where_squares_leave_the_float_range(e):
    # 2**e-scaled entries whose squares underflow (e = -700) or overflow
    a = RNG.standard_normal((3, 4, 2))
    assert tb.norms(np.ldexp(a, e)) == tuple(np.ldexp(v, e) for v in tb.norms(a))


def test_norms_past_the_float_range_are_inf():
    assert tb.norms(np.full((2, 2, 2), 1.7e308)) == (np.inf, np.inf, 1.7e308, np.inf)


def test_inner_products():
    a = RNG.standard_normal((3, 4, 5))
    b = RNG.standard_normal((3, 4, 5))
    assert abs(tb.inner(a, a) - tb.norms(a).fro ** 2) <= 1e-10
    assert tb.inner(a, np.zeros_like(a)) == 0.0
    fa, fb = tb.fft_dim3(a), tb.fft_dim3(b)
    freq = np.real(np.sum(np.conj(fa) * fb)) / 5
    assert abs(tb.inner(a, b) - freq) <= 1e-10 * max(abs(freq), 1.0)
    with pytest.raises(DimMismatch):
        tb.inner(a, RNG.standard_normal((3, 4, 4)))


def test_vec_order_and_round_trip():
    x = RNG.standard_normal((3, 3, 2))
    assert np.array_equal(tb.unvec(tb.vec(x), (3, 3, 2)), x)
    assert tb.vec(tb.unit_basis(0, 0, 0, (3, 3, 2)))[0] == 1.0
    v = tb.vec(tb.unit_basis(1, 0, 0, (3, 3, 2)))
    assert v[1] == 1.0 and v.sum() == 1.0
    with pytest.raises(LengthMismatch):
        tb.unvec(np.zeros(5), (3, 3, 2))


def test_unit_basis_matches_triple_product():
    dims = (4, 4, 2)
    for (i, j, k) in [(1, 2, 0), (0, 0, 1), (3, 1, 1)]:
        direct = tb.unit_basis(i, j, k, dims)
        composed = tb.tprod(tb.tprod(tb.column_basis(i, 4, 2), tb.tube_basis(k, 2)),
                            tb.ctranspose(tb.column_basis(j, 4, 2)))
        assert np.abs(direct - composed).max() <= 1e-12
        assert direct[i, j, k] == 1.0 and direct.sum() == 1.0


def test_unit_basis_orthonormality():
    dims = (3, 2, 2)
    units = [tb.unit_basis(i, j, k, dims)
             for i in range(3) for j in range(2) for k in range(2)]
    for p, up in enumerate(units):
        for q, uq in enumerate(units):
            assert tb.inner(up, uq) == (1.0 if p == q else 0.0)


def test_column_basis_elementary_matrix():
    e = tb.tprod(tb.column_basis(1, 3, 1), tb.ctranspose(tb.column_basis(2, 3, 1)))
    expected = np.zeros((3, 3))
    expected[1, 2] = 1.0
    assert np.allclose(e[:, :, 0], expected)


def test_basis_index_errors():
    with pytest.raises(IndexOutOfRange):
        tb.column_basis(5, 4, 2)
    with pytest.raises(IndexOutOfRange):
        tb.tube_basis(2, 2)
    with pytest.raises(IndexOutOfRange):
        tb.unit_basis(0, 0, 3, (2, 2, 3))


def test_validate_tensor_rejects_nonfinite():
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(NonFiniteValues):
        tb.validate_tensor(bad)


def test_every_error_class_is_exported():
    import tubal.errors

    classes = [c for c in vars(tubal.errors).values()
               if isinstance(c, type) and issubclass(c, tb.TubalError)]
    for c in classes:
        assert getattr(tb, c.__name__) is c
