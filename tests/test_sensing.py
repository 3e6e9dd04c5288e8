"""Measurement models: reproducibility, statistics, adjointness, projections."""

import hashlib

import numpy as np
import pytest

import tubal as tb
from tubal.errors import (
    DimMismatch,
    EmptyTensor,
    InvalidParameter,
    InvalidRate,
    MapTooLarge,
    ZeroMeasurements,
)

RNG = np.random.default_rng(2023)


def test_gaussian_map_deterministic():
    a = tb.make_gaussian_map(20, (3, 3, 2), seed=7)
    b = tb.make_gaussian_map(20, (3, 3, 2), seed=7)
    assert np.array_equal(a.a, b.a)
    c = tb.make_gaussian_map(20, (3, 3, 2), seed=8)
    assert not np.array_equal(a.a, c.a)


def test_gaussian_map_entry_statistics():
    m, dims = 10000, (2, 2, 2)
    gmap = tb.make_gaussian_map(m, dims, seed=1)
    entries = gmap.a.ravel()
    stderr = np.sqrt(1.0 / m) / np.sqrt(entries.size)
    assert abs(entries.mean()) <= 5 * stderr
    assert abs(entries.var() - 1.0 / m) <= 0.05 / m


def test_gaussian_map_column_norms_concentrate():
    gmap = tb.make_gaussian_map(2000, (2, 2, 2), seed=2)
    col_norms = np.linalg.norm(gmap.a, axis=0)
    assert np.all(col_norms >= 0.8) and np.all(col_norms <= 1.2)


def test_gaussian_map_guards():
    for m in (0, float("nan"), float("inf")):
        with pytest.raises(ZeroMeasurements):
            tb.make_gaussian_map(m, (2, 2, 2), seed=0)
    with pytest.raises(InvalidParameter):
        tb.make_gaussian_map(30.5, (2, 2, 2), seed=0)
    assert np.array_equal(tb.make_gaussian_map(30.0, (2, 2, 2), seed=0).a,
                          tb.make_gaussian_map(30, (2, 2, 2), seed=0).a)
    with pytest.raises(MapTooLarge):
        tb.make_gaussian_map(2 ** 20, (64, 64, 64), seed=0)


def test_apply_adjoint_identity():
    gmap = tb.make_gaussian_map(30, (3, 4, 2), seed=3)
    assert np.abs(tb.apply_map(gmap, np.zeros((3, 4, 2)))).max() == 0.0
    for t in range(10):
        gen = np.random.default_rng(300 + t)
        x = gen.standard_normal((3, 4, 2))
        y = gen.standard_normal(30)
        lhs = np.dot(tb.apply_map(gmap, x), y)
        rhs = tb.inner(x, tb.adjoint_map(gmap, y))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_apply_identity_matrix_equals_vec():
    gmap = tb.make_gaussian_map(8, (2, 2, 2), seed=4)
    eye_map = tb.GaussianMap(m=8, dims=(2, 2, 2), seed=0, a=np.eye(8))
    x = RNG.standard_normal((2, 2, 2))
    assert np.array_equal(tb.apply_map(eye_map, x), tb.vec(x))
    with pytest.raises(DimMismatch):
        tb.apply_map(gmap, np.zeros((2, 2, 3)))
    with pytest.raises(DimMismatch):
        tb.adjoint_map(gmap, np.zeros(9))


def test_mask_rate_one_and_determinism():
    mask = tb.make_bernoulli_mask((4, 4, 4), 1.0, seed=5)
    assert mask.count == 64 and mask.observed.all()
    m1 = tb.make_bernoulli_mask((5, 5, 5), 0.4, seed=6)
    m2 = tb.make_bernoulli_mask((5, 5, 5), 0.4, seed=6)
    assert np.array_equal(m1.observed, m2.observed)


def test_mask_count_concentrates():
    mask = tb.make_bernoulli_mask((20, 20, 20), 0.5, seed=7)
    std = np.sqrt(8000 * 0.5 * 0.5)
    assert abs(mask.count - 4000) <= 5 * std


def test_mask_invalid_rate():
    for p in (0.0, -0.1, 1.5):
        with pytest.raises(InvalidRate):
            tb.make_bernoulli_mask((2, 2, 2), p, seed=0)


@pytest.mark.parametrize("dims", [(4, 4, -1), (-2, 4, 4), (4, 0, 4)])
def test_constructors_reject_empty_dims(dims):
    with pytest.raises(EmptyTensor):
        tb.make_bernoulli_mask(dims, 0.5, 0)
    with pytest.raises(EmptyTensor):
        tb.make_gaussian_map(5, dims, 0)


@pytest.mark.parametrize("build", [
    lambda dims: tb.make_gaussian_map(40, dims, 0).a,
    lambda dims: tb.make_bernoulli_mask(dims, 0.5, 0).observed,
])
def test_constructors_take_whole_dims(build):
    # a fractional dimension is rejected, not truncated; 4.0 builds the object of 4
    for n in (4.7, float("nan"), float("inf")):
        with pytest.raises(InvalidParameter):
            build((n, 4, 2))
    assert np.array_equal(build((4.0, 4, 2.0)), build((4, 4, 2)))


def test_projections_partition_and_scale():
    mask = tb.make_bernoulli_mask((6, 5, 4), 0.5, seed=8)
    x = RNG.standard_normal((6, 5, 4))
    po = tb.proj_omega(mask, x)
    pc = tb.proj_omega_c(mask, x)
    assert np.abs(po + pc - x).max() == 0.0
    assert tb.inner(po, pc) == 0.0
    assert np.array_equal(tb.proj_omega(mask, po), po)
    ro = tb.r_omega(mask, np.ones((6, 5, 4)))
    assert set(np.unique(ro)) <= {0.0, 2.0}
    full = tb.make_bernoulli_mask((3, 3, 3), 1.0, seed=9)
    assert np.array_equal(tb.proj_omega(full, x[:3, :3, :3]), x[:3, :3, :3])
    assert np.abs(tb.proj_omega_c(full, x[:3, :3, :3])).max() == 0.0
    with pytest.raises(DimMismatch):
        tb.proj_omega(mask, np.zeros((2, 2, 2)))


def test_substream_independence():
    g1 = tb.substream(0, "a", 1)
    g2 = tb.substream(0, "a", 2)
    assert not np.array_equal(g1.random(8), g2.random(8))
    h1 = tb.normal_fill(tb.substream(3, "x"), 9)
    h2 = tb.normal_fill(tb.substream(3, "x"), 9)
    assert np.array_equal(h1, h2)
    assert tb.derive_seed(1, "a") != tb.derive_seed(1, "b")


def test_normal_fill_statistics():
    z = tb.normal_fill(tb.substream(11, "stats"), 200000)
    assert abs(z.mean()) <= 5 / np.sqrt(z.size)
    assert abs(z.var() - 1.0) <= 0.02


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


# sha256 of the little-endian bytes, pinned from the unchunked Box-Muller
# transform; 65536 deviates are one chunk of angle uniforms
_FILL_DIGESTS = [
    (1, "8e8546ea390f99c02adefb3e1c37555d6d4a4c1662c0cb21d4b9c21c5c45fd87"),
    (2, "3877fc88bbcf9903b3af62be6fe59d0de7d83f893974ad4fb128bee4d81ad1ec"),
    (9, "8ce516c7c29da200df25b1689c937361a05c9981ffe637ce8ebf8ac0fac64d9b"),
    (65534, "5baf373c0ef6b3e903f41c4fe1d6b27a7db8dc0861a75d6df38410708405394b"),
    (65535, "8bbb91077ef44a1cdd4b316cdc9b1c0d2e0f25b2b86e53fc3cd57a99b3c5c2a9"),
    (65536, "08131ac4b7b5c58549a70fe16d38a54c9d314533fce15ae755eb40bbe60b702e"),
    (65537, "4fd57a828e86e1138c73c2a9cd8d7b022056f54478c7cd92568e4d22bb967a0b"),
    (65538, "388681cb709dd1b3e954f2f1e8fa8325a68612c2f13975971872bd7c44a393b3"),
    (163841, "185921bdf5672dad7b263f35c46ff383a5a658a4e1382cf84bcd86a8e51f5c10"),
]


@pytest.mark.parametrize("count, digest", _FILL_DIGESTS)
def test_normal_fill_golden(count, digest):
    assert _digest(tb.normal_fill(tb.substream(5, "golden", count), count)) == digest


def test_random_streams_golden():
    # consecutive fills continue one stream, as in rand_low_tubal
    gen = tb.substream(5, "golden-pair")
    pair = np.concatenate([tb.normal_fill(gen, 7), tb.normal_fill(gen, 10)])
    assert _digest(pair) == "242f428701b21e2e8e0ce0d2f90aa6011f70c976724591dd48c6f0e757825d55"
    maps = [
        # direct
        (541, (10, 10, 5), "a7f87430aa882a360ddde433a09f92eab6d1707e796af3a7d28bb89215444458"),
        # Woodbury
        (301, (10, 10, 5), "a90d8e2640a1450c00b2cd92011f6fe06eb014d2c9df98dbfff20d5ffa490e3e"),
        # odd m * d
        (25, (3, 3, 1), "127aaed0be481fd97fac38e7ffbf8e3cbe7785bf1784008d4e582d45e8474173"),
    ]
    for m, dims, digest in maps:
        assert _digest(tb.make_gaussian_map(m, dims, 7).a) == digest
    x = tb.rand_low_tubal(7, 5, 3, 2, seed=9)
    assert _digest(x) == "b8256b2106d401e62d1685b9399a4b55d4653054a23b6922588d7009e8b81163"


def test_entry_points_take_nested_lists():
    # a nested list of the right shape acts as its ndarray; a wrong shape
    # still raises DimMismatch
    mask = tb.make_bernoulli_mask((4, 3, 2), 0.6, seed=10)
    gmap = tb.make_gaussian_map(12, (4, 3, 2), seed=11)
    x = RNG.standard_normal((4, 3, 2))
    for call in (tb.proj_omega, tb.proj_omega_c, tb.r_omega):
        assert call(mask, x.tolist()).tobytes() == call(mask, x).tobytes()
        with pytest.raises(DimMismatch):
            call(mask, x[:3].tolist())
    assert tb.apply_map(gmap, x.tolist()).tobytes() == tb.apply_map(gmap, x).tobytes()
    with pytest.raises(DimMismatch):
        tb.apply_map(gmap, x[:, :2].tolist())
    m_obs = tb.proj_omega(mask, x)
    cfg = tb.AdmmConfig(max_iter=5)
    x1, r1 = tb.solve_completion(mask, m_obs.tolist(), cfg)
    x2, r2 = tb.solve_completion(mask, m_obs, cfg)
    assert x1.tobytes() == x2.tobytes() and r1.iterations == r2.iterations
    with pytest.raises(DimMismatch):
        tb.solve_completion(mask, m_obs[:3].tolist(), cfg)
