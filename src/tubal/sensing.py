"""Measurement models: dense Gaussian linear maps and Bernoulli sampling masks.

Both constructors are pure functions of their arguments; the random stream
is keyed by the seed together with the object's own parameters (see rng).
Gaussian matrices are filled row by row from the Box-Muller stream; masks
consume one uniform per entry in index order (i fastest, then j, then k).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, InvalidRate, MapTooLarge, ZeroMeasurements
from .rng import normal_fill, substream
from .tensor import _require_nonempty, _whole, unvec, vec

# Dense maps hold m*d doubles; reject anything past 2**28 values (2 GiB).
_MAP_VALUE_LIMIT = 2 ** 28


@dataclass(frozen=True, eq=False)
class GaussianMap:
    """Linear map y = a @ vec(x) with i.i.d. N(0, 1/m) entries."""

    m: int
    dims: tuple
    seed: int
    a: np.ndarray = field(repr=False)

    @property
    def d(self) -> int:
        n1, n2, n3 = self.dims
        return n1 * n2 * n3


def _require_count(m) -> int:
    """m as an int: ZeroMeasurements below 1 or not finite, InvalidParameter
    when it is not a whole number."""
    if not 1 <= m < math.inf:  # also rejects NaN
        raise ZeroMeasurements(f"need a finite count of m >= 1 measurements, got {m}")
    return _whole(m, "measurement count")


def make_gaussian_map(m: int, dims, seed: int) -> GaussianMap:
    """Draw the m x (n1*n2*n3) Gaussian measurement matrix for (m, dims, seed).

    m must be a finite whole number >= 1 (else ZeroMeasurements or
    InvalidParameter); a whole float such as 40.0 draws the same map as 40.
    """
    n1, n2, n3 = _require_nonempty(dims)
    m = _require_count(m)
    d = n1 * n2 * n3
    if m * d > _MAP_VALUE_LIMIT:
        raise MapTooLarge(f"dense map of {m} x {d} = {m * d} values exceeds {_MAP_VALUE_LIMIT}")
    gen = substream(seed, "gaussian-map", m, n1, n2, n3)
    a = normal_fill(gen, m * d)
    a /= np.sqrt(m)  # in place: the map is the largest array the package makes
    a = a.reshape(m, d)
    return GaussianMap(m=m, dims=(n1, n2, n3), seed=int(seed), a=a)


def apply_map(gmap: GaussianMap, x: np.ndarray) -> np.ndarray:
    """Measure a tensor: a @ vec(x)."""
    if np.shape(x) != tuple(gmap.dims):
        raise DimMismatch(f"tensor shape {np.shape(x)} does not match map dims {gmap.dims}")
    return gmap.a @ vec(x)


def adjoint_map(gmap: GaussianMap, y: np.ndarray) -> np.ndarray:
    """Adjoint of apply_map: unvec(a.T @ y)."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != gmap.m:
        raise DimMismatch(f"expected {gmap.m} measurements, got {y.size}")
    return unvec(gmap.a.T @ y, gmap.dims)


@dataclass(frozen=True, eq=False)
class SampleMask:
    """Bernoulli(p) observation pattern over a tensor's entries."""

    dims: tuple
    p: float
    seed: int
    observed: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return int(self.observed.sum())


def _require_rate(p):
    """Raise InvalidRate unless p is a sampling rate in (0, 1] (NaN is not)."""
    if not 0.0 < p <= 1.0:
        raise InvalidRate(f"sampling rate must be in (0, 1], got {p}")


def make_bernoulli_mask(dims, p: float, seed: int) -> SampleMask:
    """Observe each entry independently with probability p."""
    n1, n2, n3 = _require_nonempty(dims)
    _require_rate(p)
    gen = substream(seed, "bernoulli-mask", n1, n2, n3, float(p))
    u = gen.random(n1 * n2 * n3)
    observed = (u < p).reshape((n1, n2, n3), order="F")
    return SampleMask(dims=(n1, n2, n3), p=float(p), seed=int(seed),
                      observed=np.ascontiguousarray(observed))


def _check_mask_dims(mask: SampleMask, x: np.ndarray):
    if np.shape(x) != tuple(mask.dims):
        raise DimMismatch(f"tensor shape {np.shape(x)} does not match mask dims {mask.dims}")


def proj_omega(mask: SampleMask, x: np.ndarray) -> np.ndarray:
    """Keep observed entries, zero the rest."""
    _check_mask_dims(mask, x)
    return np.where(mask.observed, x, 0.0)


def proj_omega_c(mask: SampleMask, x: np.ndarray) -> np.ndarray:
    """Keep unobserved entries, zero the observed ones."""
    _check_mask_dims(mask, x)
    return np.where(mask.observed, 0.0, x)


def r_omega(mask: SampleMask, x: np.ndarray) -> np.ndarray:
    """Unbiased sampling operator (1/p) * proj_omega."""
    return proj_omega(mask, x) / mask.p
