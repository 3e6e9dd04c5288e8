"""Tensor spectral toolkit: t-SVD, tubal rank, nuclear/spectral norms, SVT.

Everything here works one Fourier slice at a time, on the independent
half-spectrum stack that ``tensor._rfft3`` returns.  Factors and
thresholded slices go back through ``tensor._irfft3``; norms and ranks
count each slice with its multiplicity in the full spectrum.

Singular values of the tensor are the diagonal entries of the first frontal
slice of the middle factor; they equal the per-slice singular values
averaged across the spectrum, hence are nonnegative and non-increasing.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NegativeThreshold
from .tensor import (
    _irfft3,
    _mirror_weights,
    _require_tensor,
    _rfft3,
    ctranspose,
    tprod,
)


def _slice_svals(a: np.ndarray) -> np.ndarray:
    """Per-slice singular values, shape (h, min(n1, n2))."""
    return np.linalg.svd(_rfft3(a), compute_uv=False)


def singular_values(a: np.ndarray) -> np.ndarray:
    """Tensor singular values s(i, i, 1), non-increasing, length min(n1, n2)."""
    a = _require_tensor(a)
    sv = _slice_svals(a)
    w = _mirror_weights(a.shape[2])
    return (w[:, None] * sv).sum(axis=0) / a.shape[2]


@dataclass(frozen=True)
class TSvdFactors:
    """Orthogonal-diagonal-orthogonal factorization of a 3-way tensor.

    u: (n1, k, n3), v: (n2, k, n3) with orthonormal lateral slices under the
    tensor product; s: (k, k, n3) with every frontal slice diagonal.  mode is
    "full" (k = min(n1, n2)) or "skinny" (k = tubal rank or caller-chosen).
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    mode: str

    @property
    def k(self) -> int:
        return self.u.shape[1]

    @property
    def spectrum(self) -> np.ndarray:
        """Diagonal of the first frontal slice of s."""
        return np.ascontiguousarray(np.diagonal(self.s[:, :, 0]))

    def compose(self) -> np.ndarray:
        """Reconstruct u * s * v^H."""
        return tprod(self.u, tprod(self.s, ctranspose(self.v)))


def tsvd(a: np.ndarray, mode: str = "full", k: int | None = None,
         rank_tol: float = 1e-6) -> TSvdFactors:
    """Factor a tensor as u * s * v^H via per-slice SVDs.

    Parameters
    ----------
    a : ndarray (n1, n2, n3)
    mode : "full" keeps k = min(n1, n2) components; "skinny" truncates to
        the tubal rank at rank_tol (or to the caller-supplied k).
    k : explicit number of components for skinny mode.
    rank_tol : relative threshold used to count nonzero singular values.
    """
    a = _require_tensor(a)
    if mode not in ("full", "skinny"):
        raise ValueError(f"mode must be 'full' or 'skinny', got {mode!r}")
    n1, n2, n3 = a.shape
    ub, sb, vhb = np.linalg.svd(_rfft3(a), full_matrices=False)

    if mode == "skinny":
        if k is None:
            w = _mirror_weights(n3)
            profile = (w[:, None] * sb).sum(axis=0) / n3
            top = profile[0] if profile.size else 0.0
            k = int((profile > rank_tol * top).sum())
        k = min(k, min(n1, n2))
    else:
        k = min(n1, n2)
    ub, sb, vhb = ub[:, :, :k], sb[:, :k], vhb[:, :k, :]

    u = _irfft3(ub, n3)
    s = _irfft3(sb[:, :, None] * np.eye(k), n3)
    v = _irfft3(vhb.conj().transpose(0, 2, 1), n3)
    return TSvdFactors(u=u, s=s, v=v, mode=mode)


def tubal_rank(a: np.ndarray, rel_tol: float = 1e-6) -> int:
    """Number of tensor singular values above rel_tol times the largest."""
    if not 0 <= rel_tol < 1:
        raise ValueError(f"rel_tol must be in [0, 1), got {rel_tol}")
    profile = singular_values(a)
    if profile.size == 0 or profile[0] <= 0.0:
        return 0
    return int((profile > rel_tol * profile[0]).sum())


def tnn(a: np.ndarray) -> float:
    """Tensor nuclear norm: sum of tensor singular values.

    Computed as 1/n3 times the summed nuclear norms of the Fourier slices,
    each independent slice counted with its multiplicity in the spectrum.
    """
    a = _require_tensor(a)
    sv = _slice_svals(a)
    w = _mirror_weights(a.shape[2])
    return float((w[:, None] * sv).sum() / a.shape[2])


def spectral_norm(a: np.ndarray) -> float:
    """Largest spectral norm over the Fourier slices (= block-circulant 2-norm)."""
    a = _require_tensor(a)
    sv = _slice_svals(a)
    return float(sv[:, 0].max()) if sv.size else 0.0


def avg_rank(a: np.ndarray, rel_tol: float = 1e-6) -> float:
    """Average rank: 1/n3 times the matrix rank of the block-circulant expansion.

    Slice ranks are counted against rel_tol times the largest singular value
    across the whole spectrum, matching the usual matrix-rank tolerance on
    the materialized block-circulant matrix.
    """
    if not 0 <= rel_tol < 1:
        raise ValueError(f"rel_tol must be in [0, 1), got {rel_tol}")
    a = _require_tensor(a)
    sv = _slice_svals(a)
    if sv.size == 0:
        return 0.0
    top = sv.max()
    if top <= 0.0:
        return 0.0
    w = _mirror_weights(a.shape[2])
    counts = (sv > rel_tol * top).sum(axis=1)
    return float((w * counts).sum() / a.shape[2])


def _svt_freq(y: np.ndarray, tau: float):
    """Soft-threshold singular values per Fourier slice; returns (tensor, tnn)."""
    n3 = y.shape[2]
    ub, sb, vhb = np.linalg.svd(_rfft3(y), full_matrices=False)
    shr = np.maximum(sb - tau, 0.0)
    x = _irfft3((ub * shr[:, None, :]) @ vhb, n3)
    w = _mirror_weights(n3)
    return x, float((w[:, None] * shr).sum() / n3)


def svt(y: np.ndarray, tau: float) -> np.ndarray:
    """Proximal operator of tau times the tensor nuclear norm at y.

    Minimizes tau*||x||_tnn + 0.5*||x - y||_F^2.  The 1/n3 factors in the
    norm and in Parseval's identity cancel, so each Fourier slice is
    soft-thresholded by exactly tau.
    """
    y = _require_tensor(y)
    if tau < 0:
        raise NegativeThreshold(f"threshold must be >= 0, got {tau}")
    if tau == 0.0:
        return y.copy()
    return _svt_freq(y, tau)[0]
