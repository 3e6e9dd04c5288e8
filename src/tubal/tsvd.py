"""Tensor spectral toolkit: t-SVD, tubal rank, nuclear/spectral norms, SVT.

Everything here works one Fourier slice at a time, on the independent
half-spectrum stack that ``tensor._rfft3`` returns.  Factors and
thresholded slices go back through ``tensor._irfft3``; norms and ranks
average per-slice values with ``tensor._spectral_mean``.

Singular values of the tensor are the diagonal entries of the first frontal
slice of the middle factor; they equal the per-slice singular values
averaged across the spectrum, hence are nonnegative and non-increasing.

The SVT step (`_svt_freq`) soft-thresholds every slice at tau.  It takes a
`_SvtState`: `solve._admm` keeps one for each solve of either solver, and
`svt` passes a fresh one.  Each call takes one of three paths:

- zero: the result is exactly zero when no slice has a singular value
  above tau (Cai, Candes & Shen, SIAM J. Optim. 2010).  The call is zero
  when every slice's Frobenius norm is at most tau, and then no SVD runs;
  or when the SVD it takes anyway, truncated or full, keeps no value.
  Either way it is counted as zero and leaves nothing in the state, so the
  state holds nothing or a kept rank k >= 1 with the spectrum of the call
  that kept it, and a call never takes more than one SVD.  The zero phase
  of a completion solve (`_ScaledZero`) settles zero calls from scaled
  singular values known to within a rounding bound, and hands a call that
  they do not settle to `_svt_freq`;
- truncated: a randomized range finder (Halko, Martinsson & Tropp, SIAM
  Rev. 2011) on the test block [V_prev | G], with V_prev the right singular
  vectors the last call kept and G a fixed Gaussian block, followed by
  power steps and a Rayleigh-Ritz SVD of Q^H F;
- full: the batched SVD, for slices smaller than `_MIN_SIDE` or twice the
  sketch width, when the state holds nothing (it is fresh, or the last
  call was zero), when the last spectrum predicts more than `_POWER_CAP` power
  steps, or when the certificate still fails after them.

One planner, `_plan`, reads the state and picks the path between a sketch
and the full SVD: it returns the sketch width l and the power steps the
sketch starts with, or None for the full SVD.  The prediction takes
rho = sigma_l / sigma_k from the last spectrum, with k the rank it keeps
at this tau and k >= 1 on slices that keep nothing: a spectrum without a
gap (full tubal rank) gives rho near 1 and the full SVD.  A sketch whose
certificate fails takes one more power step at a time, up to `_POWER_CAP`.

The truncated result is accepted only if, on every slice, the largest Ritz
value not kept is at most `_TAIL_MARGIN` * tau, the kept rank leaves
`_SPARE` sketch columns unused, and the right residual
||F V_k - U_k S_k||_F is at most `_RESIDUAL_TOL` times the top Ritz value.
The left equation U_k^H F = S_k V_k^H holds exactly by construction, so the
residual bounds the distance to an exact factorization of F plus a tail
orthogonal to the kept triplets; since the SVT is 1-Lipschitz, it bounds
the slice's error as long as that tail stays below tau.  Nothing checks
that it does: the Ritz margin, the spare columns and the power steps do
not rule out a tail singular value above tau that the sketch missed, and
with a dense tail just under tau such a miss is common.  In ROADMAP item 1's
probe (a 4th singular value just above tau over 10-49 tail values at
0.80-0.94 tau), 22 of 200 draws took the truncated path and all 22 were
wrong, with relative error up to 2.7e-3; item 1 is the fix.  A sketch
always starts from the kept vectors of the last call: an 8-column cold
sketch of a gapless spectrum can read its top value low by more than the
margin and return zero for a slice whose sigma_1 exceeds tau (seen on fully
observed 36x36x3 Gaussian noise), so a state that holds nothing plans the
full SVD.
G is drawn from a fixed substream keyed by the slice shape and width, so
each call is a pure function of its input and the state, and solves replay
bit for bit.

The LAPACK work runs slice-parallel through `tensor._sliced`: the SVD
(`_svd`, with or without vectors) and one task per chunk for the sketch
(its products, QR, power steps and Ritz SVD).  A power step forms F^H Q
as (Q^H F)^H, so a chunk holds no conjugate copy of its slices, only
l x n2 and n1 x l temporaries per slice.  The slice norms, the
certificate's residuals and the rebuild of the thresholded slices are
numpy calls on the whole stack (the rebuild in batches), and the FFTs
split by rows (see the `tensor` module docstring).
The norm test, the plan, the all-slices certificate and `paths` stay in
the calling thread, and each slice gets the same LAPACK and BLAS calls
for any chunking, so results do not depend on the worker count.

A full-path call stores its factors in place.  The SVD writes each
batch's left vectors U (n1 x min(n1, n2) per slice, which fits in the
n1 x n2 slice) over the spectrum F, so no stack of them sits beside F.
The state keeps a conjugate copy of the k kept right vectors and V^H is
dropped; a call that keeps every column (k = min(n1, n2), as on full-rank
data) conjugates V^H in place and keeps it instead, so no copy of it sits
beside it.  The rebuild writes each thresholded slice,
U_k diag(s_k - tau) V_k^H with the one k of the whole stack, back into F,
for the inverse FFT to read.  So a full call holds F, V^H and the output
beside its input, and a truncated call F, the sketch's factors and the
output.  The caller keeps the input alive until the call returns (on the
n=100 Table-2 row, freeing it before the SVD lowered the traced peak but
multiplied the minor page faults by 13-15); a solver, which reads its
input no more, passes it as the output array too, so the inverse FFT
writes over it and the call allocates no output of its own.
"""

import math

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NegativeThreshold, NonFiniteValues
from .rng import substream
from .tensor import (
    _irfft3,
    _require_tubes,
    _rfft3,
    _sliced,
    _spectral_mean,
    _whole,
    ctranspose,
    tprod,
    validate_tensor,
)


# Slice elements per LAPACK call of `_svd`, and per product of the rebuild
# (`_threshold`).  Their factors are copied into place; in batches this
# small the copies stay small too.  On
# complete_table2 at seed 2, one call per chunk raised peak RSS by 9 MB over
# one thread, batches of 2**16 elements by 4 MB.
_SVD_BATCH = 2 ** 16


def _svd(f: np.ndarray, vectors: bool = True):
    """Thin SVD (u, s, vh) of every slice of the stack f; with vectors=False
    only the singular values s, shape (h, min(n1, n2)).

    With vectors, u (h, n1, min(n1, n2)) is the view f[:, :, :min(n1, n2)]:
    each batch's left vectors overwrite the slices they came from, so the
    SVD holds no stack of them beside f.
    """
    h, n1, n2 = f.shape
    k = min(n1, n2)
    s = np.empty((h, k))
    if vectors:
        vh = np.empty((h, k, n2), dtype=f.dtype)
    batch = max(1, _SVD_BATCH // max(1, n1 * n2))

    def task(lo, hi):
        for i in range(lo, hi, batch):
            j = min(i + batch, hi)
            if vectors:
                f[i:j, :, :k], s[i:j], vh[i:j] = np.linalg.svd(f[i:j], full_matrices=False)
            else:
                s[i:j] = np.linalg.svd(f[i:j], compute_uv=False)

    _sliced(h, f.size, task)
    return (f[:, :, :k], s, vh) if vectors else s


def _slice_svals(a: np.ndarray) -> np.ndarray:
    """Per-slice singular values, shape (h, min(n1, n2))."""
    return _svd(_rfft3(a), vectors=False)


def singular_values(a: np.ndarray) -> np.ndarray:
    """Tensor singular values s(i, i, 1), non-increasing, length min(n1, n2)."""
    a = validate_tensor(a)
    return _spectral_mean(_slice_svals(a), a.shape[2])


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
    k : explicit number of components for skinny mode, a whole number >= 0.
    rank_tol : relative threshold in [0, 1) used to count nonzero singular values.
    """
    a = validate_tensor(a)
    if mode not in ("full", "skinny"):
        raise InvalidParameter(f"mode must be 'full' or 'skinny', got {mode!r}")
    if k is not None and (k := _whole(k, "component count k")) < 0:
        raise InvalidParameter(f"component count k must be >= 0, got {k}")
    _require_rel_tol(rank_tol)
    n1, n2, n3 = a.shape
    ub, sb, vhb = _svd(_rfft3(a))

    if mode == "skinny":
        if k is None:
            k = _count_above(_spectral_mean(sb, n3), rank_tol)
        k = min(k, min(n1, n2))
    else:
        k = min(n1, n2)
    ub, sb, vhb = ub[:, :, :k], sb[:, :k], vhb[:, :k, :]

    u = _irfft3(ub, n3)
    s = _irfft3(sb[:, :, None] * np.eye(k), n3)
    v = _irfft3(_adjoint(vhb), n3)
    return TSvdFactors(u=u, s=s, v=v, mode=mode)


def _count_above(profile: np.ndarray, rel_tol: float) -> int:
    """Entries of a nonnegative, non-increasing profile above rel_tol times its first."""
    top = profile[0] if profile.size else 0.0
    return int((profile > rel_tol * top).sum())


def _require_rel_tol(rel_tol: float):
    if not 0 <= rel_tol < 1:
        raise InvalidParameter(f"relative tolerance must be in [0, 1), got {rel_tol}")


def tubal_rank(a: np.ndarray, rel_tol: float = 1e-6) -> int:
    """Number of tensor singular values above rel_tol times the largest."""
    _require_rel_tol(rel_tol)
    return _count_above(singular_values(a), rel_tol)


def tnn(a: np.ndarray) -> float:
    """Tensor nuclear norm: sum of tensor singular values.

    Equals 1/n3 times the summed nuclear norms of the Fourier slices.
    """
    return float(singular_values(a).sum())


def spectral_norm(a: np.ndarray) -> float:
    """Largest spectral norm over the Fourier slices (= block-circulant 2-norm)."""
    sv = _slice_svals(validate_tensor(a))
    return float(sv[:, 0].max()) if sv.size else 0.0


def avg_rank(a: np.ndarray, rel_tol: float = 1e-6) -> float:
    """Average rank: 1/n3 times the matrix rank of the block-circulant expansion.

    Slice ranks are counted against rel_tol times the largest singular value
    across the whole spectrum, matching the usual matrix-rank tolerance on
    the materialized block-circulant matrix.
    """
    _require_rel_tol(rel_tol)
    a = validate_tensor(a)
    sv = _slice_svals(a)
    top = sv.max(initial=0.0)
    if top == 0.0:
        return 0.0
    return float(_spectral_mean((sv > rel_tol * top).sum(axis=1), a.shape[2]))


# Rank-adaptive SVT; CHANGES.md records the measurement behind each number.
_OVERSAMPLE = 8        # sketch width l = last kept rank + _OVERSAMPLE
_SPARE = 4             # accept only a kept rank of at most l - _SPARE
_TAIL_MARGIN = 0.95    # every Ritz value not kept must be <= _TAIL_MARGIN * tau
_RESIDUAL_TOL = 1e-10  # right residual, relative to the slice's top Ritz value
_POWER_CAP = 8         # power steps before the full SVD takes over
_STEP_TARGET = 1e-8    # predicted steps: least q with rho^(2q+3) <= _STEP_TARGET
_MIN_SIDE = 32         # slices with a smaller side always take the full SVD


class _SvtState:
    """What the SVT calls of one solve carry from one call to the next.

    It holds nothing (a fresh state, or after a zero call) or the last
    call's kept rank k >= 1 with its spectrum: v (h, n2, k), the right
    singular vectors of the kept columns, and svals (h, >= k), the leading
    singular (or Ritz) values the call saw.  paths counts the calls per
    path.  A state that holds nothing plans the full SVD.
    """

    def __init__(self):
        self.v = None
        self.svals = None
        self.paths = {"zero": 0, "truncated": 0, "full": 0}
        self._gauss = {}

    def leave(self, v, svals):
        """Record the last call's kept right vectors and spectrum."""
        self.v, self.svals = v, svals

    def zero(self):
        """Count a zero call, which leaves nothing."""
        self.leave(None, None)
        self.paths["zero"] += 1

    def gauss(self, h: int, n1: int, n2: int, l: int) -> np.ndarray:
        """The fixed (h, n2, _OVERSAMPLE) complex Gaussian block for this slice shape and l."""
        key = (h, n1, n2, l)
        if key not in self._gauss:
            z = substream(0, "svt-sketch", h, n1, n2, l).standard_normal((2, h, n2, _OVERSAMPLE))
            self._gauss[key] = z[0] + 1j * z[1]
        return self._gauss[key]


def _threshold(f, u, shr, v, n3: int, out) -> np.ndarray:
    """The tensor whose Fourier slices are u[:, :, :k] diag(shr[:, :k]) v^H,
    with k >= 1 the columns of v, written into out as `_irfft3` does.

    The slices are written into f, which u may view, in batches of
    `_SVD_BATCH` elements: one batched product of the kept left columns,
    scaled, with the kept right vectors as C-ordered k x n2 blocks, so
    every slice gets the BLAS call that one product of the whole stack
    makes for it, and only a batch's factors are copied.
    """
    k = v.shape[2]
    batch = max(1, _SVD_BATCH // max(1, f[0].size))
    for i in range(0, len(f), batch):
        np.matmul(u[i:i + batch, :, :k] * shr[i:i + batch, None, :k],
                  _adjoint(v[i:i + batch]), out=f[i:i + batch])
    return _irfft3(f, n3, out)


def _adjoint(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of every slice of the stack a."""
    return a.conj().transpose(0, 2, 1)


def _orth(a: np.ndarray) -> np.ndarray:
    return np.linalg.qr(a)[0]


def _certified_triplets(f, q, ub, s, vh, tau: float, l: int):
    """The kept triplets (u, s, vh) of a sketch if they pass the certificate of
    the module docstring, else None.  q holds the sketch's orthonormal basis
    and ub, s, vh the SVD of Q^H F."""
    kept = s > tau
    k = int(kept.sum(axis=1).max())
    if k > l - _SPARE or (~kept & (s > _TAIL_MARGIN * tau)).any():
        return None
    u = q @ ub[:, :, :k]
    r = np.abs(f @ _adjoint(vh[:, :k]) - u * s[:, None, :k]) ** 2
    res = np.sqrt(np.where(kept[:, :k], r.sum(axis=1), 0.0).sum(axis=1))
    return (u, s, vh[:, :k]) if (res <= _RESIDUAL_TOL * s[:, 0]).all() else None


def _plan(shape, tau: float, state: _SvtState):
    """(l, steps): the width of a warm sketch of a stack of this shape and
    the power steps it starts with, or None for the full SVD.

    None when the state holds nothing, when the slices are smaller than
    `_MIN_SIDE` or twice l, or when the last spectrum keeps more than
    l - `_SPARE` values at this tau or predicts more than `_POWER_CAP`
    steps.  The rank k is guessed per slice from the last spectrum at this
    tau; a slice that keeps nothing must still resolve its top value, so
    k >= 1 there.  rho = sigma_l / sigma_k is taken at the worst slice, and
    the warm start counts as one step, so q steps leave an error of about
    rho^(2q+3).
    """
    if state.v is None:
        return None
    l = state.v.shape[2] + _OVERSAMPLE
    svals = state.svals
    if min(shape[1:]) < max(_MIN_SIDE, 2 * l):
        return None
    kept = (svals > tau).sum(axis=1)
    if kept.max() > l - _SPARE:
        return None
    top = svals[np.arange(len(svals)), np.maximum(kept, 1) - 1]
    sigma_l = svals[:, min(l, svals.shape[1]) - 1]
    rho = float((sigma_l[top > 0] / top[top > 0]).max(initial=0.0))
    if rho >= 1.0:
        return None
    steps = 0 if rho == 0.0 else max(
        0, math.ceil((math.log(_STEP_TARGET) / math.log(rho) - 3) / 2))
    return (l, steps) if steps <= _POWER_CAP else None


def _truncated_svd(f: np.ndarray, tau: float, state: _SvtState, l: int, steps: int):
    """Kept singular triplets (u, s, vh) of every slice from a warm sketch, or None.

    The sketch of width l starts with the planned number of power steps
    and takes one more at a time, up to `_POWER_CAP`, while the certificate
    fails.  u holds only the columns some slice keeps; s holds all l Ritz
    values.  None hands the call to the full SVD (see the module
    docstring).  The sketch, its power steps and the Ritz SVD run
    slice-parallel; the rank, the certificate and the decision to take
    another step read every slice.  A power step forms F^H Q as (Q^H F)^H,
    so a chunk's temporaries are l x n2 or n1 x l per slice, never a copy
    of F.
    """
    h, n1, n2 = f.shape
    omega = np.concatenate([state.v, state.gauss(h, n1, n2, l)], axis=2)
    q = np.empty((h, n1, l), dtype=complex)
    ub = np.empty((h, l, l), dtype=complex)
    s = np.empty((h, l))
    vh = np.empty((h, l, n2), dtype=complex)
    fresh, todo = True, steps

    def task(lo, hi):
        # a fresh sketch, or the chunk's last basis; then todo power steps,
        # each forming F^H Q as (Q^H F)^H, l x n2 per slice
        fc = f[lo:hi]
        qc = _orth(fc @ omega[lo:hi]) if fresh else q[lo:hi]
        for _ in range(todo):
            qc = _orth(fc @ _orth(_adjoint(_adjoint(qc) @ fc)))
        q[lo:hi] = qc
        ub[lo:hi], s[lo:hi], vh[lo:hi] = np.linalg.svd(
            _adjoint(q[lo:hi]) @ fc, full_matrices=False)

    while True:
        _sliced(h, f.size, task)
        factors = _certified_triplets(f, q, ub, s, vh, tau, l)
        if factors is not None or steps == _POWER_CAP:
            return factors
        fresh, todo, steps = False, 1, steps + 1


def _slice_norms(f: np.ndarray) -> np.ndarray:
    """The Frobenius norm of every slice of the C-contiguous stack f, from
    row dot products of its float view; inf where a sum overflows."""
    rows = f.view(float).reshape(len(f), -1)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(np.vecdot(rows, rows))


def _svt_freq(y: np.ndarray, tau: float, state: _SvtState, out=None):
    """Soft-threshold singular values per Fourier slice; returns (tensor, tnn).

    The call takes the zero, truncated or full path of the module docstring
    and leaves its kept right vectors and spectrum (nothing after a zero
    call) in the state for the next call.  It raises NonFiniteValues, before
    any SVD, when a Fourier slice holds NaN or Inf, as a solver's iterate
    does once it overflows.  The tensor is written into out, a C-contiguous
    float array of y's shape, which may be y itself: the forward FFT has
    read y before anything is written.  Without out it is a fresh array.
    """
    n3 = y.shape[2]
    f = _rfft3(y)
    norms = _slice_norms(f)
    # the norm of finite entries above about 1e154 overflows too
    if not np.isfinite(norms).all() and not np.isfinite(f).all():
        raise NonFiniteValues("SVT input overflowed: a Fourier slice holds NaN or Inf")
    k = 0
    if norms.max() > tau:  # else no singular value exceeds tau
        plan = _plan(f.shape, tau, state)
        factors = None if plan is None else _truncated_svd(f, tau, state, *plan)
        path = "full" if factors is None else "truncated"
        u, s, vh = factors or _svd(f)
        shr = np.maximum(s - tau, 0.0)
        k = int((shr > 0.0).sum(axis=1).max())
    if not k:
        state.zero()
        if out is None:
            return np.zeros(y.shape), 0.0
        out.fill(0.0)
        return out, 0.0
    state.paths[path] += 1
    if path == "full" and k == vh.shape[1]:  # every column: conjugate V^H in place
        v = np.conj(vh, out=vh)
    else:  # a copy, since a view would keep all of V^H until the next call
        v = vh[:, :k].conj()
    state.leave(v.transpose(0, 2, 1), s)
    del factors, vh, v  # the rebuild reads the kept right vectors from the state
    return _threshold(f, u, shr, state.v, n3, out), float(_spectral_mean(shr, n3).sum())


# The relative margin of `_ScaledZero`'s tests, beyond the rounding bound it
# computes; it also covers the FFT's and the SVD's own rounding.
_SCALED_MARGIN = 1e-9


class _ScaledZero:
    """The zero calls of an SVT sequence whose inputs are c * base, each to
    within rounding, for a known scalar c >= 1 per call.

    `solve_completion` runs one while every SVT call of the solve has
    returned zero.  It reads sigma, the largest singular value of base's
    Fourier slices, once, from one FFT and one SVD without vectors, and
    settles a call as zero iff c * sigma <= tau - slack.  The input of call
    k differs from c * base by at most 2k + 8 roundings per entry; in a
    Fourier slice that is at most sqrt(n3) times as much relative to the
    largest slice norm, and a computed slice norm adds n1 * n2 roundings of
    its own.  Four times that bound, plus `_SCALED_MARGIN`, times c times
    the largest slice norm of base, is the slack.  A call that this test
    does not settle runs `_svt_freq` on its exact input, as does every
    later call; so does every call when base's slice norm is not finite,
    for which no SVD runs, so that `_svt_freq` raises NonFiniteValues.
    """

    def __init__(self, base: np.ndarray):
        f = _rfft3(base)
        self.shape, self.n3 = f.shape, base.shape[2]
        self.top = float(_slice_norms(f).max())
        self.sigma = _svd(f, vectors=False)[:, 0].max() if math.isfinite(self.top) else math.inf
        self.calls = 0

    def __call__(self, c: float, tau: float, state: _SvtState) -> bool:
        """True when this call returns the exact zero: it is counted in the
        state as `_svt_freq` would count it.  False when it must run
        `_svt_freq` on its exact input."""
        _, n1, n2 = self.shape
        rounding = 4 * np.finfo(float).eps * (
            (self.calls + 4) * math.sqrt(self.n3) + n1 * n2)
        self.calls += 1
        slack = c * self.top * (_SCALED_MARGIN + rounding)
        if not c * self.sigma <= tau - slack:  # also when slack is NaN
            return False
        state.zero()
        return True


def svt(y: np.ndarray, tau: float) -> np.ndarray:
    """Proximal operator of tau times the tensor nuclear norm at y.

    Minimizes tau*||x||_tnn + 0.5*||x - y||_F^2.  The 1/n3 factors in the
    norm and in Parseval's identity cancel, so each Fourier slice is
    soft-thresholded by exactly tau.  A fresh state holds nothing, so the
    call takes one full SVD unless the norm test settles it as zero.
    """
    y = validate_tensor(y)
    _require_tubes(y)
    if not tau >= 0:  # also rejects NaN
        raise NegativeThreshold(f"threshold must be a number >= 0, got {tau}")
    if tau == 0.0:
        return y.copy()
    return _svt_freq(y, tau, _SvtState())[0]
