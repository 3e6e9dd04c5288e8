"""Third-order tensor algebra built on the circular convolution product.

A tensor is a plain ``numpy.ndarray`` of shape ``(n1, n2, n3)`` and dtype
float64.  Frontal slices are ``a[:, :, k]``, horizontal slices ``a[i, :, :]``,
lateral slices ``a[:, j, :]``, tubes ``a[i, j, :]``.  Wherever a flat layout
is needed (vectorization, file formats) the declared index order is
column-major: index i varies fastest, then j, then k, i.e. numpy's
``order="F"`` for this shape.

The product of two tensors multiplies their block-circulant expansions; it
is computed in the frequency domain as independent matrix products per
Fourier slice.

A real tensor has a conjugate-symmetric spectrum, so only its first
``n3 // 2 + 1`` Fourier slices are independent.  ``_rfft3`` and ``_irfft3``
are the one place that fact is used: every spectral routine here and in
``tsvd`` works on that half-spectrum stack, and ``_spectral_mean`` averages
per-slice values over the full spectrum, counting each slice as often as it
occurs there.  The public ``fft_dim3``/``ifft_dim3`` keep the full
spectrum; they serve as oracles.

The Fourier slices are independent, so the per-slice kernels here and in
``tsvd`` run in parallel through ``_sliced``: it splits the leading axis
of a stack into one contiguous chunk per CPU in the process's affinity
mask (``os.cpu_count()`` where the platform has no affinity call), runs
the first chunk in the calling thread and the others on a thread pool, and
every chunk writes its own part of a preallocated output.  The pool is
built when this module is imported, and again in a forked child, which has
none of its parent's threads; it starts no thread before its first task.
Stacks of fewer than ``_PARALLEL_MIN`` elements run as one chunk; the
experiment drivers then run whole trials on processes instead (the ``lab``
module docstring states the rule that picks the level).  A chunk
applies to each slice exactly the numpy/LAPACK call the whole stack would
get, so results are bitwise identical for any worker count; every decision
that reads more than one slice stays in the calling thread.

The mask is read once, when this module is imported, so a mask set later
(``os.sched_setaffinity``) does not change the chunk count; set it at
launch (``taskset``).  A CPU quota of the process's cgroup is not read.
The speed-ups recorded in CHANGES.md were measured on 2 CPUs with one BLAS
thread per call.  With OpenBLAS left at its default thread count, each
chunk's LAPACK call starts threads of its own, the chunks compete for the
CPUs, and the n=100 Table-2 row was slower than with the slices on one
thread (see README).

The FFTs write into their preallocated stacks through ``out=``, which
numpy has had since 2.0.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import NamedTuple

import numpy as np

from .errors import (
    DimMismatch,
    EmptyTensor,
    IndexOutOfRange,
    LengthMismatch,
    NonFiniteValues,
    SymmetryViolation,
)

# Relative tolerance for the imaginary residue discarded by the inverse
# transform.
IMAG_TOL = 1e-8

# bcirc/tprod_oracle materialize (n1*n3) x (n2*n3) matrices; they anchor
# correctness tests and are not meant for production sizes.
_ORACLE_SIDE_LIMIT = 512


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Chunks per slice-parallel stack, and the smallest stack (in elements) that
# is split at all.  On 2 cores (medians of 3): a 20x20x10 phase-completion
# grid of 8 trials (stacks of 6x20x20) took 1.25 s on one thread and 2.65 s
# with a threshold of 2**10; at 2**15 it stays on one thread, while the
# completion of 32 frames of 64x64 (stacks of 17x64x64) drops from 5.10 to
# 3.34 s.
_WORKERS = _cpu_count()
_PARALLEL_MIN = 2 ** 15


def _new_pool():
    """Give this process a pool of _WORKERS - 1 threads; none starts before its first task."""
    global _pool
    _pool = ThreadPoolExecutor(max(1, _WORKERS - 1), thread_name_prefix="tubal-slices")


_new_pool()
if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's pool threads
    os.register_at_fork(after_in_child=_new_pool)


def _sliced(n: int, size: int, task) -> None:
    """Run task(lo, hi) over contiguous chunks [lo, hi) covering range(n).

    One chunk per worker, at most n; one chunk when the stack has fewer
    than _PARALLEL_MIN elements (size).  The calling thread runs the first
    chunk and waits for the others; an exception of any chunk propagates.
    A task writes only its own part of its outputs, never calls _sliced,
    and calls no public function of the package, so a tracer that wraps
    those (perfbench's) sees calls from the calling thread only.
    """
    parts = min(_WORKERS, n) if size >= _PARALLEL_MIN else 1
    if parts <= 1:
        task(0, n)
        return
    edges = [n * i // parts for i in range(parts + 1)]
    futures = [_pool.submit(task, lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
    try:
        task(edges[0], edges[1])
    finally:
        wait(futures)
    for fut in futures:
        fut.result()


def _require_tensor(a, name="tensor"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 3:
        raise DimMismatch(f"{name} must be 3-way, got shape {a.shape}")
    return a


def _require_nonempty(dims):
    """Raise EmptyTensor unless every dimension is at least 1."""
    if min(dims) < 1:
        raise EmptyTensor(f"tensor dimensions must be positive, got {tuple(dims)}")


def _require_finite(a, what: str):
    """Raise NonFiniteValues unless every entry of the array a is finite."""
    if not np.all(np.isfinite(a)):
        raise NonFiniteValues(f"{what} contains NaN or Inf entries")


def validate_tensor(a) -> np.ndarray:
    """Check the tensor contract: 3-way, float, every entry finite."""
    a = _require_tensor(a)
    _require_finite(a, "tensor")
    return a


def _spectral_mean(x: np.ndarray, n3: int) -> np.ndarray:
    """Mean over the full spectrum of per-slice values x (h, ...) of the half stack.

    Slice 0 and, for even n3, the Nyquist slice occur once in the full
    spectrum; every other slice also stands for its conjugate mirror.
    """
    w = np.full(x.shape[0], 2.0)
    w[0] = 1.0
    if n3 % 2 == 0:
        w[-1] = 1.0
    return (w.reshape((-1,) + (1,) * (x.ndim - 1)) * x).sum(axis=0) / n3


def _require_tubes(a: np.ndarray):
    """Raise EmptyTensor when a has no frontal slice, before any transform sees it."""
    if a.shape[2] < 1:
        raise EmptyTensor(f"the third dimension must be positive, got shape {a.shape}")


def _rfft3(a: np.ndarray) -> np.ndarray:
    """The independent Fourier slices of a real tensor: a C-contiguous (h, n1, n2) stack."""
    _require_tubes(a)
    n1, n2, n3 = a.shape
    out = np.empty((n3 // 2 + 1, n1, n2), dtype=complex)

    def rows(lo, hi):
        np.fft.rfft(a[lo:hi], axis=2, out=out[:, lo:hi].transpose(1, 2, 0))

    _sliced(n1, out.size, rows)
    return out


def _irfft3(f: np.ndarray, n3: int) -> np.ndarray:
    """The real (n1, n2, n3) tensor whose independent Fourier slices are f (h, n1, n2)."""
    _, n1, n2 = f.shape
    out = np.empty((n1, n2, n3))

    def rows(lo, hi):
        np.fft.irfft(f[:, lo:hi].transpose(1, 2, 0), n=n3, axis=2, out=out[lo:hi])

    _sliced(n1, f.size, rows)
    return out


def fft_dim3(a: np.ndarray) -> np.ndarray:
    """Unnormalized DFT of every tube, returning the complex frequency tensor.

    Slice 0 of the result is real and slices i and n3-i are conjugates of
    each other (i = 1..n3-1).
    """
    a = _require_tensor(a)
    _require_tubes(a)
    return np.fft.fft(a, axis=2)


def ifft_dim3(f: np.ndarray) -> np.ndarray:
    """Inverse DFT (with 1/n3 normalization) of every tube, as a real tensor.

    Raises SymmetryViolation if the imaginary residue left after the inverse
    transform exceeds IMAG_TOL relative to the largest magnitude, which
    signals a corrupted frequency-domain value rather than round-off.
    """
    f = np.asarray(f)
    if f.ndim != 3:
        raise DimMismatch(f"frequency tensor must be 3-way, got shape {f.shape}")
    _require_tubes(f)
    t = np.fft.ifft(f, axis=2)
    max_abs = np.abs(t).max() if t.size else 0.0
    residue = np.abs(t.imag).max() if t.size else 0.0
    if residue > IMAG_TOL * max_abs:
        raise SymmetryViolation(
            f"imaginary residue {residue:.3e} exceeds {IMAG_TOL:.1e} * {max_abs:.3e}"
        )
    return np.ascontiguousarray(t.real)


def tprod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor-tensor product of (n1, n2, n3) with (n2, l, n3) -> (n1, l, n3).

    Equal to folding ``bcirc(a) @ unfold(b)``; computed as per-slice complex
    matrix products on the independent Fourier slices.
    """
    a = _require_tensor(a, "a")
    b = _require_tensor(b, "b")
    _, n2, n3 = a.shape
    if b.shape[0] != n2 or b.shape[2] != n3:
        raise DimMismatch(f"cannot multiply {a.shape} by {b.shape}")
    return _irfft3(_rfft3(a) @ _rfft3(b), n3)


def _unfold(a: np.ndarray) -> np.ndarray:
    """Stack frontal slices vertically: (n1*n3, n2)."""
    return a.transpose(2, 0, 1).reshape(a.shape[0] * a.shape[2], a.shape[1])


def _fold(m: np.ndarray, n1: int, n3: int) -> np.ndarray:
    return np.ascontiguousarray(m.reshape(n3, n1, m.shape[1]).transpose(1, 2, 0))


def _guard_oracle(a, b=None):
    shapes = [a.shape] if b is None else [a.shape, b.shape]
    for n1, n2, n3 in shapes:
        if n1 * n3 > _ORACLE_SIDE_LIMIT or n2 * n3 > _ORACLE_SIDE_LIMIT:
            raise DimMismatch(
                f"oracle path materializes {n1 * n3} x {n2 * n3} blocks; "
                f"limit is {_ORACLE_SIDE_LIMIT} per side"
            )


def bcirc(a: np.ndarray) -> np.ndarray:
    """Block-circulant matrix of the tensor: block (r, c) is frontal slice (r - c) mod n3."""
    a = _require_tensor(a)
    _guard_oracle(a)
    n1, n2, n3 = a.shape
    out = np.empty((n1 * n3, n2 * n3))
    for r in range(n3):
        for c in range(n3):
            out[r * n1:(r + 1) * n1, c * n2:(c + 1) * n2] = a[:, :, (r - c) % n3]
    return out


def bdiag(f: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix with the frontal slices of a frequency tensor."""
    f = np.asarray(f)
    if f.ndim != 3:
        raise DimMismatch(f"expected 3-way tensor, got shape {f.shape}")
    n1, n2, n3 = f.shape
    if n1 * n3 > _ORACLE_SIDE_LIMIT or n2 * n3 > _ORACLE_SIDE_LIMIT:
        raise DimMismatch(f"bdiag limited to {_ORACLE_SIDE_LIMIT} rows/cols per side")
    out = np.zeros((n1 * n3, n2 * n3), dtype=f.dtype)
    for k in range(n3):
        out[k * n1:(k + 1) * n1, k * n2:(k + 1) * n2] = f[:, :, k]
    return out


def tprod_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference product via the literal block-circulant path (test sizes only)."""
    a = _require_tensor(a, "a")
    b = _require_tensor(b, "b")
    if b.shape[0] != a.shape[1] or b.shape[2] != a.shape[2]:
        raise DimMismatch(f"cannot multiply {a.shape} by {b.shape}")
    _guard_oracle(a, b)
    return _fold(bcirc(a) @ _unfold(b), a.shape[0], a.shape[2])


def ctranspose(a: np.ndarray) -> np.ndarray:
    """Transpose every frontal slice and reverse the order of slices 2..n3."""
    a = _require_tensor(a)
    n1, n2, n3 = a.shape
    out = np.empty((n2, n1, n3))
    out[:, :, 0] = a[:, :, 0].T
    if n3 > 1:
        out[:, :, 1:] = a[:, :, :0:-1].transpose(1, 0, 2)
    return out


def identity(n: int, n3: int) -> np.ndarray:
    """Identity tensor: first frontal slice is eye(n), all other slices zero."""
    if n < 1 or n3 < 1:
        raise DimMismatch("identity needs n >= 1 and n3 >= 1")
    out = np.zeros((n, n, n3))
    out[:, :, 0] = np.eye(n)
    return out


class TensorNorms(NamedTuple):
    fro: float
    l1: float
    linf: float
    linf2: float


def norms(a: np.ndarray) -> TensorNorms:
    """Frobenius, entrywise l1, entrywise max, and the max slice-Frobenius norm.

    linf2 is the largest Frobenius norm over all horizontal slices a[i, :, :]
    and all lateral slices a[:, j, :].
    """
    a = _require_tensor(a)
    fro = float(np.sqrt((a * a).sum()))
    l1 = float(np.abs(a).sum())
    linf = float(np.abs(a).max()) if a.size else 0.0
    row_sq = (a * a).sum(axis=(1, 2))
    col_sq = (a * a).sum(axis=(0, 2))
    linf2 = float(np.sqrt(max(row_sq.max(), col_sq.max()))) if a.size else 0.0
    return TensorNorms(fro, l1, linf, linf2)


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of entrywise products."""
    a = _require_tensor(a, "a")
    b = _require_tensor(b, "b")
    if a.shape != b.shape:
        raise DimMismatch(f"inner product needs equal shapes, got {a.shape} and {b.shape}")
    return float((a * b).sum())


def vec(x: np.ndarray) -> np.ndarray:
    """Flatten in the declared index order (i fastest, then j, then k)."""
    x = _require_tensor(x)
    return x.reshape(-1, order="F")


def unvec(arr: np.ndarray, dims) -> np.ndarray:
    """Inverse of vec for the given (n1, n2, n3)."""
    arr = np.asarray(arr, dtype=float).reshape(-1)
    n1, n2, n3 = dims
    if arr.size != n1 * n2 * n3:
        raise LengthMismatch(f"expected {n1 * n2 * n3} values, got {arr.size}")
    return np.ascontiguousarray(arr.reshape((n1, n2, n3), order="F"))


def column_basis(i: int, n: int, n3: int) -> np.ndarray:
    """Column basis tensor of size (n, 1, n3) with entry (i, 0, 0) = 1 (0-based i)."""
    if not 0 <= i < n:
        raise IndexOutOfRange(f"column index {i} outside [0, {n})")
    out = np.zeros((n, 1, n3))
    out[i, 0, 0] = 1.0
    return out


def tube_basis(k: int, n3: int) -> np.ndarray:
    """Tube basis tensor of size (1, 1, n3) with entry (0, 0, k) = 1 (0-based k)."""
    if not 0 <= k < n3:
        raise IndexOutOfRange(f"tube index {k} outside [0, {n3})")
    out = np.zeros((1, 1, n3))
    out[0, 0, k] = 1.0
    return out


def unit_basis(i: int, j: int, k: int, dims) -> np.ndarray:
    """Unit tensor with a single 1 at (i, j, k); equals column(i) * tube(k) * column(j)^H."""
    n1, n2, n3 = dims
    if not (0 <= i < n1 and 0 <= j < n2 and 0 <= k < n3):
        raise IndexOutOfRange(f"index ({i}, {j}, {k}) outside {tuple(dims)}")
    out = np.zeros((n1, n2, n3))
    out[i, j, k] = 1.0
    return out
