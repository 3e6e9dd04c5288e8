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
are the one place that fact is used (and ``_split``, which sizes their
stack): every spectral routine here and in ``tsvd`` works on that
half-spectrum stack, and ``_spectral_mean`` averages
per-slice values over the full spectrum, counting each slice as often as it
occurs there.  The public ``fft_dim3``/``ifft_dim3`` keep the full
spectrum; they serve as oracles.

The Fourier slices are independent, and the work is split over the CPUs
in the process's affinity mask (``os.cpu_count()`` where the platform has
no affinity call) where that measurably pays.  The mask is read by each
split call (``_cpu_count``), so a mask narrowed after import
(``os.sched_setaffinity``) is honoured.  A cgroup-v2 CPU quota
(``cpu.max`` at the root of the cgroup mount) caps the count at
ceil(quota / period), read at each call as well.  One rule, ``_parts``,
decides how many threads share a kernel: one per CPU, at most one per
independent piece, and one thread for a kernel of fewer than
``_PARALLEL_MIN`` elements.  ``_sliced`` splits an axis into one
contiguous chunk per thread, and runs a kernel that the rule leaves whole
inline.  The FFTs go through it by rows: each chunk is one ``numpy.fft``
call (the pocketfft code that ``scipy.fft`` runs, bit for bit) that
writes its rows of a C-ordered output with ``out=``, under
``np.errstate``, so an input that overflows yields inf or NaN, for the
SVT to reject, and no warning.  The SVD and the sketch of ``tsvd`` go
through it by slices.  The Gaussian path splits
three more kernels by the same rule: the map fill of ``rng.normal_fill``,
in blocks of a fixed number of pairs, and the Gram product and the
Cholesky factor of ``solve._factor``, one task per panel of a fixed
number of rows.
``_on_threads`` runs every split kernel: the first task in the calling
thread and every other one on a thread of the open thread scope
(``_thread_scope``), and every task writes its own part of a
preallocated output.  Each solver of ``solve`` runs in one scope, set-up
included, and ``solve._factor``, called alone, opens one for its Gram and
factor: the first split call
starts its threads, every later call in the scope reuses them, and they
are joined when the scope returns or raises.  A split call outside a scope
is a scope of its own.  So threads live for one solve at most, and the
package holds none between calls: a forked child (the ``lab`` trial
workers, or a user's) inherits none.  Every other kernel is one numpy call
on the whole array.  When no trial's half-spectrum stack
is split (``_split``), the experiment drivers run whole trials on
processes instead, and in a trial process the rule splits nothing
(``_trial_process``; see the ``lab`` module docstring).  The pieces of a
kernel are laid out from its size alone, and a piece computes the same
bits on whichever thread runs it, so results are bitwise identical for any
worker count; every decision that reads more than one slice stays in the
calling thread.

The supported setting is one BLAS thread per call,
``OPENBLAS_NUM_THREADS=1`` (the benchmark sets it): every split kernel
assumes it, and the speed-ups recorded in CHANGES.md were measured with it
on 2 CPUs.  With OpenBLAS left at its default thread count, each piece's
LAPACK or BLAS call starts threads of its own, the pieces compete for the
CPUs, and the n=100 Table-2 row and demo 05's phase grid run slower than
with one BLAS thread (see README).
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import (
    DimMismatch,
    EmptyTensor,
    IndexOutOfRange,
    InvalidParameter,
    LengthMismatch,
    NonFiniteValues,
    SymmetryViolation,
    TooLarge,
)

# Relative tolerance for the imaginary residue discarded by the inverse
# transform.
IMAG_TOL = 1e-8

# `_require_size` rejects an array of more than 2**28 values (2 GiB of
# doubles) before it is allocated; the dense Gaussian map is the largest
# array the package makes.
_VALUE_LIMIT = 2 ** 28

# bcirc/tprod_oracle materialize (n1*n3) x (n2*n3) matrices; they anchor
# correctness tests and are not meant for production sizes.
_ORACLE_SIDE_LIMIT = 512


# The CPU limit of a cgroup v2: "quota period" in microseconds, or "max
# period" for none.  At the root of the cgroup mount it is the process's own
# cgroup when the process has a cgroup namespace of its own (a container's).
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _read_cpu_max() -> str:
    """The text of _CPU_MAX, or "max" where there is no such file."""
    try:
        with open(_CPU_MAX) as fh:
            return fh.read()
    except OSError:
        return "max"


def _cpu_count() -> int:
    """The CPUs in the process's affinity mask, capped by the CPU quota of
    its cgroup, ceil(quota / period); both are read at each call."""
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        count = os.cpu_count() or 1
    quota, _, period = _read_cpu_max().partition(" ")
    if quota != "max":
        try:
            count = min(count, max(1, -(-int(quota) // int(period))))
        except (ValueError, ZeroDivisionError):  # not a quota: no cap
            pass
    return count


# The smallest kernel (in elements) that is split over the CPUs (the chunks
# of `_sliced`, the threads of an FFT, the blocks of a fill, the tiles of a
# Gram product).  On 2 cores (medians of 3): a 20x20x10 phase-completion
# grid of 8 trials (stacks of 6x20x20) took 1.25 s on one thread and
# 2.65 s with a threshold of 2**10; at 2**15 it stays on one thread, while
# the completion of 32 frames of 64x64 (stacks of 17x64x64) drops from 5.10
# to 3.34 s.
_PARALLEL_MIN = 2 ** 15

# True in a lab trial worker process: there the trials are the one level of
# parallelism, and no kernel is split.
_trial_process = False


def _parts(n: int, size: int) -> int:
    """The threads that share a kernel of n independent pieces and size elements.

    This is the package's one split rule: one thread per CPU, at most n,
    and one thread when the kernel has fewer than _PARALLEL_MIN elements
    or runs in a trial process.  The pieces of a split kernel are laid out
    from its size alone, so the rule changes where a piece runs, never
    what it computes.
    """
    if _trial_process or size < _PARALLEL_MIN:
        return 1
    return min(_cpu_count(), n)


# The open thread scope of each calling thread: .pool is its executor, None
# until a split call needs one; no attribute while no scope is open.
_scope = threading.local()


@contextmanager
def _thread_scope():
    """Let every split call inside the block share one set of threads.

    The first split call that needs threads starts them, and they are joined
    when the block exits, also when it raises.  Inside an open scope of the
    same thread this opens none, so the outermost scope owns the threads.
    """
    if hasattr(_scope, "pool"):
        yield
        return
    _scope.pool = None
    try:
        yield
    finally:
        pool = _scope.pool
        del _scope.pool
        if pool is not None:
            pool.shutdown()


def _on_threads(tasks) -> None:
    """Run every task() of the list: the first in the calling thread, each
    other one on a thread of the open thread scope, or of a scope of its own.

    Returns, or raises the exception of a task, only when every task has
    ended.  The scope's threads are started by its first split call, one
    per CPU but one; a later call with more tasks than threads queues the
    rest.  A task never calls _sliced or _on_threads, and calls no public
    function of the package, so a tracer that wraps those (perfbench's)
    sees calls from the calling thread only.
    """
    if len(tasks) == 1:
        tasks[0]()
        return
    with _thread_scope():
        if _scope.pool is None:
            _scope.pool = ThreadPoolExecutor(max(len(tasks), _cpu_count()) - 1,
                                             thread_name_prefix="tubal-slices")
        rest = [_scope.pool.submit(task) for task in tasks[1:]]
        try:
            tasks[0]()
        finally:
            wait(rest)
        for done in rest:
            done.result()


def _sliced(n: int, size: int, task) -> None:
    """Run task(lo, hi) over contiguous chunks [lo, hi) covering range(n).

    One chunk for each of the _parts(n, size) threads, run by _on_threads;
    a single chunk runs inline.  A task writes only its own part of its
    outputs.
    """
    parts = _parts(n, size)
    if parts == 1:
        task(0, n)
        return
    edges = [n * i // parts for i in range(parts + 1)]
    _on_threads([partial(task, lo, hi) for lo, hi in zip(edges, edges[1:])])


def _require_tensor(a, name="tensor"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 3:
        raise DimMismatch(f"{name} must be 3-way, got shape {a.shape}")
    return a


def _whole(v, what: str, error=InvalidParameter) -> int:
    """v as an int; error unless v is a whole number (NaN and inf are not)."""
    try:
        if v == int(v):
            return int(v)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what} {v} is not a whole number")


def _require_nonempty(dims) -> tuple:
    """dims as a tuple of ints: InvalidParameter unless every dimension is a
    whole number, EmptyTensor unless every one is at least 1."""
    dims = tuple(_whole(v, "tensor dimension") for v in dims)
    if min(dims) < 1:
        raise EmptyTensor(f"tensor dimensions must be positive, got {dims}")
    return dims


def _require_size(count: int, what: str, error=TooLarge):
    """Raise error unless an array of count values stays within
    `_VALUE_LIMIT`; callers check before they allocate."""
    if count > _VALUE_LIMIT:
        raise error(f"{what} of {count} values exceeds {_VALUE_LIMIT}")


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


def _split(dims) -> bool:
    """Whether the half-spectrum stack of an (n1, n2, n3) tensor is split
    over the CPUs: it has at least _PARALLEL_MIN elements."""
    n1, n2, n3 = dims
    return (n3 // 2 + 1) * n1 * n2 >= _PARALLEL_MIN


def _rfft3(a: np.ndarray) -> np.ndarray:
    """The independent Fourier slices of a real tensor: a C-contiguous (h, n1, n2) stack."""
    _require_tubes(a)
    n1, n2, n3 = a.shape
    f = np.empty((n3 // 2 + 1, n1, n2), dtype=complex)
    out = f.transpose(1, 2, 0)

    def task(lo, hi):
        with np.errstate(over="ignore", invalid="ignore"):
            np.fft.rfft(a[lo:hi], axis=2, out=out[lo:hi])

    _sliced(n1, f.size, task)
    return f


def _irfft3(f: np.ndarray, n3: int, out: np.ndarray | None = None) -> np.ndarray:
    """The real (n1, n2, n3) tensor whose independent Fourier slices are f (h, n1, n2).

    It is written into out, a C-contiguous float (n1, n2, n3) array that
    does not overlap f, when one is given, and into a fresh array otherwise.
    """
    h, n1, n2 = f.shape
    if out is None:
        out = np.empty((n1, n2, n3))
    tubes = f.transpose(1, 2, 0)

    def task(lo, hi):
        with np.errstate(over="ignore", invalid="ignore"):
            np.fft.irfft(tubes[lo:hi], n=n3, axis=2, out=out[lo:hi])

    _sliced(n1, h * n1 * n2, task)
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
    _require_tubes(a)
    n1, n2, n3 = a.shape
    out = np.empty((n2, n1, n3))
    out[:, :, 0] = a[:, :, 0].T
    out[:, :, 1:] = a[:, :, :0:-1].transpose(1, 0, 2)
    return out


def identity(n: int, n3: int) -> np.ndarray:
    """Identity tensor: first frontal slice is eye(n), all other slices zero."""
    n, _, n3 = _require_nonempty((n, n, n3))
    _require_size(n * n * n3, "identity tensor")
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
    n1, n2, n3 = (_whole(v, "tensor dimension") for v in dims)
    if min(n1, n2, n3) < 0:
        raise EmptyTensor(f"tensor dimensions must not be negative, got {(n1, n2, n3)}")
    if arr.size != n1 * n2 * n3:
        raise LengthMismatch(f"expected {n1 * n2 * n3} values, got {arr.size}")
    return np.ascontiguousarray(arr.reshape((n1, n2, n3), order="F"))


def _unit(index, dims, what: str) -> np.ndarray:
    """Zero tensor of shape dims with a single 1 at index (0-based)."""
    dims = _require_nonempty(dims)
    _require_size(math.prod(dims), "basis tensor")
    index = tuple(_whole(v, what) for v in index)
    if not all(0 <= v < n for v, n in zip(index, dims)):
        raise IndexOutOfRange(f"{what} {index} outside {dims}")
    out = np.zeros(dims)
    out[index] = 1.0
    return out


def column_basis(i: int, n: int, n3: int) -> np.ndarray:
    """Column basis tensor of size (n, 1, n3) with entry (i, 0, 0) = 1 (0-based i)."""
    return _unit((i, 0, 0), (n, 1, n3), "column index")


def tube_basis(k: int, n3: int) -> np.ndarray:
    """Tube basis tensor of size (1, 1, n3) with entry (0, 0, k) = 1 (0-based k)."""
    return _unit((0, 0, k), (1, 1, n3), "tube index")


def unit_basis(i: int, j: int, k: int, dims) -> np.ndarray:
    """Unit tensor with a single 1 at (i, j, k); equals column(i) * tube(k) * column(j)^H."""
    return _unit((i, j, k), dims, "index")
