"""ADMM solvers for tensor nuclear norm minimization.

`solve_gaussian` recovers a tensor from dense Gaussian measurements
y = A vec(x) by splitting the variable (x = z) and alternating a
singular-value-thresholding step with a linear solve against (A^T A + I).
`solve_completion` recovers a tensor from its entries on the mask Omega.

The Gaussian z-update solves (A^T A + I) z = A^T t + v, with
t = y - lam1/mu and v = vec(lam2)/mu + vec(x), and then sets
lam1 += mu (A z - y).  The map A is m x d; the system is factored once, on
one of two paths chosen by its shape:

- m >= d (direct): Cholesky of A^T A + I.  The solver carries
  w = A^T lam1 in place of lam1, so rhs = A^T y - w/mu + v with A^T y formed
  once.  The system itself gives A^T A z = rhs - z, so the dual step is
  w += mu (rhs - z - A^T y), with no pass over the map.  The m-vector
  A z - y is needed only for the residual res_feas, which `_admm`
  evaluates only when its value is used.
- m < d (Woodbury): with K = I + A A^T, (A^T A + I)^-1 = I - A^T K^-1 A
  gives z = v - A^T q for q = K^-1 (A v - t), and then
  A z = A v - (K - I) q = t + q, so A z - y = q - lam1/mu exactly.  Each
  iteration makes two passes over the map and one m x m solve.

The system is held on one lower-triangular grid of tiles of `_TILE` rows
(`_factor`): one Fortran panel per row of tiles, so that every tile is a
contiguous Fortran block.  A k x k system takes about (k^2 + k * _TILE) / 2
doubles instead of the k^2 of a dense array, of which LAPACK reads one
triangle; with the m x d map, the Gaussian path holds m d + about d^2 / 2
doubles.  The Gram writes every panel in place, and a right-looking tiled
Cholesky factors the grid in place: dpotrf on each diagonal tile, dtrsm on
the tiles below it, and dsyrk and dgemm on the tiles right of it.  The Gram
panels, and the tiles of each factor step, run on `tensor._parts` threads.
Their layout depends on the size alone, so the factor is bitwise the same
for any CPU count.  Each iteration solves L L^T z = b (`_cho_solve`) with
one dgemv and one dtrsv per panel and triangle.  That reads every tile once
per triangle, as two dtrsv calls on a dense factor do, so the solve is
bound by memory bandwidth; it agrees with `scipy.linalg.cho_solve` to
rounding.

Completion splits x + e = P_Omega(M) with e zero on Omega.  Neither e nor a
full-size dual is stored: both start at zero and keep e = -x, dual = 0 off
Omega, exactly in floating point, so the SVT input is the last x with
b + dual/mu on Omega (b the observed data) and res_e is x's largest change
off Omega: the inexact ALM of Lin, Chen & Ma (arXiv 1009.5055).  res_x and
res_e are functions, so `_admm` forms them only once res_feas is at most
eps, for a history row and at the cap.

While every SVT call of a completion solve has returned zero, x = 0 and
the dual is the sum of mu_j b over the past iterations j < k, so the SVT
input at iteration k is c P_Omega(b), c = 1 + sum_{j<k} mu_j / mu_k, up to
rounding.  That zero phase (`tsvd._ScaledZero`) takes the SVT's zero
decisions from one FFT of P_Omega(b) and at most one SVD of it, scaled by
c, and builds no input; a call that the scaled values cannot settle
within their rounding bound runs the SVT on its exact input and ends the
phase.  A zero call returns exact zeros either way, so results are
bitwise those of the plain loop.

Both run the same loop, `_admm`, with penalty min(mu0 * rho^k, mu_max),
infinity-norm stopping criteria and one `tsvd._SvtState` per solve, through
which each SVT call takes its cheapest path (see `tsvd`).
`SolverReport.svt_paths` counts the calls per path; no CLI file holds it.
At the iteration cap the report has converged=False and the last iterate.
"""

import ctypes
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg.cython_blas
from scipy.linalg.blas import dgemv, dtrsv
from scipy.linalg.lapack import dpotrf

from . import tensor
from .errors import DimMismatch, InvalidSolverConfig
from .sensing import GaussianMap, SampleMask, _check_mask_dims
from .tensor import _require_finite, _require_nonempty, _whole, unvec, vec
from .tsvd import _ScaledZero, _SvtState, _svt_freq


# Rows per tile of the Gaussian system's grid (`_factor`): the unit of its
# storage, of the Gram's and the factor's split over the CPUs, and of the
# solves' BLAS calls.  At d = 4500 (the n=30 Table-1 row), on 2 CPUs with one
# BLAS thread, the grid holds 93.9 MiB (154.5 MiB dense); the Gram and the
# factor took 1.41 s in 1024-row tiles and 1.56 s in 512-row tiles, which
# hold 8 MiB less (medians of 6).  A system of at most _TILE rows is one tile.
_TILE = 1024


@dataclass
class AdmmConfig:
    rho: float = 1.1
    mu0: float = 1e-4
    mu_max: float = 1e10
    eps: float = 1e-8
    max_iter: int = 500
    record_history: bool = False

    def __post_init__(self):
        if not self.rho > 1:
            raise InvalidSolverConfig(f"rho must exceed 1, got {self.rho}")
        if not 0 < self.mu0 <= self.mu_max < np.inf:
            raise InvalidSolverConfig(
                f"need 0 < mu0 <= mu_max < inf, got {self.mu0}, {self.mu_max}")
        if not self.eps > 0:
            raise InvalidSolverConfig(f"eps must be positive, got {self.eps}")
        self.max_iter = _whole(self.max_iter, "max_iter", InvalidSolverConfig)
        if self.max_iter < 1:
            raise InvalidSolverConfig(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class SolverReport:
    iterations: int
    converged: bool
    residuals: dict
    mu_final: float
    objective: float
    wall_time: float
    history: list | None = field(default=None, repr=False)
    svt_paths: dict = field(default_factory=dict)  # SVT calls per path: zero, truncated, full


def _penalty(cfg: AdmmConfig, k: int) -> float:
    try:
        return min(cfg.mu0 * cfg.rho ** k, cfg.mu_max)
    except OverflowError:  # rho ** k is past the float range: compare in logs
        log_mu = np.log(cfg.mu0) + k * np.log(cfg.rho)
        return cfg.mu_max if log_mu >= np.log(cfg.mu_max) else float(np.exp(log_mu))


def _admm(cfg: AdmmConfig, step, t0: float):
    """Run the shared ADMM schedule around one solver's update.

    step(mu, svt_state) performs one iteration at penalty mu, thresholding
    through svt_state, the one `_SvtState` of the solve, and returns
    (x, objective, residuals); the loop stops once every residual is at most
    cfg.eps or after cfg.max_iter iterations.  A residual may be given as a
    function of no arguments, called only when its value is needed: for a
    history row, when every other residual is at most cfg.eps (only then can
    the loop stop) and on the last iteration.  t0 is the solver's start
    time.  The loop runs in one thread scope (`tensor._thread_scope`), so
    the split kernels of the solve share one set of threads, joined before
    this returns or raises.  Returns the last x and its SolverReport.
    """
    history = [] if cfg.record_history else None
    svt_state = _SvtState()
    with tensor._thread_scope():
        for k in range(cfg.max_iter):
            mu = _penalty(cfg, k)
            x, objective, residuals = step(mu, svt_state)
            ready = all(v <= cfg.eps for v in residuals.values() if not callable(v))
            needed = ready or history is not None or k + 1 == cfg.max_iter
            # unevaluated residuals are dropped with the arrays they hold
            residuals = {name: v() if callable(v) else v
                         for name, v in residuals.items()} if needed else None
            if history is not None:
                history.append({"iter": k + 1, "objective": objective, **residuals, "mu": mu})
            converged = ready and all(v <= cfg.eps for v in residuals.values())
            if converged:
                break
    report = SolverReport(
        iterations=k + 1,
        converged=converged,
        residuals=residuals,
        mu_final=mu,
        objective=objective,
        wall_time=time.perf_counter() - t0,
        history=history,
        svt_paths=svt_state.paths,
    )
    return x, report


# scipy.linalg.blas holds the GIL while BLAS runs, so tile tasks calling it
# from threads would run one at a time.  `_blas` calls scipy's BLAS through
# the function pointers of scipy.linalg.cython_blas with ctypes, which
# releases the GIL for the call.  Every argument goes by pointer, as
# Fortran takes it: a one-letter flag, an int, a float, or an array.
_FLAG, _INT, _FLOAT = (ctypes.c_char_p, ctypes.POINTER(ctypes.c_int),
                       ctypes.POINTER(ctypes.c_double))
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _pointer(kind, value):
    if kind is _FLAG:
        return value
    if kind is _INT:
        return ctypes.byref(ctypes.c_int(value))
    if not isinstance(value, np.ndarray):
        return ctypes.byref(ctypes.c_double(value))
    if value.dtype != np.float64 or not value.flags.f_contiguous:
        raise TypeError("BLAS takes Fortran-contiguous float64 arrays")
    return value.ctypes.data_as(_FLOAT)


def _blas(name: str, *kinds):
    """scipy's BLAS routine name, taking arguments of the given kinds."""
    capsule = scipy.linalg.cython_blas.__pyx_capi__[name]
    routine = ctypes.CFUNCTYPE(None, *kinds)(_capsule_pointer(capsule, _capsule_name(capsule)))

    def call(*args):
        routine(*(_pointer(kind, value) for kind, value in zip(kinds, args)))

    return call


_dtrsm = _blas("dtrsm", *[_FLAG] * 4, _INT, _INT, _FLOAT, _FLOAT, _INT, _FLOAT, _INT)
_dsyrk = _blas("dsyrk", _FLAG, _FLAG, _INT, _INT, _FLOAT, _FLOAT, _INT, _FLOAT, _FLOAT, _INT)
_dgemm = _blas("dgemm", _FLAG, _FLAG, _INT, _INT, _INT, _FLOAT, _FLOAT, _INT, _FLOAT, _INT,
               _FLOAT, _FLOAT, _INT)


def _lower_solve(diag: np.ndarray, t: np.ndarray) -> None:
    """t = t diag^-T in place, for the lower triangle of diag (dtrsm)."""
    _dtrsm(b"R", b"L", b"T", b"N", *t.shape, 1.0, diag, len(diag), t, len(t))


def _subtract(c: np.ndarray, a: np.ndarray, b: np.ndarray | None) -> None:
    """c -= a b^T in place; b None: the lower triangle of c -= a a^T (dsyrk)."""
    if b is None:
        _dsyrk(b"L", b"N", len(c), a.shape[1], -1.0, a, len(a), 1.0, c, len(c))
    else:
        _dgemm(b"N", b"T", len(c), len(b), a.shape[1], -1.0, a, len(a), b, len(b), 1.0,
               c, len(c))


def _split(jobs, size: int) -> None:
    """Run the (cost, task) jobs, each task() once, on tensor._parts threads.

    Largest cost first, each job goes to the thread with the least cost so
    far.  Every job writes its own tiles, so where it runs never changes
    what it computes.
    """
    if not jobs:
        return
    parts = tensor._parts(len(jobs), size)
    shares, loads = [[] for _ in range(parts)], [0] * parts
    for cost, task in sorted(jobs, key=lambda job: -job[0]):
        i = loads.index(min(loads))
        shares[i].append(task)
        loads[i] += cost
    tensor._on_threads([partial(_run_each, share) for share in shares])


def _run_each(tasks) -> None:
    for task in tasks:
        task()


def _factor(src: np.ndarray) -> list:
    """The lower Cholesky factor L of src @ src.T + I, as a tile grid.

    The grid holds one Fortran panel per row of tiles: panel i is rows
    lo..hi-1 of L up to column hi-1, and tile j of it, panel[:, lo_j:hi_j],
    is a contiguous Fortran block, so BLAS and LAPACK work on every tile in
    place.  The diagonal tile also holds an upper triangle that no call
    reads.  A k x k system takes about (k^2 + k * _TILE) / 2 values.

    The Gram writes each panel through its C-ordered transpose: one matmul
    for the columns before lo, and one for the diagonal tile, which numpy
    computes with dsyrk.  The factor is right-looking, one tile column j at
    a time: dpotrf on the diagonal tile, dtrsm on each tile below it, then
    each tile right of column j and on or below the diagonal subtracts its
    product of two tiles of column j (dsyrk on the diagonal, dgemm off it).
    The panels of the Gram, and the tiles of each dtrsm and update step,
    are independent tasks run by `_split`; a step waits for the last.  The
    tiles are laid out from k alone, and each tile takes its updates in
    the order of the steps, so L is bitwise the same for any CPU count.
    """
    k = src.shape[0]
    edges = [(lo, min(lo + _TILE, k)) for lo in range(0, k, _TILE)]
    panels = [np.empty((hi - lo, hi), order="F") for lo, hi in edges]

    def gram(lo, hi, out):
        np.matmul(src[:lo], src[lo:hi].T, out=out[:lo])
        np.matmul(src[lo:hi], src[lo:hi].T, out=out[lo:])
        out[lo:].flat[:: hi - lo + 1] += 1.0

    def tile(i, j):
        lo, hi = edges[j]
        return panels[i][:, lo:hi]

    with tensor._thread_scope():
        _split([(panel.size, partial(gram, lo, hi, panel.T))
                for (lo, hi), panel in zip(edges, panels)], k * k)
        for j in range(len(edges)):
            diag, info = dpotrf(tile(j, j), lower=1, clean=0, overwrite_a=1)
            if info:
                raise np.linalg.LinAlgError(f"tile {j} of the system is not positive definite")
            below = range(j + 1, len(edges))
            _split([(len(panels[i]), partial(_lower_solve, diag, tile(i, j)))
                    for i in below], k * k)
            _split([(len(panels[i]) * len(panels[c]) * (1 if c == i else 2),
                     partial(_subtract, tile(i, c), tile(i, j), None if c == i else tile(c, j)))
                    for i in below for c in range(j + 1, i + 1)], k * k)
    return panels


def _cho_solve(panels: list, b: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 b for the tile grid L of `_factor`.

    L y = b row panel by row panel: one dgemv subtracts the panel's tiles
    left of the diagonal, one dtrsv solves with its diagonal tile.  Then
    L^T z = y from the last panel up: one dtrsv with the diagonal tile, one
    transposed dgemv subtracts the result from every row above.  Each
    triangle reads every tile once, in place.
    """
    z = b.copy()
    for panel in panels:
        hi = panel.shape[1]
        lo = hi - panel.shape[0]
        if lo:
            dgemv(-1.0, panel[:, :lo], z[:lo], beta=1.0, y=z[lo:hi], overwrite_y=1)
        dtrsv(panel[:, lo:], z[lo:hi], lower=1, overwrite_x=1)
    for panel in reversed(panels):
        hi = panel.shape[1]
        lo = hi - panel.shape[0]
        dtrsv(panel[:, lo:], z[lo:hi], lower=1, trans=1, overwrite_x=1)
        if lo:
            dgemv(-1.0, panel[:, :lo], z[lo:hi], beta=1.0, y=z[:lo], trans=1, overwrite_y=1)
    return z


def solve_gaussian(gmap: GaussianMap, y: np.ndarray, cfg: AdmmConfig | None = None):
    """Minimize the tensor nuclear norm subject to A vec(x) = y.

    Returns (x_hat, report).  The z-update solves (A^T A + I) z = rhs with a
    Cholesky factor formed once: of A^T A + I when m >= d, whose iterations
    then never touch the map, and of I + A A^T (Woodbury) when m < d, whose
    iterations make two passes over it.  See the module docstring.
    """
    cfg = cfg or AdmmConfig()
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != gmap.m:
        raise DimMismatch(f"expected {gmap.m} measurements, got {y.size}")
    _require_nonempty(gmap.dims)
    _require_finite(y, "measurement vector y")
    t0 = time.perf_counter()
    a = gmap.a
    m, d = a.shape
    dims = gmap.dims

    factor = _factor(a if m < d else a.T)

    # solve_z(mu, v) returns vec(z) and res_feas; on the direct path res_feas
    # is a function, because forming A z - y is a pass over the map
    if m < d:
        lam1 = np.zeros(m)

        def solve_z(mu, v):
            nonlocal lam1
            q = _cho_solve(factor, a @ v - (y - lam1 / mu))
            feas = q - lam1 / mu  # = A z - y
            lam1 = lam1 + mu * feas
            return v - a.T @ q, float(np.abs(feas).max())
    else:
        # an overflow here raises NonFiniteValues at the first SVT, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            aty = a.T @ y
        w = np.zeros(d)  # A^T lam1

        def solve_z(mu, v):
            nonlocal w
            rhs = aty - w / mu + v
            z_vec = _cho_solve(factor, rhs)
            w = w + mu * (rhs - z_vec - aty)  # rhs - z = A^T A z
            return z_vec, lambda: float(np.abs(a @ z_vec - y).max())

    x = np.zeros(dims)
    z = np.zeros(dims)
    lam2 = np.zeros(dims)

    def step(mu, svt_state):
        nonlocal x, z, lam2
        x_new, objective = _svt_freq(z - lam2 / mu, 1.0 / mu, svt_state)
        z_vec, res_feas = solve_z(mu, vec(lam2) / mu + vec(x_new))
        z_new = unvec(z_vec, dims)
        lam2 = lam2 + mu * (x_new - z_new)
        residuals = {
            "res_x": float(np.abs(x_new - x).max()),
            "res_z": float(np.abs(z_new - z).max()),
            "res_feas": res_feas,
            "res_gap": float(np.abs(x_new - z_new).max()),
        }
        x, z = x_new, z_new
        return x, objective, residuals

    return _admm(cfg, step, t0)


def solve_completion(mask: SampleMask, m_obs: np.ndarray, cfg: AdmmConfig | None = None):
    """Minimize the tensor nuclear norm subject to agreeing with m_obs on the mask.

    Only the observed entries of m_obs are read.  Returns (x_hat, report).
    """
    cfg = cfg or AdmmConfig()
    _check_mask_dims(mask, m_obs)
    _require_nonempty(mask.dims)
    t0 = time.perf_counter()
    obs = np.flatnonzero(mask.observed)
    unobserved = ~mask.observed
    b = np.asarray(m_obs, dtype=float).take(obs)
    _require_finite(b, "observed data")

    x = np.zeros(mask.dims)
    dual = np.zeros(obs.size)

    def svt_input(x, dual, mu):  # x off Omega, b + dual/mu on Omega
        y = x.copy()  # C-ordered: its reshape is a view
        y.reshape(-1)[obs] = b + dual / mu
        return y

    zero_phase = _ScaledZero(svt_input(x, dual, 1.0))  # base: P_Omega(b)
    mu_sum = 0.0  # the penalties of the zero phase's iterations
    feas0 = float(np.abs(b).max(initial=0.0))  # res_feas of a zero call, whose gap is b

    def step(mu, svt_state):
        nonlocal x, dual, zero_phase, mu_sum
        if zero_phase is not None:
            if zero_phase(1.0 + mu_sum / mu, 1.0 / mu, svt_state,
                          partial(svt_input, x, dual, mu)):
                mu_sum += mu
                dual = dual + mu * b  # not in place: the call's exact input reads the old one
                return x, 0.0, {"res_x": 0.0, "res_e": 0.0, "res_feas": feas0}
            zero_phase = None
        x_new, objective = _svt_freq(svt_input(x, dual, mu), 1.0 / mu, svt_state)
        gap = b - x_new.take(obs)
        dual += mu * gap
        x_old, x = x, x_new
        residuals = {
            "res_x": lambda: float(np.abs(x_new - x_old).max()),
            "res_e": lambda: float(np.max(np.abs(x_new - x_old), where=unobserved, initial=0.0)),
            "res_feas": float(np.abs(gap).max(initial=0.0)),
        }
        return x, objective, residuals

    return _admm(cfg, step, t0)
