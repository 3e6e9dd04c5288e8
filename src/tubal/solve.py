"""ADMM solvers for tensor nuclear norm minimization.

`solve_gaussian` recovers a tensor from dense Gaussian measurements
y = A vec(x) by splitting the variable (x = z) and alternating a
singular-value-thresholding step with a linear solve against (A^T A + I).
`solve_completion` recovers a tensor from its entries on the mask Omega.

The Gaussian z-update of scaled ADMM solves (A^T A + I) z = A^T t + v,
with t = y - lam1/mu and v = vec(lam2)/mu + vec(x), and then sets
lam1 += mu (A z - y).  That dual needs no storage: A^T lam1 starts at
zero, and after each iteration A^T lam1 + mu (A^T A z - A^T y) =
lam2 + mu (x - z) = vec(lam2) of the next iteration, so A^T t + v =
A^T y + vec(x) exactly, and z depends on x alone.  The solver keeps no
lam1.  It solves for z at x = 0 once, before the first iteration, and
every iteration whose SVT call returned zero reuses that z.  The map A is
m x d; the system is factored once, on one of two paths chosen by its
shape:

- m >= d (direct): Cholesky of A^T A + I, and z = (A^T A + I)^-1
  (A^T y + vec(x)) with A^T y formed once, so the iterations make no pass
  over the map.  The m-vector A z - y is needed only for the residual
  res_feas, which `_admm` evaluates only when its value is used.
- m < d (Woodbury): with K = I + A A^T, (A^T A + I)^-1 = I - A^T K^-1 A
  gives z = x - A^T q for q = K^-1 (A x - y), and then
  A z - y = (A x - y) - (K - I) q = q exactly.  Each iteration makes two
  passes over the map and one m x m solve.

The system is held on one lower-triangular grid of tiles of `_TILE` rows
(`_factor`): one Fortran panel per row of tiles, so that every tile is a
contiguous Fortran block.  A k x k system takes about (k^2 + k * _TILE) / 2
doubles instead of the k^2 of a dense array, of which LAPACK reads one
triangle; with the m x d map, the Gaussian path holds m d + about d^2 / 2
doubles.  The Gram writes every panel in place, and one left-looking
blocked Cholesky factors the whole grid in place, from numpy calls alone,
one block column of _TILE // 8 columns at a time: every panel from the
block's down subtracts its products with the columns left of the block, in
strips of _TILE // 32 whole columns; the diagonal block is factored, and
the rows below it are multiplied by its inverse's transpose.  Each diagonal
block of L holds its inverse, which the factor and the solves multiply by.
The Gram, and each step of the factor, run one task per panel, dealt out
to the threads by cost (`tensor._balanced`): numpy's matmul and linalg
routines release the GIL while they run.  Their layout depends on the
size alone, so the factor is bitwise the same for any CPU count.  Each iteration solves L L^T z = b
(`_cho_solve`, through views of the grid built once per factor, `_blocks`)
with one matrix-vector product per panel and triangle for the tiles left of
the diagonal, and two per block of the diagonal tile.  That reads every tile
once per triangle, as two dtrsv calls on a dense factor do, and each
diagonal block whole, so the solve is bound by memory bandwidth; it agrees
with `scipy.linalg.cho_solve` to rounding.  No path of the package uses scipy.

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
decisions from one FFT of P_Omega(b) and one SVD of it without vectors,
scaled by c, and builds no input; a call that the scaled values do not
settle within their rounding bound runs the SVT on its exact input and
ends the phase.  A zero call returns exact zeros either way, so results are
bitwise those of the plain loop.

Both run the same loop, `_admm`, with penalty min(mu0 * rho^k, mu_max),
infinity-norm stopping criteria and one `tsvd._SvtState` per solve, through
which each SVT call takes its cheapest path (see `tsvd`).  Each solver runs
in one thread scope (`tensor._thread_scope`), set-up included, so all its
split kernels, the FFTs among them, share one set of threads.
`SolverReport.svt_paths` counts the calls per path; no CLI file holds it.
At the iteration cap the report has converged=False and the last iterate.
"""

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import tensor
from .errors import DimMismatch, InvalidSolverConfig
from .sensing import GaussianMap, SampleMask, _check_mask_dims
from .tensor import _balanced, _require_finite, _require_nonempty, _whole, unvec, vec
from .tsvd import _ScaledZero, _SvtState, _svt_freq


# Rows per tile of the Gaussian system's grid (`_factor`): the unit of its
# storage and of the Gram's and the factor's split over the CPUs; the
# factor and the solves work in blocks of _TILE // 8 rows, and subtract
# products in strips of _TILE // 32 columns.  At d = 4500 (the
# n=30 Table-1 row), on 2 CPUs with one BLAS thread, the grid holds 93.9 MiB
# (154.5 MiB dense), and the Gram and the factor took 1.73 s in 1024-row
# tiles, 1.95 s in 512-row tiles, which hold 8 MiB less, and 1.81 s in
# 2048-row tiles, which hold 16 MiB more (medians of 5).  A system of at most
# _TILE rows is one tile.
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
        if not 0 < self.eps < np.inf:
            raise InvalidSolverConfig(f"need 0 < eps < inf, got {self.eps}")
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
    time.  Returns the last x and its SolverReport.
    """
    history = [] if cfg.record_history else None
    svt_state = _SvtState()
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


def _product(a: np.ndarray, b: np.ndarray, top: int = 0) -> np.ndarray:
    """a b^T from row top down, as a Fortran array with a's rows, zero above
    row top.

    The factor subtracts it from a strip of whole Fortran columns of a
    panel: numpy runs an elementwise operation on a view that is not
    contiguous through buffers of its own, which take memory and time.
    """
    out = np.zeros((len(a), len(b)), order="F")
    np.matmul(b, a[top:].T, out=out[top:].T)
    return out


def _subtract(c: np.ndarray, a: np.ndarray, b: np.ndarray, top: int) -> None:
    """c -= a b^T in place from row top down, in strips of _TILE // 32 whole
    columns, so that each task holds one product of a quarter block beside
    the grid."""
    step = max(1, _TILE // 32)
    for p in range(0, c.shape[1], step):
        c[:, p:p + step] -= _product(a, b[p:p + step], top)


def _multiply(x: np.ndarray, inv: np.ndarray) -> None:
    """x = x inv^T in place, for a lower triangle inv, in strips of
    _TILE // 32 columns from the last: a strip reads x only up to its own
    columns."""
    step = max(1, _TILE // 32)
    for p in reversed(range(0, x.shape[1], step)):
        x[:, p:p + step] = _product(x[:, :p + step], inv[p:p + step, :p + step])


def _factor(src: np.ndarray) -> list:
    """The lower Cholesky factor L of src @ src.T + I, as a tile grid.

    The grid holds one Fortran panel per row of tiles: panel i is rows
    lo..hi-1 of L up to column hi-1, and tile j of it, panel[:, lo_j:hi_j],
    is a contiguous Fortran block.  The diagonal tile also holds an upper
    triangle that no call reads, and each diagonal block of _TILE // 8 rows
    holds inv(L_bb) in place of L_bb, with exact zeros above its diagonal,
    since the solves multiply by the whole block.  A k x k system takes
    about (k^2 + k * _TILE) / 2 values.

    The Gram writes each panel through its C-ordered transpose: one matmul
    for the columns before lo, and one for the diagonal tile, which numpy
    computes with dsyrk.  The factor is one left-looking blocked Cholesky
    of the whole grid, one block column c0:c1 of _TILE // 8 columns at a
    time: every panel from the block's down subtracts the product of its
    columns left of c0 with rows c0:c1 of L (`_subtract`, from the block's
    first row in its own panel), the diagonal block is factored and holds
    its inverse, and the rows below it are multiplied by that inverse's
    transpose (`_multiply`).  Each step is one task per panel, run by
    `tensor._balanced`; a step waits for the last, and outside a solver's
    thread scope each step starts and joins threads of its own.  The
    panels are laid out from k alone, and each task computes the same bits
    on any thread, so L is bitwise the same for any CPU count.  Beside the grid, each task holds
    one product of a quarter block of columns.
    """
    k = src.shape[0]
    edges = [(lo, min(lo + _TILE, k)) for lo in range(0, k, _TILE)]
    panels = [np.empty((hi - lo, hi), order="F") for lo, hi in edges]

    def gram(lo, hi, out):
        np.matmul(src[:lo], src[lo:hi].T, out=out[:lo])
        np.matmul(src[lo:hi], src[lo:hi].T, out=out[lo:])
        out[lo:].flat[:: hi - lo + 1] += 1.0

    _balanced([(panel.size, partial(gram, lo, hi, panel.T))
               for (lo, hi), panel in zip(edges, panels)], k * k)
    for i, (lo, hi) in enumerate(edges):
        for c0 in range(lo, hi, _TILE // 8):
            c1, top = min(c0 + _TILE // 8, hi), c0 - lo
            rows = panels[i][top:top + c1 - c0]  # rows c0..c1-1 of L
            if c0:
                _balanced([((len(panel) - t) * c0, partial(
                    _subtract, panel[:, c0:c1], panel[:, :c0], rows[:, :c0], t))
                           for t, panel in zip([top] + [0] * len(edges), panels[i:])], k * k)
            inv = np.tril(np.linalg.inv(np.linalg.cholesky(rows[:, c0:c1])))
            rows[:, c0:c1] = inv
            below = [panels[i][top + c1 - c0:]] + panels[i + 1:]
            _balanced([(len(x), partial(_multiply, x[:, c0:c1], inv)) for x in below], k * k)
    return panels


def _blocks(panels: list) -> list:
    """The views of the tile grid L of `_factor` that `_cho_solve` reads,
    built once per factor: for each panel, its rows lo..hi-1, its tiles
    left of the diagonal and, for each block p:q of _TILE // 8 rows of its
    diagonal tile, the rows left of the block, the block's inverse and the
    rows below it; None where a part is empty."""
    step = _TILE // 8
    out = []
    for panel in panels:
        hi, n = panel.shape[1], len(panel)
        lo = hi - n
        diag = panel[:, lo:]
        out.append((lo, hi, panel[:, :lo] if lo else None,
                    [(p, q, diag[p:q, :p] if p else None, diag[p:q, p:q],
                      diag[q:, p:q] if q < n else None)
                     for p, q in ((p, min(p + step, n)) for p in range(0, n, step))]))
    return out


def _cho_solve(blocks: list, b: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 b for the tile grid L of `_factor`, through its `_blocks`.

    L y = b row panel by row panel: one matmul subtracts the panel's tiles
    left of the diagonal, and then each block of the diagonal tile takes
    one matmul for its rows left of the block and one with its inverse.
    L^T z = y runs the same blocks in reverse, transposed, from the last
    panel up.  Each triangle reads every tile once, in place, and each
    diagonal block whole.  A non-finite b gives NaN (inf times the zeros
    of a block inverse), without a warning, for the next SVT to reject.
    """
    z = b.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, left, diag in blocks:
            if left is not None:
                z[lo:hi] -= left @ z[:lo]
            y = z[lo:hi]
            for p, q, before, inv, _ in diag:
                y[p:q] = inv @ (y[p:q] - before @ y[:p] if p else y[p:q])
        for lo, hi, left, diag in reversed(blocks):
            y = z[lo:hi]
            for p, q, _, inv, below in reversed(diag):
                y[p:q] = inv.T @ (y[p:q] - below.T @ y[q:] if below is not None else y[p:q])
            if left is not None:
                z[:lo] -= left.T @ y
    return z


@tensor._thread_scope()
def solve_gaussian(gmap: GaussianMap, y: np.ndarray, cfg: AdmmConfig | None = None):
    """Minimize the tensor nuclear norm subject to A vec(x) = y.

    Returns (x_hat, report).  The z-update solves (A^T A + I) z = A^T y + x
    with a Cholesky factor formed once: of A^T A + I when m >= d, whose
    iterations then never touch the map, and of I + A A^T (Woodbury) when
    m < d, whose iterations make two passes over it.  See the module
    docstring.
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

    factor = _blocks(_factor(a if m < d else a.T))

    # solve_z(x) returns vec(z) and res_feas; on the direct path res_feas is
    # a function, because forming A z - y is a pass over the map
    if m < d:
        def solve_z(x_vec):
            q = _cho_solve(factor, a @ x_vec - y)  # = A z - y
            return x_vec - a.T @ q, float(np.abs(q).max())
    else:
        # an overflow here raises NonFiniteValues at the first SVT, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            aty = a.T @ y

        def solve_z(x_vec):
            z_vec = _cho_solve(factor, aty + x_vec)
            return z_vec, lambda: float(np.abs(a @ z_vec - y).max())

    x = np.zeros(dims)
    z = np.zeros(dims)
    lam2 = np.zeros(dims)
    # the z of every zero SVT call; the first call thresholds v = 0
    at_zero = solve_z(vec(x))

    def step(mu, svt_state):
        nonlocal x, z, lam2
        v = z - lam2 / mu
        x_new, objective = _svt_freq(v, 1.0 / mu, svt_state, out=v)
        z_vec, res_feas = solve_z(vec(x_new)) if x_new.any() else at_zero
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


@tensor._thread_scope()
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
            if zero_phase(1.0 + mu_sum / mu, 1.0 / mu, svt_state):
                mu_sum += mu
                dual += mu * b
                return x, 0.0, {"res_x": 0.0, "res_e": 0.0, "res_feas": feas0}
            zero_phase = None
        v = svt_input(x, dual, mu)
        x_new, objective = _svt_freq(v, 1.0 / mu, svt_state, out=v)
        gap = b - x_new.take(obs)
        dual += mu * gap
        x_old, x = x, x_new

        def change(where=True):  # x's largest change, in one temporary
            d = x_new - x_old
            return float(np.max(np.abs(d, out=d), where=where, initial=0.0))

        residuals = {
            "res_x": change,
            "res_e": partial(change, unobserved),
            "res_feas": float(np.abs(gap).max(initial=0.0)),
        }
        return x, objective, residuals

    return _admm(cfg, step, t0)
