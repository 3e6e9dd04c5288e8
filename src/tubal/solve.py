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

Completion splits x + e = P_Omega(M) with e zero on Omega.  Neither e nor a
full-size dual is stored: both start at zero and keep e = -x, dual = 0 off
Omega, exactly in floating point, so the SVT input is the last x with
b + dual/mu on Omega (b the observed data) and res_e is x's largest change
off Omega: the inexact ALM of Lin, Chen & Ma (arXiv 1009.5055).

Both run the same loop, `_admm`, with penalty min(mu0 * rho^k, mu_max),
infinity-norm stopping criteria and one `tsvd._SvtState` per solve, through
which each SVT call takes its cheapest exact path (see `tsvd`).
`SolverReport.svt_paths` counts the calls per path; no CLI file holds it.
At the iteration cap the report has converged=False and the last iterate.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimMismatch, InvalidSolverConfig
from .sensing import GaussianMap, SampleMask, _check_mask_dims
from .tensor import _require_finite, _require_nonempty, unvec, vec
from .tsvd import _SvtState, _svt_freq


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
        if ready or history is not None or k + 1 == cfg.max_iter:
            residuals = {name: v() if callable(v) else v for name, v in residuals.items()}
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

    gram = a @ a.T if m < d else a.T @ a
    gram[np.diag_indices_from(gram)] += 1.0
    # gram is symmetric, so its transpose is the Fortran-ordered view that
    # LAPACK factors in place; gram itself would be copied first
    factor = scipy.linalg.cho_factor(gram.T, overwrite_a=True, check_finite=False)

    # solve_z(mu, v) returns vec(z) and res_feas; on the direct path res_feas
    # is a function, because forming A z - y is a pass over the map
    if m < d:
        lam1 = np.zeros(m)

        def solve_z(mu, v):
            nonlocal lam1
            q = scipy.linalg.cho_solve(factor, a @ v - (y - lam1 / mu), check_finite=False)
            feas = q - lam1 / mu  # = A z - y
            lam1 = lam1 + mu * feas
            return v - a.T @ q, float(np.abs(feas).max())
    else:
        aty = a.T @ y
        w = np.zeros(d)  # A^T lam1

        def solve_z(mu, v):
            nonlocal w
            rhs = aty - w / mu + v
            z_vec = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
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
    unobs = np.flatnonzero(~mask.observed)
    b = np.asarray(m_obs, dtype=float).take(obs)
    _require_finite(b, "observed data")

    x = np.zeros(mask.dims)
    dual = np.zeros(obs.size)

    def step(mu, svt_state):
        nonlocal x, dual
        y = x.copy()  # the last x off Omega
        y.put(obs, b + dual / mu)
        x_new, objective = _svt_freq(y, 1.0 / mu, svt_state)
        gap = b - x_new.take(obs)
        dual += mu * gap
        change = np.abs(x_new - x)
        residuals = {
            "res_x": float(change.max()),
            "res_e": float(change.take(unobs).max(initial=0.0)),
            "res_feas": float(np.abs(gap).max(initial=0.0)),
        }
        x = x_new
        return x, objective, residuals

    return _admm(cfg, step, t0)
