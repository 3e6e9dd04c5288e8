"""Experiment harness: generators, sample-count formulas, and recovery drivers.

The drivers reproduce the two standard experiments at configurable size:
recovery from Gaussian measurements with m chosen near the 3*dof+1 bound,
and completion from a Bernoulli(p) mask.  Every randomized object inside a
run draws from a substream keyed by the experiment coordinates, so rows and
grid cells are reproducible independently of execution order.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimMismatch,
    InvalidEpsilon,
    InvalidParameter,
    InvalidRank,
    InvalidRate,
    TubalError,
)
from .rng import derive_seed, normal_fill, substream
from .sensing import _require_count, apply_map, make_bernoulli_mask, make_gaussian_map
from .solve import AdmmConfig, SolverReport, solve_completion, solve_gaussian
from .tensor import _require_nonempty, ctranspose, tprod
from .tsvd import TSvdFactors, _require_rel_tol, tubal_rank


def _require_rank(r, n1: int, n2: int, low: int = 1) -> int:
    """r as an int: InvalidRank unless it is a whole number in [low, min(n1, n2)]."""
    if not low <= r <= min(n1, n2):  # also rejects NaN
        raise InvalidRank(f"rank {r} outside [{low}, {min(n1, n2)}]")
    if not float(r).is_integer():
        raise InvalidRank(f"rank {r} is not a whole number")
    return int(r)


def rand_low_tubal(n1: int, n2: int, n3: int, r: int, seed: int,
                   scale: str = "unit") -> np.ndarray:
    """Random tensor of tubal rank r as a product of two Gaussian factors.

    scale="unit" draws factor entries from N(0, 1); scale="inv_n" from
    N(0, 1/n) with n = max(n1, n2), the convention used for completion
    experiments.  The left factor is filled before the right one, each in
    index order.
    """
    _require_nonempty((n1, n2, n3))
    r = _require_rank(r, n1, n2)
    if scale not in ("unit", "inv_n"):
        raise InvalidParameter(f"scale must be 'unit' or 'inv_n', got {scale!r}")
    sigma = 1.0 if scale == "unit" else 1.0 / math.sqrt(max(n1, n2))
    gen = substream(seed, "low-tubal", n1, n2, n3, r, scale)
    p = sigma * normal_fill(gen, n1 * r * n3).reshape((n1, r, n3), order="F")
    q = sigma * normal_fill(gen, r * n2 * n3).reshape((r, n2, n3), order="F")
    return tprod(p, q)


def dof(n1: int, n2: int, n3: int, r: int) -> int:
    """Degrees of freedom of a tubal-rank-r tensor: r(n1 + n2 - r)n3."""
    r = _require_rank(r, n1, n2, low=0)
    return r * (n1 + n2 - r) * n3


def gaussian_bound(n1: int, n2: int, n3: int, r: int) -> int:
    """Measurements sufficient for exact recovery: 3r(n1 + n2 - r)n3 + 1."""
    r = _require_rank(r, n1, n2)
    return 3 * r * (n1 + n2 - r) * n3 + 1


def robust_bound(n1: int, n2: int, n3: int, r: int, epsilon: float) -> int:
    """Measurements for robust recovery: ceil((3r(n1+n2-r)n3 + 3/2) / (1-eps)^2)."""
    if not 0 < epsilon < 1:
        raise InvalidEpsilon(f"epsilon must be in (0, 1), got {epsilon}")
    r = _require_rank(r, n1, n2)
    return math.ceil((3 * r * (n1 + n2 - r) * n3 + 1.5) / (1.0 - epsilon) ** 2)


def completion_rate_bound(n1: int, n2: int, n3: int, r: int,
                          mu: float, c0: float) -> float:
    """Sampling rate bound c0 * mu * r * log^2(max(n1,n2) n3) / (min(n1,n2) n3)."""
    r = _require_rank(r, n1, n2)
    n_hi, n_lo = max(n1, n2), min(n1, n2)
    return c0 * mu * r * math.log(n_hi * n3) ** 2 / (n_lo * n3)


def incoherence(factors: TSvdFactors) -> float:
    """Smallest mu satisfying the standard incoherence conditions on u and v.

    mu = max over sides of (n * n3 / r) * max_i ||u^H * e_col(i)||_F^2.  That
    product is the conjugate transpose of the horizontal slice u[i, :, :], so
    its energy is the slice's squared Frobenius norm.
    """
    r = factors.k
    if r < 1:
        raise InvalidRank("incoherence needs at least one component")

    def side(u):
        n, _, n3 = u.shape
        return (n * n3 / r) * (u * u).sum(axis=(1, 2)).max()

    return float(max(side(factors.u), side(factors.v)))


def proj_t(factors: TSvdFactors, z: np.ndarray) -> np.ndarray:
    """Project onto the tangent space spanned by the factors:
    u*u^H*z + z*v*v^H - u*u^H*z*v*v^H."""
    u, v = factors.u, factors.v
    if z.shape != (u.shape[0], v.shape[0], u.shape[2]):
        raise DimMismatch(f"tensor shape {z.shape} does not match factors")
    uh_z = tprod(ctranspose(u), z)
    u_uh_z = tprod(u, uh_z)
    z_v = tprod(z, v)
    z_v_vh = tprod(z_v, ctranspose(v))
    u_uh_z_v_vh = tprod(u, tprod(tprod(uh_z, v), ctranspose(v)))
    return u_uh_z + z_v_vh - u_uh_z_v_vh


def proj_t_perp(factors: TSvdFactors, z: np.ndarray) -> np.ndarray:
    """Orthogonal complement of proj_t."""
    return z - proj_t(factors, z)


def rel_error(xhat: np.ndarray, x0: np.ndarray) -> float:
    """Relative Frobenius error ||xhat - x0||_F / ||x0||_F (inf on zero x0)."""
    num = float(np.linalg.norm(xhat - x0))
    den = float(np.linalg.norm(x0))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def psnr(xhat: np.ndarray, m: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB against peak value ||m||_inf.

    inf when xhat equals m; -inf when m is all zero and xhat is not.
    """
    peak = float(np.abs(m).max())
    mse = float(((xhat - m) ** 2).mean())
    if mse == 0.0:
        return float("inf")
    if peak == 0.0:
        return float("-inf")
    return 10.0 * math.log10(peak ** 2 / mse)


@dataclass
class RecoveryVerdict:
    rel_error: float
    recovered: bool
    rank_estimate: int
    report: SolverReport


def make_verdict(xhat: np.ndarray, x0: np.ndarray, report: SolverReport,
                 threshold: float = 1e-3, rank_tol: float = 1e-3) -> RecoveryVerdict:
    err = rel_error(xhat, x0)
    return RecoveryVerdict(
        rel_error=err,
        recovered=err <= threshold,
        rank_estimate=tubal_rank(xhat, rank_tol),
        report=report,
    )


# Post-ADMM iterates carry noise in their trailing singular values, so table
# and grid reports read ranks at a looser relative tolerance than the
# library default.
TABLE_RANK_TOL = 1e-3


# A solver or generator rejecting its input, or LAPACK failing to converge,
# costs one row or one trial; any other exception is a bug and propagates.
_TRIAL_ERRORS = (TubalError, np.linalg.LinAlgError)


def _trial(kind, dims, r, value, seed_tensor, seed_sensing, cfg):
    """Draw a tubal-rank-r tensor, sense it and recover it; returns (x0, xhat, report).

    kind="gaussian" measures a unit-scale tensor with `value` Gaussian
    measurements; kind="completion" samples a 1/n-scale tensor at rate `value`.
    """
    if kind == "gaussian":
        x0 = rand_low_tubal(*dims, r, seed_tensor, scale="unit")
        gmap = make_gaussian_map(value, dims, seed_sensing)
        xhat, report = solve_gaussian(gmap, apply_map(gmap, x0), cfg)
    else:
        x0 = rand_low_tubal(*dims, r, seed_tensor, scale="inv_n")
        mask = make_bernoulli_mask(dims, value, seed_sensing)
        xhat, report = solve_completion(mask, x0, cfg)
    return x0, xhat, report


def _run_table(kind, rows, base_seed, cfg, rank_tol) -> list:
    _require_rel_tol(rank_tol)
    table, rate, sensing = (("table1", "m", "map") if kind == "gaussian"
                            else ("table2", "p", "mask"))
    out = []
    for n, n3, r, value in rows:
        row = {"n": n, "n3": n3, "r": r, rate: value}
        coord = value if kind == "gaussian" else float(value)
        try:
            seed_t = derive_seed(base_seed, table, n, n3, r, coord, "tensor")
            seed_s = derive_seed(base_seed, table, n, n3, r, coord, sensing)
            x0, xhat, report = _trial(kind, (n, n, n3), r, value, seed_t, seed_s, cfg)
            v = make_verdict(xhat, x0, report, rank_tol=rank_tol)
            row.update(rank_estimate=v.rank_estimate, rel_error=v.rel_error,
                       iterations=report.iterations, converged=report.converged)
        except _TRIAL_ERRORS as exc:  # keep the batch alive
            row["error"] = f"{type(exc).__name__}: {exc}"
        out.append(row)
    return out


def run_table1(rows, base_seed: int = 0, cfg: AdmmConfig | None = None,
               rank_tol: float = TABLE_RANK_TOL) -> list:
    """Gaussian-measurement recovery table.

    rows: iterable of (n, n3, r, m).  Returns one dict per row with the
    verdict fields; a row whose trial is rejected or fails to converge in
    LAPACK records its error and the batch continues.  rank_tol, the
    relative tolerance of the reported ranks, is checked before the first
    row: outside [0, 1) it raises InvalidParameter.
    """
    return _run_table("gaussian", rows, base_seed, cfg, rank_tol)


def run_table2(rows, base_seed: int = 0, cfg: AdmmConfig | None = None,
               rank_tol: float = TABLE_RANK_TOL) -> list:
    """Tensor completion table.

    rows: iterable of (n, n3, r, p); factors are drawn at the 1/n scale.
    """
    return _run_table("completion", rows, base_seed, cfg, rank_tol)


@dataclass
class PhaseCell:
    m_or_p: float
    r: int
    trials: int
    successes: int
    mean_rel_err: float
    mean_iters: float
    errors: list = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


@dataclass
class PhaseGrid:
    kind: str
    dims: tuple
    values: list
    ranks: list
    trials: int
    base_seed: int
    threshold: float
    cells: list = field(default_factory=list)


def phase_grid(kind: str, dims, values, ranks, trials: int, base_seed: int = 0,
               threshold: float = 1e-3, cfg: AdmmConfig | None = None) -> PhaseGrid:
    """Empirical recovery-rate grid over (measurement count or rate) x rank.

    kind="gaussian" treats each value as a measurement count m (unit-scale
    tensors); kind="completion" treats it as a Bernoulli rate p (1/n-scale
    tensors).  A trial succeeds when the relative error is at or below the
    threshold.  Per-trial substreams depend only on (base_seed, value, r,
    trial), so any execution order reproduces the same grid.  Every
    argument is checked before the first trial: a rate outside (0, 1]
    raises InvalidRate; a measurement count below 1, or not finite,
    ZeroMeasurements; a count that is not a whole number, or a threshold
    that is negative or not finite, InvalidParameter; a rank that is not a
    whole number in [1, min(n1, n2)] InvalidRank.
    """
    if kind not in ("gaussian", "completion"):
        raise InvalidParameter(f"kind must be 'gaussian' or 'completion', got {kind!r}")
    if trials < 1:
        raise InvalidParameter(f"trials must be >= 1, got {trials}")
    if not values or not ranks:
        raise InvalidParameter("axis lists must be nonempty")
    if not 0 <= threshold < math.inf:  # also rejects NaN
        raise InvalidParameter(f"threshold must be a finite number >= 0, got {threshold}")
    _require_nonempty(dims)
    for v in values:
        if kind == "completion" and not 0.0 < float(v) <= 1.0:
            raise InvalidRate(f"sampling rate must be in (0, 1], got {v}")
        if kind == "gaussian":
            _require_count(v)
    n1, n2, n3 = dims
    ranks = [_require_rank(r, n1, n2) for r in ranks]  # 2.0 runs the trials of 2
    grid = PhaseGrid(kind=kind, dims=(n1, n2, n3), values=list(values),
                     ranks=ranks, trials=trials, base_seed=base_seed,
                     threshold=threshold)
    for v in values:
        for r in ranks:
            successes = 0
            errs, iters, failures = [], [], []
            coord = float(v) if kind == "completion" else int(v)
            for t in range(trials):
                seed_t = derive_seed(base_seed, kind, coord, r, t, "tensor")
                seed_s = derive_seed(base_seed, kind, coord, r, t, "sensing")
                try:
                    x0, xhat, report = _trial(kind, grid.dims, r, coord, seed_t, seed_s, cfg)
                except _TRIAL_ERRORS as exc:
                    failures.append(f"trial {t}: {type(exc).__name__}: {exc}")
                    continue
                err = rel_error(xhat, x0)
                errs.append(err)
                iters.append(report.iterations)
                if err <= threshold:
                    successes += 1
            grid.cells.append(PhaseCell(
                m_or_p=float(v), r=r, trials=trials, successes=successes,
                mean_rel_err=float(np.mean(errs)) if errs else float("nan"),
                mean_iters=float(np.mean(iters)) if iters else float("nan"),
                errors=failures,
            ))
    return grid
