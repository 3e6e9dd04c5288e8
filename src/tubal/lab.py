"""Experiment harness: generators, sample-count formulas, and recovery drivers.

The drivers reproduce the two standard experiments at configurable size:
recovery from Gaussian measurements with m chosen near the 3*dof+1 bound,
and completion from a Bernoulli(p) mask.  Every randomized object inside a
run draws from a substream keyed by the experiment coordinates, so rows and
grid cells are reproducible independently of execution order.

That independence is also what lets the drivers run trials in parallel.
The package has two levels of parallelism, and ``tensor._split`` picks
one from a trial's dims.  When it splits the trial's half-spectrum stack,
the trials run one after another, and each splits its kernels by the
package's one rule (``tensor._parts``): the FFTs, the SVD, the sketch,
the normal fills and a Gaussian trial's Gram and factor run on slice
threads, which a solve starts once and joins before it returns, and a
split call outside a solve starts and joins itself (see the ``tensor``
module docstring).  Otherwise ``_run_trials`` runs the trials
themselves on a fork-context ``multiprocessing.Pool`` of one process per
CPU in the affinity mask, read at each call, whose initializer,
``tensor._trial_worker``, makes a worker split no kernel, so it starts no
thread: a Gaussian trial there draws its map and forms its Gram on one
CPU.  Each worker holds its own trial in memory, so a driver's peak
memory grows to about one trial per worker; the calling process's
``ru_maxrss`` leaves the workers out (they count under
``RUSAGE_CHILDREN``).
"""

import math
import multiprocessing
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .errors import (
    DimMismatch,
    InvalidEpsilon,
    InvalidParameter,
    InvalidRank,
    MapTooLarge,
    TubalError,
)
from .rng import derive_seed, normal_fill, substream
from .sensing import _require_count, _require_rate, apply_map, make_bernoulli_mask
from .sensing import make_gaussian_map
from .solve import AdmmConfig, SolverReport, solve_completion, solve_gaussian
from .tensor import _require_nonempty, _require_size, _whole, ctranspose, tprod
from .tsvd import TSvdFactors, tubal_rank


def _require_rank(r, n1: int, n2: int, low: int = 1) -> int:
    """r as an int: InvalidRank unless it is a whole number in [low, min(n1, n2)]."""
    if not low <= r <= min(n1, n2):  # also rejects NaN
        raise InvalidRank(f"rank {r} outside [{low}, {min(n1, n2)}]")
    return _whole(r, "rank", InvalidRank)


def rand_low_tubal(n1: int, n2: int, n3: int, r: int, seed: int,
                   scale: str = "unit") -> np.ndarray:
    """Random tensor of tubal rank r as a product of two Gaussian factors.

    scale="unit" draws factor entries from N(0, 1); scale="inv_n" from
    N(0, 1/n) with n = max(n1, n2), the convention used for completion
    experiments.  The left factor is filled before the right one, each in
    index order.  A tensor of more than `tensor._VALUE_LIMIT` entries
    raises TooLarge before anything is drawn.
    """
    n1, n2, n3 = _require_nonempty((n1, n2, n3))
    _require_size(n1 * n2 * n3, "tensor")
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
    n1, n2, n3 = _require_nonempty((n1, n2, n3))
    r = _require_rank(r, n1, n2, low=0)
    return r * (n1 + n2 - r) * n3


def gaussian_bound(n1: int, n2: int, n3: int, r: int) -> int:
    """Measurements sufficient for exact recovery: 3r(n1 + n2 - r)n3 + 1."""
    n1, n2, n3 = _require_nonempty((n1, n2, n3))
    r = _require_rank(r, n1, n2)
    return 3 * r * (n1 + n2 - r) * n3 + 1


def robust_bound(n1: int, n2: int, n3: int, r: int, epsilon: float) -> int:
    """Measurements for robust recovery: ceil((3r(n1+n2-r)n3 + 3/2) / (1-eps)^2)."""
    if not 0 < epsilon < 1:
        raise InvalidEpsilon(f"epsilon must be in (0, 1), got {epsilon}")
    n1, n2, n3 = _require_nonempty((n1, n2, n3))
    r = _require_rank(r, n1, n2)
    return math.ceil((3 * r * (n1 + n2 - r) * n3 + 1.5) / (1.0 - epsilon) ** 2)


def completion_rate_bound(n1: int, n2: int, n3: int, r: int,
                          mu: float, c0: float) -> float:
    """Sampling rate bound c0 * mu * r * log^2(max(n1,n2) n3) / (min(n1,n2) n3)."""
    n1, n2, n3 = _require_nonempty((n1, n2, n3))
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
    # scaled exactly, by a power of two, to entries below 1, so that no square
    # of an entry or of a difference overflows
    e = math.frexp(max(np.abs(xhat).max(initial=0.0), np.abs(x0).max(initial=0.0)))[1]
    xhat, x0 = np.ldexp(xhat, -e), np.ldexp(x0, -e)
    num = float(np.linalg.norm(xhat - x0))
    den = float(np.linalg.norm(x0))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def psnr(xhat: np.ndarray, m: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB against peak value ||m||_inf.

    inf when xhat equals m; -inf when m is all zero and xhat is not.
    """
    # scaled exactly, by a power of two, to entries below 1, as in rel_error:
    # the ratio keeps its bits, and no square overflows or underflows
    e = math.frexp(max(np.abs(xhat).max(initial=0.0), np.abs(m).max(initial=0.0)))[1]
    xhat, m = np.ldexp(xhat, -e), np.ldexp(m, -e)
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


def _coord(kind, value):
    """A trial's sensing value as its seeds are keyed: an int count, a float rate."""
    return _require_count(value) if kind == "gaussian" else float(value)


def _trial(spec) -> dict:
    """Draw a tubal-rank-r tensor, sense it, recover it and judge the result.

    spec is (kind, dims, r, value, seed_tensor, seed_sensing, cfg).
    kind="gaussian" measures a unit-scale tensor with `value` Gaussian
    measurements; kind="completion" samples a 1/n-scale tensor at rate `value`.
    Returns the verdict's rank_estimate and rel_error with the solver's
    iterations and converged, or {"error": text} for a _TRIAL_ERRORS exception.
    """
    kind, dims, r, value, seed_tensor, seed_sensing, cfg = spec
    try:
        if kind == "gaussian":
            x0 = rand_low_tubal(*dims, r, seed_tensor, scale="unit")
            gmap = make_gaussian_map(value, dims, seed_sensing)
            xhat, report = solve_gaussian(gmap, apply_map(gmap, x0), cfg)
        else:
            x0 = rand_low_tubal(*dims, r, seed_tensor, scale="inv_n")
            mask = make_bernoulli_mask(dims, value, seed_sensing)
            xhat, report = solve_completion(mask, x0, cfg)
        v = make_verdict(xhat, x0, report, rank_tol=TABLE_RANK_TOL)
    except _TRIAL_ERRORS as exc:  # keep the batch alive
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"rank_estimate": v.rank_estimate, "rel_error": v.rel_error,
            "iterations": report.iterations, "converged": report.converged}


def _run_trials(specs) -> list:
    """_trial(spec) for every spec, in order.

    A fork-context pool of min(tensor._cpu_count(), len(specs)) processes
    runs them, and is terminated before this returns, when there are at least
    two trials and two CPUs and tensor._split splits no trial's stack (see
    the module docstring); no worker splits a kernel (tensor._trial_worker).
    Otherwise, or when no process can be started, they run in the calling
    process; a pool that fails to start a worker
    terminates and joins the ones it started.  An outcome depends only on
    its spec, so the result is the same either way.  The outcomes are read
    in order, so an exception other than _TRIAL_ERRORS propagates with its
    type and message from the first spec that raised it.

    Workers are forked, not spawned, so they start with the package
    imported instead of importing numpy again.  The package holds no
    thread between calls (a solve joins its slice threads before it
    returns), so a worker inherits none.
    """
    workers = min(tensor._cpu_count(), len(specs))
    if workers < 2 or not hasattr(os, "fork") or any(tensor._split(spec[1]) for spec in specs):
        return [_trial(spec) for spec in specs]
    try:
        pool = multiprocessing.get_context("fork").Pool(workers, tensor._trial_worker)
    except OSError:  # fork's EAGAIN or ENOMEM: no process to spare
        return [_trial(spec) for spec in specs]
    with pool:
        return list(pool.imap(_trial, specs))


def _run_table(kind, rows, base_seed, cfg) -> list:
    table, rate, sensing = (("table1", "m", "map") if kind == "gaussian"
                            else ("table2", "p", "mask"))
    out, pending, specs = [], [], []
    for n, n3, r, value in rows:
        row = {"n": n, "n3": n3, "r": r, rate: value}
        out.append(row)
        try:  # 4.0, 1.0 and 20.0 draw the trials of 4, 1 and 20
            n, _, n3 = _require_nonempty((n, n, n3))
            r, coord = _require_rank(r, n, n), _coord(kind, value)
        except _TRIAL_ERRORS as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
            continue
        seeds = [derive_seed(base_seed, table, n, n3, r, coord, s) for s in ("tensor", sensing)]
        pending.append(row)
        specs.append((kind, (n, n, n3), r, coord, *seeds, cfg))
    for row, outcome in zip(pending, _run_trials(specs)):
        row.update(outcome)
    return out


def run_table1(rows, base_seed: int = 0, cfg: AdmmConfig | None = None) -> list:
    """Gaussian-measurement recovery table.

    rows: iterable of (n, n3, r, m).  Returns one dict per row with the
    verdict fields, ranks read at TABLE_RANK_TOL; a row whose trial is
    rejected or fails to converge in LAPACK records its error and the
    batch continues.
    """
    return _run_table("gaussian", rows, base_seed, cfg)


def run_table2(rows, base_seed: int = 0, cfg: AdmmConfig | None = None) -> list:
    """Tensor completion table.

    rows: iterable of (n, n3, r, p); factors are drawn at the 1/n scale.
    """
    return _run_table("completion", rows, base_seed, cfg)


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
    ZeroMeasurements; a trial count, dimension or measurement count that is
    not a whole number, or a threshold that is negative or not finite,
    InvalidParameter; a rank that is not a whole number in
    [1, min(n1, n2)] InvalidRank; a tensor, or a Gaussian map, of more than
    `tensor._VALUE_LIMIT` values, or more trials than that in the grid,
    TooLarge (MapTooLarge for the map).
    """
    if kind not in ("gaussian", "completion"):
        raise InvalidParameter(f"kind must be 'gaussian' or 'completion', got {kind!r}")
    trials = _whole(trials, "trial count")
    if trials < 1:
        raise InvalidParameter(f"trials must be >= 1, got {trials}")
    if not values or not ranks:
        raise InvalidParameter("axis lists must be nonempty")
    _require_size(trials * len(values) * len(ranks), "trial list")
    if not 0 <= threshold < math.inf:  # also rejects NaN
        raise InvalidParameter(f"threshold must be a finite number >= 0, got {threshold}")
    n1, n2, n3 = _require_nonempty(dims)
    _require_size(n1 * n2 * n3, "tensor")
    if kind == "completion":
        for v in values:
            _require_rate(float(v))
    coords = [_coord(kind, v) for v in values]
    if kind == "gaussian":
        _require_size(max(coords) * n1 * n2 * n3, "dense map", MapTooLarge)
    ranks = [_require_rank(r, n1, n2) for r in ranks]  # 2.0 runs the trials of 2
    grid = PhaseGrid(kind=kind, dims=(n1, n2, n3), values=list(values),
                     ranks=ranks, trials=trials, base_seed=base_seed,
                     threshold=threshold)
    cells = [(v, c, r) for v, c in zip(values, coords) for r in ranks]
    outcomes = iter(_run_trials([
        (kind, grid.dims, r, c, derive_seed(base_seed, kind, c, r, t, "tensor"),
         derive_seed(base_seed, kind, c, r, t, "sensing"), cfg)
        for _, c, r in cells for t in range(trials)]))
    for v, _, r in cells:
        done = [next(outcomes) for _ in range(trials)]
        errs = [o["rel_error"] for o in done if "error" not in o]
        iters = [o["iterations"] for o in done if "error" not in o]
        grid.cells.append(PhaseCell(
            m_or_p=float(v), r=r, trials=trials,
            successes=sum(err <= threshold for err in errs),
            mean_rel_err=float(np.mean(errs)) if errs else float("nan"),
            mean_iters=float(np.mean(iters)) if iters else float("nan"),
            errors=[f"trial {t}: {o['error']}" for t, o in enumerate(done) if "error" in o],
        ))
    return grid
