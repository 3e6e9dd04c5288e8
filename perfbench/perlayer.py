"""Kernel probes and the per-layer metrics of a traced run.

Span metrics come from the traced pass.  Kernel probes call public `tubal`
functions, untraced, at the workload's own shapes and report the median of
at least three calls.  Byte counts are computed from array shapes, not
measured, and repeat exactly.
"""

import math
import statistics
import time

import numpy as np

import tubal
from tracer import TRACED
from workloads import (TABLE1_ROWS, TINY_TABLE1, DeskWorkload, dof, fourier_product,
                       moving_texture)

SOLVERS = ("solve.solve_gaussian", "solve.solve_completion")
VERDICT = ("lab.make_verdict", "lab.rel_error", "lab.psnr")
IO_READ = tuple(f"io.{n}" for n in TRACED["io"][1] if n.startswith("read_"))
IO_WRITE = tuple(f"io.{n}" for n in TRACED["io"][1] if n.startswith("write_"))
SELF_LAYERS = ("rng", "sensing", "tensor", "tsvd", "solve", "lab", "io", "bench")
CLI_JOBS = ("gen", "recover", "complete", "phase", "inpaint", "frames", "replay")

# (name, unit, better); the order in which a traced run prints them
PER_LAYER = (
    [("rng.normal_fill_s", "s", "lower"), ("rng.normal_fill_bytes", "B", "lower"),
     ("sensing.make_gaussian_map_s", "s", "lower"), ("sensing.map_bytes", "B", "lower"),
     ("sensing.apply_map_s", "s", "lower"), ("sensing.adjoint_map_s", "s", "lower"),
     ("solve.s_per_iter", "s", "lower"), ("solve.busy_s", "s", "lower"),
     ("solve.iters", "count", "lower"), ("solve.calls", "count", "lower"),
     ("solve.converged_frac", "fraction", "higher"),
     ("tsvd.svt_keep_s", "s", "lower"), ("tsvd.svt_zero_s", "s", "lower"),
     ("tensor.fft_dim3_s", "s", "lower"), ("tensor.ifft_dim3_s", "s", "lower"),
     ("tensor.fft_bytes", "B", "lower"),
     ("tsvd.tubal_rank_s", "s", "lower"), ("lab.verdict_s", "s", "lower"),
     ("tensor.tprod_s", "s", "lower"),
     ("lab.trial_s", "s", "lower"), ("lab.trials", "count", "higher"),
     ("lab.max_rel_error", "ratio", "lower")]
    + [(f"cli.{job}_s", "s", "lower") for job in CLI_JOBS]
    + [("cli.replay_identical_frac", "fraction", "higher"),
       ("io.read_s", "s", "lower"), ("io.write_s", "s", "lower"),
       ("io.bytes_written", "B", "lower"), ("io.files_written", "count", "lower")]
    + [(f"{layer}.self_s", "s", "lower") for layer in SELF_LAYERS]
    + [("trace.overhead_s", "s", "lower")]
)


def median_time(fn, *args, min_reps=3, min_seconds=0.2, max_reps=50):
    times = []
    while len(times) < min_reps or (sum(times) < min_seconds and len(times) < max_reps):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def low_rank(dims, r, seed):
    """A tensor of tubal rank r plus noise 1e-8 times its largest entry, the
    shape of an ADMM iterate near convergence."""
    n1, n2, n3 = dims
    gen = np.random.default_rng(seed)
    x = fourier_product(gen.standard_normal((n1, r, n3)), gen.standard_normal((r, n2, n3)))
    return x + 1e-8 * np.abs(x).max() * gen.standard_normal(dims)


def probe_shapes(workload, tiny, seed):
    """(gaussian (dims, m), normal_fill count, SVT input, its rank) at the
    workload's own shapes.  complete_table2 builds no Gaussian map, so its
    sensing probe uses the smallest Table-1 row."""
    if isinstance(workload, DeskWorkload):
        n1, n2, n3, r = workload.spec.gen
        m = 3 * dof(n1, n2, n3, r) + 1
        count, side, _ = workload.spec.frames
        frames = moving_texture(count, side, seed)
        y = np.stack(frames, axis=1).astype(float) / 255.0  # (h, frames, w) as `frames` builds it
        return ((n1, n2, n3), m), m * n1 * n2 * n3, y, min(y.shape[:2])
    n, n3, r, v = workload.rows[-1]
    y = low_rank((n, n, n3), r, seed)
    if workload.kind == "gaussian":
        return ((n, n, n3), v), v * n * n * n3, y, r
    gn, gn3, _, gm = (TINY_TABLE1 if tiny else TABLE1_ROWS)[0]
    return ((gn, gn, gn3), gm), n * r * n3, y, r


def svt_thresholds(y, r):
    """tau that keeps exactly r singular values in every Fourier slice, and a
    tau above the largest one, which zeroes the result."""
    sv = np.linalg.svd(np.fft.fft(y, axis=2).transpose(2, 0, 1), compute_uv=False)
    keep_low = sv[:, r - 1].min()
    drop_high = sv[:, r].max() if r < sv.shape[1] else 0.0
    tau_keep = math.sqrt(keep_low * drop_high) if drop_high > 0 else keep_low / 2
    return tau_keep, 2.0 * sv.max()


def probe(workload, tiny, seed):
    (dims, m), draw, y, r = probe_shapes(workload, tiny, seed)
    out = {}
    out["rng.normal_fill_s"] = median_time(
        lambda: tubal.normal_fill(tubal.substream(seed, "perfbench-probe"), draw))
    out["rng.normal_fill_bytes"] = 8 * draw
    out["sensing.make_gaussian_map_s"] = median_time(tubal.make_gaussian_map, m, dims, seed)
    gmap = tubal.make_gaussian_map(m, dims, seed)
    x = np.random.default_rng(seed).standard_normal(dims)
    out["sensing.map_bytes"] = 8 * gmap.a.size
    out["sensing.apply_map_s"] = median_time(tubal.apply_map, gmap, x)
    out["sensing.adjoint_map_s"] = median_time(tubal.adjoint_map, gmap, tubal.apply_map(gmap, x))
    del gmap
    tau_keep, tau_zero = svt_thresholds(y, r)
    out["tsvd.svt_keep_s"] = median_time(tubal.svt, y, tau_keep)
    out["tsvd.svt_zero_s"] = median_time(tubal.svt, y, tau_zero)
    out["tensor.fft_dim3_s"] = median_time(tubal.fft_dim3, y)
    out["tensor.ifft_dim3_s"] = median_time(tubal.ifft_dim3, tubal.fft_dim3(y))
    out["tensor.fft_bytes"] = 24 * y.size  # float64 in, complex128 out (or back)
    return out


def longest_solve(tracer):
    return max(tracer.named(*SOLVERS), key=lambda s: s.duration)


def span_metrics(tracer):
    solves = tracer.named(*SOLVERS)
    reports = [s.report for s in solves]
    longest = longest_solve(tracer)
    trials = tracer.named("bench.trial") or solves
    out = {
        "solve.s_per_iter": longest.duration / longest.report.iterations,
        "solve.busy_s": tracer.busy(*SOLVERS),
        "solve.iters": sum(rep.iterations for rep in reports),
        "solve.calls": len(solves),
        "solve.converged_frac": sum(rep.converged for rep in reports) / len(reports),
        "tsvd.tubal_rank_s": tracer.busy("tsvd.tubal_rank"),
        "lab.verdict_s": tracer.busy(*VERDICT),
        "tensor.tprod_s": tracer.busy("tensor.tprod"),
        "lab.trial_s": statistics.median(s.duration for s in trials),
        "lab.trials": len(trials),
        "io.read_s": tracer.busy(*IO_READ),
        "io.write_s": tracer.busy(*IO_WRITE),
        "io.bytes_written": tracer.io_bytes,
        "io.files_written": tracer.io_files,
    }
    selfs = tracer.self_times()
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return out


def cli_metrics(tracer, result):
    out = {f"cli.{job}_s": tracer.busy(f"cli.{job}") for job in CLI_JOBS}
    out["cli.replay_identical_frac"] = result.replays_identical / result.replays
    return out
