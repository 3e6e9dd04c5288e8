"""perfbench: end-to-end and per-layer timing of `tubal`, from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout; `tubal` is imported from its `src/`.  The
workloads are gauss_table1, complete_table2 and cli_desk (see README.md).
With --trace 0 the run repeats whole passes of the workload until the next
one would end after S seconds (at least one pass) and reports the medians
of the end-to-end metrics.  With --trace 1 it runs one untraced pass, one
traced pass and the kernel probes, and reports the per-layer metrics.  The
last line of output is one JSON object: correct, attempted, failed, metrics.
"""

import os

# One BLAS thread for every workload, set before numpy loads: on a 2-core
# machine two threads sped up the Table-1 Gaussian solve but slowed the
# Table-2 completion solve, and one thread leaves the second core idle.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import tubal  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot import tubal from {SRC}: {exc}")
if not Path(tubal.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: tubal was imported from {tubal.__file__}, not {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import perlayer  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import TINY_DESK, DeskWorkload, Trial, make_workloads  # noqa: E402

WORKLOADS = ("gauss_table1", "complete_table2", "cli_desk")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"),
              ("admm_iters", "count"), ("peak_rss_mb", "MB"))
# before and after the passes, set-up is sampled at least this often, and
# until this much time is spent
SETUP_MIN_SAMPLES, SETUP_MIN_SECONDS, SETUP_MAX_SAMPLES = 3, 0.5, 25


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all of them, each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny sizes: every workload in seconds, for the benchmark's tests")
    return p.parse_args(argv)


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "workload": args.workload, "seed": args.seed, "tiny": args.tiny,
    }


def one_pass(workload, seed, workdir, tracer):
    """Run a pass in a new directory with `tracer` installed; solve_s is its
    solver-span time.  Files stay until the run ends: deleting them between
    measurements queued discards on the disk that slowed later writes."""
    workdir.mkdir(parents=True)
    with tracer.installed():
        result = workload.run_pass(seed, workdir, tracer)
    result.solve_s = tracer.busy(*perlayer.SOLVERS)
    return result


def sample_setup(workload, seed, workdir):
    """Set-up samples, each overwriting the previous one's files."""
    workdir.mkdir(parents=True, exist_ok=True)
    samples = []
    while len(samples) < SETUP_MIN_SAMPLES or (
            sum(samples) < SETUP_MIN_SECONDS and len(samples) < SETUP_MAX_SAMPLES):
        samples.append(workload.setup(seed, workdir))
    return samples


def timed_run(workload, args, work):
    """Set-up samples, whole passes until the next would overrun, set-up
    samples again; sampling on both sides of the passes spreads the set-up
    samples over the run as the passes are."""
    deadline = time.perf_counter() + args.seconds
    setup = sample_setup(workload, args.seed, work / "setup")
    passes = []
    while not passes or time.perf_counter() + passes[-1].wall_s <= deadline:
        passes.append(one_pass(workload, args.seed, work / f"pass{len(passes)}",
                               Tracer(layers=("solve",))))
    setup += sample_setup(workload, args.seed, work / "setup")
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setup),
        "solve_s": statistics.median(p.solve_s for p in passes),
        "admm_iters": passes[0].admm_iters,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if len(passes) > 1:
        iters = [p.admm_iters for p in passes]
        passes[-1].trials.append(Trial("passes of identical inputs agree on admm_iters",
                                       len(set(iters)) == 1, detail=str(iters)))
    return metrics, passes, [f"passes={len(passes)} setup_samples={len(setup)}"]


def traced_run(workload, args, work):
    """One untraced pass, one traced pass, kernel probes; per-layer metrics."""
    untraced = one_pass(workload, args.seed, work / "untraced", Tracer(layers=("solve",)))
    tracer = Tracer()
    traced = one_pass(workload, args.seed, work / "traced", tracer)
    metrics = perlayer.probe(workload, args.tiny, args.seed)
    metrics.update(perlayer.span_metrics(tracer))
    passes = [untraced, traced]
    errors = [t.rel_error for p in passes for t in p.trials if math.isfinite(t.rel_error)]
    metrics["lab.max_rel_error"] = max(errors, default=math.inf)
    if isinstance(workload, DeskWorkload):
        metrics.update(perlayer.cli_metrics(tracer, traced))
    else:
        # the table workloads make no CLI call: their cli.* figures come from
        # a tiny desk session, traced on its own
        desk_tracer = Tracer()
        desk = one_pass(DeskWorkload(TINY_DESK), args.seed, work / "desk", desk_tracer)
        metrics.update(perlayer.cli_metrics(desk_tracer, desk))
        passes.append(desk)
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    notes = [f"untraced wall_s={untraced.wall_s:.4f} traced wall_s={traced.wall_s:.4f}"]
    total = traced.wall_s
    for layer, secs in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
        notes.append(f"self {layer:8s} {secs:10.4f} s {100 * secs / total:6.2f}%")
    longest = perlayer.longest_solve(tracer)
    per_iter = metrics["solve.s_per_iter"]
    share = f"svt_keep_s is {metrics['tsvd.svt_keep_s'] / per_iter:.1%}"
    if longest.name == "solve.solve_gaussian":
        sensing = metrics["sensing.apply_map_s"] + metrics["sensing.adjoint_map_s"]
        share += f" and apply_map_s + adjoint_map_s {sensing / per_iter:.1%}"
    notes.append(f"longest solve: {longest.report.iterations} iterations in "
                 f"{longest.duration:.4f} s; {share} of its solve.s_per_iter")
    trials = sorted(s.duration for s in tracer.named("bench.trial")
                    or tracer.named(*perlayer.SOLVERS))
    p90 = (f" p90={statistics.quantiles(trials, n=10)[-1]:.4f} s"
           if len(trials) >= 100 else " p90 n/a (needs 100 trials)")
    notes.append(f"lab.trial median={statistics.median(trials):.4f} s n={len(trials)}{p90}")
    return {name: metrics[name] for name, _, _ in perlayer.PER_LAYER}, passes, notes


def run_all(args):
    """Every workload in its own process; then every metric of every
    workload by name, with its unit, and each workload's fail_frac."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + ["--tiny"] * args.tiny, capture_output=True, text=True)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name} {metric} = {m['value']!r} {m['unit']}")
        print(f"{name} fail_frac = {res['failed'] / res['attempted']!r}")
    print(json.dumps({
        "correct": all(res["correct"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": {f"{name}.{metric}": m for name, res in results.items()
                    for metric, m in res["metrics"].items()},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = make_workloads(args.tiny)[args.workload]
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} tiny={args.tiny}")
    print("env " + json.dumps(environment(args), sort_keys=True))
    try:
        run = traced_run if args.trace else timed_run
        metrics, passes, notes = run(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    failed = sum(p.failed for p in passes)
    attempted = sum(p.attempted for p in passes)
    for t in passes[0].trials + [t for p in passes[1:] for t in p.trials if not t.ok]:
        facts = [f"admm_iters={t.iterations} (computed)" if t.iterations else "",
                 f"rel_error={t.rel_error:.3e}" if math.isfinite(t.rel_error) else "", t.detail]
        print(f"{'ok  ' if t.ok else 'FAIL'} {t.label}: " + " ".join(f for f in facts if f))
    for note in passes[0].notes + notes:
        print(note)
    units = ({name: unit for name, unit, _ in perlayer.PER_LAYER} if args.trace
             else dict(END_TO_END))
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(f"fail_frac = {failed / attempted!r} ({failed}/{attempted} trials failed their gate)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
