"""The benchmark's workloads: the two paper tables and a CLI desk session.

A workload is run as passes.  A pass builds its inputs, runs every trial
and gates every trial's output; a failed gate is counted in the pass, never
raised.  `setup` times the input building on its own.  All inputs are pure
functions of the workload seed, and every pass of a run repeats the same
inputs.

The gates read the program's outputs with the benchmark's own arithmetic
and file parsers, so a defect in `tubal`'s error or file code cannot pass
its own check.
"""

import contextlib
import csv
import io as _io
import math
import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tubal
import tubal.cli
import tubal.io
from tracer import Tracer

# Ranks of recovered tensors are read at the looser tolerance run_table1/2 use.
RANK_TOL = 1e-3
INPAINT_PSNR_FLOOR = 40.0


@dataclass
class Trial:
    label: str
    ok: bool
    iterations: int = 0
    rel_error: float = float("nan")
    detail: str = ""


@dataclass
class Pass:
    wall_s: float = 0.0
    solve_s: float = 0.0
    trials: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    admm_iters: int = 0
    replays: int = 0
    replays_identical: int = 0

    @property
    def attempted(self):
        return len(self.trials)

    @property
    def failed(self):
        return sum(not t.ok for t in self.trials)


def rel_error(xhat, x0):
    return float(np.linalg.norm(xhat - x0) / np.linalg.norm(x0))


def dof(n1, n2, n3, r):
    return r * (n1 + n2 - r) * n3


def sub_seed(seed, *coords):
    """A 31-bit seed for one input of the workload, drawn from the workload seed."""
    return int(np.random.SeedSequence([seed, *coords]).generate_state(1)[0] >> 1)


# -- file parsers independent of tubal.io ------------------------------------

def parse_t3(path):
    data = Path(path).read_bytes()
    if data[:5] != b"T3R1\x01":
        raise ValueError(f"{path}: not a version-1 tensor file")
    dims = np.frombuffer(data[5:29], dtype="<u8").astype(int)
    return np.frombuffer(data[29:], dtype="<f8").reshape(tuple(dims), order="F")


def parse_pnm(path):
    data = Path(path).read_bytes()
    head = re.match(rb"(P[56])\s+(\d+)\s+(\d+)\s+255\s", data)
    if head is None:
        raise ValueError(f"{path}: not a binary pixmap with maxval 255")
    channels = 1 if head[1] == b"P5" else 3
    shape = (int(head[3]), int(head[2]), channels)
    pixels = np.frombuffer(data[head.end():], dtype=np.uint8).reshape(shape)
    return pixels[:, :, 0] if channels == 1 else pixels


def write_pnm(path, pixels):
    magic = b"P6" if pixels.ndim == 3 else b"P5"
    h, w = pixels.shape[:2]
    Path(path).write_bytes(magic + f"\n{w} {h}\n255\n".encode() + pixels.tobytes())


def psnr_db(out, ref):
    out, ref = out.astype(float), ref.astype(float)
    mse = float(((out - ref) ** 2).mean())
    return math.inf if mse == 0.0 else 10.0 * math.log10(float(ref.max()) ** 2 / mse)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- Table 1 and Table 2 -------------------------------------------------------

class TableWorkload:
    """One Table-1 (Gaussian) or Table-2 (completion) reproduction per pass.

    Each row is one trial: generate, measure, solve, verdict, then write the
    recovered tensor and read it back.  Row seeds are the ones run_table1 and
    run_table2 derive from a base seed, with the workload seed as the base.
    """

    def __init__(self, kind, rows, tol):
        self.kind, self.rows, self.tol = kind, rows, tol
        self.rate = "m" if kind == "gaussian" else "p"

    def setup_row(self, row, seed):
        n, n3, r, v = row
        if self.kind == "gaussian":
            seed_t = tubal.derive_seed(seed, "table1", n, n3, r, v, "tensor")
            seed_a = tubal.derive_seed(seed, "table1", n, n3, r, v, "map")
            x0 = tubal.rand_low_tubal(n, n, n3, r, seed_t, scale="unit")
            gmap = tubal.make_gaussian_map(v, (n, n, n3), seed_a)
            return x0, (gmap, tubal.apply_map(gmap, x0))
        seed_t = tubal.derive_seed(seed, "table2", n, n3, r, float(v), "tensor")
        seed_o = tubal.derive_seed(seed, "table2", n, n3, r, float(v), "mask")
        x0 = tubal.rand_low_tubal(n, n, n3, r, seed_t, scale="inv_n")
        mask = tubal.make_bernoulli_mask((n, n, n3), v, seed_o)
        return x0, (mask, tubal.proj_omega(mask, x0))

    def setup(self, seed, workdir):
        """One set-up of every row, for the set-up samples; returns seconds."""
        t0 = time.perf_counter()
        for row in self.rows:
            self.setup_row(row, seed)
        return time.perf_counter() - t0

    def trial(self, i, row, seed, workdir):
        """One row: set-up, solve, verdict, output; returns (Trial, table row)."""
        n, n3, r, v = row
        solver = tubal.solve_gaussian if self.kind == "gaussian" else tubal.solve_completion
        x0, inputs = self.setup_row(row, seed)
        xhat, report = solver(*inputs)
        verdict = tubal.make_verdict(xhat, x0, report, rank_tol=RANK_TOL)
        path = workdir / f"xhat_{i}.t3"
        tubal.io.write_tensor(path, xhat)
        round_trip = np.array_equal(tubal.io.read_tensor(path), xhat)
        err = rel_error(xhat, x0)
        sensing = (f"map_bytes={8 * inputs[0].a.size} (computed)"
                   if self.kind == "gaussian" else f"observed={inputs[0].count}")
        trial = Trial(f"n={n} n3={n3} r={r} {self.rate}={v}",
                      err <= self.tol and verdict.rank_estimate == r and round_trip,
                      report.iterations, err,
                      f"rank={verdict.rank_estimate} round_trip={round_trip} {sensing}")
        return trial, {"n": n, "n3": n3, "r": r, self.rate: v,
                       "rank_estimate": verdict.rank_estimate, "rel_error": verdict.rel_error,
                       "iterations": report.iterations, "converged": report.converged}

    def run_pass(self, seed, workdir, tracer):
        result, table = Pass(), []
        t_pass = time.perf_counter()
        with tracer.span("bench.pass"):
            for i, row in enumerate(self.rows):
                tracer.trial = i
                with tracer.span("bench.trial"):
                    try:
                        trial, line = self.trial(i, row, seed, workdir)
                        table.append(line)
                    except Exception as exc:  # a crash fails the row, not the run
                        trial = Trial(f"row {row}", False, detail=f"{type(exc).__name__}: {exc}")
                result.trials.append(trial)
            tracer.trial = None
            tubal.io.write_table_csv(workdir / "table.csv", table, self.rate)
        result.wall_s = time.perf_counter() - t_pass
        result.admm_iters = sum(t.iterations for t in result.trials)
        return result


# -- CLI desk session ---------------------------------------------------------

@dataclass(frozen=True)
class DeskSpec:
    gen: tuple                 # (n1, n2, n3, r) for gen, recover and complete
    complete_p: float
    phase_gaussian: tuple      # (n, n3, ranks, trials)
    phase_completion: tuple    # (n, n3, rates, ranks, trials)
    image_side: int
    inpaint_p: float
    frames: tuple              # (count, side, p)
    frames_psnr_floor: float


def fourier_product(p, q):
    """The tensor product p * q of (n1, r, n3) and (r, n2, n3), slice by slice
    in the Fourier domain, computed without tubal."""
    fp = np.fft.fft(p, axis=2).transpose(2, 0, 1)
    fq = np.fft.fft(q, axis=2).transpose(2, 0, 1)
    return np.ascontiguousarray(np.fft.ifft(fp @ fq, axis=0).real.transpose(1, 2, 0))


def rank1_colour_image(side, seed):
    """An entrywise-positive colour image whose (h, 3, w) tensor has tubal rank 1."""
    gen = np.random.default_rng(sub_seed(seed, 1))
    t = fourier_product(0.5 + gen.random((side, 1, side)), 0.5 + gen.random((1, 3, side)))
    return np.rint(t / t.max() * 255.0).astype(np.uint8).transpose(0, 2, 1).copy()


def moving_texture(count, side, seed):
    """`count` grayscale frames of a smooth periodic texture drifting by one
    pixel per frame, plus pixel noise; as a tensor it has full tubal rank."""
    gen = np.random.default_rng(sub_seed(seed, 2))
    k = np.fft.fftfreq(side)
    lowpass = np.exp(-(k[:, None] ** 2 + k[None, :] ** 2) / (2 * 0.06 ** 2))
    tex = np.fft.ifft2(np.fft.fft2(gen.standard_normal((side, side))) * lowpass).real
    tex = 0.15 + 0.7 * (tex - tex.min()) / (tex.max() - tex.min())
    frames = [np.roll(tex, (j // 2, j), axis=(0, 1)) + 0.02 * gen.standard_normal((side, side))
              for j in range(count)]
    return [np.rint(np.clip(f, 0.0, 1.0) * 255.0).astype(np.uint8) for f in frames]


class DeskWorkload:
    """One scripted `tubal` session, run in-process through tubal.cli.main:
    gen, recover, complete, two phase grids, inpaint, frames, then a replay
    of every manifest compared byte for byte with the original outputs."""

    def __init__(self, spec):
        self.spec = spec

    def run_cli(self, tracer, argv):
        """tubal.cli.main's exit code; a usage error or a crash is a code too."""
        argv = [str(a) for a in argv]
        with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(_io.StringIO()):
            try:
                return tubal.cli.main(argv)
            except SystemExit as exc:
                return exc.code
            except Exception:  # a crash fails the job, not the run
                traceback.print_exc()
                return "crashed"

    def prepare(self, seed, workdir, tracer):
        """gen, plus writing the image and frame files; returns gen's exit code."""
        n1, n2, n3, r = self.spec.gen
        count, side, _ = self.spec.frames
        code = self.run_cli(tracer, ["gen", n1, n2, n3, r, "--seed", sub_seed(seed, 3),
                                     "--out", workdir / "gen"])
        write_pnm(workdir / "scene.ppm", rank1_colour_image(self.spec.image_side, seed))
        (workdir / "frames").mkdir(exist_ok=True)
        for j, frame in enumerate(moving_texture(count, side, seed)):
            write_pnm(workdir / "frames" / f"f{j:03d}.pgm", frame)
        return code

    def setup(self, seed, workdir):
        """One set-up, for the set-up samples; returns seconds."""
        t0 = time.perf_counter()
        self.prepare(seed, workdir, Tracer(layers=()))
        return time.perf_counter() - t0

    def jobs(self, seed, w):
        s = self.spec
        n1, n2, n3, r = s.gen
        x0 = w / "gen" / "x0.t3"
        gn, gn3, granks, gtrials = s.phase_gaussian
        # the demo-05 grid: m at half and at the dof of rank 2, and at the
        # sufficient counts for ranks 1 and 3
        d2 = dof(gn, gn, gn3, 2)
        gvalues = [d2 // 2, d2, 3 * dof(gn, gn, gn3, 1) + 1, 3 * dof(gn, gn, gn3, 3) + 1]
        cn, cn3, rates, cranks, ctrials = s.phase_completion
        count, side, fp = s.frames
        return [
            ("recover", ["recover", x0, "--m", 3 * dof(n1, n2, n3, r) + 1,
                         "--seed", sub_seed(seed, 4), "--history"]),
            ("complete", ["complete", x0, "--p", s.complete_p,
                          "--seed", sub_seed(seed, 5), "--history"]),
            ("phase_gaussian", ["phase", "gaussian", "--n1", gn, "--n2", gn, "--n3", gn3,
                                "--values", ",".join(map(str, gvalues)),
                                "--ranks", ",".join(map(str, granks)),
                                "--trials", gtrials, "--seed", sub_seed(seed, 6)]),
            ("phase_completion", ["phase", "completion", "--n1", cn, "--n2", cn, "--n3", cn3,
                                  "--values", ",".join(map(str, rates)),
                                  "--ranks", ",".join(map(str, cranks)),
                                  "--trials", ctrials, "--seed", sub_seed(seed, 7)]),
            ("inpaint", ["inpaint", w / "scene.ppm", "--p", s.inpaint_p,
                         "--seed", sub_seed(seed, 8)]),
            ("frames", ["frames", w / "frames", "--p", fp, "--seed", sub_seed(seed, 9)]),
        ]

    def gate(self, job, code, out, w):
        """(ok, rel_error, detail) for one job's exit code and output directory."""
        if code != 0:
            return False, float("nan"), f"exit code {code}"
        if job == "gen":
            return parse_t3(out / "x0.t3").shape == self.spec.gen[:3], float("nan"), ""
        if job in ("recover", "complete"):
            err = rel_error(parse_t3(out / "xhat.t3"), parse_t3(w / "gen" / "x0.t3"))
            return err <= 1e-6, err, ""
        if job == "inpaint":
            db = psnr_db(parse_pnm(out / "inpainted.ppm"), parse_pnm(w / "scene.ppm"))
            return db >= INPAINT_PSNR_FLOOR, float("nan"), f"psnr={db:.2f}dB"
        if job == "frames":
            names = sorted(p.name for p in (w / "frames").iterdir())
            got = np.stack([parse_pnm(out / n) for n in names])
            ref = np.stack([parse_pnm(w / "frames" / n) for n in names])
            db = psnr_db(got, ref)
            return db >= self.spec.frames_psnr_floor, float("nan"), f"psnr={db:.2f}dB"
        bad = [c for c in read_csv(out / "grid.csv") if not phase_cell_ok(c)]
        return not bad, float("nan"), "; ".join(
            f"r={c['r']} value={c['m_or_p']} {c['successes']}/{c['trials']}" for c in bad)

    def run_pass(self, seed, workdir, tracer):
        result = Pass()
        t_pass = time.perf_counter()
        with tracer.span("bench.pass"):
            codes = {"gen": self.prepare(seed, workdir, tracer)}
            outs = {"gen": workdir / "gen"}
            result.trials.append(
                checked("gen", self.gate, "gen", codes["gen"], outs["gen"], workdir))
            for job, argv in self.jobs(seed, workdir):
                outs[job] = workdir / "out" / job
                codes[job] = self.run_cli(tracer, argv + ["--out", outs[job]])
                result.trials.append(checked(job, self.gate, job, codes[job], outs[job], workdir))
            for job, code in codes.items():
                again = workdir / "replay" / job
                replay_code = self.run_cli(tracer, ["replay", outs[job] / "manifest.json",
                                                    "--out", again])
                trial = checked(f"replay {job}", same_outputs, code, outs[job], replay_code, again)
                result.replays += 1
                result.replays_identical += trial.ok
                result.trials.append(trial)
        result.wall_s = time.perf_counter() - t_pass
        result.admm_iters = desk_iterations(workdir)
        written = [p for d in ("gen", "out", "replay") for p in (workdir / d).rglob("*")
                   if p.is_file()]
        result.notes.append(f"outputs: files_written={len(written)} bytes_written="
                            f"{sum(p.stat().st_size for p in written)} (computed)")
        return result


def checked(label, gate, *args):
    """A Trial from gate(*args) -> (ok, rel_error, detail); missing or
    malformed output fails the trial instead of stopping the run."""
    try:
        ok, err, detail = gate(*args)
    except (OSError, ValueError, KeyError) as exc:
        ok, err, detail = False, float("nan"), f"{type(exc).__name__}: {exc}"
    return Trial(label, ok, rel_error=err, detail=detail)


def same_outputs(code, out, replay_code, again):
    """A replay must exit as the original did and write the same bytes."""
    same = replay_code == code and dir_bytes(out) == dir_bytes(again)
    return same, float("nan"), f"exit code {replay_code}"


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir()) if p.is_file()}


def phase_cell_ok(cell):
    """The fixed success pattern away from the transition: a cell must fail in
    every trial when it has fewer measurements (or expected observed entries)
    than the rank's degrees of freedom, and succeed in every trial when it has
    at least the 3*dof + 1 of the Gaussian bound.  Cells in between are free."""
    n1, n2, n3, r = (int(cell[k]) for k in ("n1", "n2", "n3", "r"))
    v = float(cell["m_or_p"])
    count = v if cell["kind"] == "gaussian" else v * n1 * n2 * n3
    trials, successes = int(cell["trials"]), int(cell["successes"])
    if count < dof(n1, n2, n3, r):
        return successes == 0
    if count >= 3 * dof(n1, n2, n3, r) + 1:
        return successes == trials
    return True


def desk_iterations(workdir):
    """ADMM iterations of every solver call in the session and its replays,
    read from report.csv and from grid.csv as mean_iters * trials."""
    total = 0
    for path in sorted(workdir.rglob("report.csv")):
        total += sum(int(row["iterations"]) for row in read_csv(path))
    for path in sorted(workdir.rglob("grid.csv")):
        total += sum(round(float(row["mean_iters"]) * int(row["trials"]))
                     for row in read_csv(path) if row["mean_iters"] != "nan")
    return total


# -- sizes --------------------------------------------------------------------

TABLE1_ROWS = [(10, 5, 2, 541), (20, 5, 4, 2161), (30, 5, 6, 4861)]
TABLE2_ROWS = [(50, 50, 3, 0.47), (50, 50, 5, 0.57), (100, 100, 5, 0.39)]
DESK = DeskSpec(gen=(20, 20, 5, 2), complete_p=0.7,
                phase_gaussian=(12, 3, (1, 2, 3), 2),
                phase_completion=(20, 10, (0.3, 0.6), (2, 4), 2),
                image_side=64, inpaint_p=0.5, frames=(32, 64, 0.5), frames_psnr_floor=33.0)

# Tiny sizes run every workload in seconds; the benchmark's tests use them.
TINY_TABLE1 = [(6, 3, 1, 3 * dof(6, 6, 3, 1) + 1)]
TINY_TABLE2 = [(12, 6, 2, 0.7)]
TINY_DESK = DeskSpec(gen=(6, 6, 3, 1), complete_p=0.95,
                     phase_gaussian=(4, 2, (1, 2), 1),
                     phase_completion=(6, 3, (0.3, 0.9), (1,), 1),
                     image_side=8, inpaint_p=0.8, frames=(4, 8, 0.6), frames_psnr_floor=25.0)


def make_workloads(tiny=False):
    return {
        "gauss_table1": TableWorkload("gaussian", TINY_TABLE1 if tiny else TABLE1_ROWS, 1e-6),
        "complete_table2": TableWorkload("completion", TINY_TABLE2 if tiny else TABLE2_ROWS,
                                         1e-5),
        "cli_desk": DeskWorkload(TINY_DESK if tiny else DESK),
    }
