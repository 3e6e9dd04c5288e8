"""Command-line surface.

Subcommands: gen, recover, complete, phase, inpaint, frames, info, replay.
Every file-producing command writes a manifest.json next to its outputs;
`replay` re-executes a manifest into a fresh directory and, because every
randomized object is a pure function of its seed, reproduces the outputs
byte for byte.

Replay has no way into the runners of its own: it rebuilds the recorded
command line from the manifest's params and parses it with the command-line
parser, so types, choices and required flags are checked the same way as
for a fresh command.  A mistyped or incomplete manifest exits 2 and writes
no file; a key the manifest lacks but the parser defaults takes that
default; a key the parser does not know is carried into the replayed
manifest unchanged.

Exit codes: 0 success, 2 validation error, 3 solver hit the iteration cap,
4 I/O failure.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io
from .errors import FrameSizeMismatch, InvalidParameter, TubalError
from .lab import (
    TABLE_RANK_TOL,
    incoherence,
    phase_grid,
    psnr,
    rand_low_tubal,
    rel_error,
)
from .sensing import apply_map, make_bernoulli_mask, make_gaussian_map
from .solve import AdmmConfig, solve_completion, solve_gaussian
from .tensor import norms
from .tsvd import _require_rel_tol, spectral_norm, tnn, tsvd, tubal_rank

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_NOT_CONVERGED = 3
_EXIT_IO = 4

# the AdmmConfig fields set by the solver flags, with their types
_CFG_TYPES = {"eps": float, "max_iter": int, "rho": float, "mu0": float, "mu_max": float}


def _cfg(params, record_history=False) -> AdmmConfig:
    return AdmmConfig(record_history=record_history, **{k: params[k] for k in _CFG_TYPES})


def _finish(outdir: Path, subcommand: str, params: dict, outputs: list,
            report=None, extra=None) -> int:
    """Write report.csv and the optional history.csv of a solve, then the manifest.

    Returns the exit code: 3 when the solve hit the iteration cap, else 0.
    """
    outputs = list(outputs)
    if report is not None:
        io.write_report_csv(outdir / "report.csv", report, extra=extra)
        outputs.append("report.csv")
        if report.history is not None:
            io.write_history_csv(outdir / "history.csv", report.history)
            outputs.append("history.csv")
    io.write_manifest(outdir / "manifest.json", {
        "format": 1,
        "subcommand": subcommand,
        "params": params,
        "outputs": sorted(outputs),
    })
    return _EXIT_OK if report is None or report.converged else _EXIT_NOT_CONVERGED


def run_gen(params, outdir: Path) -> int:
    x0 = rand_low_tubal(params["n1"], params["n2"], params["n3"], params["r"],
                        params["seed"], params["scale"])
    io.write_tensor(outdir / "x0.t3", x0)
    code = _finish(outdir, "gen", params, ["x0.t3"])
    print(f"wrote {outdir / 'x0.t3'} shape {x0.shape} rank {params['r']}")
    return code


def _mask_for(shape, params):
    if params.get("mask"):  # frames has no --mask
        return io.read_mask(params["mask"])
    return make_bernoulli_mask(shape, params["p"], params["seed"])


def _recovery_cfg(params) -> AdmmConfig:
    """recover's and complete's solver settings; the rank tolerance is checked with them."""
    _require_rel_tol(params["rank_tol"])
    return _cfg(params, record_history=params["history"])


def _finish_recovery(outdir: Path, subcommand: str, params: dict, outputs: list,
                     truth, xhat, report, label: str) -> int:
    """Write xhat.t3, then the report with the error and rank against the truth."""
    io.write_tensor(outdir / "xhat.t3", xhat)
    err = rel_error(xhat, truth)
    rank = tubal_rank(xhat, params["rank_tol"])
    code = _finish(outdir, subcommand, params, [*outputs, "xhat.t3"], report,
                   extra={"rel_error": err, "rank_estimate": rank})
    print(f"{label} iterations={report.iterations} "
          f"converged={report.converged} rel_error={err:.3e} rank={rank}")
    return code


def run_recover(params, outdir: Path) -> int:
    cfg = _recovery_cfg(params)
    x0 = io.read_tensor(params["tensor"])
    gmap = make_gaussian_map(params["m"], x0.shape, params["seed"])
    xhat, report = solve_gaussian(gmap, apply_map(gmap, x0), cfg)
    return _finish_recovery(outdir, "recover", params, [], x0, xhat, report,
                            f"m={params['m']}")


def run_complete(params, outdir: Path) -> int:
    cfg = _recovery_cfg(params)
    m_full = io.read_tensor(params["tensor"])
    mask = _mask_for(m_full.shape, params)
    xhat, report = solve_completion(mask, m_full, cfg)
    io.write_mask(outdir / "mask.om", mask)
    return _finish_recovery(outdir, "complete", params, ["mask.om"], m_full, xhat, report,
                            f"p={mask.p} observed={mask.count}")


def run_phase(params, outdir: Path) -> int:
    grid = phase_grid(params["kind"], (params["n1"], params["n2"], params["n3"]),
                      params["values"], params["ranks"], params["trials"],
                      base_seed=params["seed"], threshold=params["threshold"],
                      cfg=_cfg(params))
    outputs = ["grid.csv"]
    io.write_grid_csv(outdir / "grid.csv", grid)
    if params["matrix"]:
        lines = []
        for r in grid.ranks:
            rates = [c.success_rate for c in grid.cells if c.r == r]
            lines.append(" ".join(io.fmt(v) for v in rates))
        (outdir / "grid_matrix.txt").write_text("\n".join(lines) + "\n")
        outputs.append("grid_matrix.txt")
    code = _finish(outdir, "phase", params, outputs)
    for cell in grid.cells:
        print(f"r={cell.r} value={cell.m_or_p:g} "
              f"success={cell.successes}/{cell.trials} "
              f"mean_rel_err={cell.mean_rel_err:.3e}")
    return code


def _complete_pixels(outdir: Path, params: dict, tensor):
    """Complete a [0, 1] pixel tensor and write mask.om; returns (clipped xhat, report, psnr)."""
    mask = _mask_for(tensor.shape, params)
    xhat, report = solve_completion(mask, tensor, _cfg(params))
    io.write_mask(outdir / "mask.om", mask)
    xhat = np.clip(xhat, 0.0, 1.0)
    return xhat, report, psnr(xhat, tensor)


def run_inpaint(params, outdir: Path) -> int:
    pixels, color = io.read_image(params["image"])
    xhat, report, quality = _complete_pixels(outdir, params, io.image_to_tensor(pixels, color))
    name = "inpainted.ppm" if color else "inpainted.pgm"
    io.write_image(outdir / name, io.tensor_to_image(xhat, color))
    code = _finish(outdir, "inpaint", params, [name, "mask.om"], report,
                   extra={"psnr_db": quality})
    print(f"psnr_db={quality:.2f} iterations={report.iterations} "
          f"converged={report.converged}")
    return code


def run_frames(params, outdir: Path) -> int:
    frame_dir = Path(params["frames"])
    paths = sorted(frame_dir.glob("*.pgm"))
    if not paths:
        raise TubalError(f"no .pgm frames found in {frame_dir}")
    frames = []
    for p in paths:
        pixels, color = io.read_image(p)
        if color:
            raise TubalError(f"{p}: frames must be grayscale P5")
        if frames and pixels.shape != frames[0].shape:
            raise FrameSizeMismatch(f"{p}: frame is {pixels.shape}, "
                                    f"expected {frames[0].shape}")
        frames.append(pixels)
    # frame j is lateral slice j of an (h, frames, w) tensor
    tensor = np.concatenate([io.image_to_tensor(f, False) for f in frames], axis=1)
    xhat, report, quality = _complete_pixels(outdir, params, tensor)
    for j, p in enumerate(paths):
        io.write_image(outdir / p.name, io.tensor_to_image(xhat[:, j:j + 1], False))
    code = _finish(outdir, "frames", params, [*(p.name for p in paths), "mask.om"],
                   report, extra={"psnr_db": quality})
    print(f"frames={len(frames)} psnr_db={quality:.2f} "
          f"converged={report.converged}")
    return code


def run_info(params, outdir=None) -> int:
    a = io.read_tensor(params["tensor"])
    rank = tubal_rank(a, params["rank_tol"])
    print(f"dims: {a.shape[0]} x {a.shape[1]} x {a.shape[2]}")
    print(f"tubal_rank: {rank}")
    print(f"tnn: {io.fmt(tnn(a))}")
    print(f"spectral_norm: {io.fmt(spectral_norm(a))}")
    print(f"fro_norm: {io.fmt(norms(a).fro)}")
    if rank >= 1:
        mu = incoherence(tsvd(a, mode="skinny", k=rank))
        print(f"incoherence_mu: {io.fmt(mu)}")
    return _EXIT_OK


_RUNNERS = {
    "gen": run_gen,
    "recover": run_recover,
    "complete": run_complete,
    "phase": run_phase,
    "inpaint": run_inpaint,
    "frames": run_frames,
}


class _ManifestParser(argparse.ArgumentParser):
    """The command-line parser for a replayed manifest: a usage error exits 2
    through TubalError instead of argparse's SystemExit."""

    def error(self, message):
        raise InvalidParameter(f"manifest params do not parse: {message}")


def _argv(parser: argparse.ArgumentParser, subcommand: str, params: dict) -> list:
    """The command line that parser parses back to params.

    A list becomes a comma-joined value, a True flag the bare flag; None and
    False are left out, tested by identity so that 0 and 0.0 are kept.  The
    positionals follow "--", so a path that starts with "-" stays a path.
    """
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options, positionals = [subcommand], []
    for action in subparsers.choices[subcommand]._actions:
        value = params.get(action.dest)
        if action.dest == "help" or value is None or value is False:
            continue
        if isinstance(value, list):
            value = ",".join(map(str, value))
        if not action.option_strings:
            positionals.append(str(value))
        elif value is True:
            options.append(action.option_strings[0])
        else:
            options.append(f"{action.option_strings[0]}={value}")
    return [*options, "--", *positionals]


def run_replay(params, outdir: Path) -> int:
    manifest = io.read_manifest(params["manifest"])
    if not (isinstance(manifest, dict) and manifest.get("format") == 1
            and isinstance(manifest.get("params"), dict)):
        raise TubalError(f"{params['manifest']}: not a format-1 manifest with params")
    sub, recorded = manifest.get("subcommand"), manifest["params"]
    if sub not in _RUNNERS:
        raise TubalError(f"manifest names unknown subcommand {sub!r}")
    parser = build_parser(_ManifestParser)
    args = parser.parse_args(_argv(parser, sub, {**recorded, "out": str(outdir)}))
    return _RUNNERS[sub]({**recorded, **_params_from_args(args)}, outdir)


def _number_list(text, cast):
    try:
        return [cast(v) for v in text.split(",") if v]
    except ValueError:
        raise InvalidParameter(f"not a comma-separated list of {cast.__name__}s: "
                               f"{text!r}") from None


def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = parser_class(
        prog="tubal",
        description="Low tubal rank tensor recovery: generation, sensing, "
                    "completion, and phase-transition experiments.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # flag sets shared by several subcommands
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--seed", type=int, default=0)
    outputs.add_argument("--out", required=True)
    solver = argparse.ArgumentParser(add_help=False)
    for key, cast in _CFG_TYPES.items():
        solver.add_argument("--" + key.replace("_", "-"), type=cast,
                            default=getattr(AdmmConfig, key))
    sampling = argparse.ArgumentParser(add_help=False)
    group = sampling.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=float)
    group.add_argument("--mask")
    recovery = argparse.ArgumentParser(add_help=False)
    recovery.add_argument("--history", action="store_true")
    recovery.add_argument("--rank-tol", type=float, default=TABLE_RANK_TOL)

    p = sub.add_parser("gen", parents=[outputs],
                       help="generate a random low-tubal-rank tensor")
    p.add_argument("n1", type=int)
    p.add_argument("n2", type=int)
    p.add_argument("n3", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--scale", choices=("unit", "inv_n"), default="unit")

    p = sub.add_parser("recover", parents=[outputs, solver, recovery],
                       help="recover a tensor from Gaussian measurements")
    p.add_argument("tensor")
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("complete", parents=[sampling, outputs, solver, recovery],
                       help="complete a tensor from sampled entries")
    p.add_argument("tensor")

    p = sub.add_parser("phase", parents=[outputs, solver],
                       help="empirical phase-transition grid")
    p.add_argument("kind", choices=("gaussian", "completion"))
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--n3", type=int, required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated m counts (gaussian) or p rates (completion)")
    p.add_argument("--ranks", required=True, help="comma-separated tubal ranks")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--threshold", type=float, default=1e-3)
    p.add_argument("--matrix", action="store_true",
                   help="also write a plain success-rate matrix")

    p = sub.add_parser("inpaint", parents=[sampling, outputs, solver],
                       help="complete the missing pixels of an image")
    p.add_argument("image")

    p = sub.add_parser("frames", parents=[outputs, solver],
                       help="complete a directory of grayscale frames")
    p.add_argument("frames")
    p.add_argument("--p", type=float, required=True)

    p = sub.add_parser("info", help="print spectral summary of a tensor file")
    p.add_argument("tensor")
    p.add_argument("--rank-tol", type=float, default=1e-6)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)

    return parser


def _params_from_args(args) -> dict:
    skip = {"subcommand", "out"}
    params = {k: v for k, v in vars(args).items() if k not in skip}
    if "kind" in params:
        cast = float if params["kind"] == "completion" else int
        params["values"] = _number_list(params["values"], cast)
        params["ranks"] = _number_list(params["ranks"], int)
    return params


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = _params_from_args(args)
        if args.subcommand == "info":
            return run_info(params)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.subcommand == "replay":
            return run_replay(params, outdir)
        return _RUNNERS[args.subcommand](params, outdir)
    except TubalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
