"""Command-line surface.

Subcommands: gen, recover, complete, phase, inpaint, frames, info, replay.
Every file-producing command writes a manifest.json next to its outputs;
`replay` re-executes a manifest into a fresh directory and, because every
randomized object is a pure function of its seed, reproduces the outputs
byte for byte.

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

_CFG_KEYS = ("eps", "max_iter", "rho", "mu0", "mu_max")


def _cfg_from(params, record_history=False) -> AdmmConfig:
    """The solver settings in params; the rank tolerance is checked with them."""
    _require_rel_tol(params.get("rank_tol", 0.0))
    defaults = AdmmConfig()
    kwargs = {k: params.get(k, getattr(defaults, k)) for k in _CFG_KEYS}
    return AdmmConfig(record_history=record_history, **kwargs)


def _outdir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finish(outdir: Path, subcommand: str, params: dict, outputs: list):
    io.write_manifest(outdir / "manifest.json", {
        "format": 1,
        "subcommand": subcommand,
        "params": params,
        "outputs": sorted(outputs),
    })


def run_gen(params, outdir: Path) -> int:
    x0 = rand_low_tubal(params["n1"], params["n2"], params["n3"], params["r"],
                        params["seed"], params["scale"])
    io.write_tensor(outdir / "x0.t3", x0)
    _finish(outdir, "gen", params, ["x0.t3"])
    print(f"wrote {outdir / 'x0.t3'} shape {x0.shape} rank {params['r']}")
    return _EXIT_OK


def _mask_for(shape, params):
    if params.get("mask"):
        return io.read_mask(params["mask"])
    return make_bernoulli_mask(shape, params["p"], params["seed"])


def _finish_recovery(outdir: Path, subcommand: str, params: dict, outputs: list,
                     truth, xhat, report, label: str) -> int:
    """Write xhat.t3, report.csv, the optional history.csv and the manifest."""
    io.write_tensor(outdir / "xhat.t3", xhat)
    err = rel_error(xhat, truth)
    rank = tubal_rank(xhat, params["rank_tol"])
    io.write_report_csv(outdir / "report.csv", report,
                        extra={"rel_error": err, "rank_estimate": rank})
    outputs = [*outputs, "xhat.t3", "report.csv"]
    if report.history is not None:
        io.write_history_csv(outdir / "history.csv", report.history)
        outputs.append("history.csv")
    _finish(outdir, subcommand, params, outputs)
    print(f"{label} iterations={report.iterations} "
          f"converged={report.converged} rel_error={err:.3e} rank={rank}")
    return _EXIT_OK if report.converged else _EXIT_NOT_CONVERGED


def run_recover(params, outdir: Path) -> int:
    cfg = _cfg_from(params, record_history=params.get("history", False))
    x0 = io.read_tensor(params["tensor"])
    gmap = make_gaussian_map(params["m"], x0.shape, params["seed"])
    xhat, report = solve_gaussian(gmap, apply_map(gmap, x0), cfg)
    return _finish_recovery(outdir, "recover", params, [], x0, xhat, report,
                            f"m={params['m']}")


def run_complete(params, outdir: Path) -> int:
    cfg = _cfg_from(params, record_history=params.get("history", False))
    m_full = io.read_tensor(params["tensor"])
    mask = _mask_for(m_full.shape, params)
    xhat, report = solve_completion(mask, m_full, cfg)
    io.write_mask(outdir / "mask.om", mask)
    return _finish_recovery(outdir, "complete", params, ["mask.om"], m_full, xhat, report,
                            f"p={mask.p} observed={mask.count}")


def run_phase(params, outdir: Path) -> int:
    cfg = _cfg_from(params)
    grid = phase_grid(params["kind"], (params["n1"], params["n2"], params["n3"]),
                      params["values"], params["ranks"], params["trials"],
                      base_seed=params["seed"], threshold=params["threshold"],
                      cfg=cfg)
    outputs = ["grid.csv"]
    io.write_grid_csv(outdir / "grid.csv", grid)
    if params.get("matrix", False):
        lines = []
        for r in grid.ranks:
            rates = [c.success_rate for c in grid.cells if c.r == r]
            lines.append(" ".join(io.fmt(v) for v in rates))
        (outdir / "grid_matrix.txt").write_text("\n".join(lines) + "\n")
        outputs.append("grid_matrix.txt")
    _finish(outdir, "phase", params, outputs)
    for cell in grid.cells:
        print(f"r={cell.r} value={cell.m_or_p:g} "
              f"success={cell.successes}/{cell.trials} "
              f"mean_rel_err={cell.mean_rel_err:.3e}")
    return _EXIT_OK


def _complete_pixels(tensor, params):
    """Complete a [0, 1] pixel tensor; returns (clipped xhat, mask, report, psnr)."""
    mask = _mask_for(tensor.shape, params)
    xhat, report = solve_completion(mask, tensor, _cfg_from(params))
    xhat = np.clip(xhat, 0.0, 1.0)
    return xhat, mask, report, psnr(xhat, tensor)


def _finish_pixels(outdir: Path, subcommand: str, params: dict, images: dict,
                   mask, report, quality: float) -> int:
    """Write the completed images, mask.om, report.csv and the manifest."""
    for name, pixels in images.items():
        io.write_image(outdir / name, pixels)
    io.write_mask(outdir / "mask.om", mask)
    io.write_report_csv(outdir / "report.csv", report, extra={"psnr_db": quality})
    _finish(outdir, subcommand, params, [*images, "mask.om", "report.csv"])
    return _EXIT_OK if report.converged else _EXIT_NOT_CONVERGED


def run_inpaint(params, outdir: Path) -> int:
    pixels, color = io.read_image(params["image"])
    tensor = io.image_to_tensor(pixels, color)
    xhat, mask, report, quality = _complete_pixels(tensor, params)
    out_name = "inpainted.ppm" if color else "inpainted.pgm"
    code = _finish_pixels(outdir, "inpaint", params,
                          {out_name: io.tensor_to_image(xhat, color)},
                          mask, report, quality)
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
        frames.append(pixels)
    h, w = frames[0].shape
    for p, f in zip(paths, frames):
        if f.shape != (h, w):
            raise FrameSizeMismatch(f"{p}: frame is {f.shape}, expected {(h, w)}")

    tensor = np.empty((h, len(frames), w))
    for j, f in enumerate(frames):
        tensor[:, j, :] = f.astype(float) / 255.0
    xhat, mask, report, quality = _complete_pixels(tensor, params)
    images = {p.name: np.rint(xhat[:, j, :] * 255.0).astype(np.uint8)
              for j, p in enumerate(paths)}
    code = _finish_pixels(outdir, "frames", params, images, mask, report, quality)
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


class _ManifestParams(dict):
    """Replayed params: a key the runner reads but the manifest lacks is a usage error."""

    def __missing__(self, key):
        raise TubalError(f"manifest params lack {key!r}")


def run_replay(params, outdir: Path) -> int:
    manifest = io.read_manifest(params["manifest"])
    if not (isinstance(manifest, dict) and manifest.get("format") == 1
            and isinstance(manifest.get("params"), dict)):
        raise TubalError(f"{params['manifest']}: not a format-1 manifest with params")
    sub = manifest.get("subcommand")
    if sub not in _RUNNERS:
        raise TubalError(f"manifest names unknown subcommand {sub!r}")
    return _RUNNERS[sub](_ManifestParams(manifest["params"]), outdir)


def _add_cfg_flags(p):
    p.add_argument("--eps", type=float, default=AdmmConfig.eps)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=AdmmConfig.max_iter)
    p.add_argument("--rho", type=float, default=AdmmConfig.rho)
    p.add_argument("--mu0", type=float, default=AdmmConfig.mu0)
    p.add_argument("--mu-max", dest="mu_max", type=float, default=AdmmConfig.mu_max)


def _number_list(text, cast):
    try:
        return [cast(v) for v in text.split(",") if v]
    except ValueError:
        raise InvalidParameter(f"not a comma-separated list of {cast.__name__}s: "
                               f"{text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubal",
        description="Low tubal rank tensor recovery: generation, sensing, "
                    "completion, and phase-transition experiments.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate a random low-tubal-rank tensor")
    p.add_argument("n1", type=int)
    p.add_argument("n2", type=int)
    p.add_argument("n3", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", choices=("unit", "inv_n"), default="unit")
    p.add_argument("--out", required=True)

    p = sub.add_parser("recover", help="recover a tensor from Gaussian measurements")
    p.add_argument("tensor")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--history", action="store_true")
    p.add_argument("--out", required=True)
    _add_cfg_flags(p)
    p.add_argument("--rank-tol", dest="rank_tol", type=float, default=1e-3)

    p = sub.add_parser("complete", help="complete a tensor from sampled entries")
    p.add_argument("tensor")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=float)
    group.add_argument("--mask")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--history", action="store_true")
    p.add_argument("--out", required=True)
    _add_cfg_flags(p)
    p.add_argument("--rank-tol", dest="rank_tol", type=float, default=1e-3)

    p = sub.add_parser("phase", help="empirical phase-transition grid")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_cfg_flags(p)

    p = sub.add_parser("inpaint", help="complete the missing pixels of an image")
    p.add_argument("image")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=float)
    group.add_argument("--mask")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_cfg_flags(p)

    p = sub.add_parser("frames", help="complete a directory of grayscale frames")
    p.add_argument("frames")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_cfg_flags(p)

    p = sub.add_parser("info", help="print spectral summary of a tensor file")
    p.add_argument("tensor")
    p.add_argument("--rank-tol", dest="rank_tol", type=float, default=1e-6)

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
        outdir = _outdir(args.out)
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
