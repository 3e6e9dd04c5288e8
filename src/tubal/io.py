"""Binary file formats, portable pixmaps, CSV reports, and run manifests.

Tensor files (.t3): magic "T3R1", one version byte (1), three little-endian
u64 dims, then n1*n2*n3 little-endian float64 values in index order
(i fastest, then j, then k).

Mask files (.om): magic "OMG1", three u64 dims, the rate p as float64, the
seed as u64, then the observation flags bit-packed in index order with the
flag for entry t stored at bit (t mod 8) of byte (t // 8).

CSV files use '.' as the decimal separator and 17 significant digits, so a
written value round-trips to the exact double.
"""

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import UnsupportedFormat
from .sensing import SampleMask
from .tensor import _require_finite

_T3_MAGIC = b"T3R1"
_OM_MAGIC = b"OMG1"


def _read_exact(fh, path, nbytes: int) -> bytes:
    """Read nbytes, first checking that the file still holds that many."""
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if nbytes > remaining:
        raise UnsupportedFormat(
            f"{path}: truncated, expected {nbytes} more bytes, found {remaining}")
    return fh.read(nbytes)


def write_tensor(path, a: np.ndarray):
    a = np.asarray(a, dtype=float)
    if a.ndim != 3:
        raise UnsupportedFormat(f"tensor files hold 3-way tensors, got shape {a.shape}")
    _require_finite(a, f"{path}: tensor to write")
    n1, n2, n3 = a.shape
    with open(path, "wb") as fh:
        fh.write(_T3_MAGIC)
        fh.write(bytes([1]))
        fh.write(struct.pack("<QQQ", n1, n2, n3))
        fh.write(a.astype("<f8").tobytes(order="F"))


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _T3_MAGIC:
            raise UnsupportedFormat(f"{path}: bad magic {magic!r}, expected {_T3_MAGIC!r}")
        version = fh.read(1)
        if version != bytes([1]):
            raise UnsupportedFormat(f"{path}: unsupported version {version!r}")
        n1, n2, n3 = struct.unpack("<QQQ", _read_exact(fh, path, 24))
        payload = _read_exact(fh, path, 8 * n1 * n2 * n3)
    data = np.frombuffer(payload, dtype="<f8")
    _require_finite(data, f"{path}: tensor")
    return np.ascontiguousarray(data.reshape((n1, n2, n3), order="F"))


def write_mask(path, mask: SampleMask):
    n1, n2, n3 = mask.dims
    flags = mask.observed.reshape(-1, order="F").astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(_OM_MAGIC)
        fh.write(struct.pack("<QQQ", n1, n2, n3))
        fh.write(struct.pack("<d", mask.p))
        fh.write(struct.pack("<Q", mask.seed & 0xFFFFFFFFFFFFFFFF))
        fh.write(np.packbits(flags, bitorder="little").tobytes())


def read_mask(path) -> SampleMask:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _OM_MAGIC:
            raise UnsupportedFormat(f"{path}: bad magic {magic!r}, expected {_OM_MAGIC!r}")
        n1, n2, n3, p, seed = struct.unpack("<QQQdQ", _read_exact(fh, path, 40))
        count = n1 * n2 * n3
        packed = _read_exact(fh, path, (count + 7) // 8)
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8),
                         bitorder="little")[:count]
    observed = np.ascontiguousarray(
        bits.astype(bool).reshape((n1, n2, n3), order="F"))
    return SampleMask(dims=(n1, n2, n3), p=p, seed=seed, observed=observed)


def _read_pnm_int(fh) -> int:
    """Next whitespace-delimited header number, skipping '#' comments."""
    token = b""
    while True:
        ch = fh.read(1)
        if not ch:
            raise UnsupportedFormat("truncated pixmap header")
        if ch == b"#":
            while ch and ch != b"\n":
                ch = fh.read(1)
            continue
        if ch.isspace():
            if token:
                if not token.isdigit():
                    raise UnsupportedFormat(f"pixmap header field {token!r} is not a number")
                return int(token)
            continue
        token += ch


def read_image(path):
    """Read a binary P5 (grayscale) or P6 (color) pixmap with maxval 255.

    Returns (pixels, color) with pixels uint8 of shape (h, w) or (h, w, 3).
    """
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic not in (b"P5", b"P6"):
            raise UnsupportedFormat(f"{path}: expected binary P5/P6, got {magic!r}")
        width = _read_pnm_int(fh)
        height = _read_pnm_int(fh)
        maxval = _read_pnm_int(fh)
        if maxval != 255:
            raise UnsupportedFormat(f"{path}: only maxval 255 supported, got {maxval}")
        channels = 3 if magic == b"P6" else 1
        payload = _read_exact(fh, path, width * height * channels)
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    if channels == 1:
        return pixels[:, :, 0].copy(), False
    return pixels.copy(), True


def write_image(path, pixels: np.ndarray):
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim == 3 and pixels.shape[2] == 3:
        magic, payload = b"P6", pixels
    elif pixels.ndim == 2:
        magic, payload = b"P5", pixels
    else:
        raise UnsupportedFormat(f"cannot write pixels of shape {pixels.shape}")
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}\n255\n".encode())
        fh.write(payload.tobytes())


def image_to_tensor(pixels: np.ndarray, color: bool) -> np.ndarray:
    """Map an h x w image to an (h, channels, w) tensor scaled to [0, 1].

    Color images put R, G, B on the lateral slices; grayscale images get a
    degenerate single-channel axis so the same completion path applies.
    """
    scaled = pixels.astype(float) / 255.0
    if color:
        return np.ascontiguousarray(scaled.transpose(0, 2, 1))
    return np.ascontiguousarray(scaled[:, None, :])


def tensor_to_image(t: np.ndarray, color: bool) -> np.ndarray:
    """Inverse of image_to_tensor: clamp to [0, 1], rescale, round to uint8."""
    clipped = np.clip(t, 0.0, 1.0)
    pixels = np.rint(clipped * 255.0).astype(np.uint8)
    if color:
        return np.ascontiguousarray(pixels.transpose(0, 2, 1))
    return np.ascontiguousarray(pixels[:, 0, :])


def fmt(value) -> str:
    """CSV cell formatting: 17 significant digits for floats."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, fieldnames, rows):
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(fmt(row.get(name, "")) for name in fieldnames))
    Path(path).write_text("\n".join(lines) + "\n")


def write_history_csv(path, history):
    """Per-iteration solver diagnostics; column set follows the solver used."""
    if not history:
        Path(path).write_text("\n")
        return
    write_csv(path, list(history[0].keys()), history)


def write_report_csv(path, report, extra=None):
    """One-line run summary (timings are excluded so replays are bitwise)."""
    row = {
        "iterations": report.iterations,
        "converged": report.converged,
        "mu_final": report.mu_final,
        "objective": report.objective,
    }
    row.update(report.residuals)
    if extra:
        row.update(extra)
    write_csv(path, list(row.keys()), [row])


def write_grid_csv(path, grid):
    fieldnames = ["kind", "n1", "n2", "n3", "r", "m_or_p", "trials",
                  "successes", "success_rate", "mean_rel_err", "mean_iters"]
    n1, n2, n3 = grid.dims
    rows = []
    for cell in grid.cells:
        rows.append({
            "kind": grid.kind, "n1": n1, "n2": n2, "n3": n3,
            "r": cell.r, "m_or_p": cell.m_or_p, "trials": cell.trials,
            "successes": cell.successes, "success_rate": cell.success_rate,
            "mean_rel_err": cell.mean_rel_err, "mean_iters": cell.mean_iters,
        })
    write_csv(path, fieldnames, rows)


def write_table_csv(path, rows, rate_column):
    fieldnames = ["n", "n3", "r", rate_column, "rank_estimate", "rel_error",
                  "iterations", "converged", "error"]
    write_csv(path, fieldnames, rows)


def write_manifest(path, manifest: dict):
    """Stable JSON serialization; replaying a manifest must be bitwise."""
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise UnsupportedFormat(f"{path}: not a JSON manifest: {exc}") from exc
