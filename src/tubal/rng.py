"""Deterministic random streams.

Every randomized object in the package draws from a Philox counter-based
generator keyed by a blake2b digest of its seed together with a tuple of
string/integer/float coordinates.  Distinct coordinates give independent
substreams, so experiment cells can be generated in any order (or in
parallel) and still be pure functions of (seed, coordinates).

Normal deviates use the Box-Muller transform, consuming uniforms in pairs:
pair t yields output 2t (cosine branch) and 2t+1 (sine branch); the final
sine value is discarded when an odd count is requested.  The stream order is
all npairs radius uniforms u1 first, then all npairs angle uniforms u2.
`normal_fill` turns u1 into the radius in place, then draws u2 `_CHUNK`
pairs at a time and writes each chunk's products straight into the output,
so it holds the output, the radius and two chunk-sized buffers instead of
several full-length temporaries.  Consecutive draws continue one Philox
stream, so the chunking changes no bit of the result.
"""

import hashlib

import numpy as np

# angle uniforms per chunk: two 256 KiB buffers
_CHUNK = 1 << 15


def _token(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (int, np.integer, str)):
        return str(value)
    raise TypeError(f"stream coordinates must be int, float or str, got {type(value)!r}")


def derive_key(seed: int, *coords) -> int:
    """128-bit Philox key for a (seed, coordinates) substream."""
    text = "tubal\x1f" + "\x1f".join(_token(v) for v in (seed,) + coords)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()
    return int.from_bytes(digest, "little")


def derive_seed(seed: int, *coords) -> int:
    """64-bit seed for a named substream, for APIs that take a plain seed."""
    return derive_key(seed, *coords) & 0xFFFFFFFFFFFFFFFF


def substream(seed: int, *coords) -> np.random.Generator:
    """Generator for the substream identified by (seed, coordinates)."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *coords)))


def normal_fill(gen: np.random.Generator, count: int) -> np.ndarray:
    """`count` standard normal deviates via Box-Muller, in documented order."""
    npairs = (count + 1) // 2
    # u1 in (0, 1] so log never sees zero; u2 in [0, 1)
    radius = gen.random(npairs)
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    out = np.empty(2 * npairs)
    angle = np.empty(min(npairs, _CHUNK))
    trig = np.empty_like(angle)
    for start in range(0, npairs, _CHUNK):
        stop = min(start + _CHUNK, npairs)
        u2, tr = angle[:stop - start], trig[:stop - start]
        gen.random(out=u2)
        u2 *= 2.0 * np.pi
        # cos and sin run on contiguous buffers, as the unchunked transform did
        np.cos(u2, out=tr)
        np.multiply(radius[start:stop], tr, out=out[2 * start:2 * stop:2])
        np.sin(u2, out=tr)
        np.multiply(radius[start:stop], tr, out=out[2 * start + 1:2 * stop:2])
    return out[:count]
