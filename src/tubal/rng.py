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
`normal_fill` works in blocks of `_BLOCK` pairs, a layout fixed by the count
alone, and writes each block's products straight into the output.  The
serial fill draws all u1 from the generator, then each block's u2 in turn,
so it holds the output, the radius and two block-sized buffers.  When
`tensor._parts` splits the blocks over threads (Philox draws and the ufuncs
release the GIL), block [lo, hi) draws its u1 from stream offset lo and its
u2 from offset npairs + lo, each from its own copy of the Philox state moved
there (`Philox.advance` plus at most three dropped draws), and the
generator is then moved to the end of the fill, where the serial fill
leaves it.  A generator on another bit generator is always filled
serially.  Every deviate is the same function of its two uniforms wherever
its block runs, so the result is bitwise the same for any CPU count, and
equal to the unchunked transform's.
"""

import hashlib

import numpy as np

from . import tensor

# Pairs per block: the unit of a fill's split over the CPUs (1 MiB buffers).
# On 2 CPUs the n=30 Table-1 map (21.9M deviates) took 0.9-1.1 s on one
# thread and 0.5-0.6 s on two, with blocks of 2**15 to 2**18 pairs alike.
_BLOCK = 1 << 17


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


def _ahead(state: dict, draws: int) -> np.random.Generator:
    """A generator on a copy of the Philox `state`, `draws` uniforms further on.

    The state's buffer holds its next 4 - buffer_pos draws; past those,
    Philox.advance moves the counter one block of four draws at a time
    and empties the buffer, and the last draws short of a block are drawn
    and dropped.
    """
    bits = np.random.Philox()
    bits.state = state
    buffered = 4 - state["buffer_pos"]
    if draws >= buffered:
        bits.advance((draws - buffered) // 4)
        draws = (draws - buffered) % 4
    bits.random_raw(draws)
    return np.random.Generator(bits)


def _box_muller(radius: np.ndarray, angle: np.ndarray, out: np.ndarray):
    """Fill the pairs of `out` from as many radius and angle uniforms, both overwritten."""
    # u1 in (0, 1] so log never sees zero; u2 in [0, 1)
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    # cos and sin run on contiguous buffers, as the unchunked transform did
    trig = np.cos(angle)
    np.multiply(radius, trig, out=out[0::2])
    np.sin(angle, out=trig)
    np.multiply(radius, trig, out=out[1::2])


def normal_fill(gen: np.random.Generator, count: int) -> np.ndarray:
    """`count` standard normal deviates via Box-Muller, in documented order.

    gen is left where the serial fill leaves it, however many threads ran.
    """
    npairs = (count + 1) // 2
    out = np.empty(2 * npairs)
    starts = range(0, npairs, _BLOCK)
    if (not isinstance(gen.bit_generator, np.random.Philox)
            or tensor._parts(len(starts), count) == 1):
        radius = gen.random(npairs)
        for start in starts:
            stop = min(start + _BLOCK, npairs)
            _box_muller(radius[start:stop], gen.random(stop - start), out[2 * start:2 * stop])
        return out[:count]
    state = gen.bit_generator.state

    def blocks(lo, hi):
        for start in starts[lo:hi]:
            n = min(_BLOCK, npairs - start)
            _box_muller(_ahead(state, start).random(n), _ahead(state, npairs + start).random(n),
                        out[2 * start:2 * (start + n)])

    tensor._sliced(len(starts), count, blocks)
    # advance clears the cache of 32-bit draws, which a fill does not touch
    end = _ahead(state, 2 * npairs).bit_generator.state
    gen.bit_generator.state = {**end, "has_uint32": state["has_uint32"],
                               "uinteger": state["uinteger"]}
    return out[:count]
