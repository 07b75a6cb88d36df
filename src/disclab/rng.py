"""Counter-based pseudorandom numbers for reproducible Monte Carlo.

The generator is splitmix64 driven as a pure counter: output i of the stream
with seed s is

    mix(s + (i + 1) * 0x9E3779B97F4A7C15)   (all arithmetic mod 2^64)

with the standard finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
    z ^= z >> 27; z *= 0x94D049BB133111EB;
    z ^= z >> 31.

Uniform doubles take the top 53 bits: (z >> 11) * 2^-53, giving values in
[0, 1). Because outputs depend only on (seed, index), any sub-range of the
stream can be generated independently, in any order and on any number of
workers, and reassembled deterministically. Streams are reproducible across
platforms and easy to port to other languages.

The seed enters masked to 64 bits. `raw64` mixes the counter buffer in
place, with one scratch buffer for the shifts, and `uniform01` scales its
doubles in place; each step is the formula's own mod-2^64 or exact
floating-point operation, so the outputs are its bits.
"""

from __future__ import annotations

import numpy as np

from .pointsets import PointSet

__all__ = ["PRNG_NAME", "DEFAULT_SEED", "uniform01", "random_point_set"]

PRNG_NAME = "splitmix64-counter"

# Fixed default so CLI runs never depend on wall clock.
DEFAULT_SEED = 42

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_U64 = (1 << 64) - 1


def raw64(seed: int, start: int, count: int, stride: int = 1) -> np.ndarray:
    """Outputs start, start+stride, .. start+(count-1)*stride of the stream,
    as uint64."""
    z = np.arange(start + 1, start + count * stride + 1, stride, dtype=np.uint64)
    t = np.empty_like(z)
    with np.errstate(over="ignore"):
        z *= _GAMMA
        z += np.uint64(seed & _U64)
        z ^= np.right_shift(z, np.uint64(30), out=t)
        z *= _M1
        z ^= np.right_shift(z, np.uint64(27), out=t)
        z *= _M2
        z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def uniform01(seed: int, start: int, count: int, stride: int = 1) -> np.ndarray:
    """`count` doubles in [0, 1) from stream positions start, start+stride,
    .. start+(count-1)*stride: with stride k, every k-th double of
    `uniform01(seed, start, count * k)`, so a caller reads one column of a
    row-major layout of k values per row as one contiguous array."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    z = raw64(seed, start, count, stride)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0**-53
    return u


def random_point_set(n: int, d: int, seed: int) -> PointSet:
    """Seeded uniform point set; point k uses stream positions k*d .. k*d+d-1."""
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    return PointSet(uniform01(seed, 0, n * d).reshape(n, d))
