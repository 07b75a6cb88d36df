"""Deterministic low-discrepancy sequence generators and the lifting map.

`Halton` is stateless: the k-th term is a pure function of k, so prefixes
are reproducible and terms can be queried concurrently. `VanDerCorput` is
the one-base `Halton`; it differs only in its name, its repr and `.base`.
`lift` appends the equispaced coordinate k/n to the first n terms, producing
a (d+1)-dimensional point set whose last coordinates are exactly
{0, 1/n, ..., (n-1)/n}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoordinateError
from .pointsets import PointSet

__all__ = ["radical_inverse", "VanDerCorput", "Halton", "prefix", "lift"]

# Digit extraction is exact only while the index fits a double.
MAX_INDEX = 1 << 53


def radical_inverse(k: int, base: int) -> float:
    """Reflect the base-b digits of k about the radix point.

    k = sum a_i b^i maps to sum a_i b^(-i-1), always in [0, 1). Exact in
    float64 whenever the base is a power of two and k < 2^53.
    """
    return float(radical_inverses(np.array([k]), base)[0])


def radical_inverses(k: np.ndarray, base: int) -> np.ndarray:
    """`radical_inverse` of every index in the integer array k, digit by
    digit over the whole array in the same order, so each value is the same
    double."""
    if not 2 <= base < 1 << 63:
        raise ValueError(f"base must lie in [2, 2^63), got {base}")
    if k.size and not (0 <= k.min() and k.max() < MAX_INDEX):
        raise ValueError("indices must lie in [0, 2^53)")
    inv = 1.0 / base
    r, scale = np.zeros(k.shape), inv
    while k.any():
        k, digit = np.divmod(k, base)
        r += digit * scale
        scale *= inv
    return r


@dataclass(frozen=True)
class Halton:
    """Componentwise radical inverses in pairwise coprime bases."""

    bases: tuple[int, ...]

    def __post_init__(self) -> None:
        bases = tuple(int(b) for b in self.bases)
        if len(bases) < 1:
            raise ValueError("need at least one base")
        for b in bases:
            if b < 2:
                raise ValueError(f"bases must be >= 2, got {b}")
        for a, b in itertools.combinations(bases, 2):
            if math.gcd(a, b) != 1:
                raise ValueError(f"bases must be pairwise coprime; gcd({a}, {b}) > 1")
        object.__setattr__(self, "bases", bases)

    @property
    def d(self) -> int:
        return len(self.bases)

    @property
    def name(self) -> str:
        return "halton(" + ",".join(map(str, self.bases)) + ")"

    def term(self, k: int) -> tuple[float, ...]:
        return tuple(radical_inverse(k, b) for b in self.bases)


class VanDerCorput(Halton):
    """One-dimensional radical-inverse sequence in a fixed base (default 2):
    the one-base `Halton`."""

    def __init__(self, base: int = 2) -> None:
        super().__init__((base,))

    @property
    def base(self) -> int:
        return self.bases[0]

    @property
    def name(self) -> str:
        return f"vdc(base={self.base})"

    def __repr__(self) -> str:
        return f"VanDerCorput(base={self.base})"


def prefix(gen: Halton, n: int) -> PointSet:
    """Point set of the first n terms, in generator order."""
    if n < 1:
        raise ValueError(f"prefix length must be >= 1, got {n}")
    k = np.arange(n)
    return PointSet(np.column_stack([radical_inverses(k, b) for b in gen.bases]))


def lift(source: Halton | PointSet, n: int) -> PointSet:
    """First n terms with k/n appended: the set {(y_k, k/n) : k < n} in
    dimension d+1."""
    if n < 1:
        raise ValueError(f"lift length must be >= 1, got {n}")
    if isinstance(source, PointSet):
        if source.n < n:
            raise CoordinateError(f"need at least {n} points, have {source.n}")
        base = source.coords[:n]
    else:
        base = prefix(source, n).coords
    last = (np.arange(n, dtype=np.float64) / n).reshape(n, 1)
    return PointSet(np.hstack([base, last]))
