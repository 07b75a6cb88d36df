"""Compensated summation for large, heavily cancelling kernel sums.

The pair sums behind the closed-form discrepancies add Theta(N^2) terms whose
total is many orders of magnitude smaller than the sum of absolute values.
Plain float64 accumulation (even numpy's pairwise `sum`) cannot be trusted to
ten significant digits at N ~ 2^16, so every pair sum in this package goes
through `comp_sum` or a `KernelAccumulator`, both of which carry an explicit
compensation term alongside the running value.

`comp_sum` reduces an array with an exact binary TwoSum tree and accumulates
the per-level rounding errors; the (value, compensation) pair it returns
represents the true sum up to O(n * eps^2 * sum|terms|), far inside the
64 * eps * sum|terms| budget the accumulator contract promises.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["comp_sum", "KernelAccumulator", "exact_ratio_parts"]


def comp_sum(values: np.ndarray) -> tuple[float, float]:
    """Sum an array, returning (value, compensation).

    Folds the array pairwise with elementwise TwoSum; the exact per-pair
    rounding errors are themselves summed and returned as the compensation.
    The fold shape depends only on the input length, so the result is
    bit-reproducible for a given input.
    """
    a = np.asarray(values, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0, 0.0
    level_errors: list[float] = []
    while a.size > 1:
        if a.size % 2:
            a = np.append(a, 0.0)
        x, y = a[0::2], a[1::2]
        s = x + y
        bv = s - x
        e = (x - (s - bv)) + (y - bv)
        level_errors.append(float(np.sum(e)))
        a = s
    return float(a[0]), math.fsum(level_errors)


class KernelAccumulator:
    """Running Neumaier-compensated scalar sum.

    Keeps (value, compensation); `add` never drops a rounding error larger
    than second order. Used for incremental pair-sum updates where terms
    arrive one at a time.
    """

    __slots__ = ("_s", "_c")

    def __init__(self, value: float = 0.0) -> None:
        self._s = float(value)
        self._c = 0.0

    def add(self, v: float) -> None:
        t = self._s + v
        if abs(self._s) >= abs(v):
            self._c += (self._s - t) + v
        else:
            self._c += (v - t) + self._s
        self._s = t

    def add_pair(self, hi: float, lo: float) -> None:
        self.add(hi)
        self.add(lo)

    @property
    def parts(self) -> tuple[float, float]:
        return self._s, self._c

    @property
    def value(self) -> float:
        return self._s + self._c


def exact_ratio_parts(num: int, den: int) -> tuple[float, float]:
    """Split the rational num/den into (hi, lo) doubles with hi + lo exact
    to quadratic order.

    Constants like N^2 / 3^d are too large to round once without losing the
    digits the compensated pair sums worked to keep, so they enter the final
    combination as a two-double value.
    """
    from fractions import Fraction

    f = Fraction(num, den)
    hi = float(f)
    lo = float(f - Fraction(hi))
    return hi, lo
