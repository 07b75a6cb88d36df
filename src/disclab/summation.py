"""Compensated summation for large, heavily cancelling kernel sums.

The pair sums behind the closed-form discrepancies add Theta(N^2) terms whose
total is many orders of magnitude smaller than the sum of absolute values.
Plain float64 accumulation (even numpy's pairwise `sum`) cannot be trusted to
ten significant digits at N ~ 2^16, so every sum in this package goes
through `comp_sum` or `running_sum`, both of which carry an explicit
compensation term alongside the value.

`comp_sum` reduces an array with an exact binary TwoSum tree and accumulates
the per-level rounding errors; the (value, compensation) pair it returns
represents the true sum up to O(n * eps^2 * sum|terms|), far inside the
64 * eps * sum|terms| budget the accumulator contract promises. `strip_sum`
runs the same tree, to the same bits, over a matrix that is built and folded
a row strip at a time. `running_sum` gives every prefix of a sequence its
compensated sum, adding the terms one at a time in order.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["comp_sum", "strip_sum", "running_sum", "exact_ratio_parts"]

_STRIP = 1 << 15  # entries per strip of `strip_sum`: 256 KiB of doubles
_STRIP_REST = 1 << 7  # a strip stops folding at this many partial sums


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
    errors = [None] * (a.size - 1).bit_length()
    return _finish(_fold(a, errors), errors)


def strip_sum(rows: int, cols: int, strip) -> tuple[float, float]:
    """`comp_sum` of a rows x cols matrix that is never built whole:
    strip(r0, r1) returns its rows r0..r1-1.

    Strips are h rows high, h the largest power of two with h * cols <= 2^15
    (one row where cols is larger), so a strip and its fold temporaries stay
    in cache. Strip k holds entries [k S, (k+1) S) of the raveled matrix,
    S = h * cols. While 2^(L+1) divides S, level L of the whole-matrix fold
    pairs entries of one strip only, and only the last strip can pad an odd
    level. So each strip runs those levels itself, stopping while it still
    has _STRIP_REST partial sums (below that, call overhead outweighs the
    arithmetic), and writes level L's errors into a level buffer at the
    offset the whole-matrix fold gives them. The strips' partial sums then
    finish the tree as one array. Each level's error array equals the one
    comp_sum(matrix) builds and is summed by one np.sum, so the result is
    bit-identical to comp_sum(matrix).
    """
    h = 1 << max(0, (_STRIP // cols).bit_length() - 1)
    if rows <= h:
        return comp_sum(strip(0, rows))
    span = h * cols
    local = min(span & -span, span // _STRIP_REST).bit_length() - 1
    errors, m = [], rows * cols
    for _ in range(local):
        m = (m + 1) // 2
        errors.append(np.empty(m))
    rest = np.empty(m)
    for r0 in range(0, rows, h):
        start, stop = r0 * cols, (r0 + h) * cols  # slices clip the last strip
        out = [e[start >> lv : stop >> lv] for lv, e in enumerate(errors, 1)]
        rest[start >> local : stop >> local] = _fold(strip(r0, min(r0 + h, rows)).ravel(), out)
    tail = [None] * (m - 1).bit_length()
    return _finish(_fold(rest, tail), errors + tail)


def _fold(a: np.ndarray, errors: list) -> np.ndarray:
    """Run len(errors) TwoSum levels on `a`, padding odd levels with a zero,
    and return the partial sums. Level L's errors are written into
    errors[L], or into a new array stored there where errors[L] is None."""
    for level, out in enumerate(errors):
        if a.size % 2:
            a = np.append(a, 0.0)
        x, y = a[0::2], a[1::2]
        s = x + y
        bv = s - x
        errors[level] = np.add(x - (s - bv), y - bv, out=out)
        a = s
    return a


def _finish(a: np.ndarray, errors: list) -> tuple[float, float]:
    """(the fold's one remaining value, the sum of all its level errors)."""
    return float(a[0]), math.fsum(float(np.sum(e)) for e in errors)


def running_sum(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compensated running sums of `terms`: entry i of (value,
    compensation) is the pair a scalar Neumaier sum holds once it has added
    terms[0], ..., terms[i], starting from +0.0. The value is the plain
    cumsum; the compensation is the cumsum of each step's exact TwoSum error
    (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26 (2005)), which equals the
    error the scalar sum adds."""
    s = np.cumsum(np.concatenate(([0.0], terms)))
    prev, s = s[:-1], s[1:]
    bv = s - prev
    return s, np.cumsum((prev - (s - bv)) + (terms - bv))


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
