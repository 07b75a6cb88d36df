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
a row strip at a time in buffers its caller owns (`strip_scratch`), so
summing a large matrix makes few numpy calls and allocates nothing per
strip. `running_sum` gives every prefix of a sequence its compensated sum,
adding the terms one at a time in order.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["comp_sum", "strip_sum", "strip_scratch", "running_sum", "exact_ratio_parts"]

_STRIP = 1 << 15  # entries per strip of `strip_sum`: 256 KiB of doubles
_WIDE = 1 << 10  # from this many columns on, a strip holds 2 * _STRIP entries
_STRIP_REST = 1 << 11  # a strip stops folding at this many partial sums


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


def _strip_rows(cols: int) -> int:
    """Rows per strip of a matrix `cols` wide: the largest power of two h
    with h * cols <= 2^16 from _WIDE columns on, else <= 2^15 (one row where
    cols is larger)."""
    entries = 2 * _STRIP if cols >= _WIDE else _STRIP
    return 1 << max(0, (entries // cols).bit_length() - 1)


def strip_scratch(rows: int, cols: int) -> tuple[np.ndarray, ...]:
    """Flat buffers for `strip_sum` on a rows x cols matrix, or on any
    matrix no larger whose strips are no larger: three that hold a strip,
    and one for the strip levels' errors and the strips' partial sums,
    whose sizes ceil(rows cols / 2^L) add up to less than rows cols + 64."""
    size = min(_strip_rows(cols), rows) * cols
    return (*(np.empty(size) for _ in range(3)), np.empty(rows * cols + 64))


def strip_sum(rows: int, cols: int, strip, scratch) -> tuple[float, float]:
    """`comp_sum` of a rows x cols matrix that is never built whole:
    strip(r0, r1, bufs) returns its rows r0..r1-1, where bufs are the three
    (r1 - r0) x cols views of `scratch` (see `strip_scratch`). It may build
    them in bufs[0] and use bufs[1] and bufs[2] as temporaries; the caller
    owns the scratch and may reuse it for its next matrix.

    Strips are h rows high (`_strip_rows`), so a strip and its fold buffers
    stay in cache. Matrices narrower than _WIDE keep 2^15-entry strips:
    with 2^16, a 256 x 256 matrix is one strip, summed whole by comp_sum,
    and the perfbench `small_sets` workload ran 12% slower and 1.5 MiB
    larger. Strip k holds entries [k S, (k+1) S) of the raveled matrix,
    S = h * cols. While 2^(L+1) divides S, level L of the whole-matrix fold
    pairs entries of one strip only, and only the last strip can pad an odd
    level. So each strip runs those levels itself, stopping while it still
    has _STRIP_REST partial sums (below that, each numpy call does too
    little work to pay for itself), and writes level L's errors into a level
    buffer at the offset the whole-matrix fold gives them. The strips'
    partial sums then finish the tree once per matrix. The level buffers and
    the partial sums are slices of scratch[3], and the level sums of a strip,
    and of that last fold where they fit, ping-pong in the strip buffers, so
    a caller that keeps its scratch allocates nothing per strip and only the
    last fold's small error arrays per matrix. Each level's error array
    equals the one comp_sum(matrix) builds and is summed by one np.sum, and
    each entry goes through the same additions in the same order, so the
    result is bit-identical to comp_sum(matrix).
    """
    h = _strip_rows(cols)
    if rows <= h:
        return comp_sum(strip(0, rows, _views(scratch, rows, cols)))
    span = h * cols
    local = min(span & -span, span // _STRIP_REST).bit_length() - 1
    errors, m, used, levels = [], rows * cols, 0, scratch[3]
    for _ in range(local):
        m = (m + 1) // 2
        errors.append(levels[used : used + m])
        used += m
    rest = levels[used : used + m]
    full = _views(scratch, h, cols)
    for r0 in range(0, rows, h):
        start, stop = r0 * cols, (r0 + h) * cols  # slices clip the last strip
        out = [e[start >> lv : stop >> lv] for lv, e in enumerate(errors, 1)]
        r1 = min(r0 + h, rows)
        bufs = full if r1 - r0 == h else _views(scratch, r1 - r0, cols)
        rest[start >> local : stop >> local] = _fold(strip(r0, r1, bufs).ravel(), out, scratch)
    tail = [None] * (m - 1).bit_length()
    return _finish(_fold(rest, tail, scratch), errors + tail)


def _views(scratch, rows: int, cols: int) -> list:
    """The rows x cols views of the three strip buffers."""
    return [b[: rows * cols].reshape(rows, cols) for b in scratch[:3]]


def _fold(a: np.ndarray, errors: list, work=None) -> np.ndarray:
    """Run len(errors) TwoSum levels on `a`, padding odd levels with a zero,
    and return the partial sums. Level L's sums go to work[(L + 1) % 2] and
    its s - x to work[2], so `a` may lie in work[0]; where work is None or
    too short, three buffers are allocated. Level L's errors are written
    into errors[L], or into a new array stored there where errors[L] is
    None."""
    half = (a.size + 1) // 2
    if work is None or work[0].size < half:
        work = [np.empty(half) for _ in range(3)]
    for level, out in enumerate(errors):
        if a.size % 2:
            a = np.append(a, 0.0)
        x, y = a[0::2], a[1::2]
        s = np.add(x, y, out=work[(level + 1) % 2][: x.size])
        bv = np.subtract(s, x, out=work[2][: x.size])
        if out is None:
            out = errors[level] = np.empty(x.size)
        np.subtract(x, np.subtract(s, bv, out=out), out=out)  # x - (s - bv)
        np.add(out, np.subtract(y, bv, out=bv), out=out)  # ... + (y - bv)
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
