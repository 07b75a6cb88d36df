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
runs the same tree, to the same value bits, over a matrix that is built and
folded a row strip at a time in buffers its caller owns (`strip_scratch`),
so summing a large matrix makes few numpy calls and allocates nothing per
strip. Every matrix goes through its one strip loop, a small one as one
short strip. Its scratch holds one strip's level errors, summed by one np.sum
per strip, so it does not grow with the matrix beyond the partial sums.
`running_sum` gives every prefix of a sequence its compensated sum, adding
the terms one at a time in order.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["comp_sum", "strip_sum", "strip_scratch", "running_sum", "exact_ratio_parts"]

_STRIP = 1 << 15  # entries per strip of `strip_sum`: 256 KiB of doubles
_WIDE = 1 << 10  # a strip holds 2 * _STRIP entries from this many columns on, not
# at every width: that peaked perfbench `small_sets` 3.5% higher (38.8 -> 40.2 MiB)
_STRIP_REST = 1 << 11  # a full strip stops folding at this many partial sums


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
    return float(_fold(a, errors)[0]), math.fsum(map(np.sum, errors))


def _layout(rows: int, cols: int) -> tuple[int, int, int, int]:
    """(h, L, m, space) of a rows x cols matrix: h rows per strip, the L fold
    levels each strip runs, the m partial sums they leave, and the entries
    `strip_sum` needs in scratch[3], a full strip's level errors and then
    the partial sums. h is the largest power of two with h * cols <= S
    (2^15 entries, 2^16 from _WIDE columns on), clipped to rows; L is the
    least of the exponent of 2 in h * cols for the unclipped h,
    log2(S / _STRIP_REST) and the depth of the whole matrix's tree."""
    entries = 2 * _STRIP if cols >= _WIDE else _STRIP
    h = 1 << max(0, (entries // cols).bit_length() - 1)
    span = h * cols
    depth = (rows * cols - 1).bit_length()
    local = min((span & -span).bit_length() - 1, (entries // _STRIP_REST).bit_length() - 1, depth)
    h = min(h, rows)
    m = -(-(rows * cols) >> local)
    return h, local, m, sum(-(-h * cols >> level) for level in range(1, local + 1)) + m


def strip_scratch(rows: int, cols: int) -> tuple[np.ndarray, ...]:
    """Flat buffers in which `strip_sum` sums a rows x cols matrix: three
    that hold a strip, and one for a strip's level errors and the partial
    sums. Fewer rows never need more, nor does any matrix within 1024 x 1024
    (whose strips double), but fewer columns can: 1000 x 512 needs more than
    1000 x 513. All four are views of one allocation: as four arrays, under
    glibc's default malloc thresholds each pair sum of a few hundred points
    faulted its scratch in afresh."""
    h, _, _, space = _layout(rows, cols)
    strip = h * cols
    buf = np.empty(3 * strip + space)
    return (*(buf[i * strip : (i + 1) * strip] for i in range(3)), buf[3 * strip :])


def strip_sum(rows: int, cols: int, strip, scratch) -> tuple[float, float]:
    """`comp_sum` of a rows x cols matrix (rows, cols >= 1) that is never
    built whole: strip(r0, r1, bufs) returns its rows r0..r1-1, where bufs
    are the three (r1 - r0) x cols views of `scratch` (see `strip_scratch`).
    It may build them in bufs[0] and use bufs[1] and bufs[2] as
    temporaries; the caller owns the scratch and may reuse it for its next
    matrix.

    Strips are h rows high (`_layout`), so a strip and its fold buffers
    stay in cache; a matrix of at most h rows is one short strip. Strip k
    holds entries [k S, (k+1) S) of the raveled matrix, S = h * cols.
    While 2^L divides S, the first L levels of the whole-matrix fold pair
    entries of one strip only, and only the last strip can pad an odd
    level. So each strip runs its L levels itself (below _STRIP_REST
    partial sums a numpy call does too little work to pay for itself, and
    a level the whole tree lacks would turn a lone -0.0 into +0.0), writes
    their errors one level after another to the front of scratch[3] and
    adds them with one np.sum. The strips' partial sums, after the errors,
    finish the tree once per matrix with one np.sum per level, and
    math.fsum adds all the error sums. The fold's sums ping-pong in the
    strip buffers, so a caller that keeps its scratch allocates nothing per
    strip and only the last fold's small error arrays per matrix. Each
    entry goes through the additions of comp_sum(matrix) in the same
    order, so the value is comp_sum's bit for bit, the sign of zero
    included; the errors are the same too, grouped per strip where
    comp_sum adds each level's with one np.sum, and both compensations
    keep the 64 eps sum|x| contract.
    """
    h, local, m, space = _layout(rows, cols)
    if scratch[0].size < h * cols or scratch[3].size < space:
        raise ValueError(f"strip scratch too small for a {rows} x {cols} matrix")
    full, used = _slots(scratch[3], h * cols, local)
    rest, views, sums = scratch[3][used : used + m], _views(scratch, h, cols), []
    for r0 in range(0, rows, h):
        start, stop = r0 * cols, (r0 + h) * cols  # slices clip the last strip
        r1 = min(r0 + h, rows)
        bufs, out, k = views, full, used
        if r1 - r0 < h:
            bufs = _views(scratch, r1 - r0, cols)
            out, k = _slots(scratch[3], (r1 - r0) * cols, local)
        rest[start >> local : -(-stop >> local)] = _fold(strip(r0, r1, bufs).ravel(), out, scratch)
        sums.append(np.sum(scratch[3][:k]))
    tail = [None] * (m - 1).bit_length()
    last = _fold(rest, tail, scratch)
    return float(last[0]), math.fsum([*sums, *map(np.sum, tail)])


def _slots(buf: np.ndarray, n: int, local: int) -> tuple[list, int]:
    """Back-to-back views at the front of buf for the errors of the `local`
    fold levels of n entries, and the entries they take."""
    out, used = [], 0
    for level in range(1, local + 1):
        k = -(-n >> level)
        out.append(buf[used : used + k])
        used += k
    return out, used


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
