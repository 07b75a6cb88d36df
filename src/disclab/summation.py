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
strip. It sums each level's errors as they arrive, in a buffer of a few
strips, relying on numpy's pairwise-sum rule for contiguous float64 to
give the bits of one np.sum over the whole level (`_LevelSum`), so its
scratch does not grow with the matrix. `running_sum` gives every prefix of
a sequence its compensated sum, adding the terms one at a time in order.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["comp_sum", "strip_sum", "strip_scratch", "running_sum", "exact_ratio_parts"]

_STRIP = 1 << 15  # entries per strip of `strip_sum`: 256 KiB of doubles
_WIDE = 1 << 10  # from this many columns on, a strip holds 2 * _STRIP entries
_STRIP_REST = 1 << 11  # a strip stops folding at this many partial sums
_HELD = 4  # strips' errors a level buffer of `strip_sum` holds
_LEAF = 128  # numpy's pairwise sum adds at most this many entries directly


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
    """Flat buffers for `strip_sum` on a rows x cols matrix: three that
    hold a strip, and one for the strip levels' error buffers and the
    strips' partial sums. Each level buffer holds the whole level or, where
    that is longer, _LEAF entries plus _HELD strips' errors; a matrix of
    one strip needs none. A smaller matrix fits where its strips and its
    levels need no more space, as every matrix of at most 1024 rows and
    columns does in a 1024 x 1024 set; too little space raises."""
    h = _strip_rows(cols)
    _, caps, m = _levels(rows, cols) if rows > h else ((), (), 0)
    return (*(np.empty(min(h, rows) * cols) for _ in range(3)), np.empty(sum(caps) + m))


def _levels(rows: int, cols: int) -> tuple[list, list, int]:
    """The lengths of the strip-local fold levels of a rows x cols matrix,
    the sizes of their buffers, and the number of the strips' partial sums."""
    span = _strip_rows(cols) * cols
    local = min(span & -span, span // _STRIP_REST).bit_length() - 1
    sizes, caps, m = [], [], rows * cols
    for level in range(1, local + 1):
        m = (m + 1) // 2
        sizes.append(m)
        caps.append(min(m, _LEAF + _HELD * (span >> level)))
    return sizes, caps, m


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
    little work to pay for itself), and hands level L's errors, the next
    stretch of the error array comp_sum(matrix) builds for that level, to a
    `_LevelSum`, which sums them as they arrive in a buffer of a few strips.
    The strips' partial sums then finish the tree once per matrix. The level
    buffers and the partial sums are slices of scratch[3], and the level
    sums of a strip, and of that last fold where they fit, ping-pong in the
    strip buffers, so a caller that keeps its scratch allocates nothing per
    strip and only the last fold's small error arrays per matrix. Each level
    sum is bit for bit the np.sum of its error array, and each entry goes
    through the same additions in the same order, so the result is
    bit-identical to comp_sum(matrix).
    """
    h = _strip_rows(cols)
    if rows <= h:
        return comp_sum(strip(0, rows, _views(scratch, rows, cols)))
    span = h * cols
    sizes, caps, m = _levels(rows, cols)
    if scratch[3].size < sum(caps) + m:
        raise ValueError(f"strip scratch too small for a {rows} x {cols} matrix")
    levels, used = [], 0
    for size, cap in zip(sizes, caps):
        levels.append(_LevelSum(scratch[3][used : used + cap], size))
        used += cap
    rest, local = scratch[3][used : used + m], len(levels)
    full = _views(scratch, h, cols)
    for r0 in range(0, rows, h):
        start, stop = r0 * cols, (r0 + h) * cols  # slices clip the last strip
        r1 = min(r0 + h, rows)
        bufs = full if r1 - r0 == h else _views(scratch, r1 - r0, cols)
        out = [lv.take(span >> level) for level, lv in enumerate(levels, 1)]
        rest[start >> local : stop >> local] = _fold(strip(r0, r1, bufs).ravel(), out, scratch)
    tail = [None] * (m - 1).bit_length()
    last = _fold(rest, tail, scratch)
    return float(last[0]), math.fsum([*(lv.total() for lv in levels), *map(np.sum, tail)])


class _LevelSum:
    """np.sum of one fold level's error array, bit for bit, from its
    stretches as they arrive in order, in a buffer `buf` that may be shorter.

    For contiguous float64, numpy's sum is 0.0 + pw(a) (numpy 2.x; Higham,
    SIAM J. Sci. Comput. 14 (1993)): pw adds at most _LEAF entries directly
    and splits a longer span of n at n//2 - (n//2) % 8. That tree depends on
    the level's length alone, and a node's pw on its own entries alone. So
    when the next stretch does not fit, each node that has fully arrived is
    summed by one np.sum, and the rest, part of one leaf, moves to the front
    of buf. The node sums are added up the tree at the end: a node's np.sum
    is 0.0 + pw, which only turns -0.0 into +0.0, and the sum of two such
    values is 0.0 + pw of their parent, so the root is np.sum of the level.
    """

    __slots__ = ("buf", "size", "base", "fill", "nodes")

    def __init__(self, buf: np.ndarray, size: int):
        self.buf, self.size, self.base, self.fill, self.nodes = buf, size, 0, 0, {}

    def take(self, k: int) -> np.ndarray:
        """The slot the caller writes the level's next k entries to (or the
        rest of the level); k is at most buf.size - _LEAF + 1 unless the
        whole level fits in buf."""
        k = min(k, self.size - self.base - self.fill)
        if self.fill + k > self.buf.size:
            end = self.base + self.fill
            keep = _sum_nodes(self.buf, self.base, end, 0, self.size, self.nodes)
            self.buf[: end - keep] = self.buf[keep - self.base : self.fill]
            self.base, self.fill = keep, end - keep
        self.fill += k
        return self.buf[self.fill - k : self.fill]

    def total(self) -> float:
        """np.sum of the whole level, once all of it has arrived."""
        return _tree_sum(self.buf, self.base, 0, self.size, self.nodes)


def _sum_nodes(buf, base: int, end: int, lo: int, n: int, nodes: dict) -> int:
    """Store in nodes[lo', n'] the np.sum of every largest node (lo', n')
    under node (lo, n) that lies in [base, end), where buf[i - base] is
    entry i; return where the entries left unsummed start: at the leaf that
    end cuts, else at end."""
    hi = lo + n
    if hi <= base or lo >= end:
        return end
    if base <= lo and hi <= end:
        nodes[lo, n] = np.sum(buf[lo - base : hi - base])
        return end
    if n <= _LEAF:
        return lo
    half = n // 2 - n // 2 % 8
    left = _sum_nodes(buf, base, end, lo, half, nodes)
    return min(left, _sum_nodes(buf, base, end, lo + half, n - half, nodes))


def _tree_sum(buf, base: int, lo: int, n: int, nodes: dict) -> float:
    """0.0 + pw of node (lo, n) of a level that has fully arrived: its
    stored sum, its np.sum where it lies in buf (entries from base on), or
    the sum of its two halves."""
    if (lo, n) in nodes:
        return nodes[lo, n]
    if lo >= base:
        return np.sum(buf[lo - base : lo - base + n])
    half = n // 2 - n // 2 % 8
    return _tree_sum(buf, base, lo, half, nodes) + _tree_sum(buf, base, lo + half, n - half, nodes)


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
