"""Per-prefix discrepancies of a one-dimensional sequence, for every prefix
length at once.

Dense scans (every prefix length up to some maximum) would cost O(N^3 d) with
the direct closed forms. In one dimension all four pair kernels reduce to
order statistics:

    sum_{k,l} max(x_k, x_l),  sum_{k,l} min(x_k, x_l),
    sum over unordered pairs of |x_k - x_l|,

and each grows, as point i joins, by a term built from the count and the
x-sum of the earlier points of smaller rank. Those two are found offline for
the whole sequence with one numpy pass per bit of the value rank (ranks are
stable, so ties count as below), O(N log N) in all; the per-point terms are
then running sums. From the running sums:

    star^2     = n sum x^2 - SUM_max + n^2/3
    extreme^2  = (SUM_min - (sum x)^2) - n (sum x - sum x^2) + n^2/12
    periodic^2 = 2 (n sum x^2 - (sum x)^2) - 2 SUM_absdiff + n^2/6
    diaphony^2 = 2 pi^2 periodic^2 / n^2

The periodic identity uses that {delta} + {-delta} = 1 off the diagonal and
{delta}^2 + {-delta}^2 = 2 delta^2 - 2|delta| + 1 per unordered pair, which
collapses the Bernoulli kernel into the three tracked sums.

Running sums are compensated (`summation.running_sum`): the (value,
compensation) pairs a scalar Neumaier sum holds as the terms arrive. Every
sum is formed in the order a per-point engine (Fenwick trees over the ranks,
one compensated scalar sum per running sum) forms it, so the values are that
engine's, bit for bit, on any input. The residual error of a prefix value is
O(eps * n^2), i.e. about 1e-7 absolute at n = 2^16, ample for scan and
envelope work (the full-accuracy path is `exact_l2`).

Every call forms all three running sums and finishes all four values;
`kinds` only picks the arrays returned. Memory is freed in a fixed order,
which keeps the peak near that of a single kind: the three term arrays are
formed, then the four rank-count arrays are deleted, each term array is
freed once its running sum is taken, and each sum once its value is
finished.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError
from .lp_oracle import KINDS
from .pointsets import PointSet
from .summation import running_sum

__all__ = ["prefix_discrepancies"]


def prefix_discrepancies(
    values: np.ndarray | PointSet, kinds: tuple[str, ...] = KINDS
) -> dict[str, np.ndarray]:
    """Values of the requested discrepancies for every prefix of a 1-d
    sequence, index i holding the value for the first i+1 points. An array
    is checked as a one-column `PointSet`."""
    if not isinstance(values, PointSet):
        values = PointSet(np.column_stack([values]))
    if values.d != 1:
        raise DimensionMismatchError("prefix scans require a one-dimensional sequence")
    x = values.coords[:, 0].copy()
    for k in kinds:
        if k not in KINDS:
            raise ValueError(f"unknown kind {k!r}")
    n_total = x.size
    c_below, s_below = _below(x)
    sum_x = np.add(*running_sum(x))
    s_above = np.concatenate(([0.0], sum_x[:-1])) - s_below  # earlier points ranked above
    c_above = np.arange(n_total) - c_below
    # ties carry stable ranks, so an equal value inserted earlier lands in
    # the "below" group, where max/min/absdiff treat it correctly
    terms = {
        "max": 2.0 * (x * c_below + s_above) + x,
        "min": 2.0 * (s_below + x * c_above) + x,
        "absdiff": (x * c_below - s_below) + (s_above - x * c_above),
    }
    del c_below, s_below, s_above, c_above
    # each term array is freed as its running sum is formed, and each sum as
    # its value is finished (see the module docstring)
    sums = {k: np.add(*running_sum(terms.pop(k))) for k in list(terms)}
    sum_x2 = np.add(*running_sum(x * x))
    n = np.arange(1.0, n_total + 1.0)
    out = {"star": np.sqrt(np.maximum(n * sum_x2 - sums.pop("max") + n * n / 3.0, 0.0))}
    sq = (sums.pop("min") - sum_x * sum_x) - n * (sum_x - sum_x2) + n * n / 12.0
    out["extreme"] = np.sqrt(np.maximum(sq, 0.0))
    b = 2.0 * (n * sum_x2 - sum_x * sum_x) - 2.0 * sums.pop("absdiff") + n * n / 6.0
    b = np.maximum(b, 0.0)
    out["periodic"] = np.sqrt(b)
    out["diaphony"] = np.sqrt(2.0 * math.pi**2 * b) / n
    return {k: out[k] for k in kinds}


def _below(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point i, the count and the x-sum of the points j < i with
    x[j] <= x[i]: those of smaller stable rank.

    Such a pair is counted at the highest bit L where the two ranks differ:
    they share the group rank >> (L+1), and j's bit L is 0 and i's is 1. The
    sequence is padded to a power of two with points that come after every
    real one, so the ranks of a group fill one row of 2^(L+1) slots. Level L
    sorts each row by time, which merges the two sorted rows of level L-1,
    and credits each bit-1 point with the bit-0 points before it in its row.
    A row's bit-0 block is a Fenwick node, summed in time order, and a
    point's nodes are added lowest level first, as a Fenwick prefix query
    adds them; so an x-sum rounds as it would in the tree, and no later
    point's value enters it.
    """
    n = x.size
    bits = max(n - 1, 0).bit_length()
    size = 1 << bits
    time = np.arange(size)  # the point of each rank; padding: time = rank >= n
    time[:n] = np.argsort(x, kind="stable")
    key = (time << bits) | np.arange(size)  # time, then rank in the low bits
    del time
    xp = np.zeros(size)
    xp[:n] = x
    count = np.zeros(size, dtype=np.int64)
    total = np.zeros(size)
    for level in range(bits):
        width = 2 << level
        # the two halves of a row are sorted runs: the stable sort merges them
        key = np.sort(key.reshape(-1, width), axis=1, kind="stable").ravel()
        time = key >> bits
        low = (key & (1 << level)) == 0
        hi = np.flatnonzero(~low)
        dst = time[hi]
        count[dst] += np.cumsum(low.reshape(-1, width), axis=1).ravel()[hi]
        xs = np.where(low, xp[time], 0.0)
        del time, low
        total[dst] += np.cumsum(xs.reshape(-1, width), axis=1).ravel()[hi]
    return count[:n].astype(np.float64), total[:n]
