"""The exact suprema before the shared corner-count table, kept as the
bit-for-bit references for `lp_oracle._corner_counts`, `lp_oracle._linf_star`
and `lp_oracle._linf_extreme_2d`.

`_cells`, `linf_star_1d` and `linf_extreme_1d` are the package's d = 1 cell
table and scans, and `linf_star_2d` its d = 2 star grid, copied verbatim
from before the table; `_cells` also feeds the row-loop reference of the
d = 1 extreme L_p.

`linf_extreme_2d` is the package's extreme branch before the sweep, copied
verbatim: one first-axis start a per step, every end b >= a and every
second-axis interval at once, each box valued `closed - (n * width1) * width2`
or `(n * width1) * width2 - opened`. It is O(n^4).
"""

import numpy as np


def _cells(x: np.ndarray):
    """Breakpoint edges (0, distinct coords, 1) and the box count on each
    cell (e_i, e_{i+1}]."""
    xs = np.sort(x)
    edges = np.unique(np.concatenate(([0.0], xs, [1.0])))
    counts = np.searchsorted(xs, edges[:-1], side="right").astype(np.float64)
    return edges, counts


def linf_star_1d(points) -> float:
    points.require_nonempty()
    points.require_dim(1)
    x = points.coords[:, 0]
    n = x.size
    edges, a = _cells(x)
    return float(max(np.max(a - n * edges[:-1]), np.max(n * edges[1:] - a)))


def linf_extreme_1d(points) -> float:
    points.require_nonempty()
    points.require_dim(1)
    x = points.coords[:, 0]
    n = x.size
    edges, a = _cells(x)
    high = a - n * edges[:-1]
    low = a - n * edges[1:]
    best = 0.0
    if high.size > 1:
        prefix_min = np.minimum.accumulate(low)
        best = max(best, float(np.max(high[1:] - prefix_min[:-1])))
    suffix_min = np.minimum.accumulate(low[::-1])[::-1]
    best = max(best, float(np.max(high - suffix_min)))
    return best


def linf_star_2d(pts: np.ndarray) -> float:
    n = pts.shape[0]
    c1 = np.unique(np.concatenate(([0.0], pts[:, 0], [1.0])))
    c2 = np.unique(np.concatenate(([0.0], pts[:, 1], [1.0])))
    k1, k2 = c1.size, c2.size
    # C[i, j] = number of points with x1 <= c1[i-1] and x2 <= c2[j-1]
    hist = np.zeros((k1 + 1, k2 + 1))
    r1 = np.searchsorted(c1, pts[:, 0])
    r2 = np.searchsorted(c2, pts[:, 1])
    np.add.at(hist, (r1 + 1, r2 + 1), 1.0)
    cum = hist.cumsum(axis=0).cumsum(axis=1)
    closed = cum[1:, 1:]
    strict = cum[:-1, :-1]
    vol = n * np.outer(c1, c2)
    return max(float(np.max(closed - vol)), float(np.max(vol - strict)), 0.0)


def linf_extreme_2d(pts: np.ndarray) -> float:
    n = pts.shape[0]
    c1 = np.unique(np.concatenate(([0.0], pts[:, 0], [1.0])))
    c2 = np.unique(np.concatenate(([0.0], pts[:, 1], [1.0])))
    k1, k2 = c1.size, c2.size
    # C[i, j] = number of points with x1 <= c1[i-1] and x2 <= c2[j-1]
    hist = np.zeros((k1 + 1, k2 + 1))
    r1 = np.searchsorted(c1, pts[:, 0])
    r2 = np.searchsorted(c2, pts[:, 1])
    np.add.at(hist, (r1 + 1, r2 + 1), 1.0)
    cum = hist.cumsum(axis=0).cumsum(axis=1)
    iu2, iv2 = np.triu_indices(k2)
    width2 = c2[iv2] - c2[iu2]
    # counts over every second-axis interval, per first-axis threshold row
    closed_rows = cum[:, iv2 + 1] - cum[:, iu2]
    opened_rows = cum[:, iv2] - cum[:, iu2 + 1]
    best = 0.0
    for a in range(k1):
        # every b >= a at once; (n * width1) * width2 in the per-box order,
        # so each candidate, and the max, is the same double
        closed = closed_rows[a + 1 :] - closed_rows[a]
        opened = opened_rows[a:k1] - opened_rows[a + 1]
        vol = (n * (c1[a:] - c1[a]))[:, None] * width2
        best = max(best, float(np.max(closed - vol)), float(np.max(vol - opened)))
    return best
