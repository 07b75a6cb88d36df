"""The d = 2 extreme supremum by enumeration of every candidate box, kept as
the bit-for-bit reference for `lp_oracle._linf_small_2d`.

`linf_extreme_2d` is the package's extreme branch before the sweep, copied
verbatim: one first-axis start a per step, every end b >= a and every
second-axis interval at once, each box valued `closed - (n * width1) * width2`
or `(n * width1) * width2 - opened`. It is O(n^4).
"""

import numpy as np


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
