"""The row-major Monte Carlo chunk kernel, kept as the bit-for-bit reference
for `pointsets._count_in_boxes` and `lp_oracle._chunk_moments`.

`_rank`, `_count_in_boxes`, `_sample_terms` and `_chunk_moments` are the
package's code before the coordinate-major draws and the `np.take` gathers,
copied verbatim: boxes ranked by fancy indexing, the bitset rows gathered by
`table[r]`, the wrap xor run on every two-corner block, popcounts summed row
by row, and each sub-block's uniforms drawn as one row-major run. The rank
table and the prefix bitset table builders did not change and are imported.
"""

import math

import numpy as np

from disclab.pointsets import _prefix_sets, _rank_table
from disclab.rng import uniform01

_POINT_GROUP = 1 << 12
_TABLE_WORDS = 1 << 20
_BLOCK_WORDS = 1 << 15
_DRAW_WORDS = 1 << 19


def _rank(table: tuple[int, np.ndarray, int, np.ndarray], t: np.ndarray) -> np.ndarray:
    buckets, start, k, xe = table
    r = start[(t * buckets).astype(np.intp)]
    for i in reversed(range(k)):
        step = 1 << i
        r += (xe[step - 1 :][r] < t) * step
    return r


def _count_in_boxes(x: np.ndarray, lo: np.ndarray | None, hi: np.ndarray) -> np.ndarray:
    n, d = x.shape
    if d == 1:
        ranks = _rank_table(np.sort(x[:, 0]))
        cnt = _rank(ranks, hi[:, 0])
        if lo is not None:
            cnt = cnt - _rank(ranks, lo[:, 0]) + n * (lo[:, 0] > hi[:, 0])
        return cnt
    m = hi.shape[0]
    out = np.zeros(m, dtype=np.intp)
    group = min(_POINT_GROUP, 64 * max(1, math.isqrt(_TABLE_WORDS // (64 * d))))
    for g in range(0, n, group):
        tables = [_prefix_sets(x[g : g + group, j]) for j in range(d)]
        rows = max(1, _BLOCK_WORDS // tables[0][1].shape[1])
        for r in range(0, m, rows):
            inside = None
            for j, (ranks, table) in enumerate(tables):
                hb = hi[r : r + rows, j]
                s = table[_rank(ranks, hb)]
                if lo is not None:
                    lb = lo[r : r + rows, j]
                    s ^= table[_rank(ranks, lb)]
                    np.bitwise_xor(s, table[-1], out=s, where=(lb > hb)[:, None])
                inside = s if inside is None else np.bitwise_and(inside, s, out=inside)
            out[r : r + rows] += np.bitwise_count(inside).sum(axis=1, dtype=np.intp)
    return out


def _sample_terms(pts: np.ndarray, kind: str, p: float, u: np.ndarray) -> np.ndarray:
    n, d = pts.shape
    if kind == "star":
        lo, hi = None, u
        vol = u.prod(axis=1)
    else:
        a, b = u[:, :d], u[:, d:]
        if kind == "extreme":
            lo, hi = np.minimum(a, b), np.maximum(a, b)
        else:  # periodic: unordered corners wrap where a > b
            lo, hi = a, b
        vol = (hi - lo + (lo > hi)).prod(axis=1)
    delta = _count_in_boxes(pts, lo, hi) - n * vol
    return np.abs(delta) ** p


@np.errstate(over="raise", invalid="raise")
def _chunk_moments(pts: np.ndarray, kind: str, p: float, seed: int, start: int, count: int):
    d = pts.shape[1]
    width = d if kind == "star" else 2 * d
    step = max(1, _DRAW_WORDS // width)
    ys = []
    for s in range(start, start + count, step):
        m = min(step, start + count - s)
        u = uniform01(seed, s * width, m * width).reshape(m, width)
        ys.append(_sample_terms(pts, kind, p, u))
    y = np.concatenate(ys)
    if kind == "extreme":
        # min/max folding doubles the density per coordinate on {u <= v}
        y *= 2.0 ** (-d)
    return float(y.sum()), float((y * y).sum())
