"""Point sets in [0,1)^d, axis-parallel test boxes, counting and local
discrepancy, the CSV point format, and the one worker pool, shared by the
Monte Carlo oracle, the pair sums and the d = 1 extreme L_p integrand.

Conventions used everywhere in the package:

* boxes are half open, [u, v) per coordinate; a point with x_j == v_j is
  outside, x_j == u_j is inside;
* the local discrepancy is unnormalized: count minus N * volume;
* periodic boxes wrap per coordinate: the test set is [u_j, v_j) when
  u_j <= v_j and [0, v_j) union [u_j, 1) otherwise, so u == (0,...,0),
  v == (1,...,1) is the full cube, not the empty one.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import CoordinateError, DimensionMismatchError, DisclabError, EmptyPointSetError

__all__ = [
    "PointSet",
    "Box",
    "PeriodicBox",
    "Estimate",
    "count_points",
    "local_discrepancy",
    "read_points",
    "write_points",
]


@dataclass(frozen=True, eq=False)
class PointSet:
    """Ordered multiset of points in [0,1)^d.

    The coordinate array is (n, d), float64, and frozen after construction.
    Order is preserved: prefix extraction and the lifting construction rely
    on it. n == 0 is allowed for construction and IO but rejected by every
    discrepancy evaluation. Point sets, like boxes, compare and hash by
    identity (a generated `__eq__` would compare arrays inside tuples).
    """

    coords: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.coords, dtype=np.float64)
        if a.ndim != 2:
            raise CoordinateError(f"expected an (n, d) array, got shape {a.shape}")
        if a.shape[1] < 1:
            raise CoordinateError("dimension must be >= 1")
        if a.size and (not np.all(np.isfinite(a)) or a.min() < 0.0 or a.max() >= 1.0):
            raise CoordinateError("coordinates must be finite and lie in [0, 1)")
        a = np.ascontiguousarray(a)
        a.flags.writeable = False
        object.__setattr__(self, "coords", a)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]

    def prefix(self, n: int) -> "PointSet":
        if not 0 <= n <= self.n:
            raise ValueError(f"prefix length {n} out of range 0..{self.n}")
        return PointSet(self.coords[:n])

    def require_nonempty(self) -> None:
        if self.n == 0:
            raise EmptyPointSetError("operation requires at least one point")

    def require_dim(self, d: int) -> None:
        if self.d != d:
            raise DimensionMismatchError(f"point set has d={self.d}, expected d={d}")


@dataclass(frozen=True, eq=False)
class PeriodicBox:
    """Axis-parallel box modulo one; corners need not be ordered.

    Per coordinate the test set is [u_j, v_j) when u_j <= v_j and the wrapped
    pair [0, v_j) union [u_j, 1) otherwise. Its length is v_j - u_j plus one
    on wrapped coordinates.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        u = np.atleast_1d(np.asarray(self.u, dtype=np.float64))
        v = np.atleast_1d(np.asarray(self.v, dtype=np.float64))
        if u.shape != v.shape or u.ndim != 1:
            raise CoordinateError("box corners must be 1-d arrays of equal length")
        uv = np.concatenate((u, v))
        if not np.all((uv >= 0.0) & (uv <= 1.0)):  # false for NaN too
            raise CoordinateError("box corners must be finite and lie in [0, 1]")
        u.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def d(self) -> int:
        return self.u.size

    def volume(self) -> float:
        wrap = self.u > self.v
        return float(np.prod(self.v - self.u + wrap))


class Box(PeriodicBox):
    """Half-open axis-parallel box [u, v): the periodic box whose corners
    are ordered, u <= v componentwise, so no coordinate wraps."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if np.any(self.u > self.v):
            raise CoordinateError("box requires u <= v componentwise")


METHOD_CLOSED_FORM = "exact-closed-form"
METHOD_PIECEWISE = "exact-piecewise"
METHOD_MONTE_CARLO = "monte-carlo"
METHOD_GRID_ENUM = "grid-enum"


@dataclass(frozen=True)
class Estimate:
    """A computed discrepancy value plus provenance.

    `stderr`, `samples` and `seed` are populated exactly when the method is
    Monte Carlo.
    """

    kind: str
    p: float
    value: float
    method: str
    n: int
    d: int
    stderr: float | None = None
    samples: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.value < 0.0:
            raise ValueError("discrepancy values are nonnegative")
        if (self.method == METHOD_MONTE_CARLO) != (self.stderr is not None):
            raise ValueError("stderr must be present exactly for monte-carlo estimates")


# Points per group of bitset tables (fewer in high d, so one group's d tables
# stay near _TABLE_WORDS uint64 words), uint64 words per box row block, and
# the most buckets in one rank table.
_POINT_GROUP = 1 << 12
_TABLE_WORDS = 1 << 20
_BLOCK_WORDS = 1 << 15
_MAX_BUCKETS = 1 << 16


def _rank_table(xs: np.ndarray) -> tuple[int, np.ndarray, int, np.ndarray]:
    """Bucketed rank table of the sorted coordinates xs, read by `_rank`.

    B is the smallest power of two >= 4 * n, at most _MAX_BUCKETS, and
    start[b] = #{x < b / B} for b = 0 .. B. For a power-of-two B, x * B and
    its floor are exact, so bucket floor(x * B) holds x exactly when
    b / B <= x < (b + 1) / B. xs is padded with 2^k copies of +inf, where k
    is the bit length of the fullest bucket's count.
    """
    n = xs.size
    buckets = min(_MAX_BUCKETS, 1 << max(0, 4 * n - 1).bit_length())
    fill = np.bincount((xs * buckets).astype(np.intp), minlength=buckets)
    start = np.zeros(buckets + 1, dtype=np.intp)
    np.cumsum(fill, out=start[1:])
    k = int(fill.max(initial=0)).bit_length()
    return buckets, start, k, np.concatenate((xs, np.full(1 << k, np.inf)))


def _rank(table: tuple[int, np.ndarray, int, np.ndarray], t: np.ndarray) -> np.ndarray:
    """#{x < t} for each t in [0, 1], equal to searchsorted(xs, t).

    Every x below bucket b = floor(t * B) is below t and every x above it is
    at or past (b + 1) / B > t, so the rank is start[b] plus the number of
    bucket b's points below t, fewer than 2^k. k branch-free doubling steps
    count those; a step reads past the bucket only where the value is >= t
    (the next bucket or the +inf padding). t = 1.0 falls in bucket B, where
    start[B] = n. The reads are `np.take`, cheaper than fancy indexing.
    """
    buckets, start, k, xe = table
    r = np.take(start, (t * buckets).astype(np.intp))
    for i in reversed(range(k)):
        step = 1 << i
        r += (np.take(xe[step - 1 :], r) < t) * step
    return r


def _prefix_sets(xj: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Rank table of xj and the (n + 1, ceil(n / 64)) uint64 table whose row
    r is the bitset of the r smallest points, so row `_rank(t)` is the set
    {i : xj[i] < t}, ties never split."""
    n = xj.size
    order = np.argsort(xj, kind="stable")
    table = np.zeros((n + 1, -(-n // 64)), dtype=np.uint64)
    table[np.arange(1, n + 1), order >> 6] = np.uint64(1) << (order & 63).astype(np.uint64)
    np.bitwise_or.accumulate(table, axis=0, out=table)
    return _rank_table(xj[order]), table


def _count_in_boxes(x: np.ndarray, lo: np.ndarray | None, hi: np.ndarray) -> np.ndarray:
    """Number of rows of x (n, d) inside each of m boxes with corner rows
    lo and hi (m, d).

    Per coordinate a box is [lo, hi) when lo <= hi and the wrapped pair
    [0, hi) union [lo, 1) when lo > hi; lo None anchors every box at the
    origin. Boundaries are exact: a corner t maps to its rank, the number of
    points with x_j < t, read from a bucketed rank table (`_rank`), which
    gives searchsorted's integers without a binary search over all points.
    In d = 1 the counts are rank differences. Otherwise a rank r picks row r
    of a prefix bitset table per coordinate, [lo, hi) is the xor of two rows
    (and of the full row where it wraps), and the count is the popcount of
    the and over coordinates. Points go in groups of at most _POINT_GROUP,
    each with its own tables, and boxes in row blocks of _BLOCK_WORDS words,
    each ranked where it is read, so memory stays bounded at any n.

    Rows are gathered with `np.take`, up to ten times faster than `table[r]`;
    the wrap xor runs only in a row block where some box wraps, as a gather
    of row 0 (empty) or the last row (full). Each box's word popcounts are
    added by `einsum("ij->i")` in uint16, as fast as a word column loop on
    rows of a few words and faster than `sum(axis=1)` on rows of many.
    Fortran-ordered corners, as the oracle passes them, make each lo[:, j]
    and hi[:, j] contiguous.
    """
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
                s = np.take(table, _rank(ranks, hb), axis=0)
                if lo is not None:
                    lb = lo[r : r + rows, j]
                    s ^= np.take(table, _rank(ranks, lb), axis=0)
                    wrap = lb > hb
                    if wrap.any():  # row 0 is empty, the last row full
                        s ^= np.take(table, wrap * (table.shape[0] - 1), axis=0)
                inside = s if inside is None else np.bitwise_and(inside, s, out=inside)
            # a box holds at most _POINT_GROUP = 4096 of the group's points,
            # so its popcount total fits the uint16 einsum accumulates in
            out[r : r + rows] += np.einsum("ij->i", np.bitwise_count(inside), dtype=np.uint16)
    return out


def _as_integer(name: str, value) -> int:
    """int(value), refusing a float that int() would silently truncate."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _thread_count(requested: int = 0) -> int:
    """Worker cap: `requested` if positive, else DISCLAB_THREADS if positive
    (unset, empty or an integer >= 0, else a DisclabError), else 8; never more
    than the CPU count, since each worker in flight holds its own buffers."""
    if requested <= 0:
        text = os.environ.get("DISCLAB_THREADS", "")
        if text and not text.isdecimal():
            raise DisclabError(f"DISCLAB_THREADS must be an integer >= 0, got {text!r}")
        requested = int(text or "0")
    return min(requested if requested > 0 else 8, os.cpu_count() or 1)


def _ordered_map(fn, items: list, threads: int = 0, scratch=None) -> list:
    """[fn(item) for item in items] on up to _thread_count(threads) threads,
    each call under the caller's numpy error state (a pool thread enters it
    around each call, since it starts from numpy's default). Results come
    back in item order, so a caller that combines them in that order gets
    the same bits at any worker count. With a `scratch` factory each call is
    fn(item, buf): a worker builds its one buf on first need, so no two
    calls in flight share one, and every buf is dropped when the map
    returns."""
    local = threading.local()

    def task(item):
        if scratch is None:
            return fn(item)
        if not hasattr(local, "buf"):
            local.buf = scratch()
        return fn(item, local.buf)

    if len(items) > 1 and (workers := _thread_count(threads)) > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(np.errstate(**np.geterr())(task), items))
    return [task(item) for item in items]


def count_points(points: PointSet, box: PeriodicBox) -> int:
    """Number of points inside the box, with exact half-open boundaries."""
    if points.d != box.d:
        raise DimensionMismatchError(
            f"point set has d={points.d}, box has d={box.d}"
        )
    return int(_count_in_boxes(points.coords, box.u[None, :], box.v[None, :])[0])


def local_discrepancy(points: PointSet, box: PeriodicBox) -> float:
    """Signed deviation of the box count from its expectation:
    count - n * volume. Lies in [-n, n]."""
    return count_points(points, box) - points.n * box.volume()


# ---------------------------------------------------------------------------
# CSV point format: one row per point, d comma-separated reals in [0,1),
# optionally preceded by a header comment of the form "# d=<d> n=<n>".
# ---------------------------------------------------------------------------


def read_points(source: str | IO[str]) -> PointSet:
    """Parse the CSV point format. Rejects out-of-range coordinates with the
    offending row number in the message."""
    declared_d: int | None = None
    rows: list[list[float]] = []
    with (open(source, "r", encoding="utf-8") if isinstance(source, str)
          else nullcontext(source)) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                declared_d = _parse_header_dim(line, declared_d)
                continue
            parts = line.split(",")
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                raise CoordinateError(f"row {lineno}: unparseable value in {line!r}") from None
            for c in vals:
                if not math.isfinite(c) or c < 0.0 or c >= 1.0:
                    raise CoordinateError(
                        f"row {lineno}: coordinate {c!r} outside [0, 1)"
                    )
            if rows and len(vals) != len(rows[0]):
                raise CoordinateError(
                    f"row {lineno}: expected {len(rows[0])} columns, got {len(vals)}"
                )
            rows.append(vals)
    if declared_d is not None and rows and len(rows[0]) != declared_d:
        raise CoordinateError(
            f"header declares d={declared_d} but rows have {len(rows[0])} columns"
        )
    if not rows:
        if declared_d is None:
            raise CoordinateError("no points and no '# d=...' header to fix the dimension")
        return PointSet(np.empty((0, declared_d)))
    return PointSet(np.asarray(rows, dtype=np.float64))


def _parse_header_dim(line: str, current: int | None) -> int | None:
    for tok in line.lstrip("#").split():
        if tok.startswith("d="):
            try:
                return int(tok[2:])
            except ValueError:
                raise CoordinateError(f"bad header token {tok!r}") from None
    return current


def write_points(points: PointSet, dest: IO[str]) -> None:
    """Emit the CSV point format with a '# d=.. n=..' header and 17
    significant digits per coordinate."""
    dest.write(f"# d={points.d} n={points.n}\n")
    for row in points.coords:
        dest.write(",".join(f"{c:.17g}" for c in row) + "\n")
