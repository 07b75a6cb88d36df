"""Definition-level evaluators: Monte Carlo for any finite p, piecewise-exact
integration in one dimension for any p >= 1, and exact supremum (p = infinity)
algorithms for low dimension.

These operate straight from the definitions and serve as ground truth for the
closed forms in `exact_l2`, besides being useful on their own for p != 2.
`estimate` picks the evaluator for a (kind, p, d) request, closed forms
included.
"""

from __future__ import annotations

import functools
import math
import queue
import sys
from dataclasses import dataclass

import numpy as np

from . import exact_l2
from .errors import DisclabError, GuardError, MonteCarloRequired
from .pointsets import (
    METHOD_CLOSED_FORM,
    METHOD_GRID_ENUM,
    METHOD_MONTE_CARLO,
    METHOD_PIECEWISE,
    Estimate,
    PointSet,
    _count_in_boxes,
    _ordered_map,
    _as_integer,
)
from .rng import uniform01

__all__ = [
    "McConfig",
    "mc_lp",
    "exact_lp_1d",
    "linf_star_1d",
    "linf_extreme_1d",
    "linf_exact_small",
    "estimate",
]

MC_KINDS = ("star", "extreme", "periodic")
KINDS = MC_KINDS + ("diaphony",)

# Samples per chunk. Partial sums are produced per chunk and combined in
# chunk order, so the result is independent of how many workers ran them.
_CHUNK = 1 << 16
# Uniforms per sub-block of a chunk: a chunk of up to 2^16 two-corner samples
# in d <= 4 is one sub-block.
_DRAW_WORDS = 1 << 19

_MIN_SAMPLES_FOR_STDERR = 100


@dataclass(frozen=True)
class McConfig:
    """How to sample a Monte Carlo estimate: the sample count, the stream
    seed and the worker threads. What to estimate, kind and p, is passed
    next to it, to `mc_lp` or `estimate`."""

    samples: int
    seed: int
    threads: int = 0  # 0: take DISCLAB_THREADS, else 8; at most cpu count

    def __post_init__(self) -> None:
        for name in ("samples", "seed", "threads"):
            _as_integer(name, getattr(self, name))
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.threads < 0:
            raise ValueError("threads must be >= 0")


def _sample_terms(pts: np.ndarray, kind: str, p: float, u: np.ndarray) -> np.ndarray:
    """|D|^p of the samples whose uniforms are the rows of u: d of them for
    star, corner a then corner b for the two-corner kinds. u is Fortran
    ordered, so min/max, the volume product and the box counter read whole
    columns. An extreme box never wraps, so its volume skips the wrap term
    (adding 0.0 to hi - lo >= +0.0 changes no bit). The other steps run in
    place, the same operations on the same operands as `|count - n vol|^p`,
    so the chunk holds fewer temporaries."""
    n, d = pts.shape
    if kind == "star":
        lo, hi = None, u
        vol = u.prod(axis=1)
    else:
        a, b = u[:, :d], u[:, d:]
        if kind == "extreme":
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            vol = (hi - lo).prod(axis=1)
        else:  # periodic: unordered corners wrap where a > b
            lo, hi = a, b
            vol = hi - lo
            vol += lo > hi
            vol = vol.prod(axis=1)
    y = n * vol
    np.subtract(_count_in_boxes(pts, lo, hi), y, out=y)
    np.abs(y, out=y)
    y **= p
    return y


@np.errstate(over="raise", invalid="raise")
def _chunk_moments(pts: np.ndarray, kind: str, p: float, seed: int, start: int, count: int):
    """(sum y, sum y^2) of the integrand over samples start..start+count-1.

    Stream layout: sample s consumes positions [s*w, (s+1)*w) where w = d for
    star and 2d otherwise. Samples go through `_sample_terms` in sub-blocks of
    at most _DRAW_WORDS uniforms, so memory does not grow with d; a sample's
    term depends on its own draws alone, and y is summed once. A sub-block's
    uniforms are drawn coordinate-major: column j is the stride-w run from
    position s*w + j, written into row j of a (w, m) array whose transpose is
    the Fortran-ordered (m, w) block. Each sample keeps its draws, and the
    volume product over a row is the same left-to-right product in either
    layout. Drawing by column keeps the generator's temporaries at m words
    and needs no row-major copy of the block.
    """
    d = pts.shape[1]
    width = d if kind == "star" else 2 * d
    step = max(1, _DRAW_WORDS // width)
    ys = []
    for s in range(start, start + count, step):
        m = min(step, start + count - s)
        u = np.empty((width, m))
        for j in range(width):
            u[j] = uniform01(seed, s * width + j, m, stride=width)
        ys.append(_sample_terms(pts, kind, p, u.T))
    y = ys[0] if len(ys) == 1 else np.concatenate(ys)
    if kind == "extreme":
        # min/max folding doubles the density per coordinate on {u <= v}
        y *= 2.0 ** (-d)
    return float(y.sum()), float((y * y).sum())


def mc_lp(points: PointSet, mc: McConfig, kind: str, p: float) -> Estimate:
    """Monte Carlo estimate of the `kind` L_p discrepancy, sampled as `mc` says.

    star samples anchored corners t; extreme samples two corners and folds
    them with componentwise min/max (the integral over the ordered region
    equals 2^-d times the folded expectation); periodic samples unordered
    corner pairs with wraparound membership. The standard error of the
    p-th-power mean is pushed through the final 1/p power by the delta
    method. Reproducible: seed and sample count determine the result bit for
    bit, independent of thread count.
    """
    if kind not in MC_KINDS:
        raise ValueError(f"kind must be one of {MC_KINDS}, got {kind!r}")
    if not (1.0 <= p < math.inf):
        raise ValueError("p must be finite and >= 1; use the linf operations for p=inf")
    points.require_nonempty()
    pts = points.coords
    n, d = pts.shape
    jobs = [(s, min(_CHUNK, mc.samples - s)) for s in range(0, mc.samples, _CHUNK)]
    try:
        results = _ordered_map(lambda j: _chunk_moments(pts, kind, p, mc.seed, *j), jobs,
                               mc.threads)
        mean = math.fsum(r[0] for r in results) / mc.samples
        mean_sq = math.fsum(r[1] for r in results) / mc.samples
    except ArithmeticError:  # |D|^p, its square or a sum left the double range
        raise GuardError(f"Monte Carlo {kind} L_{p:g} overflows a double at n={n}") from None
    if mean < sys.float_info.min:  # a zero or subnormal mean: the p-th powers underflowed
        raise GuardError(f"Monte Carlo {kind} L_{p:g} underflows a double at n={n}")
    value = mean ** (1.0 / p)
    stderr = 0.0
    if mc.samples >= _MIN_SAMPLES_FOR_STDERR:
        var = max(mean_sq - mean * mean, 0.0) * mc.samples / (mc.samples - 1)
        se_mean = math.sqrt(var / mc.samples)
        stderr = se_mean * value / (p * mean)
    return Estimate(
        kind=kind,
        p=p,
        value=value,
        method=METHOD_MONTE_CARLO,
        n=n,
        d=d,
        stderr=stderr,
        samples=mc.samples,
        seed=mc.seed,
    )


# ---------------------------------------------------------------------------
# Exact one-dimensional L_p by piecewise integration
# ---------------------------------------------------------------------------


def _corner_counts(pts: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The corners c_j of each axis (0, the distinct coordinates, 1) and
    cum[i_1, .., i_d] = #{x_j <= c_j[i_j - 1] on every axis} in exact integer
    doubles, index 0 counting none; in d = 1 cum[1:-1] counts each cell."""
    corners, ranks = [], []
    for x in pts.T:
        c, r = np.unique(np.concatenate(([0.0], x, [1.0])), return_inverse=True)
        corners.append(c)
        ranks.append(r[1:-1] + 1)
    shape = tuple(c.size + 1 for c in corners)
    counts = np.bincount(np.ravel_multi_index(ranks, shape), minlength=math.prod(shape))
    cum = counts.reshape(shape).astype(np.float64)
    for axis in range(cum.ndim):
        np.cumsum(cum, axis=axis, out=cum)
    return corners, cum


def _phi1(s: np.ndarray, p: float) -> np.ndarray:
    """Antiderivative of |s|^p."""
    return np.sign(s) * np.abs(s) ** (p + 1.0) / (p + 1.0)


def _phi1_psi(s: np.ndarray, p: float, psi: np.ndarray, r: np.ndarray,
              zero: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_phi1(s, p)` written over s, and the antiderivative of s |s|^p,
    psi = |s|^(p+2) / (p+2), written into psi, from one |s| in the scratch r
    (zero is a boolean scratch).

    numpy's vector power takes a slow path on a zero base (about 4x per
    entry), and on lattice sets most s are 0. So |s| = 0 is raised as 1.0 and
    psi is set to 0 there afterwards; sign(0) = 0 already zeroes phi1. Every
    entry keeps the bits of the plain formulas.
    """
    np.equal(s, 0.0, out=zero)
    np.abs(s, out=r)
    np.copyto(r, 1.0, where=zero)
    np.divide(np.power(r, p + 2.0, out=psi), p + 2.0, out=psi)
    np.copyto(psi, 0.0, where=zero)
    np.multiply(np.sign(s, out=s), np.power(r, p + 1.0, out=r), out=s)
    return np.divide(s, p + 1.0, out=s), psi


# Cell pairs per row block of the extreme integrand: at most this many, or
# one row where a row is longer. Each worker in flight holds one scratch set
# of ten double arrays and one boolean array, each the size of the call's
# largest block (1.4 MiB in all at 2^14 entries). Entry (i, j) depends on
# cells i and j alone, so the size moves no bit. 2^15 ran the d = 1 extreme
# scan about 5% faster at two threads, but its scratch raised the scan's
# peak resident memory by 1.3 MiB against 0.2 MiB.
_BLOCK_ENTRIES = 1 << 14


def exact_lp_1d(points: PointSet, kind: str, p: float) -> float:
    """Exact L_p discrepancy in dimension one for any real p >= 1.

    The anchored discrepancy function D(t) = count([0,t)) - n t is linear on
    each cell between consecutive point values, so |D|^p integrates in closed
    form cell by cell. For arbitrary boxes the integrand over a cell pair
    depends on v - u alone, and integrating against the trapezoidal density
    of v - u needs only the first and second antiderivatives of |s|^p. No
    sampling error; accuracy is limited only by rounding.

    The extreme cell pairs (i, j > i) are built as 2-d arrays, a block of
    rows of at most 2^14 entries at a time, so memory stays bounded at any n.
    The blocks run on the worker pool (DISCLAB_THREADS, else 8; never more
    than the CPU count), and each worker in flight reuses one scratch set
    for the whole call, written with `out=`. Every entry has the same
    expression as in a one-row-at-a-time loop, each row i is still summed by
    one `math.fsum`, and the row sums are added in row order, so the result
    is bit-identical to that loop's at any thread count and block size.
    """
    points.require_nonempty()
    points.require_dim(1)
    if not (1.0 <= p < math.inf):
        raise ValueError("p must be finite and >= 1; use the linf operations for p=inf")
    if kind not in ("star", "extreme"):
        raise ValueError(f"kind must be 'star' or 'extreme', got {kind!r}")
    try:
        total = _lp_1d_power_sum(points.coords[:, 0], kind, p)
    except ArithmeticError:  # n**p, a numpy power or fsum left the double range
        raise GuardError(f"exact {kind} L_{p:g} overflows a double at n={points.n}") from None
    # the integral is positive (D has slope -n on every cell), so only underflow makes it 0
    if total < sys.float_info.min:
        raise GuardError(f"exact {kind} L_{p:g} underflows a double at n={points.n}")
    return total ** (1.0 / p)


@np.errstate(over="raise", invalid="raise")
def _lp_1d_power_sum(x: np.ndarray, kind: str, p: float) -> float:
    """The integral of |D|^p behind `exact_lp_1d`, before the 1/p root."""
    n = x.size
    (edges,), cum = _corner_counts(x[:, None])
    a = cum[1:-1]
    lo, hi = edges[:-1], edges[1:]
    if kind == "star":
        terms = (_phi1(a - n * lo, p) - _phi1(a - n * hi, p)) / n
        return math.fsum(terms.tolist())

    widths = hi - lo
    m = lo.size
    parts = [math.fsum(((n**p) * widths ** (p + 2.0) / ((p + 1.0) * (p + 2.0))).tolist())]
    blocks, i0 = [], 0
    while i0 < m - 1:
        i1 = min(m - 1, i0 + max(1, _BLOCK_ENTRIES // (m - 1 - i0)))
        blocks.append((i0, i1))
        i0 = i1
    size = max([(i1 - i0) * (m - 1 - i0) for i0, i1 in blocks], default=0)
    idle = queue.SimpleQueue()

    def block_rows(block):
        try:
            scratch = idle.get_nowait()
        except queue.Empty:
            scratch = [np.empty(size) for _ in range(10)] + [np.empty(size, dtype=bool)]
        try:
            # the error state is per thread: a pool worker starts from numpy's default
            with np.errstate(over="raise", invalid="raise"):
                return _extreme_rows(a, lo, hi, widths, n, p, *block, scratch)
        finally:
            idle.put(scratch)

    for sums in _ordered_map(block_rows, blocks):
        parts += sums
    return math.fsum(parts)


def _extreme_rows(a, lo, hi, widths, n, p, i0, i1, scratch) -> list[float]:
    """The fsum of each cell row i0..i1-1 of the extreme integrand over its
    pairs (i, j > i), built in the scratch set's arrays.

    The rows go against columns i0+1..m-1 as an (h, c) table; entry (i, j)
    is the cell pair i < j, and the entries with j <= i are zeroed before
    any arithmetic, so they neither raise nor reach a row sum. Every step
    writes with `out=`, operands in the order of the plain expressions

        t = piece(-w1, 1, s0, s1) + piece(height, 0, s1, s2) + piece(w4, -1, s2, s3)
        piece(aw, bw, s_hi, s_lo) = ((aw + bw * gap / n) * (phi1(s_hi) - phi1(s_lo))
                                     - (bw / n) * (psi(s_hi) - psi(s_lo))) / n

    (the psi term only where bw != 0), at the breakpoints s_k = gap - n alpha_k,
    alpha = w1, min(w2, w3), max(w2, w3), w4. So each entry is the same double
    as in a one-row-at-a-time loop, and only two breakpoints' phi1 and psi
    are live at once.
    """
    m = lo.size
    h, c = i1 - i0, m - 1 - i0
    gap, w1, w2, w3, w4, mid, phi_a, psi_a, phi_b, psi_b, zero = (
        buf[: h * c].reshape(h, c) for buf in scratch)
    rows, cols = slice(i0, i1), slice(i0 + 1, m)
    # h <= c, and j <= i only in the first h columns; the boolean array is
    # free until `_phi1_psi` needs it
    below = np.less_equal(np.arange(i0 + 1, i1 + 1), np.arange(i0, i1)[:, None],
                          out=scratch[-1][: h * h].reshape(h, h))
    for out, u, v in ((gap, a, a), (w1, lo, hi), (w2, lo, lo), (w3, hi, hi), (w4, hi, lo)):
        np.subtract(u[None, cols], v[rows, None], out=out)
        np.copyto(out[:, :h], 0.0, where=below)
    w_mid_lo = np.minimum(w2, w3, out=mid)
    w_mid_hi = np.maximum(w2, w3, out=w3)
    spare = w2  # free from here on

    def breakpoint(alpha, phi1, psi):
        # phi1 and psi at s = gap - n alpha
        np.subtract(gap, np.multiply(n, alpha, out=phi1), out=phi1)
        return _phi1_psi(phi1, p, psi, spare, zero)

    def piece(aw, bw, hi_k, lo_k):
        # the integral between breakpoints hi_k (s_hi) and lo_k (s_lo), written over aw
        out = np.add(aw, np.divide(np.multiply(bw, gap, out=spare), n, out=spare), out=aw)
        np.multiply(out, np.subtract(hi_k[0], lo_k[0], out=spare), out=out)
        if bw:
            np.multiply(bw / n, np.subtract(hi_k[1], lo_k[1], out=spare), out=spare)
            np.subtract(out, spare, out=out)
        return np.divide(out, n, out=out)

    s0 = breakpoint(w1, phi_a, psi_a)
    s1 = breakpoint(w_mid_lo, phi_b, psi_b)
    t = piece(np.negative(w1, out=w1), 1.0, s0, s1)
    height = np.minimum(widths[rows, None], widths[None, cols], out=w_mid_lo)
    s2 = breakpoint(w_mid_hi, phi_a, psi_a)
    np.add(t, piece(height, 0.0, s1, s2), out=t)
    s3 = breakpoint(w4, phi_b, psi_b)
    np.add(t, piece(w4, -1.0, s2, s3), out=t)
    # row i holds its pairs j > i from column i - i0 on; a memoryview hands
    # fsum the doubles one at a time, with no list of floats
    return [math.fsum(memoryview(row[r:])) for r, row in enumerate(t)]


# ---------------------------------------------------------------------------
# Exact L_infinity
# ---------------------------------------------------------------------------


def linf_star_1d(points: PointSet) -> float:
    """sup_t |count([0,t)) - n t| in dimension one.

    D(t) = count([0,t)) - n t is a - n t on each cell (lo, hi], a the cell's
    count, so the supremum is the larger of max(a - n lo) and max(n hi - a)
    over the cells: the one-sided limits at the cell ends. It is a supremum,
    attained as a limit of half-open boxes.
    """
    points.require_nonempty()
    points.require_dim(1)
    return _linf_star(points.coords)


def _linf_star(pts: np.ndarray) -> float:
    """The star supremum on the corner grid t, in any d: closed boxes [0, t]
    and open ones [0, t) give max(cum[1:, ..] - n vol, n vol - cum[:-1, ..],
    0), vol = prod_j t_j. In d = 1 the closed t = 1 and the open t = 0 give
    exact zeros, so this is `linf_star_1d`'s cell formula."""
    n, d = pts.shape
    corners, cum = _corner_counts(pts)
    vol = n * functools.reduce(np.multiply.outer, corners)
    closed, opened = cum[(slice(1, None),) * d], cum[(slice(None, -1),) * d]
    return max(float(np.max(closed - vol)), float(np.max(vol - opened)), 0.0)


def linf_extreme_1d(points: PointSet) -> float:
    """sup over u <= v of |D(v) - D(u)| for the anchored discrepancy function
    D, in dimension one.

    On each cell D is linear and decreasing, so the candidate extremes are
    the one-sided limits at cell ends: H_i at the left end, L_i at the right.
    Two prefix/suffix scans over those O(n) candidates cover the rising and
    falling swings.
    """
    points.require_nonempty()
    points.require_dim(1)
    n = points.n
    (edges,), cum = _corner_counts(points.coords)
    a = cum[1:-1]
    high = a - n * edges[:-1]
    low = a - n * edges[1:]
    best = 0.0
    if high.size > 1:
        prefix_min = np.minimum.accumulate(low)
        best = max(best, float(np.max(high[1:] - prefix_min[:-1])))
    suffix_min = np.minimum.accumulate(low[::-1])[::-1]
    best = max(best, float(np.max(high - suffix_min)))
    return best


def linf_exact_small(points: PointSet, kind: str) -> float:
    """Exact supremum discrepancy: in d = 1 the O(n) scan `linf_star_1d` or
    `linf_extreme_1d` at any n, in d = 2 the critical corners for n <= 64
    (star the O(n^2) grid `_linf_star`, extreme the O(n^3) sweep
    `_linf_extreme_2d`), GuardError elsewhere.

    Candidate thresholds per axis are the point coordinates plus 0 and 1.
    The positive part of the supremum closes the box around its points
    (counts with <=), the negative part shrinks it open (counts with <);
    both are limits of half-open boxes, and pure modes per part dominate any
    mixed choice.
    """
    points.require_nonempty()
    if kind not in ("star", "extreme"):
        raise ValueError(f"kind must be 'star' or 'extreme', got {kind!r}")
    n, d = points.n, points.d
    if d > 2 or (d == 2 and n > 64):
        raise GuardError("exact enumeration is limited to d <= 2, and to n <= 64 in d = 2")
    if d == 1:
        return (linf_star_1d if kind == "star" else linf_extreme_1d)(points)
    return (_linf_star if kind == "star" else _linf_extreme_2d)(points.coords)


def _linf_extreme_2d(pts: np.ndarray) -> float:
    """The d = 2 extreme supremum over the candidate corners c1 x c2 in
    O(n^3), and bit for bit the maximum over every box of
    `closed - W * width2` and `W * width2 - opened`, W = n * (c1[b] - c1[a]),
    as an enumeration of the boxes gives it.

    `_sweep` gives each first-axis pair a <= b an approximate maximum within
    delta = 64 eps (n + 1) of its boxes' doubles. Every rounded quantity is
    at most 2n in magnitude (integer counts in [-n, n], W <= n, c2 in
    [0, 1]), so one rounding moves it by at most eps n. A box's double is
    rounded three times (width2's error is scaled by W <= n); its sweep
    value five times: the products W c2[u] and W c2[v], the two brackets and
    their difference, since the running minimum is exact and rounding is
    monotone. That is 8 eps n apart at most, so a pair whose approximate
    maximum is more than 2 delta below the largest one holds no box above
    the pair that holds the largest, with slack for the rounded threshold.
    The kept pairs are evaluated box by box, at most k1 pairs at a time
    (the enumeration's per-a array size), from `_sweep`'s G and H: exact
    integer counts, so each box is the enumeration's double.
    """
    n = pts.shape[0]
    (c1, c2), cum = _corner_counts(pts)
    cum_t = np.ascontiguousarray(cum.T)
    k1 = c1.size
    ia, ib = np.triu_indices(k1)
    width1 = n * (c1[ib] - c1[ia])
    approx = _sweep(cum_t, c2, ia, ib, width1)
    delta = 64 * np.finfo(np.float64).eps * (n + 1)
    keep = np.flatnonzero(approx >= approx.max() - 2 * delta)
    iu, iv = np.triu_indices(c2.size)
    width2 = c2[iv] - c2[iu]
    best = 0.0
    for s in range(0, keep.size, k1):
        k = keep[s : s + k1]
        a, b = ia[k], ib[k]
        g = cum_t[:, b + 1] - cum_t[:, a]
        h = cum_t[:, b] - cum_t[:, a + 1]
        vol = width2[:, None] * width1[k]
        best = max(best, float(np.max((g[iv + 1] - g[iu]) - vol)),
                   float(np.max(vol - (h[iv] - h[iu + 1]))))
    return best


def _sweep(cum_t: np.ndarray, c2: np.ndarray, ia: np.ndarray, ib: np.ndarray,
           width1: np.ndarray) -> np.ndarray:
    """Approximate maximum box value per first-axis pair (ia, ib), W = width1,
    from cum_t = cum.T: closed boxes give [G(v+1) - W c2[v]] - [G(u) - W c2[u]]
    over u <= v, G(j) = cum[b+1, j] - cum[a, j], and open boxes
    [W c2[v] - H(v)] - [W c2[u] - H(u+1)], H(j) = cum[b, j] - cum[a+1, j].
    A running minimum of the second bracket (Bentley's maximum-sum scan,
    Commun. ACM 27 (1984)) takes the maximum over u in one pass over v.
    The arrays are (k2, pairs); the closed part is done before the open one
    is built, so at most three are held at once.
    """
    wc = c2[:, None] * width1
    g = cum_t[:, ib + 1]
    g -= cum_t[:, ia]
    top = g[1:] - wc
    low = g[:-1]
    low -= wc
    closed = _max_rise(top, low)
    del g, low, top
    h = cum_t[:, ib]
    h -= cum_t[:, ia + 1]
    top = wc - h[:-1]
    wc -= h[1:]
    return np.maximum(closed, _max_rise(top, wc))


def _max_rise(top: np.ndarray, low: np.ndarray) -> np.ndarray:
    """max over u <= v of top[v] - low[u], per column; overwrites both. The
    running minimum is one in-place `np.minimum` per row, several times
    faster than `np.minimum.accumulate` on these shapes."""
    for j in range(1, low.shape[0]):
        np.minimum(low[j], low[j - 1], out=low[j])
    top -= low
    return top.max(axis=0)


def estimate(points: PointSet, kind: str, p: float, mc: McConfig | None = None) -> Estimate:
    """The evaluator for one (kind, p, d) request, in rule order:

    - p = inf: `linf_exact_small`, star and extreme only;
    - diaphony: its closed form, p = 2 only;
    - p = 2: the `exact_l2` closed form;
    - d = 1, star or extreme: piecewise-exact integration;
    - otherwise `mc_lp(points, mc, kind, p)`, which samples as `mc` says;
      without `mc`, MonteCarloRequired.

    The Estimate carries kind and p as given. An unknown kind is a
    DisclabError that names the valid ones; a p < 1 or nan is one too.
    """
    if kind not in KINDS:
        raise DisclabError(f"unknown kind {kind!r}; valid kinds are {', '.join(KINDS)}")
    if not p >= 1.0:
        raise DisclabError("p must satisfy p >= 1")
    n, d = points.n, points.d
    if math.isinf(p):
        if kind not in ("star", "extreme"):
            raise DisclabError("p=inf supports kinds star and extreme only")
        method = METHOD_PIECEWISE if d == 1 else METHOD_GRID_ENUM
        return Estimate(kind, p, linf_exact_small(points, kind), method, n, d)
    if kind == "diaphony" and p != 2.0:
        raise DisclabError("diaphony is a quadratic quantity; use --p 2")
    if p == 2.0:
        # looked up at call time, so a wrapped closed form is the one called
        closed_form = {"star": exact_l2.star_l2, "extreme": exact_l2.extreme_l2,
                       "periodic": exact_l2.periodic_l2, "diaphony": exact_l2.diaphony}[kind]
        return Estimate(kind, p, closed_form(points), METHOD_CLOSED_FORM, n, d)
    if d == 1 and kind in ("star", "extreme"):
        return Estimate(kind, p, exact_lp_1d(points, kind, p), METHOD_PIECEWISE, n, d)
    if mc is None:
        raise MonteCarloRequired(
            "exact evaluation for p not in {2, inf} exists only for star/extreme "
            "in d=1; use the oracle subcommand"
        )
    return mc_lp(points, mc, kind, p)
