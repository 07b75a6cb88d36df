"""Definition-level evaluators: Monte Carlo for any finite p, piecewise-exact
integration in one dimension for any p >= 1, and exact supremum (p = infinity)
algorithms for low dimension.

These operate straight from the definitions and serve as ground truth for the
closed forms in `exact_l2`, besides being useful on their own for p != 2.
`estimate` picks the evaluator for a (kind, p, d) request, closed forms
included.
"""

from __future__ import annotations

import math
import numbers
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
    threads: int = 0  # 0: take DISCLAB_THREADS, else cpu count; at most cpu count

    def __post_init__(self) -> None:
        for name in ("samples", "seed", "threads"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
    value = mean ** (1.0 / p)
    stderr = 0.0
    if mc.samples >= _MIN_SAMPLES_FOR_STDERR and mean > 0.0:
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


def _cells(x: np.ndarray):
    """Breakpoint edges (0, distinct coords, 1) and the box count on each
    cell (e_i, e_{i+1}]."""
    xs = np.sort(x)
    edges = np.unique(np.concatenate(([0.0], xs, [1.0])))
    counts = np.searchsorted(xs, edges[:-1], side="right").astype(np.float64)
    return edges, counts


def _phi1(s: np.ndarray, p: float) -> np.ndarray:
    """Antiderivative of |s|^p."""
    return np.sign(s) * np.abs(s) ** (p + 1.0) / (p + 1.0)


def _phi1_psi(s: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """`_phi1(s, p)` and the antiderivative of s |s|^p, psi = |s|^(p+2) / (p+2),
    from one |s|.

    numpy's vector power takes a slow path on a zero base (about 4x per
    entry), and on lattice sets most s are 0. So |s| = 0 is raised as 1.0 and
    psi is set to 0 there afterwards; sign(0) = 0 already zeroes phi1. Every
    entry keeps the bits of the plain formulas.
    """
    zero = s == 0.0
    r = np.abs(s)
    r[zero] = 1.0
    phi1 = np.sign(s) * r ** (p + 1.0) / (p + 1.0)
    psi = r ** (p + 2.0) / (p + 2.0)
    psi[zero] = 0.0
    return phi1, psi


# Cell pairs per row block of the extreme integrand: about 128 KiB an array.
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
    rows of about 2^14 entries at a time, so memory stays bounded at any n.
    Every entry has the same expression as in a one-row-at-a-time loop, and
    each row i is still summed by one `math.fsum`, so the result is
    bit-identical to that loop's.
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
    return total ** (1.0 / p)


@np.errstate(over="raise", invalid="raise")
def _lp_1d_power_sum(x: np.ndarray, kind: str, p: float) -> float:
    """The integral of |D|^p behind `exact_lp_1d`, before the 1/p root."""
    n = x.size
    edges, a = _cells(x)
    lo, hi = edges[:-1], edges[1:]
    if kind == "star":
        terms = (_phi1(a - n * lo, p) - _phi1(a - n * hi, p)) / n
        return math.fsum(terms.tolist())

    widths = hi - lo
    m = lo.size
    parts = [math.fsum(((n**p) * widths ** (p + 2.0) / ((p + 1.0) * (p + 2.0))).tolist())]
    i0 = 0
    while i0 < m - 1:
        # rows i0..i1-1 against columns i0+1..m-1; entry (i, j) is the cell
        # pair i < j, and the entries with j <= i are zeroed before any
        # arithmetic, so they neither raise nor reach a row sum
        i1 = min(m - 1, i0 + max(1, _BLOCK_ENTRIES // (m - 1 - i0)))
        rows, cols = slice(i0, i1), slice(i0 + 1, m)
        below = np.arange(i0 + 1, m) <= np.arange(i0, i1)[:, None]

        def diff(u, v):
            out = u[None, cols] - v[rows, None]
            out[below] = 0.0
            return out

        gap = diff(a, a)
        w1 = diff(lo, hi)
        w2 = diff(lo, lo)
        w3 = diff(hi, hi)
        w4 = diff(hi, lo)
        w_mid_lo = np.minimum(w2, w3)
        w_mid_hi = np.maximum(w2, w3)
        height = np.minimum(widths[rows, None], widths[None, cols])
        # phi1 and psi at the four breakpoints s = gap - n alpha
        phi1, psi = zip(*(_phi1_psi(gap - n * alpha, p) for alpha in (w1, w_mid_lo, w_mid_hi, w4)))

        def piece(aw, bw, k):
            # the integral between breakpoints k (s_hi) and k + 1 (s_lo)
            out = (aw + bw * gap / n) * (phi1[k] - phi1[k + 1])
            if bw:
                out -= (bw / n) * (psi[k] - psi[k + 1])
            return out / n

        t = piece(-w1, 1.0, 0) + piece(height, 0.0, 1) + piece(w4, -1.0, 2)
        # row i holds its pairs j > i from column i - i0 on; a memoryview
        # hands fsum the doubles one at a time, with no list of floats
        parts +=[math.fsum(memoryview(row[r:])) for r, row in enumerate(t)]
        i0 = i1
    return math.fsum(parts)


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
    x = points.coords[:, 0]
    n = x.size
    edges, a = _cells(x)
    return float(max(np.max(a - n * edges[:-1]), np.max(n * edges[1:] - a)))


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


def linf_exact_small(points: PointSet, kind: str) -> float:
    """Exact supremum discrepancy: in d = 1 the O(n) scan `linf_star_1d` or
    `linf_extreme_1d` at any n, in d = 2 an enumeration of critical corners
    for n <= 64, GuardError elsewhere.

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
    return _linf_small_2d(points.coords, kind)


def _linf_small_2d(pts: np.ndarray, kind: str) -> float:
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
    if kind == "star":
        closed = cum[1:, 1:]
        strict = cum[:-1, :-1]
        vol = n * np.outer(c1, c2)
        return max(float(np.max(closed - vol)), float(np.max(vol - strict)), 0.0)
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
