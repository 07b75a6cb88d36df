"""Exact O(n^2 d) closed forms for the L2 discrepancies and the diaphony.

Expanding the squared integral behind each definition turns it into a pair
sum over the points plus explicit constants:

  star:      L^2 = sum_{k,l} prod_j (1 - max(x_kj, x_lj))
                   - 2n sum_k prod_j (1 - x_kj^2)/2  +  n^2 / 3^d

  extreme:   L^2 = sum_{k,l} prod_j (min(x_kj, x_lj) - x_kj x_lj)
                   - 2n sum_k prod_j x_kj (1 - x_kj)/2  +  n^2 / 12^d
             (the (u, v) integration runs over the ordered region of measure
             2^-d, which is where the 12^-d constant comes from)

  periodic:  L^2 = sum_{k,l} prod_j (1/3 + B2({x_kj - x_lj}))  -  n^2 / 3^d

  diaphony:  F^2 = -1 + n^-2 sum_{k,l} prod_j (1 + 2 pi^2 B2({x_kj - x_lj}))

with B2(t) = t^2 - t + 1/6 on [0, 1) and {.} the fractional part. The
diaphony here excludes the zero frequency from its defining series; the
variant that includes it merely adds the constant 1 inside the root, and the
excluded form is the one consistent with the classical definition and with
the single-point value pi / sqrt(3).

Numerically, each formula is evaluated as a single compensated pair sum of
centered terms (per-point cross terms folded into the summand, the large
rational constant split into two doubles), which keeps well over ten
significant digits up to n = 2^16 even though the raw terms cancel by eight
orders of magnitude. The three L2 forms share one driver, `_l2`, which
differs per kind only in the kernel's per-coordinate factor, the per-point
factor (none for periodic) and the constant's sign and base: +n^2/3^d,
+n^2/12^d and -n^2/3^d. Both diaphonies share one root, `_diaphony`. One
block builder, `_product_kernel`, folds the coordinates of every kernel: the
L2 kernels multiply, the diaphony expands incrementally as K + a + K a.
Every pair sum goes through one blocked pair sum, `_pair_sum`. It walks the
upper triangle of 1024 x 1024 blocks and doubles off-diagonal ones exactly.

A block is never built whole: `summation.strip_sum` builds it in row strips
of 2^16 entries at full width (64 rows; 2^15 entries below 1024 columns; a
block of fewer rows is one short strip), and each strip runs the first
levels of the block's TwoSum tree in cache and adds their rounding errors
with one np.sum; the strips' partial sums then finish the tree. Every kernel
gives each entry a value that depends on its two points alone, so a block's
value is bit for bit comp_sum's of the whole block, and its compensation
depends on nothing but its entries and shape.

Every kernel factor, the product, the diaphony's K + a + K a and the g
subtraction write into strip buffers with `out=`, operands in the plain
expression's order, so each entry is the same double. Each worker in flight
reuses one `summation.strip_scratch` set, sized for the call's largest
block, for the whole pair sum, so a strip costs a few dozen numpy calls and
no allocation: few calls hold the interpreter lock, and two workers overlap.
Block pairs run on the worker pool (DISCLAB_THREADS, else 8; never more than
the CPU count), and their (value, compensation) pairs are added in block
order by `summation.running_sum`, so results do not depend on the thread
count.
"""

from __future__ import annotations

import math
import queue
import sys

import numpy as np

from .errors import GuardError
from .pointsets import PointSet, _as_integer, _ordered_map
from .summation import exact_ratio_parts, running_sum, strip_scratch, strip_sum

__all__ = [
    "star_l2",
    "extreme_l2",
    "periodic_l2",
    "diaphony",
    "diaphony_truncated",
]

_BLOCK = 1024  # rows per block; fixed so the reduction tree is fixed

_TWO_PI_SQ = 2.0 * math.pi**2
_SIGMA = 1.0 + math.pi**2 / 3.0  # 1 + 2 pi^2 B2(0): the diaphony kernel's largest factor


def _bernoulli2(t: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """B2 on the fractional part, f * f - f + 1/6 with f = t - floor(t),
    written over t (tmp is clobbered); continuity of B2 at 0/1 makes the
    rounding of t - floor(t) at the seam harmless."""
    f = np.subtract(t, np.floor(t, out=tmp), out=t)
    return np.add(np.subtract(np.multiply(f, f, out=tmp), f, out=tmp), 1.0 / 6.0, out=t)


def _pair_sum(x: np.ndarray, block_fn, g: np.ndarray | None = None) -> tuple[float, float]:
    """(value, compensation) of sum_{k,l} (K(x_k, x_l) - g_k - g_l), where
    block_fn(xi, xj, K, f, tmp) builds the kernel matrix of rows xi against
    columns xj in the buffer K (see `_product_kernel`) and the optional
    per-point term g is folded into the summand.
    Off-diagonal blocks contribute twice (symmetry); the factor two is exact.

    Each block is built and folded in row strips by `strip_sum`, and block
    pairs run on the worker pool; their (value, compensation) pairs are
    added in block order by one compensated running sum. A block takes a
    scratch set from a pool that lives for this call and puts it back when
    done, so there is one set per worker in flight, sized for its largest
    block, which holds every smaller one."""
    n = x.shape[0]
    pairs = [(i0, j0) for i0 in range(0, n, _BLOCK) for j0 in range(i0, n, _BLOCK)]
    idle = queue.SimpleQueue()

    def block_sum(pair):
        i0, j0 = pair
        xi, xj = x[i0 : i0 + _BLOCK], x[j0 : j0 + _BLOCK]

        def strip(r0, r1, bufs):
            K = block_fn(xi[r0:r1], xj, *bufs)
            if g is not None:
                K -= g[i0 + r0 : i0 + r1, None]
                K -= g[None, j0 : j0 + xj.shape[0]]
            return K

        try:
            scratch = idle.get_nowait()
        except queue.Empty:
            scratch = strip_scratch(min(n, _BLOCK), min(n, _BLOCK))
        try:
            return strip_sum(xi.shape[0], xj.shape[0], strip, scratch)
        finally:
            idle.put(scratch)

    sums = np.array(_ordered_map(block_sum, pairs))  # row k: block pair k's (hi, lo)
    sums[[j0 > i0 for i0, j0 in pairs]] *= 2.0
    value, comp = running_sum(sums.ravel())
    return float(value[-1]), float(comp[-1])


def _product_kernel(factor, combine=lambda K, f, tmp: np.multiply(K, f, out=K)):
    """Block kernel folding the outer matrices f = factor(xi_j, xj_j) left to
    right as K = combine(K, f); by default K *= f, giving prod_j f.

    block(xi, xj, K, f, tmp) builds the kernel in the buffer K, each later
    factor in f, and returns K: factor(u, v, out, tmp) writes its outer
    matrix into out and combine(K, f, tmp) updates K in place, each free to
    clobber tmp. All three buffers are len(xi) x len(xj)."""

    def block(xi, xj, K, f, tmp):
        factor(xi[:, 0], xj[:, 0], K, tmp)
        for j in range(1, xi.shape[1]):
            combine(K, factor(xi[:, j], xj[:, j], f, tmp), tmp)
        return K

    return block


def _expand(K, a, tmp):
    """K + a + K a, in that order, written over K."""
    np.multiply(K, a, out=tmp)
    np.add(K, a, out=K)
    return np.add(K, tmp, out=K)


def _l2(points: PointSet, factor, point_factor, sign: int, base: int) -> float:
    """sqrt of sum_{k,l} (prod_j factor(x_kj, x_lj) - g_k - g_l) plus the
    constant sign n^2 / base^d, where g_k = prod_j point_factor(x_kj) (no g
    where point_factor is None) and the constant enters as two doubles. Once
    base^-d is below the smallest normal double, the pair-sum products
    underflow too, so a GuardError is raised before the pair sum runs."""
    points.require_nonempty()
    x = points.coords
    n, d = x.shape
    if float(base) ** -d < sys.float_info.min:
        raise GuardError(f"closed form underflows at d={d}: {base}^-d is not a normal double")
    g = None if point_factor is None else np.prod(point_factor(x), axis=1)
    acc = _pair_sum(x, _product_kernel(factor), g)
    chi, clo = exact_ratio_parts(sign * n * n, base**d)
    return math.sqrt(max(math.fsum((*acc, chi, clo)), 0.0))


def _diaphony(points: PointSet, term) -> float:
    """sqrt(n^-2 sum_{k,l} (prod_j (1 + a_j) - 1)) with a_j = term(x_kj, x_lj).

    The summand is expanded incrementally as K + a + K a, so it consists of
    O(|a|)-sized terms; this keeps full relative accuracy even when the pair
    sum is 10 orders of magnitude below the number of pairs.

    A GuardError is raised unless every pair term and the pair sum fit in a
    double. Each kernel factor lies in [1 - pi^2/6, _SIGMA], and the diagonal
    terms reach _SIGMA^d, so n^2 _SIGMA^d bounds every intermediate; the 1e-6
    of slack in the exponent covers the rounding of the products."""
    points.require_nonempty()
    x = points.coords
    n, d = x.shape
    if d * math.log(_SIGMA) + 2.0 * math.log(n) >= math.log(sys.float_info.max) - 1e-6:
        raise GuardError(
            f"diaphony overflows a double at d={d}, n={n}: its diagonal terms are (1 + pi^2/3)^d"
        )
    hi, lo = _pair_sum(x, _product_kernel(term, _expand))
    return math.sqrt(max((hi + lo) / (n * n), 0.0))


def star_l2(points: PointSet) -> float:
    """Star L2 discrepancy (anchored boxes), unnormalized."""

    def factor(u, v, out, tmp):  # 1 - max(u, v)
        return np.subtract(1.0, np.maximum.outer(u, v, out=out), out=out)

    return _l2(points, factor, lambda x: (1.0 - x * x) / 2.0, +1, 3)


def extreme_l2(points: PointSet) -> float:
    """Extreme L2 discrepancy (arbitrary boxes), unnormalized."""

    def factor(u, v, out, tmp):  # min(u, v) - u v
        np.minimum.outer(u, v, out=out)
        return np.subtract(out, np.multiply.outer(u, v, out=tmp), out=out)

    return _l2(points, factor, lambda x: x * (1.0 - x) / 2.0, +1, 12)


def periodic_l2(points: PointSet) -> float:
    """Periodic L2 discrepancy (boxes modulo one), unnormalized."""

    def factor(u, v, out, tmp):  # 1/3 + B2({u - v})
        return np.add(1.0 / 3.0, _bernoulli2(np.subtract.outer(u, v, out=out), tmp), out=out)

    return _l2(points, factor, None, -1, 3)


def diaphony(points: PointSet) -> float:
    """Diaphony: Fourier-weighted uniformity with weights 1/r(h)^2 over
    nonzero integer frequency vectors, normalized by n."""

    def term(u, v, out, tmp):  # 2 pi^2 B2({u - v})
        return np.multiply(_TWO_PI_SQ, _bernoulli2(np.subtract.outer(u, v, out=out), tmp), out=out)

    return _diaphony(points, term)


def diaphony_truncated(points: PointSet, h_max: int) -> tuple[float, float]:
    """Diaphony of the frequency box max_j |h_j| <= h_max, with a rigorous
    tail bound.

    Returns (value, bound) where value^2 is the truncated frequency sum and

        value^2  <=  F^2  <=  value^2 + bound.

    The bound is sigma^d - sigma_H^d with sigma = 1 + pi^2/3 and
    sigma_H = 1 + 2 sum_{h<=H} h^-2: every omitted frequency contributes at
    most its weight 1/r(h)^2 because the normalized exponential sum has
    modulus at most one. Since sum_{h>H} h^-2 <= 1/H, the bound decays like
    2d/H for fixed d.

    The truncated sum is evaluated per pair and coordinate through the
    partial Fourier kernel g_H(t) = 1 + 2 sum_{h=1}^{H} cos(2 pi h t)/h^2,
    which is algebraically identical to enumerating the frequency box. Its
    terms are added elementwise from h = H down to 1, smallest first, so an
    entry's value does not depend on the strip it is built in.
    """
    points.require_nonempty()
    h_max = _as_integer("frequency cutoff", h_max)
    if h_max < 1:
        raise ValueError(f"frequency cutoff must be >= 1, got {h_max}")
    h = np.arange(h_max, 0, -1, dtype=np.float64)
    w = 2.0 / (h * h)
    two_pi_h = 2.0 * math.pi * h

    def g_minus_one(u, v, out, t):
        out.fill(0.0)
        for wk, ak in zip(w, two_pi_h):
            np.subtract.outer(u, v, out=t)  # rebuilt per h: no third buffer
            t *= ak
            np.cos(t, out=t)
            t *= wk
            out += t
        return out

    value = _diaphony(points, g_minus_one)
    sigma_h = 1.0 + float(np.sum(w))
    return value, _SIGMA**points.d - sigma_h**points.d
