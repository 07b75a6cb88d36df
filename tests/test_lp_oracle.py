import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linf_reference
from disclab import (
    DisclabError,
    GuardError,
    Halton,
    McConfig,
    PointSet,
    VanDerCorput,
    diaphony,
    estimate,
    exact_lp_1d,
    extreme_l2,
    linf_exact_small,
    linf_extreme_1d,
    linf_star_1d,
    mc_lp,
    periodic_l2,
    prefix,
    random_point_set,
    star_l2,
    uniform01,
)
from disclab import lp_oracle, pointsets
from disclab.pointsets import (
    METHOD_CLOSED_FORM,
    METHOD_GRID_ENUM,
    METHOD_MONTE_CARLO,
    METHOD_PIECEWISE,
)


def pset(rows):
    return PointSet(np.atleast_2d(np.asarray(rows, dtype=float)))


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------


def test_mc_extreme_singleton_identity():
    est = mc_lp(pset([[0.5]]), McConfig(10**6, 1), "extreme", 2.0)
    assert abs(est.value - 12.0**-0.5) <= 3.0 * est.stderr
    assert est.method == "monte-carlo" and est.samples == 10**6 and est.seed == 1


def test_mc_star_origin_identity():
    est = mc_lp(pset([[0.0]]), McConfig(10**6, 2), "star", 2.0)
    assert abs(est.value - 3.0**-0.5) <= 3.0 * est.stderr


def test_mc_matches_exact_p3():
    p = prefix(VanDerCorput(2), 64)
    exact = exact_lp_1d(p, "extreme", 3.0)
    est = mc_lp(p, McConfig(10**6, 3), "extreme", 3.0)
    assert abs(est.value - exact) <= 3.0 * est.stderr


def test_mc_bitwise_reproducible():
    p = random_point_set(16, 2, 5)
    a = mc_lp(p, McConfig(50_000, 77), "periodic", 1.5)
    b = mc_lp(p, McConfig(50_000, 77), "periodic", 1.5)
    assert (a.value, a.stderr) == (b.value, b.stderr)


def test_mc_independent_of_thread_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # so that 4 threads run on any host
    p = random_point_set(16, 3, 6)
    one = mc_lp(p, McConfig(200_000, 9, threads=1), "extreme", 2.0)
    four = mc_lp(p, McConfig(200_000, 9, threads=4), "extreme", 2.0)
    assert (one.value, one.stderr) == (four.value, four.stderr)
    # n = 3000 gives bitset row blocks of 697 boxes, which do not divide a chunk
    p = random_point_set(3000, 2, 7)
    one = mc_lp(p, McConfig((1 << 16) + 1000, 10, threads=1), "periodic", 1.5)
    two = mc_lp(p, McConfig((1 << 16) + 1000, 10, threads=2), "periodic", 1.5)
    assert (one.value, one.stderr) == (two.value, two.stderr)


def test_worker_count_never_exceeds_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert pointsets._thread_count(10**6) == 2
    monkeypatch.setenv("DISCLAB_THREADS", "1000000")
    assert pointsets._thread_count() == 2
    asked = []

    class RecordingExecutor:  # runs nothing on threads; records the worker count asked for
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(pointsets, "ThreadPoolExecutor", RecordingExecutor)
    for threads in (10**6, 0):
        mc_lp(random_point_set(16, 2, 6), McConfig(200_000, 9, threads=threads), "star", 2.0)
    assert asked == [2, 2]


def _chunk_peak_bytes(n: int, d: int = 2, kind: str = "extreme") -> int:
    p = random_point_set(n, d, 8)
    tracemalloc.start()
    try:
        mc_lp(p, McConfig(1 << 16, 1, threads=1), kind, 1.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_mc_chunk_memory_is_bounded_in_n():
    # d >= 2 boxes are counted on bitset tables of at most 2^12 points at a
    # time, in row blocks of a fixed word budget; a 65536 x 2048 boolean mask
    # alone would take 128 MiB
    peak = _chunk_peak_bytes(2048)
    assert peak < 32 << 20, f"peak {peak / 2**20:.1f} MiB"


def test_mc_chunk_memory_is_bounded_at_n_2_14():
    # four point groups; one 65536 x 2^14 boolean mask would take 1 GiB
    peak = _chunk_peak_bytes(1 << 14)
    assert peak < 32 << 20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("kind", ["star", "extreme"])
def test_mc_chunk_memory_is_bounded_in_d(kind):
    # a whole chunk's uniforms at d = 50 are 65536 x 100 doubles, 50 MiB, and
    # the corners and volumes derived from them took the peak to 150 MiB
    peak = _chunk_peak_bytes(64, 50, kind)
    assert peak < 32 << 20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("d", [2, 3])
def test_mc_sub_blocks_do_not_change_bits(monkeypatch, d):
    p = random_point_set(40, d, 5)
    samples = (1 << 16) + 3000  # two chunks, the second ragged
    want = {
        (kind, t): mc_lp(p, McConfig(samples, 4, threads=t), kind, 1.5)
        for kind in ("star", "extreme", "periodic")
        for t in (1, 2)
    }
    # 1000 words split a chunk into sub-blocks of 166-500 samples, none of
    # which divides 2^16
    monkeypatch.setattr(lp_oracle, "_DRAW_WORDS", 1000)
    for (kind, t), est in want.items():
        assert mc_lp(p, McConfig(samples, 4, threads=t), kind, 1.5) == est, (kind, t)


def test_mc_overflow_is_guard_error():
    # |D|^p leaves the double range; the estimate must not print inf or nan
    p = prefix(VanDerCorput(), 50)
    with pytest.raises(GuardError, match="overflows"):
        mc_lp(p, McConfig(100, 1), "periodic", 1e308)
    with pytest.raises(GuardError, match="overflows"):
        mc_lp(random_point_set(50, 2, 3), McConfig(70_000, 1, threads=2), "extreme", 400.0)
    est = mc_lp(p, McConfig(100, 1), "star", 150.0)
    assert math.isfinite(est.value) and math.isfinite(est.stderr)
    # |D|^p below the smallest double: the mean would be a silent 0.0
    with pytest.raises(GuardError, match="underflows a double"):
        mc_lp(PointSet([[0.5, 0.5]]), McConfig(10000, 1), "star", 1e4)
    with pytest.raises(GuardError, match="underflows a double"):
        mc_lp(PointSet([[0.5, 0.25]]), McConfig(100, 1), "periodic", 1e308)
    centred = PointSet([[(2 * k + 1) / 16] for k in range(8)])
    with pytest.raises(GuardError, match="underflows a double"):
        exact_lp_1d(centred, "star", 2000.0)


def test_mc_stderr_halves_when_samples_double():
    # stochastic regression: one miss out of eight doublings is tolerated
    p = random_point_set(8, 1, 30)
    base = 2000
    ses = [
        mc_lp(p, McConfig(base << k, 123), "star", 2.0).stderr for k in range(9)
    ]
    misses = sum(not (0.62 <= ses[k + 1] / ses[k] <= 0.80) for k in range(8))
    assert misses <= 1, f"se ratios {[ses[k + 1] / ses[k] for k in range(8)]}"


def test_mc_rejects_infinite_p():
    p, mc = pset([[0.5]]), McConfig(100, 1)
    with pytest.raises(ValueError):
        mc_lp(p, mc, "star", math.inf)
    with pytest.raises(ValueError):
        mc_lp(p, mc, "star", 0.5)
    with pytest.raises(ValueError):
        mc_lp(p, mc, "nope", 2.0)


@pytest.mark.parametrize("args, field", [
    ((1e5, 1), "samples"),
    ((100, 1.0), "seed"),
    ((100, 1, 2.0), "threads"),
])
def test_mc_config_rejects_non_integer_fields(args, field):
    # a float used to reach range() or the seed mask as a TypeError
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        McConfig(*args)


@pytest.mark.parametrize("args, field", [
    ((0, 1), "samples"),
    ((100, 1, -4), "threads"),
])
def test_mc_config_rejects_out_of_range_fields(args, field):
    # a negative thread count used to fall through to every CPU
    with pytest.raises(ValueError, match=f"^{field} must be >= "):
        McConfig(*args)


# ---------------------------------------------------------------------------
# exact one-dimensional L_p
# ---------------------------------------------------------------------------


def test_exact_lp_1d_center_singleton():
    p = pset([[0.5]])
    assert exact_lp_1d(p, "star", 2.0) == pytest.approx(12.0**-0.5, rel=1e-14)
    assert exact_lp_1d(p, "extreme", 2.0) == pytest.approx(12.0**-0.5, rel=1e-13)


def test_exact_lp_1d_star_p1_matches_mc():
    p = pset([[0.0], [0.5]])
    exact = exact_lp_1d(p, "star", 1.0)
    est = mc_lp(p, McConfig(10**6, 8), "star", 1.0)
    assert abs(est.value - exact) <= 3.0 * est.stderr


def _grid_star(x, p, m=200_000):
    """Midpoint-rule quadrature of the defining integral."""
    x = np.sort(np.asarray(x))
    t = (np.arange(m) + 0.5) / m
    counts = np.searchsorted(x, t, side="left")
    return float(np.mean(np.abs(counts - x.size * t) ** p)) ** (1.0 / p)


def _grid_extreme(x, p, m=3000):
    x = np.sort(np.asarray(x))
    t = (np.arange(m) + 0.5) / m
    disc = np.searchsorted(x, t, side="left") - x.size * t
    iu, iv = np.triu_indices(m, k=1)
    return float(np.abs(disc[iv] - disc[iu]) ** p @ np.ones(iu.size) / (m * m)) ** (1.0 / p)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_exact_lp_1d_agrees_with_quadrature(p):
    pts = prefix(VanDerCorput(2), 7)
    x = pts.coords[:, 0]
    assert exact_lp_1d(pts, "star", p) == pytest.approx(_grid_star(x, p), rel=2e-4)
    assert exact_lp_1d(pts, "extreme", p) == pytest.approx(_grid_extreme(x, p), rel=2e-3)


def test_exact_lp_1d_p2_matches_closed_forms():
    p = PointSet(uniform01(17, 0, 23).reshape(-1, 1))
    assert exact_lp_1d(p, "star", 2.0) == pytest.approx(star_l2(p), rel=1e-12)
    assert exact_lp_1d(p, "extreme", 2.0) == pytest.approx(extreme_l2(p), rel=1e-12)


def test_exact_lp_1d_handles_duplicates():
    p = pset([[0.25], [0.25], [0.75]])
    assert exact_lp_1d(p, "star", 2.0) == pytest.approx(star_l2(p), rel=1e-12)
    assert exact_lp_1d(p, "extreme", 2.0) == pytest.approx(extreme_l2(p), rel=1e-12)


def test_jensen_relations_1d():
    p = PointSet(uniform01(19, 0, 12).reshape(-1, 1))
    # anchored boxes form a probability measure: L1 <= L2 literally
    assert exact_lp_1d(p, "star", 1.0) <= exact_lp_1d(p, "star", 2.0) + 1e-12
    # the two-corner region has mass 1/2: only the normalized moments compare
    l1, l2 = exact_lp_1d(p, "extreme", 1.0), exact_lp_1d(p, "extreme", 2.0)
    assert 2.0 * l1 <= math.sqrt(2.0) * l2 + 1e-12


def test_exact_lp_1d_guards():
    from disclab import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        exact_lp_1d(random_point_set(4, 2, 0), "star", 2.0)
    with pytest.raises(ValueError):
        exact_lp_1d(pset([[0.5]]), "star", math.inf)
    with pytest.raises(ValueError):
        exact_lp_1d(pset([[0.5]]), "anchored", 2.0)


def _ref_phi1(s, p):
    return np.sign(s) * np.abs(s) ** (p + 1.0) / (p + 1.0)


def _ref_psi(s, p):
    return np.abs(s) ** (p + 2.0) / (p + 2.0)


@np.errstate(over="raise", invalid="raise")
def row_loop_reference(x, p):
    """The extreme power sum one cell row at a time: for each cell i, the
    pairs (i, j > i) as 1-d arrays, summed by one fsum."""
    n = x.size
    edges, a = linf_reference._cells(x)
    lo, hi = edges[:-1], edges[1:]
    widths = hi - lo
    m = lo.size
    parts = [math.fsum(((n**p) * widths ** (p + 2.0) / ((p + 1.0) * (p + 2.0))).tolist())]
    for i in range(m - 1):
        gap = a[i + 1 :] - a[i]
        w1 = lo[i + 1 :] - hi[i]
        w2 = lo[i + 1 :] - lo[i]
        w3 = hi[i + 1 :] - hi[i]
        w4 = hi[i + 1 :] - lo[i]
        w_mid_lo = np.minimum(w2, w3)
        w_mid_hi = np.maximum(w2, w3)
        height = np.minimum(widths[i], widths[i + 1 :])

        def piece(aw, bw, alpha, beta):
            s_hi = gap - n * alpha
            s_lo = gap - n * beta
            out = (aw + bw * gap / n) * (_ref_phi1(s_hi, p) - _ref_phi1(s_lo, p))
            if bw:
                out -= (bw / n) * (_ref_psi(s_hi, p) - _ref_psi(s_lo, p))
            return out / n

        t = (
            piece(-w1, 1.0, w1, w_mid_lo)
            + piece(height, 0.0, w_mid_lo, w_mid_hi)
            + piece(w4, -1.0, w_mid_hi, w4)
        )
        parts.append(math.fsum(t.tolist()))
    return math.fsum(parts)


def _outcome(f, *args):
    """f's value as its bits, or the type of the exception it raised."""
    try:
        return f(*args).hex()
    except ArithmeticError as exc:
        return type(exc)


BIT_TEST_PS = [1.0, 1.5, 2.0, 3.0, 7.3, 60.0, 150.0, 300.0]


def _bit_test_points(family, seed, n):
    rng = np.random.default_rng(seed)
    if family == "dyadic":  # a few k / 2^10 drawn many times: heavy ties
        return rng.choice(rng.integers(0, 2**10, rng.integers(1, 12)) / 2**10, n)
    if family == "sevenths":  # k / 7 rounds, with ties
        return rng.integers(0, 8, n) / 7.0
    if family in ("thirds", "eighths"):  # k / q grids in [0, 1), with ties
        q = 3 if family == "thirds" else 8
        return rng.integers(0, q, n) / q
    if family == "random":  # full-mantissa values
        return rng.random(n)
    if family == "tiny":  # values packed near 0
        return rng.random(n) ** 30
    if family == "zeros":  # half the points at 0, a quarter of them at -0.0
        x = rng.random(n)
        x[: n // 2] = 0.0
        x[: n // 4] = -0.0
        return x
    base = {"vdc2": 2, "vdc3": 3}[family]
    return prefix(VanDerCorput(base), n).coords[:, 0]


# sizes around the block edges: n distinct interior points make n + 1 cells
# and n columns in the first block, which holds 2^14 // n rows. So up to
# n = 128 the whole table is one block, and from n = 129 on it takes several.
BIT_TEST_SIZES = [1, 2, 3, 4, 5, 127, 128, 129, 130, 181, 182, 183, 255, 256, 257]


@given(
    st.sampled_from(["dyadic", "sevenths", "random", "tiny", "vdc2", "vdc3"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(BIT_TEST_SIZES),
    st.sampled_from(BIT_TEST_PS),
)
@settings(max_examples=150, deadline=None)
def test_extreme_power_sum_matches_row_loop_reference_bits(family, seed, n, p):
    x = _bit_test_points(family, seed, n)
    got = _outcome(lp_oracle._lp_1d_power_sum, x, "extreme", p)
    assert got == _outcome(row_loop_reference, x, p)


@pytest.mark.parametrize("n, p, raised", [
    (101, 152.0, FloatingPointError),  # |s|^(p+2) overflows in the cell pairs
    (107, 152.0, OverflowError),  # n**p overflows first
    (100, 148.0, None),
])
def test_extreme_power_sum_raises_as_the_row_loop_does(n, p, raised):
    # all points at one tiny value: the pair of the two cells has |s| = n,
    # so its powers leave the double range just before n**p does
    x = np.full(n, 2.0**-30)
    want = _outcome(row_loop_reference, x, p)
    assert want is raised or (raised is None and isinstance(want, str))
    assert _outcome(lp_oracle._lp_1d_power_sum, x, "extreme", p) == want


@pytest.mark.parametrize("family", ["vdc2", "vdc3", "random"])
def test_extreme_power_sum_matches_row_loop_reference_bits_across_blocks(family):
    # about 700 cells: the first blocks hold 23 rows, the last one all
    # remaining rows, so the block boundaries move through the whole table
    x = _bit_test_points(family, 1, 699)
    for p in (1.5, 7.3):
        assert _outcome(lp_oracle._lp_1d_power_sum, x, "extreme", p) == _outcome(row_loop_reference, x, p)


@pytest.mark.parametrize("family, n", [("vdc2", 699), ("vdc3", 699), ("random", 699),
                                       ("vdc2", 2048), ("vdc3", 2048), ("random", 2048)])
def test_extreme_power_sum_bits_do_not_depend_on_threads_or_blocks(monkeypatch, family, n):
    # the row blocks run on the worker pool; each row is still summed by its
    # own fsum and the rows are added in row order, so neither the thread
    # cap nor the block size moves a bit. At 2^12 entries a block, hundreds
    # of blocks go through 8 workers that switch every 10 us, so two workers
    # that shared a scratch set would overwrite each other's entries.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # so that caps 3 and 8 run on any host
    x = _bit_test_points(family, 2, n)
    runs = [(lp_oracle._BLOCK_ENTRIES, t) for t in ("1", "2", "3")] + [(1 << 12, "8")]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for p in (1.5, 7.3):
            want = _outcome(row_loop_reference, x, p)
            for block, threads in runs:
                monkeypatch.setattr(lp_oracle, "_BLOCK_ENTRIES", block)
                monkeypatch.setenv("DISCLAB_THREADS", threads)
                got = _outcome(lp_oracle._lp_1d_power_sum, x, "extreme", p)
                assert got == want, (p, block, threads)
    finally:
        sys.setswitchinterval(interval)


def _late_overflow_points():
    """201 distinct values, 9800 of the 10^4 points at 0.8: only the cells
    just below the cluster (rows 190..200) pair with |s| > 8954, where
    |s|^78 leaves the double range, while n**76 = 1e304 stays finite."""
    spread = (np.arange(190) + 0.5) / 380
    near = 0.8 - np.arange(1, 11) * 1e-7
    return np.concatenate([spread, near, np.full(9800, 0.8)])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_extreme_power_sum_raises_in_a_pool_worker(monkeypatch, threads):
    # numpy's error state does not reach pool threads, so a block that runs
    # on a worker must raise on overflow itself, or the overflow becomes inf
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # so that 2 workers run on any host
    x = _late_overflow_points()
    m = np.unique(x).size + 1
    assert lp_oracle._BLOCK_ENTRIES // (m - 1) < 190  # the overflow sits after the first block
    monkeypatch.setenv("DISCLAB_THREADS", threads)
    want = _outcome(row_loop_reference, x, 76.0)
    assert want is FloatingPointError
    assert _outcome(lp_oracle._lp_1d_power_sum, x, "extreme", 76.0) == want
    with pytest.raises(GuardError, match="overflows"):
        exact_lp_1d(PointSet(x[:, None]), "extreme", 76.0)


def star_power_sum_reference(x, p):
    """The star power sum on the cell table from before the corner counts."""
    n = x.size
    edges, a = linf_reference._cells(x)
    lo, hi = edges[:-1], edges[1:]
    return math.fsum(((_ref_phi1(a - n * lo, p) - _ref_phi1(a - n * hi, p)) / n).tolist())


@pytest.mark.parametrize("family", ["random", "dyadic", "thirds", "eighths", "zeros", "tiny",
                                    "vdc2", "vdc3"])
def test_1d_evaluators_on_corner_counts_equal_cell_table_bits(family):
    # .hex() tells -0.0 from 0.0, so the sign of a zero result is pinned too
    for n in [*range(1, 301), 2**16]:
        x = _bit_test_points(family, n, n)
        p = PointSet(x[:, None])
        assert linf_star_1d(p).hex() == linf_reference.linf_star_1d(p).hex(), n
        assert linf_extreme_1d(p).hex() == linf_reference.linf_extreme_1d(p).hex(), n
        assert _outcome(lp_oracle._lp_1d_power_sum, x, "star", 1.5) == _outcome(
            star_power_sum_reference, x, 1.5), n


def _brute_corner_counts(pts):
    """#{x <= c on every axis} for every corner tuple, index 0 counting none."""
    corners = [np.unique(np.concatenate(([0.0], x, [1.0]))) for x in pts.T]
    cum = np.zeros(tuple(c.size + 1 for c in corners))
    for index in np.ndindex(*cum.shape):
        if 0 not in index:
            inside = np.ones(pts.shape[0], dtype=bool)
            for x, c, i in zip(pts.T, corners, index):
                inside &= x <= c[i - 1]
            cum[index] = inside.sum()
    return corners, cum


def test_corner_counts_equal_brute_force_on_tied_sets():
    rng = np.random.default_rng(23)
    sets = [np.array([[0.0]]), np.array([[0.5, 0.5]]), np.zeros((5, 2))]
    for d in (1, 2):
        for n in (1, 2, 7, 30):
            sets += [rng.integers(0, q, size=(n, d)) / q for q in (2, 3, 8)]
            sets.append(rng.random((n, d)))
    for pts in sets:
        corners, cum = lp_oracle._corner_counts(pts)
        want_corners, want = _brute_corner_counts(pts)
        assert len(corners) == pts.shape[1]
        for c, w in zip(corners, want_corners):
            np.testing.assert_array_equal(c, w)
        assert cum.dtype == np.float64
        np.testing.assert_array_equal(cum, want)


def test_exact_lp_1d_extreme_memory_is_bounded(monkeypatch):
    # the cell pairs are built in blocks of at most 2^14 entries, not as one
    # 4096 x 4096 table (128 MiB per array), and each worker in flight holds
    # one scratch set of eleven block arrays
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # so that 2 workers run on any host
    pts = prefix(VanDerCorput(2), 4096)
    for threads in ("1", "2"):
        monkeypatch.setenv("DISCLAB_THREADS", threads)
        tracemalloc.start()
        try:
            exact_lp_1d(pts, "extreme", 1.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, threads


def test_exact_lp_1d_overflow_is_guard_error():
    # n**p leaves the double range for the extreme kind, |D|^(p+1) for star
    p = prefix(VanDerCorput(), 200)
    with pytest.raises(GuardError, match="overflows"):
        exact_lp_1d(p, "extreme", 300.0)
    with pytest.raises(GuardError, match="overflows"):
        exact_lp_1d(p, "star", 2000.0)
    assert math.isfinite(exact_lp_1d(p, "star", 300.0))
    assert math.isfinite(exact_lp_1d(p, "extreme", 100.0))


# ---------------------------------------------------------------------------
# exact suprema
# ---------------------------------------------------------------------------


def test_linf_star_1d_examples():
    grid4 = pset([[(2 * i + 1) / 8] for i in range(4)])
    assert linf_star_1d(grid4) == pytest.approx(0.5, abs=1e-15)
    assert linf_star_1d(pset([[0.0]])) == pytest.approx(1.0)
    assert linf_star_1d(pset([[0.0], [0.5]])) == pytest.approx(1.0)


def test_linf_extreme_1d_examples():
    assert linf_extreme_1d(pset([[0.5]])) == pytest.approx(1.0)
    assert linf_extreme_1d(pset([[0.0], [0.5]])) == pytest.approx(1.0)


@given(st.integers(0, 2**31), st.integers(1, 24))
@settings(max_examples=80, deadline=None)
def test_linf_sandwich_1d(seed, n):
    p = random_point_set(n, 1, seed)
    s, e = linf_star_1d(p), linf_extreme_1d(p)
    assert s <= e + 1e-12
    assert e <= 2.0 * s + 1e-12


def _enumerated_linf_1d(x, kind):
    """The supremum over every box whose ends are coordinates, 0 or 1: a
    closed box for the positive part, an open one for the negative part."""
    n = x.size
    xs = np.sort(x)
    c = np.unique(np.concatenate(([0.0], xs, [1.0])))
    if kind == "star":
        closed = np.searchsorted(xs, c, side="right")
        strict = np.searchsorted(xs, c, side="left")
        return max(float(np.max(closed - n * c)), float(np.max(n * c - strict)), 0.0)
    best = 0.0
    for i, u in enumerate(c):
        v = c[i:]
        closed = np.searchsorted(xs, v, side="right") - np.searchsorted(xs, u, side="left")
        strict = np.searchsorted(xs, v, side="left") - np.searchsorted(xs, u, side="right")
        vol = n * (v - u)
        best = max(best, float(np.max(closed - vol)), float(np.max(vol - strict)))
    return best


@given(st.integers(0, 2**31), st.integers(1, 16))
@settings(max_examples=50, deadline=None)
def test_linf_small_agrees_with_1d_scans(seed, n):
    p = random_point_set(n, 1, seed)
    for kind, scan in (("star", linf_star_1d), ("extreme", linf_extreme_1d)):
        assert linf_exact_small(p, kind) == scan(p)
        assert _enumerated_linf_1d(p.coords[:, 0], kind) == pytest.approx(scan(p), abs=1e-12)


def _sorted_candidate_linf_star_1d(x):
    """max_i max(n x_(i) - (i-1), i - n x_(i)) over the sorted values."""
    x = np.sort(x)
    n = x.size
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(n * x - (i - 1), i - n * x)))


@given(
    st.lists(st.integers(0, 8), min_size=1, max_size=40).map(lambda ks: np.array(ks) / 9.0)
    | st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=40).map(np.array)
)
@settings(max_examples=200, deadline=None)
def test_linf_star_1d_equals_sorted_candidate_formula_bits(x):
    # ninths give ties, zeros and rounded products n x
    assert linf_star_1d(PointSet(x[:, None])) == _sorted_candidate_linf_star_1d(x)


def _random_box_search(pts, kind, samples, seed):
    """Definition-level lower bound on the supremum by random boxes."""
    x = pts.coords
    n, d = x.shape
    u = uniform01(seed, 0, samples * 2 * d).reshape(samples, 2 * d)
    if kind == "star":
        t = u[:, :d]
        inside = np.ones((samples, n), dtype=bool)
        for j in range(d):
            inside &= x[:, j][None, :] < t[:, j][:, None]
        return float(np.max(np.abs(inside.sum(1) - n * t.prod(1))))
    a, b = u[:, :d], u[:, d:]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    inside = np.ones((samples, n), dtype=bool)
    for j in range(d):
        xj = x[:, j][None, :]
        inside &= (xj >= lo[:, j][:, None]) & (xj < hi[:, j][:, None])
    return float(np.max(np.abs(inside.sum(1) - n * (hi - lo).prod(1))))


def test_linf_small_center_singleton_d2():
    # sup is 0.75: closing the box around the point as t -> (0.5, 0.5)+ gives
    # 1 - 0.25; pushing t to (1,1) puts the point inside, so the deficit side
    # peaks at volume 0.5 with the point excluded
    p = pset([[0.5, 0.5]])
    value = linf_exact_small(p, "star")
    assert value == pytest.approx(0.75, abs=1e-15)
    search = _random_box_search(p, "star", 200_000, 12)
    assert search <= value + 1e-12
    assert search >= value - 5e-3


def test_linf_small_d2_matches_random_search():
    p = random_point_set(12, 2, 77)
    for kind in ("star", "extreme"):
        value = linf_exact_small(p, kind)
        search = _random_box_search(p, kind, 300_000, 13)
        assert search <= value + 1e-12
        assert search >= value - 0.15 * value


def test_linf_small_sandwich_d2():
    p = random_point_set(8, 2, 5)
    s = linf_exact_small(p, "star")
    e = linf_exact_small(p, "extreme")
    assert s <= e + 1e-12 <= 4.0 * s + 1e-12


def test_linf_small_d2_extreme_matches_box_by_box_enumeration():
    # one first-axis interval [c1[a], c1[b]] at a time, as in the definition of
    # the candidate set; the reference enumerator and the sweep must both
    # give the same double
    def box_by_box(pts):
        n = pts.shape[0]
        c1 = np.unique(np.concatenate(([0.0], pts[:, 0], [1.0])))
        c2 = np.unique(np.concatenate(([0.0], pts[:, 1], [1.0])))
        hist = np.zeros((c1.size + 1, c2.size + 1))
        np.add.at(hist, (np.searchsorted(c1, pts[:, 0]) + 1, np.searchsorted(c2, pts[:, 1]) + 1), 1)
        cum = hist.cumsum(axis=0).cumsum(axis=1)
        iu, iv = np.triu_indices(c2.size)
        best = 0.0
        for a in range(c1.size):
            for b in range(a, c1.size):
                closed = cum[b + 1, iv + 1] - cum[a, iv + 1] - cum[b + 1, iu] + cum[a, iu]
                opened = cum[b, iv] - cum[a + 1, iv] - cum[b, iu + 1] + cum[a + 1, iu + 1]
                vol = n * (c1[b] - c1[a]) * (c2[iv] - c2[iu])
                best = max(best, float(np.max(closed - vol)), float(np.max(vol - opened)))
        return best

    grid = np.random.default_rng(3).integers(0, 8, size=(20, 2)) / 8  # ties, zeros
    for p in (random_point_set(1, 2, 1), random_point_set(17, 2, 2), pset(grid)):
        assert linf_exact_small(p, "extreme") == box_by_box(p.coords)
        assert linf_reference.linf_extreme_2d(p.coords) == box_by_box(p.coords)


def _d2_family(name):
    """The point sets of one family for n = 1..64: full-mantissa random sets;
    k/q grids (duplicate points, ties and zeros); Halton (2, 3) prefixes;
    rank-1 lattices (k/n, (a k mod n)/n), on which a too small re-evaluation
    margin shows first."""
    rng = np.random.default_rng(19)
    for n in range(1, 65):
        k = np.arange(n)
        if name == "random":
            yield rng.random((n, 2))
        elif name == "grid":
            for q in (2, 3, 4, 5, 7, 8, 10, 16, 64):
                yield rng.integers(0, q, size=(n, 2)) / q
        elif name == "halton":
            yield prefix(Halton((2, 3)), n).coords
        else:
            for a in (3, 5, 7, 13):
                yield np.column_stack((k / n, (a * k % n) / n))


@pytest.mark.parametrize("family", ["random", "grid", "halton", "lattice"])
def test_linf_small_d2_star_bits_equal_grid_reference(family):
    for coords in _d2_family(family):
        p = PointSet(coords)
        assert linf_exact_small(p, "star").hex() == linf_reference.linf_star_2d(coords).hex(), p.n


@pytest.mark.parametrize("family", ["random", "grid", "halton", "lattice"])
def test_linf_small_d2_extreme_bits_equal_enumerator(family):
    for coords in _d2_family(family):
        p = PointSet(coords)
        assert linf_exact_small(p, "extreme") == linf_reference.linf_extreme_2d(coords), p.n


def test_linf_small_d2_extreme_ties_and_blocks_equal_enumerator():
    # q = 2 grids at n = 64 are mostly duplicate points; a single interior
    # point keeps 4 of its 6 first-axis pairs for re-evaluation, more than
    # one block of k1 = 3 pairs holds
    sets = [np.random.default_rng(seed).integers(0, 2, size=(64, 2)) / 2 for seed in range(8)]
    sets += [np.array([[x, y]]) for x in (0.25, 0.5, 0.9) for y in (0.1, 0.5)]
    for coords in sets:
        assert linf_exact_small(PointSet(coords), "extreme") == linf_reference.linf_extreme_2d(coords)


def _tie_every_pair(cum_t, c2, ia, ib, width1):
    """A stand-in for `lp_oracle._sweep` under which every first-axis pair
    is kept, so the re-evaluation covers every box in blocks."""
    return np.zeros(ia.size)


def test_linf_small_d2_extreme_reevaluation_of_every_pair_is_the_enumeration(monkeypatch):
    monkeypatch.setattr(lp_oracle, "_sweep", _tie_every_pair)
    for n, seed in ((1, 1), (5, 2), (17, 3), (64, 4)):
        p = random_point_set(n, 2, seed)
        assert linf_exact_small(p, "extreme") == linf_reference.linf_extreme_2d(p.coords)


@pytest.mark.parametrize("every_pair", [False, True])
def test_linf_small_d2_extreme_memory_is_bounded(monkeypatch, every_pair):
    # the enumeration peaked near 7 MiB at n = 64; the sweep holds three
    # (k2, pairs) arrays at once, the re-evaluation the counts and volumes
    # of one block of at most k1 pairs, also when every pair is kept
    if every_pair:
        monkeypatch.setattr(lp_oracle, "_sweep", _tie_every_pair)
    p = random_point_set(64, 2, 8)
    linf_exact_small(p, "extreme")
    tracemalloc.start()
    try:
        linf_exact_small(p, "extreme")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_linf_small_guards():
    with pytest.raises(GuardError):
        linf_exact_small(random_point_set(65, 2, 0), "star")
    with pytest.raises(GuardError):
        linf_exact_small(random_point_set(8, 3, 0), "star")
    # the n <= 64 limit bounds the d = 2 enumeration only; d = 1 is an O(n) scan
    p = prefix(VanDerCorput(2), 100)
    assert linf_exact_small(p, "star") == linf_star_1d(p) == estimate(p, "star", math.inf).value
    assert linf_exact_small(p, "extreme") == linf_extreme_1d(p)


# ---------------------------------------------------------------------------
# estimate: one evaluator per (kind, p, d) regime
# ---------------------------------------------------------------------------

REGIME_SETS = {1: prefix(VanDerCorput(2), 20), 2: prefix(Halton((2, 3)), 20)}


def _regimes():
    """(p, d, kind, method, direct evaluator); method None marks a refusal,
    evaluator None the Monte Carlo rows (checked against `mc_lp`)."""
    closed = {"star": star_l2, "extreme": extreme_l2, "periodic": periodic_l2,
              "diaphony": diaphony}
    sup_1d = {"star": linf_star_1d, "extreme": linf_extreme_1d}
    for d in (1, 2):
        for kind, fn in closed.items():
            yield 2.0, d, kind, METHOD_CLOSED_FORM, fn
        yield 1.5, d, "periodic", METHOD_MONTE_CARLO, None
        for kind in ("periodic", "diaphony"):
            yield math.inf, d, kind, None, None
        yield 1.5, d, "diaphony", None, None
    for kind in ("star", "extreme"):
        yield 1.5, 1, kind, METHOD_PIECEWISE, lambda pts, k=kind: exact_lp_1d(pts, k, 1.5)
        yield 1.5, 2, kind, METHOD_MONTE_CARLO, None
        yield math.inf, 1, kind, METHOD_PIECEWISE, sup_1d[kind]
        yield math.inf, 2, kind, METHOD_GRID_ENUM, lambda pts, k=kind: linf_exact_small(pts, k)


@pytest.mark.parametrize("p, d, kind, method, direct", list(_regimes()))
def test_estimate_picks_one_evaluator_per_regime(p, d, kind, method, direct):
    pts = REGIME_SETS[d]
    if method is None:
        with pytest.raises(DisclabError):
            estimate(pts, kind, p)
        return
    mc = McConfig(2000, 3) if method == METHOD_MONTE_CARLO else None
    est = estimate(pts, kind, p, mc)
    assert (est.kind, est.p, est.method, est.n, est.d) == (kind, p, method, pts.n, d)
    if mc is None:
        assert est.value == direct(pts)
        assert est.stderr is None
    else:
        assert est == mc_lp(pts, mc, kind, p)
        with pytest.raises(DisclabError, match="oracle"):
            estimate(pts, kind, p)


@pytest.mark.parametrize("mc", [None, McConfig(200, 3)])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", lp_oracle.KINDS)
@pytest.mark.parametrize("p", [0.5, -1.0, math.nan])
def test_estimate_rejects_p_below_one_before_dispatch(p, kind, d, mc):
    # these used to say "use the oracle subcommand" (MonteCarloRequired), or
    # raise mc_lp's or exact_lp_1d's ValueError, depending on d, kind and mc
    with pytest.raises(DisclabError, match=r"^p must satisfy p >= 1$"):
        estimate(REGIME_SETS[d], kind, p, mc)


@pytest.mark.parametrize("p", [2.0, 1.5, math.inf])
def test_estimate_names_the_valid_kinds_for_an_unknown_kind(p):
    # checked before dispatch: at p = 2 the kind used to be a bare KeyError,
    # at p = 1.5 in d = 1 a misleading "use the oracle subcommand"
    with pytest.raises(DisclabError, match="'stars'; valid kinds are star, extreme, periodic, diaphony"):
        estimate(prefix(VanDerCorput(2), 8), "stars", p)
