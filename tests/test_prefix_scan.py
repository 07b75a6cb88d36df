import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import (
    VanDerCorput,
    diaphony,
    extreme_l2,
    periodic_l2,
    prefix,
    prefix_discrepancies,
    random_point_set,
    star_l2,
)
from scalar_sum import KernelAccumulator


FULL = {"star": star_l2, "extreme": extreme_l2, "periodic": periodic_l2, "diaphony": diaphony}


@pytest.mark.parametrize("n", [1, 2, 3, 17, 100, 255])
def test_engine_matches_closed_forms_on_vdc(n):
    seq = prefix(VanDerCorput(2), 256)
    vals = prefix_discrepancies(seq)
    for kind, fn in FULL.items():
        want = fn(seq.prefix(n))
        assert vals[kind][n - 1] == pytest.approx(want, rel=1e-10), kind


def test_engine_matches_closed_forms_on_random_values():
    seq = random_point_set(150, 1, 424242)
    vals = prefix_discrepancies(seq)
    for n in (1, 2, 64, 150):
        for kind, fn in FULL.items():
            assert vals[kind][n - 1] == pytest.approx(fn(seq.prefix(n)), rel=1e-10)


def test_engine_handles_tied_values():
    seq = np.array([0.25, 0.75, 0.25, 0.25, 0.5, 0.75])
    vals = prefix_discrepancies(seq)
    from disclab import PointSet

    for n in range(1, 7):
        p = PointSet(seq[:n].reshape(-1, 1))
        for kind, fn in FULL.items():
            assert vals[kind][n - 1] == pytest.approx(fn(p), rel=1e-10)


def test_engine_kind_selection_and_errors():
    vals = prefix_discrepancies(np.array([0.1, 0.6]), kinds=("star",))
    assert set(vals) == {"star"}
    with pytest.raises(ValueError):
        prefix_discrepancies(np.array([0.1]), kinds=("l1",))
    with pytest.raises(Exception):
        prefix_discrepancies(random_point_set(4, 2, 0))


def test_engine_dyadic_prefix_star_is_constant():
    # prefixes of length 2^m of the binary radical-inverse sequence form the
    # full dyadic grid, whose anchored L2 value is 1/sqrt(3) at every m;
    # the incremental engine carries an O(eps * n^2) residue, hence the
    # size-dependent tolerance
    vals = prefix_discrepancies(prefix(VanDerCorput(2), 1024), kinds=("star",))["star"]
    for m in range(0, 11):
        n = 2**m
        assert vals[n - 1] == pytest.approx(3.0**-0.5, abs=5e-15 * n * n)


KINDS = tuple(FULL)


class _Fenwick:
    __slots__ = ("n", "tree")

    def __init__(self, n: int) -> None:
        self.n = n
        self.tree = [0.0] * (n + 1)

    def add(self, i: int, v: float) -> None:
        t = self.tree
        while i <= self.n:
            t[i] += v
            i += i & (-i)

    def prefix(self, i: int) -> float:
        s = 0.0
        t = self.tree
        while i > 0:
            s += t[i]
            i -= i & (-i)
        return s


def fenwick_reference(values, kinds=KINDS):
    """The per-point engine: two Fenwick trees over the value ranks and five
    compensated accumulators, one inserted point at a time."""
    x = np.asarray(values, dtype=np.float64).ravel()
    n_total = x.size
    order = np.argsort(x, kind="stable")
    rank = np.empty(n_total, dtype=np.int64)
    rank[order] = np.arange(n_total)

    counts = _Fenwick(n_total)
    sums = _Fenwick(n_total)
    sum_max = KernelAccumulator()
    sum_min = KernelAccumulator()
    sum_absdiff = KernelAccumulator()
    sx = KernelAccumulator()
    sx2 = KernelAccumulator()
    out = {k: np.zeros(n_total) for k in kinds}
    two_pi_sq = 2.0 * math.pi**2

    for i in range(n_total):
        xv = float(x[i])
        r = int(rank[i]) + 1
        c_below = counts.prefix(r - 1)
        s_below = sums.prefix(r - 1)
        s_all = sx.value
        c_above = i - c_below
        s_above = s_all - s_below
        # ties carry stable ranks, so an equal value inserted earlier lands
        # in the "below" group, where max/min/absdiff treat it correctly
        sum_max.add(2.0 * (xv * c_below + s_above) + xv)
        sum_min.add(2.0 * (s_below + xv * c_above) + xv)
        sum_absdiff.add((xv * c_below - s_below) + (s_above - xv * c_above))
        sx.add(xv)
        sx2.add(xv * xv)
        counts.add(r, 1.0)
        sums.add(r, xv)

        n = i + 1
        sum_x, sum_x2 = sx.value, sx2.value
        if "star" in out:
            sq = n * sum_x2 - sum_max.value + n * n / 3.0
            out["star"][i] = math.sqrt(max(sq, 0.0))
        if "extreme" in out:
            sq = (sum_min.value - sum_x * sum_x) - n * (sum_x - sum_x2) + n * n / 12.0
            out["extreme"][i] = math.sqrt(max(sq, 0.0))
        if "periodic" in out or "diaphony" in out:
            b = 2.0 * (n * sum_x2 - sum_x * sum_x) - 2.0 * sum_absdiff.value + n * n / 6.0
            b = max(b, 0.0)
            if "periodic" in out:
                out["periodic"][i] = math.sqrt(b)
            if "diaphony" in out:
                out["diaphony"][i] = math.sqrt(two_pi_sq * b) / n
    return out


def assert_same_bits(values, kinds):
    got, want = prefix_discrepancies(values, kinds), fenwick_reference(values, kinds)
    assert list(got) == list(want)
    for k in want:
        assert got[k].dtype == np.float64 and np.array_equal(got[k], want[k]), k


kind_subsets = st.lists(st.sampled_from(KINDS), min_size=1, max_size=4, unique=True).map(tuple)


@given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(0, 400), kind_subsets)
@settings(max_examples=100, deadline=None)
def test_engine_matches_fenwick_reference_bits_on_dyadic_grids(seed, pool_size, n, kinds):
    # a few grid values k / 2^10 drawn many times: heavy ties; every sum is
    # exact here, so this pins the arithmetic, not the rounding order
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 2**10, pool_size) / 2**10
    assert_same_bits(rng.choice(pool, n), kinds)


@given(
    st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(0, 400), st.integers(0, 30), kind_subsets
)
@settings(max_examples=100, deadline=None)
def test_engine_matches_fenwick_reference_bits_on_rounding_values(seed, pool_size, n, decades, kinds):
    # full-mantissa values over up to 30 decades, with ties: the sums round,
    # so the bits depend on the order each sum is formed in, on the tie order
    # and on every compensation term
    rng = np.random.default_rng(seed)
    pool = rng.random(pool_size) * 10.0 ** -rng.integers(0, decades + 1, pool_size)
    assert_same_bits(rng.choice(pool, n), kinds)


def test_engine_matches_fenwick_reference_bits_on_long_scans():
    for seq in (prefix(VanDerCorput(2), 4096), prefix(VanDerCorput(3), 3000), random_point_set(3000, 1, 5)):
        assert_same_bits(seq.coords[:, 0], KINDS)
    assert_same_bits(np.zeros(0), KINDS)


def exact_squares(x):
    """Fraction-exact star^2, extreme^2 and periodic^2 of every prefix, by
    direct pair sums over the integers x * D."""
    fr = [Fraction(v) for v in x]
    den = max(f.denominator for f in fr)
    xs = [f.numerator * (den // f.denominator) for f in fr]
    s_max = s_min = s_abs = s1 = s2 = 0
    out = {"star": [], "extreme": [], "periodic": []}
    for i, xi in enumerate(xs):
        s_max += 2 * sum(max(xi, xj) for xj in xs[:i]) + xi
        s_min += 2 * sum(min(xi, xj) for xj in xs[:i]) + xi
        s_abs += sum(abs(xi - xj) for xj in xs[:i])
        s1 += xi
        s2 += xi * xi
        n, sq = i + 1, den * den
        out["star"].append(Fraction(n * s2, sq) - Fraction(s_max, den) + Fraction(n * n, 3))
        out["extreme"].append(
            Fraction(s_min, den) - Fraction(s1 * s1, sq) - n * Fraction(s1 * den - s2, sq) + Fraction(n * n, 12)
        )
        out["periodic"].append(
            2 * Fraction(n * s2 - s1 * s1, sq) - 2 * Fraction(s_abs, den) + Fraction(n * n, 6)
        )
    return out


@pytest.mark.parametrize(
    "seq", [random_point_set(300, 1, 2024), prefix(VanDerCorput(3), 300)], ids=["random", "vdc3"]
)
def test_engine_squares_within_residue_of_exact_sums(seq):
    vals = prefix_discrepancies(seq, ("star", "extreme", "periodic"))
    n = np.arange(1, seq.n + 1)
    for kind, exact in exact_squares(seq.coords[:, 0]).items():
        err = np.abs(vals[kind] ** 2 - np.array([float(v) for v in exact]))
        assert np.all(err <= 5e-15 * n * n), kind


def test_engine_memory_stays_bounded():
    seq = prefix(VanDerCorput(2), 2**16)
    tracemalloc.start()
    try:
        prefix_discrepancies(seq, KINDS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
