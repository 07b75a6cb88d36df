import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import (
    GuardError,
    Halton,
    McConfig,
    PointSet,
    VanDerCorput,
    diaphony,
    diaphony_truncated,
    exact_l2,
    exact_lp_1d,
    extreme_l2,
    mc_lp,
    periodic_l2,
    prefix,
    random_point_set,
    star_l2,
)
from disclab.summation import comp_sum
from scalar_sum import KernelAccumulator

inner_coord = st.integers(1, 2**20 - 1).map(lambda j: j / 2**20)


def pset(rows):
    return PointSet(np.atleast_2d(np.asarray(rows, dtype=float)))


# ---------------------------------------------------------------------------
# analytic single-point identities
# ---------------------------------------------------------------------------


def test_star_identities():
    assert star_l2(pset([[0.0]])) == pytest.approx(3.0**-0.5, rel=1e-14)
    assert star_l2(pset([[0.5]])) == pytest.approx(12.0**-0.5, rel=1e-14)


@given(inner_coord)
@settings(max_examples=80)
def test_single_point_identities_hold_for_any_x(x):
    p = pset([[x]])
    assert extreme_l2(p) == pytest.approx(12.0**-0.5, rel=1e-13)
    assert periodic_l2(p) == pytest.approx(6.0**-0.5, rel=1e-13)
    assert diaphony(p) == pytest.approx(math.pi / math.sqrt(3.0), rel=1e-13)


def test_two_point_worked_values():
    p = pset([[0.0], [0.5]])
    assert periodic_l2(p) ** 2 == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert diaphony(p) == pytest.approx(math.pi / math.sqrt(12.0), rel=1e-13)
    assert star_l2(p) ** 2 == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_star_equals_extreme_at_center_singleton():
    p = pset([[0.5]])
    assert star_l2(p) == pytest.approx(extreme_l2(p), rel=1e-15)


# ---------------------------------------------------------------------------
# cross-checks against independent evaluators
# ---------------------------------------------------------------------------


def test_star_matches_piecewise_oracle_on_vdc16():
    p = prefix(VanDerCorput(2), 16)
    assert star_l2(p) == pytest.approx(exact_lp_1d(p, "star", 2.0), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 97, 255])
def test_closed_forms_match_piecewise_oracle(n):
    p = prefix(VanDerCorput(2), n)
    assert star_l2(p) == pytest.approx(exact_lp_1d(p, "star", 2.0), rel=1e-12)
    assert extreme_l2(p) == pytest.approx(exact_lp_1d(p, "extreme", 2.0), rel=1e-12)


def test_extreme_matches_mc_oracle_d2():
    p = random_point_set(32, 2, 2024)
    est = mc_lp(p, McConfig(10**6, 99), "extreme", 2.0)
    assert abs(est.value - extreme_l2(p)) <= 3.0 * est.stderr


def test_periodic_matches_mc_oracle_d2():
    p = random_point_set(32, 2, 2025)
    est = mc_lp(p, McConfig(10**6, 98), "periodic", 2.0)
    assert abs(est.value - periodic_l2(p)) <= 3.0 * est.stderr


def test_diaphony_matches_truncated_series_d2():
    p = random_point_set(8, 2, 7)
    value, bound = diaphony_truncated(p, 2000)
    f2 = diaphony(p) ** 2
    assert value**2 <= f2 + 1e-12
    assert f2 <= value**2 + bound


# ---------------------------------------------------------------------------
# precision: the pair sums cancel by orders of magnitude and must still agree
# with the independent piecewise integration
# ---------------------------------------------------------------------------


def test_high_cancellation_precision_n4096():
    p = prefix(VanDerCorput(2), 4096)
    assert star_l2(p) == pytest.approx(exact_lp_1d(p, "star", 2.0), rel=1e-10)
    assert extreme_l2(p) == pytest.approx(exact_lp_1d(p, "extreme", 2.0), rel=1e-10)


@pytest.mark.slow
def test_high_cancellation_precision_n16384_extreme():
    p = prefix(VanDerCorput(2), 1 << 14)
    assert extreme_l2(p) == pytest.approx(exact_lp_1d(p, "extreme", 2.0), rel=1e-10)


@pytest.mark.slow
def test_high_cancellation_precision_n65536_star():
    p = prefix(VanDerCorput(2), 1 << 16)
    assert star_l2(p) == pytest.approx(exact_lp_1d(p, "star", 2.0), rel=1e-10)


# ---------------------------------------------------------------------------
# symmetry properties
# ---------------------------------------------------------------------------

small_set = st.lists(
    st.tuples(inner_coord, inner_coord), min_size=1, max_size=16
).map(lambda rows: np.asarray(rows, dtype=float))


@given(small_set, st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_extreme_invariant_under_coordinate_reflection(rows, axis):
    p = PointSet(rows)
    reflected = rows.copy()
    reflected[:, axis] = 1.0 - reflected[:, axis]
    q = PointSet(reflected)
    assert extreme_l2(p) == pytest.approx(extreme_l2(q), rel=1e-11)


def test_star_changes_under_reflection_witness():
    # reflecting one axis moves the anchored corner: in d >= 2 the star value
    # genuinely changes while the extreme value cannot
    rows = np.array([[0.2, 0.3], [0.6, 0.7]])
    refl = rows.copy()
    refl[:, 0] = 1.0 - refl[:, 0]
    p, q = PointSet(rows), PointSet(refl)
    assert abs(star_l2(p) - star_l2(q)) > 1e-3
    assert extreme_l2(p) == pytest.approx(extreme_l2(q), rel=1e-13)


@given(small_set, inner_coord)
@settings(max_examples=60, deadline=None)
def test_periodic_and_diaphony_translation_invariant(rows, shift):
    p = PointSet(rows)
    moved = rows.copy()
    moved[:, 0] = np.mod(moved[:, 0] + shift, 1.0)
    q = PointSet(moved)
    assert periodic_l2(p) == pytest.approx(periodic_l2(q), rel=1e-11)
    assert diaphony(p) == pytest.approx(diaphony(q), rel=1e-11)


@given(small_set, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_permutation_invariance(rows, rnd):
    p = PointSet(rows)
    order = list(range(rows.shape[0]))
    rnd.shuffle(order)
    q = PointSet(rows[order])
    swapped = PointSet(rows[:, ::-1].copy())
    for fn in (star_l2, extreme_l2, periodic_l2, diaphony):
        assert fn(p) == pytest.approx(fn(q), rel=1e-11)
        assert fn(p) == pytest.approx(fn(swapped), rel=1e-11)


@given(st.integers(0, 2**31), st.integers(1, 32), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_dominations_on_random_sets(seed, n, d):
    p = random_point_set(n, d, seed)
    e, s, per = extreme_l2(p), star_l2(p), periodic_l2(p)
    tol = 1e-12 * max(1.0, s, per)
    assert e <= s + tol
    assert e <= per + tol


# ---------------------------------------------------------------------------
# truncated diaphony
# ---------------------------------------------------------------------------


def test_truncated_diaphony_origin_point():
    value, bound = diaphony_truncated(pset([[0.0]]), 1)
    assert value == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert bound == pytest.approx(math.pi**2 / 3.0 - 2.0, rel=1e-12)


def test_truncated_diaphony_monotone_in_cutoff():
    p = random_point_set(6, 1, 11)
    prev = 0.0
    for h in (1, 2, 4, 16, 64):
        value, _ = diaphony_truncated(p, h)
        assert value >= prev - 1e-15
        prev = value


def test_truncated_diaphony_brackets_closed_form():
    p = pset([[0.0], [0.5]])
    value, bound = diaphony_truncated(p, 10**4)
    f2 = (math.pi / math.sqrt(12.0)) ** 2
    assert value**2 <= f2 <= value**2 + bound


def test_truncated_diaphony_cutoff_guard():
    with pytest.raises(ValueError):
        diaphony_truncated(pset([[0.1]]), 0)


def test_closed_forms_refuse_underflowing_dimensions():
    # 12^-d is subnormal from d = 286 and 3^-d from d = 645; there the
    # per-point and pair-sum products underflow as well, and d = 400 used to
    # give an extreme value of exactly 0.0
    with pytest.raises(GuardError, match="d=400"):
        extreme_l2(random_point_set(5, 400, 1))
    with pytest.raises(GuardError):
        extreme_l2(random_point_set(5, 286, 1))
    assert extreme_l2(random_point_set(5, 285, 1)) > 0.0
    for fn in (star_l2, periodic_l2):
        with pytest.raises(GuardError):
            fn(random_point_set(5, 645, 1))
        assert fn(random_point_set(5, 644, 1)) > 0.0


def test_closed_forms_refuse_underflow_before_the_pair_sum(monkeypatch):
    # the refusal needs only d; it used to come after the O(n^2 d) pair sum
    def no_pair_sum(*args, **kwargs):
        raise AssertionError("the pair sum ran")

    monkeypatch.setattr(exact_l2, "_pair_sum", no_pair_sum)
    for fn, d in ((star_l2, 700), (extreme_l2, 300), (periodic_l2, 700)):
        with pytest.raises(GuardError, match=f"d={d}"):
            fn(random_point_set(4, d, 1))


def test_diaphony_refuses_overflowing_dimensions():
    # the diagonal pair terms are (1 + pi^2/3)^d, above the largest double
    # from d = 488; d = 700 used to escape as an overflow RuntimeWarning
    one = pset([[0.0] * 487])
    assert math.isfinite(diaphony(one))
    assert math.isfinite(diaphony_truncated(one, 4)[1])
    for fn in (diaphony, lambda p: diaphony_truncated(p, 4)):
        with pytest.raises(GuardError, match="d=488"):
            fn(pset([[0.0] * 488]))
        with pytest.raises(GuardError, match="d=700"):
            fn(random_point_set(3, 700, 1))
        with pytest.raises(GuardError, match="n=2"):
            fn(pset([[0.0] * 487] * 2))  # four diagonal-sized terms


# ---------------------------------------------------------------------------
# the blocked pair sum: strips, workers and memory
# ---------------------------------------------------------------------------


def _whole_block_pair_sum(x, block_fn, g):
    """The pair sum with every block built whole and summed by comp_sum."""
    n, acc = x.shape[0], KernelAccumulator()
    for i0 in range(0, n, exact_l2._BLOCK):
        for j0 in range(i0, n, exact_l2._BLOCK):
            K = block_fn(x[i0 : i0 + exact_l2._BLOCK], x[j0 : j0 + exact_l2._BLOCK])
            K -= g[i0 : i0 + exact_l2._BLOCK, None]
            K -= g[None, j0 : j0 + exact_l2._BLOCK]
            hi, lo = comp_sum(K)
            acc.add_pair(*((2.0 * hi, 2.0 * lo) if j0 > i0 else (hi, lo)))
    return acc.parts


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("d", [1, 3])
def test_pair_sum_equals_whole_block_comp_sums(monkeypatch, d, threads):
    monkeypatch.setenv("DISCLAB_THREADS", threads)
    x = random_point_set(1100, d, 40 + d).coords  # ragged: 1024 + 76
    g = np.prod((1.0 - x * x) / 2.0, axis=1)
    block_fn = exact_l2._product_kernel(lambda u, v: 1.0 - np.maximum.outer(u, v))
    assert exact_l2._pair_sum(x, block_fn, g) == _whole_block_pair_sum(x, block_fn, g)


@pytest.mark.parametrize("fn", [star_l2, periodic_l2, lambda p: diaphony_truncated(p, 8)])
def test_pair_sum_memory_stays_small_at_one_worker(monkeypatch, fn):
    # a whole 1024 x 1024 block and comp_sum's temporaries took 24-32 MiB;
    # strips leave the level-error buffers, 8 MiB, and a few strips
    monkeypatch.setenv("DISCLAB_THREADS", "1")
    p = prefix(Halton((2, 3)), 4096)
    tracemalloc.start()
    try:
        fn(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20, f"peak {peak / 2**20:.1f} MiB"


def test_truncated_kernel_rows_do_not_depend_on_the_slice(monkeypatch):
    # strip_sum builds a block a few rows at a time, so a row of the kernel
    # must come out the same whether it is built alone, in a strip or in the
    # whole block; a BLAS matrix-vector product over h does not
    kernels = []

    def spy(x, block_fn, g=None):
        kernels.append(block_fn)
        return real(x, block_fn, g)

    real = exact_l2._pair_sum
    monkeypatch.setattr(exact_l2, "_pair_sum", spy)
    x = random_point_set(300, 2, 7).coords
    diaphony_truncated(PointSet(x), 64)
    (block_fn,) = kernels
    whole = block_fn(x, x)
    for r0, r1 in [(0, 1), (5, 6), (0, 32), (32, 64), (100, 137), (299, 300), (1, 300)]:
        assert np.array_equal(block_fn(x[r0:r1], x), whole[r0:r1]), (r0, r1)


def test_truncated_diaphony_multiblock_bits_do_not_depend_on_thread_cap(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # so that cap 3 runs on any host
    p = random_point_set(1100, 1, 12)  # three block pairs
    values = []
    for threads in ("1", "3"):
        monkeypatch.setenv("DISCLAB_THREADS", threads)
        values.append(diaphony_truncated(p, 8))
    assert values[0] == values[1]
    value, bound = values[0]
    f2 = diaphony(p) ** 2
    assert value**2 <= f2 + 1e-12 and f2 <= value**2 + bound
