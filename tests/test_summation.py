import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import summation
from disclab.exact_l2 import _product_kernel
from disclab.summation import comp_sum, exact_ratio_parts, running_sum, strip_sum
from scalar_sum import KernelAccumulator


def test_comp_sum_empty_and_single():
    assert comp_sum(np.array([])) == (0.0, 0.0)
    hi, lo = comp_sum(np.array([3.5]))
    assert hi + lo == 3.5


def test_comp_sum_exact_on_cancelling_data():
    rng = np.random.default_rng(7)
    big = rng.normal(0.0, 1e9, 5000)
    small = rng.normal(0.0, 1.0, 5000)
    data = np.concatenate([big, -big, small])
    hi, lo = comp_sum(data)
    assert hi + lo == math.fsum(data.tolist())


@given(
    st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, width=64),
        min_size=1,
        max_size=400,
    )
)
@settings(max_examples=200)
def test_comp_sum_matches_fsum_within_accumulator_contract(xs):
    hi, lo = comp_sum(np.array(xs))
    exact = math.fsum(xs)
    budget = 64 * np.finfo(float).eps * math.fsum(map(abs, xs))
    assert abs((hi + lo) - exact) <= budget + 1e-300


def test_kernel_accumulator_tracks_tiny_residue():
    acc = KernelAccumulator()
    for _ in range(10**4):
        acc.add(1e16)
        acc.add(1.0)
        acc.add(-1e16)
    assert acc.value == 1e4
    value, comp = running_sum(np.tile([1e16, 1.0, -1e16], 10**4))
    assert value[-1] + comp[-1] == 1e4


def test_kernel_accumulator_add_pair():
    acc = KernelAccumulator()
    acc.add_pair(1e16, 1.0)
    acc.add(-1e16)
    assert acc.value == 1.0
    value, comp = running_sum(np.array([1e16, 1.0, -1e16]))
    assert value[-1] + comp[-1] == 1.0


def _bits(pairs) -> bytes:
    return np.asarray(pairs, dtype=np.float64).tobytes()


@given(
    st.lists(
        st.one_of(
            st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, width=64),
            st.sampled_from([0.0, -0.0, 1e16, -1e16, 1.0, 5e-324]),
        ),
        max_size=200,
    )
)
@settings(max_examples=300)
def test_running_sum_entries_are_the_scalar_sums_bits(xs):
    acc, want = KernelAccumulator(), []
    for v in xs:
        acc.add(v)
        want.append(acc.parts)
    value, comp = running_sum(np.array(xs, dtype=np.float64))
    assert _bits(np.stack([value, comp], axis=1)) == _bits(want)


def test_running_sum_starts_from_positive_zero():
    # a first term of -0.0 leaves the scalar sum at +0.0
    value, comp = running_sum(np.array([-0.0, -0.0]))
    assert _bits(value) == _bits([0.0, 0.0]) and _bits(comp) == _bits([0.0, 0.0])


def test_exact_ratio_parts_recovers_fraction():
    from fractions import Fraction

    for num, den in ((2**32, 3), (12345678901, 12**4), (-(7**13), 3**9)):
        hi, lo = exact_ratio_parts(num, den)
        err = Fraction(hi) + Fraction(lo) - Fraction(num, den)
        # two doubles carry ~106 bits: relative error stays below 2^-100
        assert abs(err) <= abs(Fraction(num, den)) / 2**100


def _star_factor(u, v):
    return 1.0 - np.maximum.outer(u, v)


# ragged shapes: one strip, one row, one column, odd strips, a short last
# strip whose fold pads down to a single value, and full-width blocks
STRIP_SHAPES = [(1, 1), (1, 1024), (1000, 1), (3, 5), (33, 7), (65, 513), (257, 1024),
                (1024, 476), (1024, 1024)]


@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("rows, cols", STRIP_SHAPES)
def test_strip_fold_equals_comp_sum_of_the_built_block(rows, cols, d):
    rng = np.random.default_rng(rows * 7919 + cols * 31 + d)
    xi, xj = rng.random((rows, d)), rng.random((cols, d))
    gi, gj = rng.random(rows) / 2.0, rng.random(cols) / 2.0
    kernel = _product_kernel(_star_factor)
    whole = kernel(xi, xj)
    assert strip_sum(rows, cols, lambda r0, r1: kernel(xi[r0:r1], xj)) == comp_sum(whole)

    def strip_with_g(r0, r1):
        K = kernel(xi[r0:r1], xj)
        K -= gi[r0:r1, None]
        K -= gj[None, :]
        return K

    whole -= gi[:, None]
    whole -= gj[None, :]
    assert strip_sum(rows, cols, strip_with_g) == comp_sum(whole)


@given(st.integers(1, 300), st.integers(1, 150), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_strip_fold_equals_comp_sum_with_small_strips(rows, cols, seed):
    # 64-entry strips put several strips, and one-row strips where cols > 64,
    # into matrices small enough to try many shapes
    rng = np.random.default_rng(seed)
    # magnitudes over 24 decades: every level has errors, and their sum
    # changes with the order they are added in
    m = rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-12.0, 12.0, (rows, cols))
    saved = summation._STRIP, summation._STRIP_REST
    summation._STRIP, summation._STRIP_REST = 64, 4
    try:
        folded = strip_sum(rows, cols, lambda r0, r1: m[r0:r1].copy())
    finally:
        summation._STRIP, summation._STRIP_REST = saved
    assert folded == comp_sum(m)
