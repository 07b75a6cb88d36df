import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import summation
from disclab.exact_l2 import _product_kernel
from disclab.summation import comp_sum, exact_ratio_parts, running_sum, strip_scratch, strip_sum
from scalar_sum import KernelAccumulator
from strip_reference import strip_comp_sum


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


def _star_factor(u, v, out, tmp):
    return np.subtract(1.0, np.maximum.outer(u, v, out=out), out=out)


# ragged shapes: one strip, one row, one column, odd strips, a short last
# strip whose fold pads down to a single value, and full-width blocks; the
# 1024 x 1023 block is the last block of a 2047-point pair sum
STRIP_SHAPES = [(1, 1), (1, 1024), (1000, 1), (3, 5), (33, 7), (65, 513), (257, 1024),
                (1024, 476), (1024, 1024), (1000, 1000), (1023, 1024), (1024, 1000),
                (76, 1024), (1024, 1023)]


def _assert_strip_sum(folded, m):
    """strip_sum's value is comp_sum's, and its compensation the reference's."""
    assert folded[0] == comp_sum(m)[0]
    assert folded[1] == strip_comp_sum(m)[1]


@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("rows, cols", STRIP_SHAPES)
def test_strip_fold_equals_comp_sum_of_the_built_block(rows, cols, d):
    rng = np.random.default_rng(rows * 7919 + cols * 31 + d)
    xi, xj = rng.random((rows, d)), rng.random((cols, d))
    gi, gj = rng.random(rows) / 2.0, rng.random(cols) / 2.0
    kernel = _product_kernel(_star_factor)
    whole = kernel(xi, xj, *(np.empty((rows, cols)) for _ in range(3)))
    scratch = strip_scratch(rows, cols)
    _assert_strip_sum(strip_sum(rows, cols, lambda r0, r1, bufs: kernel(xi[r0:r1], xj, *bufs),
                                scratch), whole)

    def strip_with_g(r0, r1, bufs):
        K = kernel(xi[r0:r1], xj, *bufs)
        K -= gi[r0:r1, None]
        K -= gj[None, :]
        return K

    whole -= gi[:, None]
    whole -= gj[None, :]
    # the scratch holds the first sum's strips, errors and partial sums:
    # reusing it must not change the second
    _assert_strip_sum(strip_sum(rows, cols, strip_with_g, scratch), whole)


@pytest.mark.parametrize("rows, cols", STRIP_SHAPES)
def test_strip_sum_groups_errors_per_strip_at_full_strip_sizes(rows, cols):
    # the kernel matrices above leave errors whose sums came out the same
    # when grouped per level; magnitudes over 24 decades make them differ
    rng = np.random.default_rng(rows * 31 + cols)
    m = rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-12.0, 12.0, (rows, cols))
    _assert_strip_sum(strip_sum(rows, cols, lambda r0, r1, bufs: m[r0:r1],
                                strip_scratch(rows, cols)), m)


@given(st.integers(1, 300), st.integers(1, 150), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_strip_fold_equals_comp_sum_with_small_strips(rows, cols, seed):
    # 64-entry strips put several strips, one-row strips where cols > 64,
    # and strips that fold no level by themselves (odd spans) into matrices
    # small enough to try many shapes
    rng = np.random.default_rng(seed)
    # magnitudes over 24 decades: every level has errors, and their sum
    # changes with the order they are added in
    m = rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-12.0, 12.0, (rows, cols))

    def strip(r0, r1, bufs):  # built in the scratch, where the fold's sums go too
        assert 0 <= r0 < r1 <= rows
        bufs[0][...] = m[r0:r1]
        return bufs[0]

    saved = summation._STRIP, summation._STRIP_REST
    summation._STRIP, summation._STRIP_REST = 64, 4
    try:
        folded = strip_sum(rows, cols, strip, strip_scratch(rows, cols))
        _assert_strip_sum(folded, m)
    finally:
        summation._STRIP, summation._STRIP_REST = saved
    terms = m.ravel().tolist()
    budget = 64 * np.finfo(float).eps * math.fsum(map(abs, terms))
    assert abs((folded[0] + folded[1]) - math.fsum(terms)) <= budget


def test_strip_sum_keeps_comp_sums_sign_of_zero():
    # a strip that folded a level the whole tree does not run would pad its
    # last partial sum with +0.0, and -0.0 + 0.0 is +0.0
    for rows in range(1, 40):
        for cols in (1, 2, 3, 5, 8, 17):
            m = np.full((rows, cols), -0.0)
            scratch = strip_scratch(rows, cols)
            value = strip_sum(rows, cols, lambda r0, r1, bufs: m[r0:r1], scratch)[0]
            assert math.copysign(1.0, value) == math.copysign(1.0, comp_sum(m)[0]), (rows, cols)


def test_full_block_scratch_holds_every_smaller_block():
    # a pair sum sizes one scratch set per worker from its largest block,
    # 1024 x 1024 from 1024 points on. The set must hold the strip, a full
    # strip's level errors and the partial sums of every block the call
    # makes, 1024 x c and c x c, and of c x 1024 too
    scratch = strip_scratch(1024, 1024)
    *strips, space = (b.size for b in scratch)
    for c in range(1, 1025):
        for rows, cols in ((1024, c), (c, c), (c, 1024)):
            h, local = summation._layout(rows, cols)[:2]
            errors = sum(-(-h * cols >> level) for level in range(1, local + 1))
            assert min(strips) >= h * cols, (rows, cols)
            assert space >= errors + -(-rows * cols >> local), (rows, cols)
    rng = np.random.default_rng(5)
    for rows, cols in ((1024, 511), (1024, 615), (1024, 1023), (615, 615), (1023, 1024)):
        m = rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-12.0, 12.0, (rows, cols))
        _assert_strip_sum(strip_sum(rows, cols, lambda r0, r1, bufs: m[r0:r1], scratch), m)
    # a smaller set does not hold a larger matrix
    m = np.ones((1024, 1024))
    with pytest.raises(ValueError, match="too small"):
        strip_sum(1024, 1024, lambda r0, r1, bufs: m[r0:r1], strip_scratch(512, 512))
