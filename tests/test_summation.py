import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import summation
from disclab.exact_l2 import _product_kernel
from disclab.summation import comp_sum, exact_ratio_parts, running_sum, strip_scratch, strip_sum
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


def _star_factor(u, v, out, tmp):
    return np.subtract(1.0, np.maximum.outer(u, v, out=out), out=out)


# ragged shapes: one strip, one row, one column, odd strips, a short last
# strip whose fold pads down to a single value, and full-width blocks; in
# the 1000- and 1023-column shapes numpy's pairwise splits of a level fall
# inside strips, and the level buffers fill several times
STRIP_SHAPES = [(1, 1), (1, 1024), (1000, 1), (3, 5), (33, 7), (65, 513), (257, 1024),
                (1024, 476), (1024, 1024), (1000, 1000), (1023, 1024), (1024, 1000),
                (76, 1024)]


@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("rows, cols", STRIP_SHAPES)
def test_strip_fold_equals_comp_sum_of_the_built_block(rows, cols, d):
    rng = np.random.default_rng(rows * 7919 + cols * 31 + d)
    xi, xj = rng.random((rows, d)), rng.random((cols, d))
    gi, gj = rng.random(rows) / 2.0, rng.random(cols) / 2.0
    kernel = _product_kernel(_star_factor)
    whole = kernel(xi, xj, *(np.empty((rows, cols)) for _ in range(3)))
    scratch = strip_scratch(rows, cols)
    assert strip_sum(rows, cols, lambda r0, r1, bufs: kernel(xi[r0:r1], xj, *bufs),
                     scratch) == comp_sum(whole)

    def strip_with_g(r0, r1, bufs):
        K = kernel(xi[r0:r1], xj, *bufs)
        K -= gi[r0:r1, None]
        K -= gj[None, :]
        return K

    whole -= gi[:, None]
    whole -= gj[None, :]
    # the scratch holds the first sum's strips and fold levels: reusing it
    # must not change the second
    assert strip_sum(rows, cols, strip_with_g, scratch) == comp_sum(whole)


@given(st.integers(1, 300), st.integers(1, 150), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_strip_fold_equals_comp_sum_with_small_strips(rows, cols, seed):
    # 64-entry strips put several strips, and one-row strips where cols > 64,
    # into matrices small enough to try many shapes
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
    finally:
        summation._STRIP, summation._STRIP_REST = saved
    assert folded == comp_sum(m)


def test_full_block_scratch_holds_every_smaller_block():
    # one 1024 x 1024 scratch set serves every block of a pair sum; a matrix
    # needs the most level space at its most rows, so 1024 rows of each
    # width cover every smaller block
    space = strip_scratch(1024, 1024)[3].size
    for cols in range(1, 1025):
        _, caps, m = summation._levels(1024, cols)
        assert sum(caps) + m <= space, cols
    # a narrower set need not hold a matrix with no larger strips: 511
    # columns fold one level less than 512 before the partial sums
    m = np.ones((1024, 511))
    with pytest.raises(ValueError, match="too small"):
        strip_sum(1024, 511, lambda r0, r1, bufs: m[r0:r1], strip_scratch(1024, 512))


def _level_sum_of_pieces(a, pieces, held):
    """a summed by a `_LevelSum` whose buffer holds _LEAF entries plus held
    of the largest piece, fed in pieces whose sizes cycle through `pieces`."""
    buf = np.empty(min(a.size, summation._LEAF + held * max(pieces)))
    level, i, sizes = summation._LevelSum(buf, a.size), 0, itertools.cycle(pieces)
    while i < a.size:
        slot = level.take(next(sizes))
        slot[...] = a[i : i + slot.size]
        i += slot.size
    return level.total()


@given(st.integers(1, 5000), st.lists(st.integers(1, 300), min_size=1, max_size=5),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_level_sum_follows_numpys_pairwise_rule(size, pieces, held, seed):
    # the streamed sum relies on numpy summing contiguous float64 as
    # 0.0 + pw(a), with pw splitting spans longer than 128 at
    # n//2 - (n//2) % 8: a numpy release that changes that rule fails here
    rng = np.random.default_rng(seed)
    a = rng.normal(size=size) * 10.0 ** rng.uniform(-12.0, 12.0, size)
    a[rng.random(size) < 0.1] = 0.0
    a[rng.random(size) < 0.1] = -0.0
    assert _bits(_level_sum_of_pieces(a, pieces, held)) == _bits(np.sum(a))


@pytest.mark.parametrize("size", [1, 7, 8, 127, 128, 129, 136, 1000, 4099])
@pytest.mark.parametrize("pieces", [[1], [3, 1, 64], [128]])
def test_level_sum_of_signed_zeros_and_short_levels(size, pieces):
    # one-entry pieces, levels of a single leaf, and levels of zeros whose
    # node sums lose a zero's sign
    for a in (np.full(size, -0.0), np.arange(size) % 3 - 1.0, -np.arange(size, dtype=float)):
        assert _bits(_level_sum_of_pieces(a, pieces, 1)) == _bits(np.sum(a))
