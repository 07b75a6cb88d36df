"""The Monte Carlo chunk kernel against its row-major reference
(`box_count_reference`): the same box counts and the same (sum y, sum y^2),
bit for bit, for every kind, at the bitset word and point-group edges, on
tied and wrapped corners, and on sample ranges that do not align with the
sub-blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import box_count_reference as ref
from disclab import lp_oracle, pointsets, uniform01
from disclab.pointsets import _count_in_boxes

KINDS = ("star", "extreme", "periodic")
PS = (1.0, 1.5, 2.0, 3.0)
# one point; one bitset word full, one short of full and one past it
SMALL_NS = (1, 2, 63, 64, 65, 200)
# one point group full, one short of full and one point past it
GROUP_NS = (4095, 4096, 4097)


def _points(family: str, n: int, d: int, seed: int) -> np.ndarray:
    """Seeded uniform points, or dyadic eighths with many ties."""
    if family == "dyadic":
        return np.random.default_rng(seed).integers(0, 8, (n, d)) / 8
    return uniform01(seed, 0, n * d).reshape(n, d)


def _outcome(fn, *args):
    """The moments, or the type of the error they raise."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc)


def _assert_same_moments(x, kind, p, seed, start, count):
    want = _outcome(ref._chunk_moments, x, kind, p, seed, start, count)
    assert _outcome(lp_oracle._chunk_moments, x, kind, p, seed, start, count) == want


@given(
    st.sampled_from(KINDS),
    st.sampled_from([1, 2, 3, 4, 5, 6]),
    st.sampled_from(SMALL_NS),
    st.sampled_from(["random", "dyadic"]),
    st.sampled_from(PS),
    st.integers(0, 2**64 - 1),
    st.integers(0, 10**6),
    st.integers(1, 3000),
)
@settings(max_examples=80, deadline=None)
def test_chunk_moments_equal_row_major_reference_bits(kind, d, n, family, p, seed, start, count):
    x = _points(family, n, d, seed % 1000)
    _assert_same_moments(x, kind, p, seed, start, count)


@pytest.mark.parametrize("n", GROUP_NS)
@pytest.mark.parametrize("d", [2, 3])
def test_chunk_moments_bits_at_point_group_edges(n, d):
    # 3001 samples from an odd start: six row blocks of 512 boxes, the last
    # one ragged; n = 4097 adds a group of one point
    x = _points("random", n, d, n + d)
    for kind, p in zip(KINDS, (1.5, 2.0, 3.0)):
        _assert_same_moments(x, kind, p, 11, 70001, 3001)


@pytest.mark.parametrize("kind", KINDS)
def test_chunk_moments_bits_when_sub_blocks_split_a_chunk(kind):
    # d = 8: a two-corner sample takes 16 uniforms, so 40000 samples are a
    # sub-block of 2^15 and a ragged one of 7232
    x = _points("random", 65, 8, 3)
    _assert_same_moments(x, kind, 1.5, 5, 12345, 40000)


@pytest.mark.parametrize("kind", KINDS)
def test_chunk_moments_bits_with_tiny_sub_blocks(monkeypatch, kind):
    # 7 uniforms per sub-block: one sample each, except star in d = 3, which
    # takes two (the last one alone)
    monkeypatch.setattr(lp_oracle, "_DRAW_WORDS", 7)
    for d in (3, 4):
        x = _points("dyadic", 64, d, d)
        _assert_same_moments(x, kind, 2.0, 9, 3, 101)


def test_chunk_moments_overflow_raises_as_the_reference_does():
    # |D|^400 leaves the double range once |D| > 5.9
    x = _points("random", 64, 2, 1)
    for kind in KINDS:
        want = _outcome(ref._chunk_moments, x, kind, 400.0, 1, 0, 500)
        assert want is FloatingPointError
        assert _outcome(lp_oracle._chunk_moments, x, kind, 400.0, 1, 0, 500) == want


def _corner_pairs(x: np.ndarray, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """m corner pairs: uniforms, point values (ties), their float
    neighbours, dyadic eighths, 0 and 1, in both orders per coordinate."""
    rng = np.random.default_rng(seed)
    d = x.shape[1]
    pool = np.concatenate((
        rng.random(m), x.ravel(), np.nextafter(x.ravel(), 0.0),
        np.nextafter(x.ravel(), 1.0), np.arange(9) / 8,
    ))
    a, b = rng.choice(pool, (m, d)), rng.choice(pool, (m, d))
    a[:3], b[:3] = 0.0, 1.0  # the full box
    a[3:6], b[3:6] = 1.0, 0.0  # periodic: every coordinate wraps, the box is empty
    b[6:9] = a[6:9]  # empty boxes, lo == hi
    return a, b


@pytest.mark.parametrize("n", (1, 63, 64, 65, 4095, 4097))
@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("family", ["random", "dyadic"])
def test_box_counts_equal_row_major_reference(n, d, family):
    x = _points(family, n, d, 7 * n + d)
    a, b = _corner_pairs(x, 1500, n + d)
    assert np.any(a > b) and np.any(a == b)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    for corners in ((None, a), (lo, hi), (a, b)):
        want = ref._count_in_boxes(x, *corners).tolist()
        assert _count_in_boxes(x, *corners).tolist() == want
        # the oracle passes Fortran-ordered corners; the counts are the same
        f = tuple(None if c is None else np.asfortranarray(c) for c in corners)
        assert _count_in_boxes(x, *f).tolist() == want


def test_full_group_count_fits_the_popcount_sum():
    # the einsum that adds a box's popcounts accumulates in uint16
    assert pointsets._POINT_GROUP < 1 << 16
    x = _points("uniform", 4097, 2, 5)
    hi = np.ones((3, 2))
    assert _count_in_boxes(x, None, hi).tolist() == [4097] * 3
    assert _count_in_boxes(x, np.zeros((3, 2)), hi).tolist() == [4097] * 3


def test_box_counts_equal_reference_with_wide_and_narrow_rows():
    # bitset rows of 1, 5 and 64 words, the full width of one point group
    for n in (60, 300, 4096):
        x = _points("dyadic", n, 3, 2)
        a, b = _corner_pairs(x, 700, 2)
        assert _count_in_boxes(x, a, b).tolist() == ref._count_in_boxes(x, a, b).tolist()
