import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import (
    Box,
    CoordinateError,
    DimensionMismatchError,
    EmptyPointSetError,
    PeriodicBox,
    PointSet,
    count_points,
    local_discrepancy,
    read_points,
    star_l2,
    write_points,
)
from disclab import pointsets
from disclab.pointsets import _count_in_boxes

# dyadic coordinates are exactly representable, which keeps expected values exact
coord = st.integers(0, 2**20 - 1).map(lambda j: j / 2**20)


def pts(*rows):
    return PointSet(np.atleast_2d(np.asarray(rows, dtype=float)))


def test_count_half_open_boundary():
    assert count_points(pts([0.5]), Box(np.array([0.0]), np.array([0.5]))) == 0


def test_count_full_box():
    assert count_points(pts([0.0], [0.5]), Box(np.array([0.0]), np.array([1.0]))) == 2


def test_count_vdc_prefix_window():
    p = pts([0.0], [0.5], [0.25], [0.75])
    assert count_points(p, Box(np.array([0.25]), np.array([0.75]))) == 2


def test_local_discrepancy_trivial_cases():
    assert local_discrepancy(pts([0.5]), Box(np.array([0.0]), np.array([1.0]))) == 0.0
    assert local_discrepancy(pts([0.0], [0.5]), Box(np.array([0.0]), np.array([0.5]))) == 0.0


def test_periodic_wraparound_membership_and_volume():
    box = PeriodicBox(np.array([0.75]), np.array([0.25]))
    assert box.volume() == pytest.approx(0.5)
    assert count_points(pts([0.25]), box) == 0
    assert local_discrepancy(pts([0.25]), box) == pytest.approx(-0.5)
    assert count_points(pts([0.1]), box) == 1
    assert count_points(pts([0.8]), box) == 1


def test_periodic_full_cube_is_full():
    box = PeriodicBox(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert box.volume() == pytest.approx(1.0)
    assert count_points(pts([0.3, 0.9]), box) == 1


def test_periodic_degenerate_is_empty():
    box = PeriodicBox(np.array([0.4]), np.array([0.4]))
    assert box.volume() == 0.0
    assert count_points(pts([0.4]), box) == 0


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        count_points(pts([0.1, 0.2]), Box(np.array([0.0]), np.array([1.0])))


def test_empty_set_rejected_by_discrepancy():
    empty = PointSet(np.empty((0, 1)))
    with pytest.raises(EmptyPointSetError):
        star_l2(empty)


def test_coordinate_validation():
    with pytest.raises(CoordinateError):
        PointSet(np.array([[1.0]]))
    with pytest.raises(CoordinateError):
        PointSet(np.array([[-0.1]]))
    with pytest.raises(CoordinateError):
        Box(np.array([0.5]), np.array([0.4]))


def test_coords_frozen():
    p = pts([0.25])
    with pytest.raises(ValueError):
        p.coords[0, 0] = 0.5


@given(
    st.lists(st.tuples(coord, coord), min_size=1, max_size=20),
    st.tuples(coord, coord),
    st.tuples(coord, coord),
)
@settings(max_examples=150)
def test_local_discrepancy_is_count_minus_volume(rows, a, b):
    p = pts(*[list(r) for r in rows])
    u = np.minimum(a, b).astype(float)
    v = np.maximum(a, b).astype(float)
    box = Box(u, v)
    assert local_discrepancy(p, box) == count_points(p, box) - p.n * box.volume()
    assert -p.n <= local_discrepancy(p, box) <= p.n


@given(
    st.lists(st.tuples(coord, coord), min_size=1, max_size=20),
    st.tuples(coord, coord),
    st.tuples(coord, coord),
    st.tuples(coord, coord),
)
@settings(max_examples=150)
def test_count_monotone_under_box_inclusion(rows, a, b, c):
    p = pts(*[list(r) for r in rows])
    lo = np.minimum.reduce([np.asarray(a), np.asarray(b), np.asarray(c)])
    hi = np.maximum.reduce([np.asarray(a), np.asarray(b), np.asarray(c)])
    mid_lo = np.minimum(np.maximum(np.asarray(a), lo), hi)
    mid_hi = np.maximum(np.minimum(np.asarray(b), hi), mid_lo)
    inner = Box(mid_lo.astype(float), mid_hi.astype(float))
    outer = Box(lo.astype(float), hi.astype(float))
    assert count_points(p, inner) <= count_points(p, outer)


def _count_by_definition(x, lo, hi):
    """Per point, box and coordinate: x < hi when anchored, lo <= x < hi when
    lo <= hi, x < hi or x >= lo when the box wraps; x and the corners are
    1-d (d = 1) or have one row per point or box."""
    x, hi = x.reshape(len(x), -1), hi.reshape(len(hi), -1)
    lo = None if lo is None else lo.reshape(hi.shape)

    def inside(v, b, j):
        if lo is None:
            return v < hi[b, j]
        if lo[b, j] <= hi[b, j]:
            return lo[b, j] <= v < hi[b, j]
        return v < hi[b, j] or v >= lo[b, j]

    return [
        sum(all(inside(v[j], b, j) for j in range(x.shape[1])) for v in x)
        for b in range(hi.shape[0])
    ]


# Coordinate sets that stress the rank table (`pointsets._rank`): dyadic
# points with duplicates; many distinct values inside one bucket; values on
# bucket edges b / B (multiples of 1/4 for every table size B here, of 1/32
# for B >= 32) and their floating-point neighbours; a single point.
_EDGES = np.array([0, 8, 16, 24, 1, 5, 5, 31]) / 32
_RANK_SETS = {
    "dyadic": np.array([0, 1, 1, 3, 4, 4, 7, 5]) / 8,
    "one-bucket": 0.25 + np.array([0, 3, 1, 7, 2, 2, 9, 6, 5, 4]) * 1e-12,
    "bucket-edges": np.concatenate(
        (_EDGES, np.nextafter(_EDGES[1:], 0.0), np.nextafter(_EDGES, 1.0))
    ),
    "single": np.array([0.375]),
}


def _corners_of(x):
    """0, 1, a coarse grid, every point value and both its neighbours."""
    near = np.concatenate((x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)))
    return np.unique(np.concatenate((np.arange(5) / 4, near)))


def test_box_count_d1_fast_path_matches_mask_path_on_box_corners(monkeypatch):
    # every box corner is 0, 1, a point value or one of its neighbours, so
    # each boundary rule is exercised exactly
    for name, x in _RANK_SETS.items():
        corners = _corners_of(x)
        lo, hi = (c.ravel() for c in np.meshgrid(corners, corners, indexing="ij"))
        assert np.any(lo < hi) and np.any(lo == hi) and np.any(lo > hi)
        # the same set embedded as (x, 0), with [0, 1) as the box in coordinate two
        x2 = np.column_stack([x, np.zeros_like(x)])
        lo2 = np.column_stack([lo, np.zeros_like(lo)])
        hi2 = np.column_stack([hi, np.ones_like(hi)])
        for corner, corner2 in ((None, None), (lo, lo2)):
            fast = _count_in_boxes(x[:, None], None if corner is None else corner[:, None],
                                   hi[:, None])
            bitset = _count_in_boxes(x2, corner2, hi2)
            want = _count_by_definition(x, corner, hi)
            assert fast.tolist() == bitset.tolist() == want, name
        # a genuine d = 2 batch: the second coordinate pairs every corner pair
        # with another one, so anchored, ordered, empty and wrapped boxes mix
        # across coordinates; with a budget of 7 words (one word per box
        # here) the last row block is ragged, and groups of 3 points leave a
        # ragged last group
        xy = np.column_stack([x, x[::-1]])
        lo_b = np.column_stack([lo, np.roll(lo, 7)])
        hi_b = np.column_stack([hi, np.roll(hi, 7)])
        assert np.any(lo_b[:, 0] > hi_b[:, 0]) and np.any(lo_b[:, 1] > hi_b[:, 1])
        for corner in (None, lo_b):
            want = _count_by_definition(xy, corner, hi_b)
            assert _count_in_boxes(xy, corner, hi_b).tolist() == want, name
            with monkeypatch.context() as mp:
                mp.setattr(pointsets, "_BLOCK_WORDS", 7)
                mp.setattr(pointsets, "_POINT_GROUP", 3)
                assert hi_b.shape[0] % pointsets._BLOCK_WORDS != 0
                assert xy.shape[0] % pointsets._POINT_GROUP != 0
                assert _count_in_boxes(xy, corner, hi_b).tolist() == want, name


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "limits",
    [
        {},  # one group of 150 points: 3 words, the last one with padding bits
        {"_POINT_GROUP": 64, "_BLOCK_WORDS": 7},  # groups 64, 64, 22; blocks 7 x 5 + 5
        {"_TABLE_WORDS": 1, "_BLOCK_WORDS": 3},  # the table budget alone caps a group at 64
    ],
)
def test_bitset_box_count_matches_definition(monkeypatch, d, limits):
    # coordinates on a grid of sixteenths (duplicates), inside one rank-table
    # bucket, on bucket edges and their neighbours, and a single point;
    # corners on the grid, at 0 and 1, on point values and next to them, with
    # boxes that are empty (lo == hi), ordered or wrapped, with wraps in every
    # coordinate
    rng = np.random.default_rng(d)
    grid = rng.integers(0, 16, (150, d)) / 16
    one_bucket = 0.25 + rng.integers(0, 150, (150, d)) * 1e-12
    edges = rng.integers(0, 32, (150, d)) / 32
    edges = np.nextafter(edges, rng.choice([0.0, 1.0], (150, d)))
    edges[::3] = rng.integers(0, 32, (50, d)) / 32
    for k, v in limits.items():
        monkeypatch.setattr(pointsets, k, v)
    for x in (grid, one_bucket, edges, grid[:1]):
        a = rng.integers(0, 17, (40, d)) / 16
        b = rng.integers(0, 17, (40, d)) / 16
        rows = rng.integers(0, len(x), 12)
        a[4:8], a[8:12], b[12:16] = x[rows[:4]], np.nextafter(x[rows[4:8]], 0.0), x[rows[8:]]
        b[:4, d - 1] = a[:4, d - 1]
        assert np.all(np.any(a > b, axis=0)) and np.any(a == b)
        for lo, hi in ((None, a), (np.minimum(a, b), np.maximum(a, b)), (a, b)):
            got = _count_in_boxes(x, lo, hi)
            assert got.tolist() == _count_by_definition(x, lo, hi)


@given(
    st.lists(st.one_of(coord, st.floats(0.0, 1.0, exclude_max=True),
                       st.integers(0, 15).map(lambda k: 0.5 + k * 1e-15)), max_size=40),
    st.lists(st.one_of(coord, st.floats(0.0, 1.0), st.just(1.0)), min_size=1, max_size=40),
)
@settings(max_examples=200)
def test_rank_table_equals_searchsorted(xs, ts):
    xs, ts = np.sort(np.array(xs, dtype=float)), np.array(ts + xs, dtype=float)
    ts = np.concatenate((ts, np.nextafter(ts, 0.0), np.nextafter(ts, 1.0)))
    got = pointsets._rank(pointsets._rank_table(xs), ts)
    assert got.tolist() == np.searchsorted(xs, ts, side="left").tolist()


def test_empty_box_at_point_coordinate():
    # u == v with no point exactly on u: empty half-open box, zero discrepancy
    p = pts([0.25])
    box = Box(np.array([0.5]), np.array([0.5]))
    assert local_discrepancy(p, box) == 0.0


def test_csv_round_trip():
    p = pts([0.0, 0.5], [0.25, 0.75])
    buf = io.StringIO()
    write_points(p, buf)
    back = read_points(io.StringIO(buf.getvalue()))
    assert back.d == 2 and back.n == 2
    np.testing.assert_array_equal(back.coords, p.coords)


def test_csv_rejects_out_of_range():
    with pytest.raises(CoordinateError, match="row 2"):
        read_points(io.StringIO("0.5\n1.0\n"))


def test_csv_rejects_garbage():
    with pytest.raises(CoordinateError, match="row 1"):
        read_points(io.StringIO("abc\n"))


def test_csv_header_mismatch():
    with pytest.raises(CoordinateError, match="header"):
        read_points(io.StringIO("# d=3 n=1\n0.5,0.5\n"))


@pytest.mark.parametrize("body, error", [("0.5\n0.25\n", None), ("0.5\n1.5\n", CoordinateError)])
def test_read_points_closes_a_file_it_opened(tmp_path, monkeypatch, body, error):
    path = tmp_path / "points.csv"
    path.write_text(body, encoding="utf-8")
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(pointsets, "open", recording_open, raising=False)
    if error is None:
        assert read_points(str(path)).n == 2
    else:
        with pytest.raises(error, match="row 2"):
            read_points(str(path))
    assert len(opened) == 1 and opened[0].closed


def test_read_points_leaves_a_caller_stream_open():
    buf = io.StringIO("0.5\n")
    assert read_points(buf).n == 1
    assert not buf.closed


def test_csv_empty_with_header():
    p = read_points(io.StringIO("# d=4 n=0\n"))
    assert p.n == 0 and p.d == 4


def test_periodic_box_corner_validation():
    with pytest.raises(CoordinateError):
        PeriodicBox(np.array([-0.1]), np.array([0.5]))
    with pytest.raises(CoordinateError):
        PeriodicBox(np.array([0.1]), np.array([1.5]))
    PeriodicBox(np.array([0.9]), np.array([0.1]))  # unordered corners are fine


@pytest.mark.parametrize("cls", [Box, PeriodicBox])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("corner", ["u", "v"])
def test_box_refuses_non_finite_corners(cls, bad, corner):
    # a NaN corner used to pass the range check and count -4 points
    corners = {"u": np.array([0.25, 0.0]), "v": np.array([0.5, 1.0])}
    corners[corner][1] = bad
    with pytest.raises(CoordinateError, match="finite"):
        cls(corners["u"], corners["v"])


def test_box_is_the_periodic_box_with_ordered_corners():
    box = Box(np.array([0.1, 0.2]), np.array([0.5, 0.9]))
    assert isinstance(box, PeriodicBox)
    assert box.volume() == float(np.prod(box.v - box.u))


def test_estimate_stderr_tied_to_method():
    from disclab import Estimate

    with pytest.raises(ValueError):
        Estimate("star", 2.0, 0.5, "exact-closed-form", 1, 1, stderr=0.01)
    with pytest.raises(ValueError):
        Estimate("star", 2.0, 0.5, "monte-carlo", 1, 1, stderr=None)
    with pytest.raises(ValueError):
        Estimate("star", 2.0, -0.5, "exact-closed-form", 1, 1)
    Estimate("star", 2.0, 0.5, "monte-carlo", 1, 1, stderr=0.01, samples=1000, seed=3)


def test_point_sets_and_boxes_compare_and_hash_by_identity():
    made = [
        lambda: PointSet(np.array([[0.1, 0.2], [0.3, 0.4]])),
        lambda: Box([0.1, 0.2], [0.5, 0.9]),
        lambda: PeriodicBox([0.5, 0.2], [0.1, 0.9]),
    ]
    for make in made:
        a, b = make(), make()
        assert a == a and hash(a) == hash(a)
        assert a != b
        assert len({a, b, a}) == 2
