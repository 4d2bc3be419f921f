"""Tests for repro.geometry.grid_index and its array sibling, cell_index."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.geometry import CellIndex, GridIndex, Point
from repro.geometry.cell_index import sorted_unique


class TestGridIndex:
    def test_rejects_bad_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex(cell_size=0)

    def test_insert_and_len(self):
        index: GridIndex[str] = GridIndex(100)
        index.insert("a", Point(0, 0))
        index.insert("b", Point(500, 500))
        assert len(index) == 2
        assert "a" in index
        assert "c" not in index

    def test_query_radius_finds_items(self):
        index: GridIndex[int] = GridIndex(100)
        index.insert(1, Point(0, 0))
        index.insert(2, Point(50, 0))
        index.insert(3, Point(1000, 0))
        assert index.query_radius(Point(0, 0), 60) == [1, 2]

    def test_query_radius_orders_by_distance(self):
        index: GridIndex[int] = GridIndex(100)
        index.insert(1, Point(90, 0))
        index.insert(2, Point(10, 0))
        assert index.query_radius(Point(0, 0), 200) == [2, 1]

    def test_query_radius_rejects_negative(self):
        index: GridIndex[int] = GridIndex(100)
        with pytest.raises(ValueError):
            index.query_radius(Point(0, 0), -1)

    def test_multi_point_items_deduplicated(self):
        index: GridIndex[str] = GridIndex(100)
        index.insert_many("road", [Point(0, 0), Point(50, 0), Point(100, 0)])
        assert index.query_radius(Point(50, 0), 200) == ["road"]

    def test_query_nearest_expands_rings(self):
        index: GridIndex[int] = GridIndex(50)
        index.insert(1, Point(1000, 1000))
        assert index.query_nearest(Point(0, 0), count=1) == [1]

    def test_query_nearest_zero_count(self):
        index: GridIndex[int] = GridIndex(50)
        index.insert(1, Point(0, 0))
        assert index.query_nearest(Point(0, 0), count=0) == []

    def test_query_nearest_empty_index(self):
        index: GridIndex[int] = GridIndex(50)
        assert index.query_nearest(Point(0, 0), count=3) == []

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-5000, 5000, allow_nan=False),
                st.floats(-5000, 5000, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(10, 2000, allow_nan=False),
    )
    def test_query_radius_matches_bruteforce(self, coords, radius):
        index: GridIndex[int] = GridIndex(250)
        points = [Point(x, y) for x, y in coords]
        for i, p in enumerate(points):
            index.insert(i, p)
        centre = Point(0, 0)
        expected = {i for i, p in enumerate(points) if centre.distance_to(p) <= radius}
        assert set(index.query_radius(centre, radius)) == expected


def _per_cell_box(items, cell_size: float, center: Point, radius: float) -> list[int]:
    """The box answer from a dict of per-cell sets, walked cell by cell:
    the oracle for the array index."""
    def cell(x: float, y: float) -> tuple[int, int]:
        return math.floor(x / cell_size), math.floor(y / cell_size)

    cells: dict[tuple[int, int], set[int]] = {}
    for item, x, y in items:
        cells.setdefault(cell(x, y), set()).add(item)
    lo_x, lo_y = cell(center.x - radius, center.y - radius)
    hi_x, hi_y = cell(center.x + radius, center.y + radius)
    found: set[int] = set()
    for cx in range(lo_x, hi_x + 1):
        for cy in range(lo_y, hi_y + 1):
            found |= cells.get((cx, cy), set())
    return sorted(found)


def _cell_index(items, cell_size: float = 100.0) -> CellIndex:
    return CellIndex(
        np.array([x for _, x, _ in items], dtype=np.float64),
        np.array([y for _, _, y in items], dtype=np.float64),
        np.array([item for item, _, _ in items], dtype=np.int64),
        cell_size,
    )


class TestBoxOrder:
    """The array index answers a box with every item registered in a cell
    the box meets, each once, in ascending id order — whatever order the
    items were registered in."""

    # Radius 0 meets one cell; 10 km covers every grid below.
    RADII = (0.0, 150.0, 400.0, 10_000.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([k * 2**20 + k % 3 for k in range(1, 40)]),
                st.floats(-1000, 1000, allow_nan=False),
                st.floats(-1000, 1000, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        ),
        st.lists(
            st.tuples(
                st.floats(-1200, 1200, allow_nan=False),
                st.floats(-1200, 1200, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    def test_box_equals_the_sorted_per_cell_walk(self, items, centers, rnd):
        index = _cell_index(items)
        shuffled = list(items)
        rnd.shuffle(shuffled)
        reordered = _cell_index(shuffled)
        xs = np.array([x for x, _ in centers])
        ys = np.array([y for _, y in centers])
        for radius in self.RADII:
            expected = [_per_cell_box(items, 100.0, Point(x, y), radius) for x, y in centers]
            for built in (index, reordered):
                owner, ids, covers = built.boxes(xs, ys, radius)
                assert [ids[owner == i].tolist() for i in range(len(centers))] == expected
                every = sorted({item for item, _, _ in items})
                for i in np.flatnonzero(covers):
                    assert expected[i] == every

    def test_box_holds_every_item_within_radius(self):
        items = [(i, i * 37.0, i * 11.0) for i in range(20)]
        centre = Point(200, 60)
        _, ids, covers = _cell_index(items).boxes(
            np.array([centre.x]), np.array([centre.y]), 150
        )
        exact = {i for i, x, y in items if centre.distance_to(Point(x, y)) <= 150}
        assert exact <= set(ids.tolist())
        assert not covers[0]

    def test_empty_index(self):
        index = _cell_index([])
        owner, ids, covers = index.boxes(np.array([0.0]), np.array([0.0]), math.inf)
        assert owner.size == ids.size == 0 and covers.tolist() == [True]
        with pytest.raises(ValueError):
            CellIndex(np.empty(0), np.empty(0), np.empty(0), cell_size=0)


class TestSortedUnique:
    """``sorted_unique`` gives exactly ``np.unique``'s answer (and inverse)."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            # Empty, all-duplicate and short inputs over a narrow range ...
            hnp.arrays(np.int64, st.integers(0, 40), elements=st.integers(-3, 3)),
            # ... and ids near the int64 limits.
            hnp.arrays(
                np.int64, st.integers(0, 40),
                elements=st.integers(-(2**63), 2**63 - 1),
            ),
            hnp.arrays(np.float64, st.integers(0, 40), elements=st.floats(-1e300, 1e300)),
        )
    )
    def test_equals_np_unique(self, values):
        want = np.unique(values)
        got = sorted_unique(values)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        want, want_inverse = np.unique(values, return_inverse=True)
        got, got_inverse = sorted_unique(values, return_inverse=True)
        np.testing.assert_array_equal(got, want)
        assert got_inverse.dtype == want_inverse.dtype
        np.testing.assert_array_equal(got_inverse, want_inverse)
