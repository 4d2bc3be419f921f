"""Tests for repro.geometry.grid_index."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import GridIndex, Point


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

    def test_items_in_box_is_superset_of_radius(self):
        index: GridIndex[int] = GridIndex(100)
        for i in range(20):
            index.insert(i, Point(i * 37.0, i * 11.0))
        centre = Point(200, 60)
        exact = set(index.query_radius(centre, 150))
        box = index.items_in_box(centre, 150)
        assert exact <= box

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


def _per_cell_box(index: GridIndex, center: Point, radius: float) -> set:
    """The box answer built one ``set.update`` per cell, then copied the way
    ``items_in_box`` copies: the iteration-order oracle for both branches."""
    size = index.cell_size
    lo_x = math.floor((center.x - radius) / size)
    hi_x = math.floor((center.x + radius) / size)
    lo_y = math.floor((center.y - radius) / size)
    hi_y = math.floor((center.y + radius) / size)
    found: set = set()
    if (hi_x - lo_x + 1) * (hi_y - lo_y + 1) > len(index._cells):
        for (cx, cy), cell in index._cells.items():
            if lo_x <= cx <= hi_x and lo_y <= cy <= hi_y:
                found.update(cell)
    else:
        for cx in range(lo_x, hi_x + 1):
            for cy in range(lo_y, hi_y + 1):
                cell = index._cells.get((cx, cy))
                if cell:
                    found.update(cell)
    return set(found)


class TestBoxOrder:
    """Candidate retrieval sorts box answers stably, so equal-distance roads
    come out in set-iteration order: the box sets must keep the order the
    per-cell walk gives.  Large integer ids collide in small hash tables,
    so that order depends on how each set was built."""

    # Radius 0 is always the small-box walk (one cell, at least one
    # occupied); 10 km is always the large-box scan (more cells than any
    # grid below occupies).
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
    )
    def test_box_sets_keep_the_per_cell_order(self, items, centers):
        index: GridIndex[int] = GridIndex(100)
        for item, x, y in items:
            index.insert(item, Point(x, y))
        centers = [Point(x, y) for x, y in centers]
        for radius in self.RADII:
            singles = [list(index.items_in_box(c, radius)) for c in centers]
            assert singles == [list(_per_cell_box(index, c, radius)) for c in centers]
            assert [list(box) for box in index.items_in_boxes(centers, radius)] == singles
