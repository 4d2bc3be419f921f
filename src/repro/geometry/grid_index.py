"""A uniform-grid spatial index over point-locatable items.

Cell towers answer "which towers are near this point?" from a uniform grid
keyed by cell coordinates: O(1) insertion and near-O(result) range queries,
simpler and faster at city scale than tree indexes for the densities we
generate.  (Road segments use the array-backed
:class:`~repro.geometry.cell_index.CellIndex` instead.)
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import product
from typing import Generic, Hashable, Iterable, TypeVar

from repro.geometry.point import Point, euclidean

T = TypeVar("T", bound=Hashable)


class GridIndex(Generic[T]):
    """Spatial hash of items addressed by representative points.

    An item may be registered under several points (e.g. a road segment under
    each of its polyline vertices) — queries de-duplicate results.
    """

    def __init__(self, cell_size: float = 250.0) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self._cells: dict[tuple[int, int], set[T]] = defaultdict(set)
        self._locations: dict[T, list[Point]] = defaultdict(list)

    def _cell_of(self, p: Point) -> tuple[int, int]:
        return (math.floor(p.x / self.cell_size), math.floor(p.y / self.cell_size))

    def insert(self, item: T, point: Point) -> None:
        """Register ``item`` as present at ``point``."""
        self._cells[self._cell_of(point)].add(item)
        self._locations[item].append(point)

    def insert_many(self, item: T, points: Iterable[Point]) -> None:
        """Register ``item`` at several representative points."""
        for point in points:
            self.insert(item, point)

    def __len__(self) -> int:
        return len(self._locations)

    def __contains__(self, item: T) -> bool:
        return item in self._locations

    def query_radius(self, center: Point, radius: float) -> list[T]:
        """Items with at least one representative point within ``radius``.

        The result is ordered by the distance of the closest representative
        point, nearest first.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        candidates = self._candidates_in_box(center, radius)
        hits: list[tuple[float, T]] = []
        for item in candidates:
            dist = min(euclidean(center, p) for p in self._locations[item])
            if dist <= radius:
                hits.append((dist, item))
        hits.sort(key=lambda pair: pair[0])
        return [item for _, item in hits]

    def query_nearest(self, center: Point, count: int = 1, max_radius: float = math.inf) -> list[T]:
        """The ``count`` items nearest ``center`` (by representative point).

        Expands the search ring by ring so that dense regions do not pay for
        a whole-index scan.  Returns fewer than ``count`` items only when the
        index (within ``max_radius``) is exhausted.
        """
        if count <= 0 or not self._cells:
            return []
        # Once the ring covers the whole occupied extent, a bigger radius
        # cannot find anything new — stop there.
        exhausted_at = self._extent_radius(center)
        radius = self.cell_size
        while True:
            effective = min(radius, max_radius)
            hits = self.query_radius(center, effective)
            if len(hits) >= count or effective >= max_radius or radius >= exhausted_at:
                return hits[:count]
            radius *= 2.0

    def _extent_radius(self, center: Point) -> float:
        """A radius guaranteed to cover every occupied cell from ``center``."""
        xs = [cx for cx, _ in self._cells]
        ys = [cy for _, cy in self._cells]
        far_x = max(
            abs(min(xs) * self.cell_size - center.x),
            abs((max(xs) + 1) * self.cell_size - center.x),
        )
        far_y = max(
            abs(min(ys) * self.cell_size - center.y),
            abs((max(ys) + 1) * self.cell_size - center.y),
        )
        return math.hypot(far_x, far_y) + self.cell_size

    def _candidates_in_box(self, center: Point, radius: float) -> set[T]:
        lo_x = math.floor((center.x - radius) / self.cell_size)
        hi_x = math.floor((center.x + radius) / self.cell_size)
        lo_y = math.floor((center.y - radius) / self.cell_size)
        hi_y = math.floor((center.y + radius) / self.cell_size)
        found: set[T] = set()
        if (hi_x - lo_x + 1) * (hi_y - lo_y + 1) > len(self._cells):
            # Large box: scanning the occupied cells beats walking the box.
            found.update(
                *(
                    cell
                    for (cx, cy), cell in self._cells.items()
                    if lo_x <= cx <= hi_x and lo_y <= cy <= hi_y
                )
            )
            return found
        # filter() drops missing (None) and empty cells.
        cells = map(
            self._cells.get, product(range(lo_x, hi_x + 1), range(lo_y, hi_y + 1))
        )
        found.update(*filter(None, cells))
        return found
