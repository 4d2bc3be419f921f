"""Sorted-cell arrays answering many box queries at once.

Road candidate retrieval asks, for hundreds of query positions at a time,
"which segments have a sample point inside this axis-aligned box?".  A
:class:`CellIndex` holds the answer in three arrays instead of a dict of
Python sets: the occupied cells' keys in sorted order, each cell's start
into a flat id array, and that id array.  Keys sort cell column (``cx``)
major, so the cells of one box column are one contiguous key range and
their ids one contiguous slice: a box costs one ``searchsorted`` pair per
column, and a batch of boxes one call over all their columns.
"""

from __future__ import annotations

import numpy as np


def ragged_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + count)`` per element, loop-free.

    Counts must be non-negative; a zero count contributes nothing.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shift = np.asarray(starts, dtype=np.int64) - (np.cumsum(counts) - counts)
    return np.repeat(shift, counts) + np.arange(total, dtype=np.int64)


def _first_of_runs(values: np.ndarray) -> np.ndarray:
    """Mask of the elements that differ from their predecessor.

    On a sorted array this marks each distinct value once: the job of
    ``np.unique``, which NumPy 2 answers with a hash table many times
    slower than this pass on the sorted int64 keys here.
    """
    fresh = np.ones(values.shape[0], dtype=bool)
    np.not_equal(values[1:], values[:-1], out=fresh[1:])
    return fresh


def sorted_unique(
    values: np.ndarray, return_inverse: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """``np.unique`` of a 1-D array by sort and mask, with the same output.

    Many times faster than NumPy 2's hash-table ``np.unique`` on int64
    ids (see :func:`_first_of_runs`).  With ``return_inverse``, also the index of each input in the unique
    array, so ``unique[inverse] == values``.
    """
    values = np.asarray(values)
    if not return_inverse:
        ordered = np.sort(values)
        return ordered[_first_of_runs(ordered)]
    order = np.argsort(values)
    ordered = values[order]
    fresh = _first_of_runs(ordered)
    inverse = np.empty(order.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(fresh) - 1
    return ordered[fresh], inverse


class CellIndex:
    """Integer ids registered at points, bucketed into square cells.

    Built once from aligned ``xs``/``ys``/``ids`` arrays (an id may be
    registered at many points); immutable afterwards.  A box answer lists
    each id at most once, in ascending id order, whatever order the
    points were registered in.
    """

    def __init__(
        self, xs: np.ndarray, ys: np.ndarray, ids: np.ndarray, cell_size: float
    ) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        ids = np.asarray(ids, dtype=np.int64)
        cx = np.floor(np.asarray(xs, dtype=np.float64) / self.cell_size).astype(np.int64)
        cy = np.floor(np.asarray(ys, dtype=np.float64) / self.cell_size).astype(np.int64)
        if ids.size == 0:
            self.origin = (0, 0)
            self.shape = (0, 0)
        else:
            self.origin = (int(cx.min()), int(cy.min()))
            self.shape = (int(cx.max()) - self.origin[0] + 1, int(cy.max()) - self.origin[1] + 1)
        keys = (cx - self.origin[0]) * self.shape[1] + (cy - self.origin[1])
        order = np.lexsort((ids, keys))
        keys, ids = keys[order], ids[order]
        fresh = _first_of_runs(keys) | _first_of_runs(ids)
        keys, ids = keys[fresh], ids[fresh]
        starts = np.flatnonzero(_first_of_runs(keys))
        #: Sorted keys of the occupied cells.
        self.cell_keys = keys[starts]
        #: ``items[cell_starts[c]:cell_starts[c + 1]]`` are cell ``c``'s ids.
        self.cell_starts = np.append(starts, keys.shape[0]).astype(np.int64)
        self.items = ids
        self._id_span = int(ids.max()) + 1 if ids.size else 1

    @property
    def num_cells(self) -> int:
        """Number of occupied cells."""
        return int(self.cell_keys.shape[0])

    def boxes(
        self, xs: np.ndarray, ys: np.ndarray, half_width: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ids in every cell meeting each box of ``half_width`` around ``(x, y)``.

        Returns ``(owner, ids, covers)``: the answers of all boxes
        concatenated, sorted by ``(owner, id)`` with ``owner`` the query's
        position in ``xs``; and per query whether its box reaches every
        occupied cell (so its answer is every registered id).
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        width, height = self.shape
        size = self.cell_size
        # Clip in floats first, so an infinite half-width stays in range.
        lo_x = np.clip(np.floor((xs - half_width) / size) - self.origin[0], -1, width)
        hi_x = np.clip(np.floor((xs + half_width) / size) - self.origin[0], -1, width)
        lo_y = np.clip(np.floor((ys - half_width) / size) - self.origin[1], -1, height)
        hi_y = np.clip(np.floor((ys + half_width) / size) - self.origin[1], -1, height)
        covers = (lo_x <= 0) & (hi_x >= width - 1) & (lo_y <= 0) & (hi_y >= height - 1)
        lo_x = np.maximum(lo_x, 0).astype(np.int64)
        hi_x = np.minimum(hi_x, width - 1).astype(np.int64)
        lo_y = np.maximum(lo_y, 0).astype(np.int64)
        hi_y = np.minimum(hi_y, height - 1).astype(np.int64)
        columns = np.where(lo_y <= hi_y, np.maximum(hi_x - lo_x + 1, 0), 0)
        column_owner = np.repeat(np.arange(xs.shape[0], dtype=np.int64), columns)
        cx = ragged_ranges(lo_x, columns)
        first = np.searchsorted(self.cell_keys, cx * height + lo_y[column_owner], "left")
        last = np.searchsorted(self.cell_keys, cx * height + hi_y[column_owner], "right")
        starts = self.cell_starts[first]
        spans = self.cell_starts[last] - starts
        ids = self.items[ragged_ranges(starts, spans)]
        # One id may sit in several cells of a box: keep it once per owner.
        keys = np.sort(np.repeat(column_owner, spans) * self._id_span + ids)
        keys = keys[_first_of_runs(keys)]
        return keys // self._id_span, keys % self._id_span, covers
