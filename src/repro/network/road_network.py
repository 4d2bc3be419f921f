"""Directed road-network model with spatial queries.

A :class:`RoadNetwork` is the substrate every matcher in this library runs
on: a set of intersection nodes plus directed road segments between them,
with a uniform-grid spatial index for "segments near this point" queries
(candidate retrieval) and adjacency structures for routing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.geometry import GridIndex, Point, Polyline


def _ragged_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + count)`` per element, loop-free.

    Every count must be >= 1 (sub-segment spans always are: a polyline has
    at least one sub-segment).
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    if counts.shape[0] > 1:
        boundaries = np.cumsum(counts)[:-1]
        out[boundaries] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(out)


@dataclass(frozen=True)
class CsrAdjacency:
    """Compressed-sparse-row view of a network's node graph.

    Parallel segments between the same node pair are resolved to the
    shortest one, matching the per-pair Dijkstra semantics.  ``matrix`` is
    suitable for :func:`scipy.sparse.csgraph.dijkstra`; ``edge_segments``
    is aligned with ``matrix.data`` so the segment realising any (u, v)
    edge can be recovered after predecessor-matrix route reconstruction.

    Attributes:
        node_ids: Node id of each matrix row/column index.
        index: Inverse mapping, node id -> matrix index.
        matrix: ``scipy.sparse.csr_matrix`` of edge lengths in metres.
        edge_segments: Segment id for each stored matrix entry.
    """

    node_ids: np.ndarray
    index: dict[int, int]
    matrix: object  # scipy.sparse.csr_matrix (typed loosely to keep scipy lazy)
    edge_segments: np.ndarray
    _edge_lookup_cache: dict[tuple[int, int], int] | None = field(
        default=None, repr=False, compare=False
    )
    _edge_keys_cache: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        """Number of graph nodes (matrix dimension)."""
        return int(self.node_ids.shape[0])

    def segment_between(self, u_index: int, v_index: int) -> int:
        """Segment id of the stored ``u -> v`` edge (-1 when absent).

        Answered from a one-time ``(u, v) -> segment`` dictionary: route
        reconstruction calls this once per edge of every decoded path, and
        a dict probe beats a per-call ``searchsorted`` by an order of
        magnitude at that volume.
        """
        lookup = self._edge_lookup()
        return lookup.get((u_index, v_index), -1)

    def segments_between(self, u_index: np.ndarray, v_index: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`segment_between` for edges known to be stored.

        Looks every ``u * N + v`` key up in the sorted key array of the
        canonical CSR order with one ``np.searchsorted``; the caller
        guarantees each ``(u, v)`` edge exists (e.g. a predecessor-chain
        hop), so no absent-edge check is made.
        """
        if self._edge_keys_cache is None:
            matrix = self.matrix
            rows = np.repeat(
                np.arange(self.num_nodes, dtype=np.int64), np.diff(matrix.indptr)
            )
            keys = rows * self.num_nodes + matrix.indices.astype(np.int64)
            object.__setattr__(self, "_edge_keys_cache", keys)
        keys = np.asarray(u_index, dtype=np.int64) * self.num_nodes + v_index
        return self.edge_segments[np.searchsorted(self._edge_keys_cache, keys)]

    def _edge_lookup(self) -> dict[tuple[int, int], int]:
        if self._edge_lookup_cache is None:
            matrix = self.matrix
            lookup: dict[tuple[int, int], int] = {}
            indptr, indices = matrix.indptr, matrix.indices
            segments = self.edge_segments
            for u in range(self.num_nodes):
                for pos in range(int(indptr[u]), int(indptr[u + 1])):
                    lookup[(u, int(indices[pos]))] = int(segments[pos])
            object.__setattr__(self, "_edge_lookup_cache", lookup)
        return self._edge_lookup_cache


@dataclass(slots=True)
class RoadSegment:
    """One directed road segment.

    Attributes:
        segment_id: Unique integer id within the network.
        start_node: Id of the node the segment leaves.
        end_node: Id of the node the segment enters.
        polyline: Geometry from the start node to the end node.
        speed_limit_mps: Free-flow speed in metres per second.
        road_class: Coarse class label (``"arterial"``, ``"local"``, ...),
            used by the generators and by heuristic baselines.
    """

    segment_id: int
    start_node: int
    end_node: int
    polyline: Polyline
    speed_limit_mps: float = 13.9
    road_class: str = "local"

    @property
    def length(self) -> float:
        """Segment length in metres."""
        return self.polyline.length

    @property
    def midpoint(self) -> Point:
        """Point halfway along the segment geometry."""
        return self.polyline.interpolate(self.polyline.length / 2.0)

    def heading_deg(self) -> float:
        """Overall bearing of the segment in degrees."""
        return self.polyline.heading_deg()

    def distance_to(self, p: Point) -> float:
        """Distance from ``p`` to the closest point of the segment."""
        _, dist, _ = self.polyline.project(p)
        return dist


@dataclass
class RoadNetwork:
    """A directed road network ``G<V, E>`` (Definition 3 of the paper).

    Build with :meth:`add_node` / :meth:`add_segment` then call
    :meth:`freeze` (or use :func:`repro.network.generate_city_network`).
    Spatial queries require a frozen network.
    """

    nodes: dict[int, Point] = field(default_factory=dict)
    segments: dict[int, RoadSegment] = field(default_factory=dict)
    _out: dict[int, list[int]] = field(default_factory=dict, repr=False)
    _in: dict[int, list[int]] = field(default_factory=dict, repr=False)
    _index: GridIndex | None = field(default=None, repr=False)
    _index_sample_step: float = field(default=150.0, repr=False)
    # Flattened sub-segment geometry for vectorised distance queries:
    # _sub_geometry rows are (ax, ay, dx, dy, len_sq); _sub_rows maps each
    # segment id to its contiguous row range.  _sub_raw_len_sq keeps the
    # *unclamped* squared lengths so exact-projection distances can divide
    # by the same value the scalar Polyline.project does.
    _sub_geometry: "np.ndarray | None" = field(default=None, repr=False)
    _sub_rows: dict[int, tuple[int, int]] = field(default_factory=dict, repr=False)
    _sub_raw_len_sq: "np.ndarray | None" = field(default=None, repr=False)
    # Dense (start, count) tables indexed by segment id so span lookups are
    # two np.take gathers instead of a Python dict loop.
    _span_starts: "np.ndarray | None" = field(default=None, repr=False)
    _span_counts: "np.ndarray | None" = field(default=None, repr=False)
    _csr: CsrAdjacency | None = field(default=None, repr=False)
    # Per-segment turn-angle sums and headings (lazy; feeds the batched
    # transition-feature builder) plus a per-route turn-sum memo keyed by
    # the route's segment tuple.
    _turn_sums: dict[int, float] | None = field(default=None, repr=False)
    _headings: dict[int, float] | None = field(default=None, repr=False)
    _turn_dense: "tuple[np.ndarray, np.ndarray] | None" = field(default=None, repr=False)
    _route_turns: dict[tuple[int, ...], float] = field(default_factory=dict, repr=False)
    _near_memo: dict[tuple[float, float, float], tuple[int, ...]] = field(
        default_factory=dict, repr=False
    )

    # ------------------------------------------------------------------ build
    def add_node(self, node_id: int, location: Point) -> None:
        """Register intersection ``node_id`` at ``location``."""
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id {node_id}")
        self.nodes[node_id] = location
        self._out.setdefault(node_id, [])
        self._in.setdefault(node_id, [])
        self._csr = None  # invalidate adjacency

    def add_segment(self, segment: RoadSegment) -> None:
        """Register a directed segment; endpoints must already exist."""
        if segment.segment_id in self.segments:
            raise ValueError(f"duplicate segment id {segment.segment_id}")
        if segment.start_node not in self.nodes or segment.end_node not in self.nodes:
            raise ValueError("segment endpoints must be added before the segment")
        self.segments[segment.segment_id] = segment
        self._out[segment.start_node].append(segment.segment_id)
        self._in[segment.end_node].append(segment.segment_id)
        self._index = None  # invalidate spatial index
        self._csr = None  # invalidate adjacency
        self._span_starts = None  # invalidate dense span tables
        self._span_counts = None
        self._turn_sums = None  # invalidate per-segment turn geometry
        self._headings = None
        self._turn_dense = None
        self._route_turns.clear()
        self._near_memo.clear()

    def freeze(self) -> "RoadNetwork":
        """Build the spatial index and geometry tables; returns ``self``."""
        index: GridIndex[int] = GridIndex(cell_size=max(self._index_sample_step, 100.0))
        rows: list[tuple[float, float, float, float, float]] = []
        raw_len_sq: list[float] = []
        self._sub_rows = {}
        for seg in self.segments.values():
            index.insert_many(seg.segment_id, self._sample_points(seg))
            start = len(rows)
            points = seg.polyline.points
            for a, b in zip(points, points[1:]):
                dx, dy = b.x - a.x, b.y - a.y
                len_sq = dx * dx + dy * dy
                rows.append((a.x, a.y, dx, dy, max(len_sq, 1e-12)))
                raw_len_sq.append(len_sq)
            self._sub_rows[seg.segment_id] = (start, len(rows))
        self._sub_geometry = np.asarray(rows, dtype=np.float64)
        self._sub_raw_len_sq = np.asarray(raw_len_sq, dtype=np.float64)
        size = (max(self.segments) + 1) if self.segments else 0
        self._span_starts = np.zeros(size, dtype=np.int64)
        self._span_counts = np.zeros(size, dtype=np.int64)
        for sid, (lo, hi) in self._sub_rows.items():
            self._span_starts[sid] = lo
            self._span_counts[sid] = hi - lo
        self._index = index
        return self

    def _sample_points(self, seg: RoadSegment) -> list[Point]:
        """Representative points for the spatial index (ends + interior)."""
        points = [seg.polyline.start, seg.polyline.end]
        step = self._index_sample_step
        offset = step
        while offset < seg.length:
            points.append(seg.polyline.interpolate(offset))
            offset += step
        return points

    # ----------------------------------------------------------------- access
    @property
    def num_nodes(self) -> int:
        """Number of intersection nodes."""
        return len(self.nodes)

    @property
    def num_segments(self) -> int:
        """Number of directed road segments."""
        return len(self.segments)

    def segment(self, segment_id: int) -> RoadSegment:
        """The segment with id ``segment_id`` (KeyError if absent)."""
        return self.segments[segment_id]

    def out_segments(self, node_id: int) -> list[int]:
        """Ids of segments leaving ``node_id``."""
        return self._out.get(node_id, [])

    def in_segments(self, node_id: int) -> list[int]:
        """Ids of segments entering ``node_id``."""
        return self._in.get(node_id, [])

    def successors(self, segment_id: int) -> list[int]:
        """Segments reachable immediately after ``segment_id``."""
        return self.out_segments(self.segments[segment_id].end_node)

    def predecessors(self, segment_id: int) -> list[int]:
        """Segments from which ``segment_id`` is immediately reachable."""
        return self.in_segments(self.segments[segment_id].start_node)

    def csr(self) -> CsrAdjacency:
        """The (cached) CSR adjacency over nodes; built on first use.

        Requires scipy.  Vectorised routing (:class:`ShortestPathEngine`,
        :meth:`Ubodt.build`) runs on this representation instead of the
        per-node Python dictionaries.
        """
        if self._csr is None:
            from scipy.sparse import csr_matrix

            node_ids = np.fromiter(self.nodes.keys(), dtype=np.int64, count=len(self.nodes))
            index = {int(node): i for i, node in enumerate(node_ids)}
            n = node_ids.shape[0]
            m = len(self.segments)
            rows = np.empty(m, dtype=np.int64)
            cols = np.empty(m, dtype=np.int64)
            weights = np.empty(m, dtype=np.float64)
            seg_ids = np.empty(m, dtype=np.int64)
            for k, seg in enumerate(self.segments.values()):
                rows[k] = index[seg.start_node]
                cols[k] = index[seg.end_node]
                # Clamp to a tiny positive weight: csgraph drops explicit
                # zeros, which would erase degenerate zero-length segments.
                weights[k] = max(seg.length, 1e-9)
                seg_ids[k] = seg.segment_id
            # Resolve parallel edges to the shortest segment before building
            # the matrix (csr_matrix would otherwise *sum* duplicates).
            order = np.lexsort((weights, cols, rows))
            rows, cols, weights, seg_ids = (
                rows[order], cols[order], weights[order], seg_ids[order]
            )
            if m:
                keep = np.ones(m, dtype=bool)
                keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
                rows, cols, weights, seg_ids = (
                    rows[keep], cols[keep], weights[keep], seg_ids[keep]
                )
            matrix = csr_matrix((weights, (rows, cols)), shape=(n, n))
            matrix.sort_indices()
            if np.array_equal(matrix.indices, cols):
                # Deduped lexsorted COO input is already in canonical CSR
                # order, so the segment ids carry over one-to-one.
                aligned = seg_ids
            else:  # pragma: no cover - defensive against scipy reordering
                aligned = np.empty(matrix.nnz, dtype=np.int64)
                lookup = {(int(r), int(c)): int(s) for r, c, s in zip(rows, cols, seg_ids)}
                for u in range(n):
                    for pos in range(matrix.indptr[u], matrix.indptr[u + 1]):
                        aligned[pos] = lookup[(u, int(matrix.indices[pos]))]
            self._csr = CsrAdjacency(
                node_ids=node_ids, index=index, matrix=matrix, edge_segments=aligned
            )
        return self._csr

    # ------------------------------------------------- shared-memory attach
    #: Array names produced by :meth:`shared_state_arrays` / consumed by
    #: :meth:`adopt_shared_state`.
    SHARED_STATE_KEYS = (
        "sub_geometry",
        "sub_raw_len_sq",
        "span_starts",
        "span_counts",
        "csr_node_ids",
        "csr_indptr",
        "csr_indices",
        "csr_data",
        "csr_edge_segments",
    )

    def shared_state_arrays(self) -> dict[str, np.ndarray]:
        """The frozen geometry + CSR tables as a flat array dict.

        This is the network's *heavy* numeric state — everything worth
        publishing to shared memory.  Dtypes are preserved exactly (the
        CSR index arrays keep whatever width scipy chose) so an attached
        copy reconstructs an identical adjacency without per-call dtype
        conversions in ``csgraph``.
        """
        if self._sub_geometry is None:
            self.freeze()
        adjacency = self.csr()
        matrix = adjacency.matrix
        return {
            "sub_geometry": self._sub_geometry,
            "sub_raw_len_sq": self._sub_raw_len_sq,
            "span_starts": self._span_starts,
            "span_counts": self._span_counts,
            "csr_node_ids": adjacency.node_ids,
            "csr_indptr": matrix.indptr,
            "csr_indices": matrix.indices,
            "csr_data": matrix.data,
            "csr_edge_segments": adjacency.edge_segments,
        }

    def adopt_shared_state(self, arrays: dict[str, np.ndarray]) -> "RoadNetwork":
        """Point the geometry/adjacency tables at externally owned buffers.

        ``arrays`` is the dict produced by :meth:`shared_state_arrays` on
        an identical network — typically attached read-only from a
        shared-memory segment (:class:`~repro.serve.shm.SharedArrayPack`).
        No numeric data is copied: the network's vectorised kernels and
        the CSR adjacency operate directly on the caller's buffers, so N
        worker processes adopting the same segment share one copy of the
        map.  The small Python-side lookups (grid index, ``_sub_rows``,
        node-id dict) are rebuilt or kept as-is; query results are
        bit-identical to the donor network's.
        """
        missing = [k for k in self.SHARED_STATE_KEYS if k not in arrays]
        if missing:
            raise ValueError(f"adopt_shared_state: missing arrays {missing}")
        if self._index is None:
            # The grid index and _sub_rows spans are cheap Python-side
            # structures freeze() builds; the freshly built numeric tables
            # are immediately replaced by the shared buffers below.
            self.freeze()
        from scipy.sparse import csr_matrix

        self._sub_geometry = arrays["sub_geometry"]
        self._sub_raw_len_sq = arrays["sub_raw_len_sq"]
        self._span_starts = arrays["span_starts"]
        self._span_counts = arrays["span_counts"]
        node_ids = arrays["csr_node_ids"]
        n = int(node_ids.shape[0])
        matrix = csr_matrix(
            (arrays["csr_data"], arrays["csr_indices"], arrays["csr_indptr"]),
            shape=(n, n),
            copy=False,
        )
        self._csr = CsrAdjacency(
            node_ids=node_ids,
            index={int(node): i for i, node in enumerate(node_ids)},
            matrix=matrix,
            edge_segments=arrays["csr_edge_segments"],
        )
        self._near_memo.clear()
        self._route_turns.clear()
        return self

    def total_length(self) -> float:
        """Sum of all segment lengths in metres."""
        return sum(seg.length for seg in self.segments.values())

    def bounding_box(self) -> tuple[float, float, float, float]:
        """``(min_x, min_y, max_x, max_y)`` over all nodes."""
        if not self.nodes:
            raise ValueError("empty network")
        xs = [p.x for p in self.nodes.values()]
        ys = [p.y for p in self.nodes.values()]
        return (min(xs), min(ys), max(xs), max(ys))

    # ---------------------------------------------------------------- spatial
    def _require_index(self) -> GridIndex:
        if self._index is None:
            self.freeze()
        assert self._index is not None
        return self._index

    def distances_to_segments(self, p: Point, segment_ids: list[int]) -> np.ndarray:
        """Exact distance from ``p`` to each listed segment, vectorised."""
        self._require_index()
        assert self._sub_geometry is not None
        if not segment_ids:
            return np.empty(0)
        spans = [self._sub_rows[s] for s in segment_ids]
        row_idx = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
        counts = np.array([hi - lo for lo, hi in spans])
        sub = self._sub_geometry[row_idx]
        rel_x = p.x - sub[:, 0]
        rel_y = p.y - sub[:, 1]
        t = np.clip((rel_x * sub[:, 2] + rel_y * sub[:, 3]) / sub[:, 4], 0.0, 1.0)
        dist_sq = (rel_x - t * sub[:, 2]) ** 2 + (rel_y - t * sub[:, 3]) ** 2
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        return np.sqrt(np.minimum.reduceat(dist_sq, offsets))

    def segments_near(self, p: Point, radius: float) -> list[int]:
        """Segment ids whose geometry lies within ``radius`` metres of ``p``.

        The grid-index pre-filter is refined with exact, vectorised polyline
        distances; the result is sorted by true distance, nearest first.
        """
        rough = list(
            self._require_index().items_in_box(p, radius + self._index_sample_step)
        )
        if not rough:
            return []
        distances = self.distances_to_segments(p, rough)
        keep = distances <= radius
        order = np.argsort(distances[keep], kind="stable")
        kept_ids = np.asarray(rough)[keep]
        return [int(s) for s in kept_ids[order]]

    def nearest_segments(self, p: Point, count: int = 1, max_radius: float = 8000.0) -> list[int]:
        """The ``count`` nearest segments to ``p`` by exact distance.

        Expands the search radius geometrically until enough segments are
        found or ``max_radius`` is reached.
        """
        radius = max(self._index_sample_step * 2, 200.0)
        while True:
            found = self.segments_near(p, radius)
            if len(found) >= count or radius >= max_radius:
                return found[:count]
            radius = min(radius * 2.0, max_radius)

    # --------------------------------------------------------- batched spatial
    def _segment_spans(self, segment_ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Sub-geometry row (start, count) arrays for the given segments."""
        if self._span_starts is not None:
            ids = np.asarray(segment_ids, dtype=np.int64)
            return self._span_starts.take(ids), self._span_counts.take(ids)
        spans = self._sub_rows
        n = len(segment_ids)
        starts = np.empty(n, dtype=np.int64)
        counts = np.empty(n, dtype=np.int64)
        for i, s in enumerate(segment_ids):
            lo, hi = spans[s]
            starts[i] = lo
            counts[i] = hi - lo
        return starts, counts

    def segments_near_many(
        self, points: Sequence[Point], radius: float
    ) -> list[list[int]]:
        """:meth:`segments_near` for every point in one stacked distance pass.

        Returns exactly ``[self.segments_near(p, radius) for p in points]``
        — same rough-candidate enumeration order, same clamped-projection
        distances, same stable nearest-first sort — while deduplicating
        repeated query positions (consecutive cellular samples often share
        a tower location) and refining every rough set in a single
        vectorised computation instead of one numpy round-trip per point.
        Refined answers are memoised per ``(x, y, radius)`` across calls
        (cellular workloads re-ask the same tower positions trajectory
        after trajectory); the memo is invalidated when the network gains
        segments and capped at :data:`NEAR_MEMO_MAX` entries.
        """
        index = self._require_index()
        assert self._sub_geometry is not None
        memo = self._near_memo
        if len(memo) > self.NEAR_MEMO_MAX:
            memo.clear()
        unique: dict[tuple[float, float], int] = {}
        point_to_unique: list[int] = []
        uniq_points: list[Point] = []
        for p in points:
            key = (p.x, p.y)
            slot = unique.setdefault(key, len(unique))
            if slot == len(uniq_points):
                uniq_points.append(p)
            point_to_unique.append(slot)
        results: list[tuple[int, ...] | None] = [
            memo.get((p.x, p.y, radius)) for p in uniq_points
        ]
        pending = [u for u, r in enumerate(results) if r is None]
        if pending:
            boxes = index.items_in_boxes(
                [uniq_points[u] for u in pending], radius + self._index_sample_step
            )
            rough_lists = [list(box) for box in boxes]
            for slot, u in enumerate(pending):
                if not rough_lists[slot]:
                    results[u] = ()
                    memo[(uniq_points[u].x, uniq_points[u].y, radius)] = ()
            active = [
                (slot, u)
                for slot, u in enumerate(pending)
                if rough_lists[slot]
            ]
            if active:
                pair_ids = [s for slot, _ in active for s in rough_lists[slot]]
                pair_counts = np.array(
                    [len(rough_lists[slot]) for slot, _ in active], dtype=np.int64
                )
                starts, counts = self._segment_spans(pair_ids)
                rows = _ragged_ranges(starts, counts)
                sub = self._sub_geometry[rows]
                px = np.repeat(
                    np.repeat(
                        [uniq_points[u].x for _, u in active], pair_counts
                    ),
                    counts,
                )
                py = np.repeat(
                    np.repeat(
                        [uniq_points[u].y for _, u in active], pair_counts
                    ),
                    counts,
                )
                rel_x = px - sub[:, 0]
                rel_y = py - sub[:, 1]
                t = np.clip(
                    (rel_x * sub[:, 2] + rel_y * sub[:, 3]) / sub[:, 4], 0.0, 1.0
                )
                dist_sq = (rel_x - t * sub[:, 2]) ** 2 + (rel_y - t * sub[:, 3]) ** 2
                offsets = np.zeros(len(pair_ids), dtype=np.int64)
                np.cumsum(counts[:-1], out=offsets[1:])
                distances = np.sqrt(np.minimum.reduceat(dist_sq, offsets))
                cursor = 0
                for (slot, u), m in zip(active, pair_counts):
                    d = distances[cursor : cursor + m]
                    cursor += m
                    keep = d <= radius
                    order = np.argsort(d[keep], kind="stable")
                    kept_ids = np.asarray(rough_lists[slot])[keep]
                    refined = tuple(kept_ids[order].tolist())
                    results[u] = refined
                    memo[(uniq_points[u].x, uniq_points[u].y, radius)] = refined
        return [list(results[u]) for u in point_to_unique]  # type: ignore[arg-type]

    #: Distance-matrix elements per pass of :meth:`segments_within`.
    WITHIN_CHUNK = 1 << 16

    def segments_within(
        self, segment_ids: Sequence[int], points: Sequence[Point], radius: float
    ) -> np.ndarray:
        """Which of ``segment_ids`` lie within ``radius`` of any of ``points``.

        Returns a boolean mask aligned with ``segment_ids``: entry ``i`` is
        true exactly when ``segment_ids[i]`` is in the union of
        :meth:`segments_near` ``(p, radius)`` over ``points``.  The
        distances are the same clamped-projection floats the near queries
        compare (the grid pre-filter they run first never drops a segment
        within ``radius``), computed as one matrix over the unique query
        positions and the listed segments' sub-segments.
        """
        self._require_index()
        assert self._sub_geometry is not None
        n = len(segment_ids)
        unique = list(dict.fromkeys((p.x, p.y) for p in points))
        if n == 0 or not unique:
            return np.zeros(n, dtype=bool)
        xy = np.array(unique, dtype=np.float64)
        starts, counts = self._segment_spans(segment_ids)
        sub = self._sub_geometry[_ragged_ranges(starts, counts)]
        best = np.full(sub.shape[0], np.inf)
        step = max(1, self.WITHIN_CHUNK // sub.shape[0])
        for lo in range(0, xy.shape[0], step):
            rel_x = xy[lo : lo + step, 0:1] - sub[:, 0]
            rel_y = xy[lo : lo + step, 1:2] - sub[:, 1]
            t = np.clip((rel_x * sub[:, 2] + rel_y * sub[:, 3]) / sub[:, 4], 0.0, 1.0)
            dist_sq = (rel_x - t * sub[:, 2]) ** 2 + (rel_y - t * sub[:, 3]) ** 2
            np.minimum(best, dist_sq.min(axis=0), out=best)
        offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        return np.sqrt(np.minimum.reduceat(best, offsets)) <= radius

    def nearest_segments_many(
        self, points: Sequence[Point], count: int = 1, max_radius: float = 8000.0
    ) -> list[list[int]]:
        """:meth:`nearest_segments` per point, deduplicating repeated positions.

        The doubling radius differs per point, so each unique position runs
        the scalar expansion; repeated positions reuse the answer.
        """
        cache: dict[tuple[float, float], list[int]] = {}
        out: list[list[int]] = []
        for p in points:
            key = (p.x, p.y)
            found = cache.get(key)
            if found is None:
                found = self.nearest_segments(p, count=count, max_radius=max_radius)
                cache[key] = found
            out.append(list(found))
        return out

    def point_segment_distances(
        self, px: np.ndarray, py: np.ndarray, segment_ids: Sequence[int]
    ) -> np.ndarray:
        """Exact :meth:`RoadSegment.distance_to` for aligned (point, segment) pairs.

        Replicates :meth:`~repro.geometry.segment.Polyline.project` bit for
        bit — the *raw* (unclamped) squared sub-segment lengths, the
        zero-length special case, and per-element ``math.hypot`` — so
        feature code can mix values from here with scalar ``distance_to``
        calls without a single ulp of drift.  ``px``/``py`` are aligned
        with ``segment_ids``; one distance per pair comes back.
        """
        self._require_index()
        assert self._sub_geometry is not None and self._sub_raw_len_sq is not None
        n = len(segment_ids)
        if n == 0:
            return np.empty(0)
        starts, counts = self._segment_spans(segment_ids)
        rows = _ragged_ranges(starts, counts)
        sub = self._sub_geometry[rows]
        raw = self._sub_raw_len_sq[rows]
        ppx = np.repeat(np.asarray(px, dtype=np.float64), counts)
        ppy = np.repeat(np.asarray(py, dtype=np.float64), counts)
        rel_x = ppx - sub[:, 0]
        rel_y = ppy - sub[:, 1]
        t = np.divide(
            rel_x * sub[:, 2] + rel_y * sub[:, 3],
            raw,
            out=np.zeros(rows.shape[0]),
            where=raw != 0.0,
        )
        t = np.clip(t, 0.0, 1.0)
        comp_x = (ppx - (sub[:, 0] + t * sub[:, 2])).tolist()
        comp_y = (ppy - (sub[:, 1] + t * sub[:, 3])).tolist()
        hypot = math.hypot
        dist = np.fromiter(
            (hypot(a, b) for a, b in zip(comp_x, comp_y)),
            dtype=np.float64,
            count=rows.shape[0],
        )
        offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        return np.minimum.reduceat(dist, offsets)

    # ---------------------------------------------------------- turn geometry
    def turn_geometry(self) -> tuple[dict[int, float], dict[int, float]]:
        """Per-segment ``(turn_angle_sum_deg, heading_deg)`` caches (lazy).

        The values are exactly what ``seg.polyline.turn_angle_sum_deg()``
        and ``seg.heading_deg()`` return; caching them lets the transition
        feature builder sum a route's turning without re-deriving bearings
        for every (pair, segment) visit.
        """
        if self._turn_sums is None or self._headings is None:
            self._turn_sums = {
                sid: seg.polyline.turn_angle_sum_deg()
                for sid, seg in self.segments.items()
            }
            self._headings = {
                sid: seg.heading_deg() for sid, seg in self.segments.items()
            }
        return self._turn_sums, self._headings

    def turn_geometry_dense(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`turn_geometry` as dense segment-id-indexed arrays.

        Same floats as the dict caches; lets the batched route-turn filler
        gather a whole group of routes with one fancy-index.
        """
        if self._turn_dense is None:
            turn_sums, headings = self.turn_geometry()
            size = (max(self.segments) + 1) if self.segments else 0
            ts = np.zeros(size, dtype=np.float64)
            hd = np.zeros(size, dtype=np.float64)
            for sid, value in turn_sums.items():
                ts[sid] = value
            for sid, value in headings.items():
                hd[sid] = value
            self._turn_dense = (ts, hd)
        return self._turn_dense

    #: Bound on memoised per-route turn sums (cleared wholesale when hit).
    ROUTE_TURN_CACHE_MAX = 200_000

    #: Entry cap of the per-position near-segments memo.
    NEAR_MEMO_MAX = 200_000

    def route_turns(self) -> dict[tuple[int, ...], float]:
        """The per-route turn-sum memo (segment tuple -> degrees)."""
        if len(self._route_turns) > self.ROUTE_TURN_CACHE_MAX:
            self._route_turns.clear()
        return self._route_turns
