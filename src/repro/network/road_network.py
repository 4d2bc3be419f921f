"""Directed road-network model with spatial queries.

A :class:`RoadNetwork` is the substrate every matcher in this library runs
on: a set of intersection nodes plus directed road segments between them,
with a sorted-cell spatial index for "segments near this point" queries
(candidate retrieval) and adjacency structures for routing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.geometry import CellIndex, Point, Polyline
from repro.geometry.cell_index import ragged_ranges


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
    # Every segment is registered in the cell index at points at most
    # _index_sample_step apart along each sub-segment, so a box of
    # half-width r + _index_sample_step holds every segment within r.
    _index: CellIndex | None = field(default=None, repr=False)
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
    # transition-feature builder).
    _turn_sums: dict[int, float] | None = field(default=None, repr=False)
    _headings: dict[int, float] | None = field(default=None, repr=False)
    _turn_dense: "tuple[np.ndarray, np.ndarray] | None" = field(default=None, repr=False)
    _near_memo: dict[tuple[float, float, float, int], tuple[int, ...]] = field(
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
        self._near_memo.clear()

    def freeze(self) -> "RoadNetwork":
        """Build the spatial index and geometry tables; returns ``self``."""
        rows: list[tuple[float, float, float, float, float]] = []
        raw_len_sq: list[float] = []
        self._sub_rows = {}
        for seg in self.segments.values():
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
        self._index = self._build_cell_index()
        return self

    def _build_cell_index(self) -> CellIndex:
        """Register every sub-segment at both ends and evenly in between.

        A sub-segment of length ``L`` gets ``ceil(L / step) + 1`` points,
        so consecutive points are at most one sample step apart.
        """
        sub = self._sub_geometry.reshape(-1, 5)
        step = self._index_sample_step
        pieces = np.maximum(np.ceil(np.sqrt(self._sub_raw_len_sq) / step), 1.0)
        points = pieces.astype(np.int64) + 1
        row = np.repeat(np.arange(sub.shape[0], dtype=np.int64), points)
        k = ragged_ranges(np.zeros(sub.shape[0], dtype=np.int64), points)
        t = k / pieces[row]
        sids = np.fromiter(self._sub_rows, dtype=np.int64, count=len(self._sub_rows))
        owner = np.repeat(sids, self._span_counts[sids])
        return CellIndex(
            sub[row, 0] + t * sub[row, 2],
            sub[row, 1] + t * sub[row, 3],
            owner[row],
            cell_size=max(step, 100.0),
        )

    # ----------------------------------------------------------------- access
    @property
    def num_nodes(self) -> int:
        """Number of intersection nodes."""
        return len(self.nodes)

    @property
    def num_segments(self) -> int:
        """Number of directed road segments."""
        return len(self.segments)

    @property
    def segment_id_bound(self) -> int:
        """One past the largest segment id (0 for no segments): the length
        of arrays indexed by segment id.  :meth:`freeze` sizes its dense
        span tables with it."""
        if self._span_starts is None:
            self.freeze()
        return int(self._span_starts.shape[0])

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
        map.  The small lookups (cell index, ``_sub_rows``,
        node-id dict) are rebuilt or kept as-is; query results are
        bit-identical to the donor network's.
        """
        missing = [k for k in self.SHARED_STATE_KEYS if k not in arrays]
        if missing:
            raise ValueError(f"adopt_shared_state: missing arrays {missing}")
        if self._index is None:
            # The cell index and _sub_rows spans are cheap structures
            # freeze() builds; the freshly built geometry tables
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
    def _require_index(self) -> CellIndex:
        if self._index is None:
            self.freeze()
        assert self._index is not None
        return self._index

    def _near_distances(
        self, px: np.ndarray, py: np.ndarray, segment_ids: np.ndarray
    ) -> np.ndarray:
        """Clamped-projection distance of each ``(px[i], py[i])`` to ``segment_ids[i]``.

        The one distance every near query compares with its radius, so the
        scalar and batched queries agree to the last bit.
        """
        if not len(segment_ids):
            return np.empty(0)
        starts, counts = self._segment_spans(segment_ids)
        rows = ragged_ranges(starts, counts)
        sub = self._sub_geometry[rows]
        rel_x = np.repeat(px, counts) - sub[:, 0]
        rel_y = np.repeat(py, counts) - sub[:, 1]
        t = np.clip((rel_x * sub[:, 2] + rel_y * sub[:, 3]) / sub[:, 4], 0.0, 1.0)
        dist_sq = (rel_x - t * sub[:, 2]) ** 2 + (rel_y - t * sub[:, 3]) ** 2
        offsets = np.zeros(len(segment_ids), dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        return np.sqrt(np.minimum.reduceat(dist_sq, offsets))

    def distances_to_segments(self, p: Point, segment_ids: list[int]) -> np.ndarray:
        """Exact distance from ``p`` to each listed segment, vectorised."""
        self._require_index()
        n = len(segment_ids)
        return self._near_distances(
            np.full(n, p.x), np.full(n, p.y), np.asarray(segment_ids, dtype=np.int64)
        )

    def segments_near(self, p: Point, radius: float) -> list[int]:
        """Segment ids whose geometry lies within ``radius`` metres of ``p``.

        The cell-index box is refined with exact, vectorised polyline
        distances.  The result is ordered by (distance, segment id):
        nearest first, and equally near segments (a two-way road's twins,
        roads meeting at the nearest node) by ascending id.  This is the
        candidate order every other near query reproduces.
        """
        _, rough, _ = self._require_index().boxes(
            np.array([p.x]), np.array([p.y]), radius + self._index_sample_step
        )
        if not rough.size:
            return []
        distances = self.distances_to_segments(p, rough)
        keep = distances <= radius
        kept_ids = rough[keep]
        return kept_ids[np.lexsort((kept_ids, distances[keep]))].tolist()

    def nearest_segments(self, p: Point, count: int = 1, max_radius: float = 8000.0) -> list[int]:
        """The ``count`` nearest segments to ``p`` by exact distance.

        Exactly ``segments_near(p, max_radius)[:count]``, answered by the
        ring search of :meth:`segments_near_many` (no memo).
        """
        return list(self._k_nearest(np.array([[p.x, p.y]]), max_radius, count)[0])

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
        self, points: Sequence[Point], radius: float, limit: int
    ) -> list[list[int]]:
        """``[self.segments_near(p, radius)[:limit] for p in points]``, batched.

        Repeated query positions are answered once, and answers are
        memoised per ``(x, y, radius, limit)`` across calls (cellular
        workloads re-ask the same tower positions trip after trip); the
        memo is invalidated when the network gains segments and capped at
        :data:`NEAR_MEMO_MAX` entries.  Misses are resolved by the ring
        search of :meth:`_k_nearest`, all positions together.
        """
        self._require_index()
        memo = self._near_memo
        if len(memo) > self.NEAR_MEMO_MAX:
            memo.clear()
        keys = [(p.x, p.y) for p in points]
        answers: dict[tuple[float, float], tuple[int, ...]] = {}
        pending: list[tuple[float, float]] = []
        for key in dict.fromkeys(keys):
            found = memo.get((*key, radius, limit))
            if found is None:
                pending.append(key)
            else:
                answers[key] = found
        if pending:
            found_all = self._k_nearest(np.array(pending, dtype=np.float64), radius, limit)
            for key, found in zip(pending, found_all):
                answers[key] = memo[(*key, radius, limit)] = found
        return [list(answers[key]) for key in keys]

    def _first_ring(self, limit: int) -> float:
        """Radius of a disc holding about ``limit`` segments at mean density.

        Density is segments per occupied cell area, so a sparse suburb
        starts with the same ring as downtown and simply doubles it more.
        """
        index = self._require_index()
        area = index.num_cells * index.cell_size**2
        return math.sqrt(max(limit, 1) * area / (math.pi * max(self.num_segments, 1)))

    def _k_nearest(
        self, xy: np.ndarray, radius: float, limit: int
    ) -> list[tuple[int, ...]]:
        """``segments_near(p, radius)[:limit]`` for each row ``p`` of ``xy``.

        Searches in doubling rings.  The box of ring ``r`` has half-width
        ``r`` plus the sample step, so it holds every segment within ``r``;
        once at least ``limit`` of them lie within ``r``, the ``limit``
        nearest (ties included) all do, and the ring's answer is exact.  A
        ring that reaches ``radius``, or whose box covers the whole map,
        is exact outright.  Each ring level refines every position still
        searching in one stacked distance pass.
        """
        index = self._require_index()
        out: list[tuple[int, ...]] = [()] * xy.shape[0]
        todo = np.arange(xy.shape[0])
        ring = min(radius, self._first_ring(limit))
        while todo.size:
            xs, ys = xy[todo, 0], xy[todo, 1]
            owner, ids, covers = index.boxes(xs, ys, ring + self._index_sample_step)
            distances = self._near_distances(xs[owner], ys[owner], ids)
            bound = np.where(covers | (ring >= radius), radius, ring)
            keep = distances <= bound[owner]
            owner, ids, distances = owner[keep], ids[keep], distances[keep]
            counts = np.bincount(owner, minlength=todo.size)
            done = (bound == radius) | (counts >= limit)
            # Each position's roads in the spec's (distance, id) order.
            order = np.lexsort((ids, distances, owner))
            owner, ids = owner[order], ids[order]
            rank = np.arange(owner.shape[0]) - (np.cumsum(counts) - counts)[owner]
            taken = done[owner] & (rank < limit)
            flat = ids[taken].tolist()
            cursor = 0
            for slot, n in zip(
                np.flatnonzero(done).tolist(), np.minimum(counts, limit)[done].tolist()
            ):
                out[int(todo[slot])] = tuple(flat[cursor : cursor + n])
                cursor += n
            todo = todo[~done]
            ring *= 2.0
        return out

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
        sub = self._sub_geometry[ragged_ranges(starts, counts)]
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
        rows = ragged_ranges(starts, counts)
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
            size = self.segment_id_bound
            ts = np.zeros(size, dtype=np.float64)
            hd = np.zeros(size, dtype=np.float64)
            for sid, value in turn_sums.items():
                ts[sid] = value
            for sid, value in headings.items():
                hd[sid] = value
            self._turn_dense = (ts, hd)
        return self._turn_dense

    #: Entry cap of the per-position near-segments memo.
    NEAR_MEMO_MAX = 200_000
