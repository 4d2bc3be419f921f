"""Shortest-path routing between road segments.

HMM map matching evaluates the shortest path between every pair of
neighbouring candidate roads, so routing dominates runtime.  Following the
precomputation idea the paper borrows from FMM [11], the engine memoises a
full single-source Dijkstra result per queried source node; repeated queries
from the same candidate segment (the common case across a trajectory) then
cost an array lookup.

Two backends share that contract:

* a vectorised backend on :func:`scipy.sparse.csgraph.dijkstra` over the
  network's CSR adjacency — one C-level multi-source call settles every
  source of a trellis step at once (:meth:`ShortestPathEngine.route_many`,
  :meth:`ShortestPathEngine.distances`);
* a pure-Python heap backend, used when scipy is unavailable and kept as
  the reference implementation the perf benchmarks compare against.

Segment-level routes are additionally memoised in an LRU-bounded cache with
hit/miss counters, sized for long-running matching workers.

The batched matcher does not build one :class:`Route` per candidate pair:
:meth:`ShortestPathEngine.route_block` routes a whole trajectory's candidate
products into one columnar :class:`RouteBlock` (found flags, lengths, and
the segment ids of every route in one flat array).  It settles the block's
source nodes with one multi-source Dijkstra call, walks every pair's
predecessor chain in lockstep with NumPy, and bypasses the per-pair route
cache; each entry equals what :meth:`ShortestPathEngine.route` returns.
"""

from __future__ import annotations

import heapq
import math
from itertools import chain
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.network.road_network import RoadNetwork, _ragged_ranges

try:  # pragma: no cover - import guard exercised only without scipy
    from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    _csgraph_dijkstra = None
    HAVE_SCIPY = False

_MISS = object()  # route-cache sentinel (None is a valid cached value)


@dataclass(frozen=True, slots=True)
class Route:
    """A routed path between two segments.

    Attributes:
        segments: Consecutive segment ids, starting at the source segment
            and ending at the target segment (inclusive on both ends).
        length: Network distance in metres measured from the *end* of the
            source segment to the *end* of the target segment — i.e. the
            distance actually driven to complete the transition.
    """

    segments: tuple[int, ...]
    length: float

    @property
    def num_segments(self) -> int:
        """Number of road segments on the route."""
        return len(self.segments)


@dataclass(frozen=True, slots=True)
class RouteBlock:
    """Many routes as columns, aligned with the ``(from, to)`` pairs routed.

    Entry ``i`` is the route of pair ``i``: ``found[i]`` says whether one
    exists, ``lengths[i]`` is its :attr:`Route.length` (inf when not
    found), and ``segment_ids[offsets[i]:offsets[i + 1]]`` are its
    :attr:`Route.segments` (empty when not found).

    Attributes:
        found: ``bool[n]``.
        lengths: ``float64[n]``.
        offsets: ``int64[n + 1]``, starting at 0.
        segment_ids: ``int64[offsets[-1]]``.
    """

    found: np.ndarray
    lengths: np.ndarray
    offsets: np.ndarray
    segment_ids: np.ndarray

    def __len__(self) -> int:
        return int(self.found.shape[0])

    def route(self, i: int) -> Route | None:
        """Entry ``i`` as a :class:`Route` (None when not found)."""
        if not self.found[i]:
            return None
        segments = self.segment_ids[self.offsets[i] : self.offsets[i + 1]]
        return Route(segments=tuple(segments.tolist()), length=float(self.lengths[i]))

    def slice(self, lo: int, hi: int) -> "RouteBlock":
        """Entries ``lo:hi`` as their own block (e.g. one trellis step)."""
        start, stop = self.offsets[lo], self.offsets[hi]
        return RouteBlock(
            found=self.found[lo:hi],
            lengths=self.lengths[lo:hi],
            offsets=self.offsets[lo : hi + 1] - start,
            segment_ids=self.segment_ids[start:stop],
        )

    @classmethod
    def from_routes(cls, routes: Sequence[Route | None]) -> "RouteBlock":
        """Pack per-pair routes, for routers without a native block builder."""
        n = len(routes)
        found = np.fromiter((r is not None for r in routes), dtype=bool, count=n)
        kept = [r.segments for r in routes if r is not None]
        lengths = np.full(n, math.inf)
        lengths[found] = np.fromiter(
            (r.length for r in routes if r is not None), dtype=np.float64, count=len(kept)
        )
        offsets = np.zeros(n + 1, dtype=np.int64)
        counts = offsets[1:]
        counts[found] = np.fromiter(map(len, kept), dtype=np.int64, count=len(kept))
        np.cumsum(counts, out=counts)
        segment_ids = np.fromiter(
            chain.from_iterable(kept), dtype=np.int64, count=int(offsets[-1])
        )
        return cls(found, lengths, offsets, segment_ids)


class _ScipyBackend:
    """Node-level Dijkstra on the CSR adjacency, batched across sources."""

    def __init__(
        self, network: RoadNetwork, max_route_length: float, cache_size: int
    ) -> None:
        self._network = network
        self._limit = max_route_length
        self._cache_size = cache_size
        # source node id -> (distance row, predecessor row) over node indices
        self._rows: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()

    def ensure(self, sources: Iterable[int]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Settle all missing sources with one multi-source Dijkstra call.

        Returns the ``(distance row, predecessor row)`` of every requested
        source in the network, including rows this call settles and then
        evicts from the LRU at once (more sources than its bound).
        """
        csr = self._network.csr()
        rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        missing = []
        for s in dict.fromkeys(sources):
            cached = self._rows.get(s)
            if cached is not None:
                rows[s] = cached
            elif s in csr.index:
                missing.append(s)
        if not missing:
            return rows
        indices = np.array([csr.index[s] for s in missing], dtype=np.int64)
        dist, pred = _csgraph_dijkstra(
            csr.matrix,
            directed=True,
            indices=indices,
            return_predecessors=True,
            limit=self._limit,
        )
        for row, source in enumerate(missing):
            rows[source] = self._rows[source] = (dist[row], pred[row])
        while len(self._rows) > self._cache_size:
            self._rows.popitem(last=False)
        return rows

    def _row(self, source: int) -> tuple[np.ndarray, np.ndarray] | None:
        cached = self._rows.get(source)
        if cached is None:
            self.ensure([source])
            cached = self._rows.get(source)
        else:
            self._rows.move_to_end(source)
        return cached

    def distance(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        j = self._network.csr().index.get(v)
        row = self._row(u)
        if j is None or row is None:
            return math.inf
        d = row[0][j]
        return float(d) if np.isfinite(d) else math.inf

    def path_segments(self, u: int, v: int) -> list[int] | None:
        if u == v:
            return []
        csr = self._network.csr()
        u_idx = csr.index.get(u)
        v_idx = csr.index.get(v)
        row = self._row(u) if u_idx is not None else None
        if row is None or v_idx is None or not np.isfinite(row[0][v_idx]):
            return None
        pred = row[1]
        path: list[int] = []
        node = v_idx
        while node != u_idx:
            p = int(pred[node])
            if p < 0:
                return None
            path.append(csr.segment_between(p, node))
            node = p
        path.reverse()
        return path

    def path_and_distance(self, u: int, v: int) -> tuple[list[int] | None, float]:
        """Path segments and distance with a single cached-row access."""
        if u == v:
            return [], 0.0
        csr = self._network.csr()
        u_idx = csr.index.get(u)
        v_idx = csr.index.get(v)
        row = self._row(u) if u_idx is not None else None
        if row is None or v_idx is None:
            return None, math.inf
        d = row[0][v_idx]
        if not np.isfinite(d):
            return None, math.inf
        pred = row[1]
        path: list[int] = []
        node = v_idx
        while node != u_idx:
            p = int(pred[node])
            if p < 0:
                return None, math.inf
            path.append(csr.segment_between(p, node))
            node = p
        path.reverse()
        return path, float(d)

    def distances(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        csr = self._network.csr()
        self.ensure(sources)
        t_idx = np.array([csr.index.get(t, -1) for t in targets], dtype=np.int64)
        known = t_idx >= 0
        out = np.full((len(sources), len(targets)), np.inf)
        for i, source in enumerate(sources):
            cached = self._rows.get(source)
            if cached is None and source in csr.index:  # evicted mid-call
                self.ensure([source])
                cached = self._rows.get(source)
            if cached is None:  # node absent from the network
                continue
            out[i, known] = cached[0][t_idx[known]]
        if len(sources) and len(targets):
            src = np.asarray(sources).reshape(-1, 1)
            out[src == np.asarray(targets).reshape(1, -1)] = 0.0
        return out

    @property
    def cached_sources(self) -> int:
        return len(self._rows)

    def clear(self) -> None:
        self._rows.clear()


class _HeapBackend:
    """The original pure-Python heap Dijkstra (scipy-less fallback)."""

    def __init__(
        self, network: RoadNetwork, max_route_length: float, cache_size: int
    ) -> None:
        self._network = network
        self._limit = max_route_length
        self._cache_size = cache_size
        self._dist: OrderedDict[int, dict[int, float]] = OrderedDict()
        self._pred: dict[int, dict[int, int]] = {}  # node -> incoming segment id

    def ensure(self, sources: Iterable[int]) -> None:
        for source in sources:
            if source not in self._dist:
                self._run(source)

    def _run(self, source: int) -> None:
        dist: dict[int, float] = {source: 0.0}
        pred: dict[int, int] = {}
        heap: list[tuple[float, int]] = [(0.0, source)]
        settled: set[int] = set()
        network = self._network
        while heap:
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            for seg_id in network.out_segments(node):
                seg = network.segments[seg_id]
                nd = d + seg.length
                # Never record distances beyond the exploration bound, so
                # node_distance stays consistent with route().
                if nd > self._limit:
                    continue
                if nd < dist.get(seg.end_node, math.inf):
                    dist[seg.end_node] = nd
                    pred[seg.end_node] = seg_id
                    heapq.heappush(heap, (nd, seg.end_node))
        self._dist[source] = dist
        self._pred[source] = pred
        while len(self._dist) > self._cache_size:
            evicted, _ = self._dist.popitem(last=False)
            self._pred.pop(evicted, None)

    def distance(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        self.ensure([u])
        self._dist.move_to_end(u)
        return self._dist[u].get(v, math.inf)

    def path_segments(self, u: int, v: int) -> list[int] | None:
        if u == v:
            return []
        self.ensure([u])
        if v not in self._dist[u]:
            return None
        pred = self._pred[u]
        path: list[int] = []
        node = v
        while node != u:
            seg_id = pred.get(node)
            if seg_id is None:
                return None
            path.append(seg_id)
            node = self._network.segments[seg_id].start_node
        path.reverse()
        return path

    def path_and_distance(self, u: int, v: int) -> tuple[list[int] | None, float]:
        """Path segments and distance from one settled-source lookup."""
        if u == v:
            return [], 0.0
        d = self.distance(u, v)
        if d == math.inf:
            return None, math.inf
        path = self.path_segments(u, v)
        if path is None:
            return None, math.inf
        return path, d

    def distances(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        out = np.full((len(sources), len(targets)), np.inf)
        for i, source in enumerate(sources):
            for j, target in enumerate(targets):
                out[i, j] = self.distance(source, target)
        return out

    @property
    def cached_sources(self) -> int:
        return len(self._dist)

    def clear(self) -> None:
        self._dist.clear()
        self._pred.clear()


class ShortestPathEngine:
    """Dijkstra routing with per-source memoisation over a road network."""

    def __init__(
        self,
        network: RoadNetwork,
        max_route_length: float = 30000.0,
        *,
        use_scipy: bool | None = None,
        route_cache_size: int = 100_000,
        source_cache_size: int = 16384,
    ) -> None:
        """Create an engine over ``network``.

        Args:
            network: The road network to route on.
            max_route_length: Bound on the explored radius per source node;
                no reported distance or route ever exceeds it.
            use_scipy: Force the vectorised (True) or pure-Python (False)
                backend; ``None`` picks vectorised when scipy is importable.
            route_cache_size: LRU bound on memoised segment-pair routes.
            source_cache_size: LRU bound on memoised single-source results.
        """
        self.network = network
        self.max_route_length = float(max_route_length)
        self.use_scipy = HAVE_SCIPY if use_scipy is None else bool(use_scipy) and HAVE_SCIPY
        backend_cls = _ScipyBackend if self.use_scipy else _HeapBackend
        self._backend = backend_cls(network, self.max_route_length, source_cache_size)
        self.route_cache_size = int(route_cache_size)
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        self._route_cache: OrderedDict[tuple[int, int], Route | None] = OrderedDict()
        # Node-pair -> (mid segments, node distance) memo: many distinct
        # segment pairs route over the same (end_node, start_node) pair, so
        # the predecessor walk is shared across them.
        self._node_path_cache: dict[tuple[int, int], tuple[tuple[int, ...] | None, float]] = {}
        # (csr, start node index, end node index, length) per segment id, for
        # route_block; rebuilt when the network's adjacency is.
        self._segment_table: tuple | None = None

    # ------------------------------------------------------------- node level
    def node_distance(self, u: int, v: int) -> float:
        """Network distance from node ``u`` to node ``v`` (inf if unreachable).

        Consistent with :meth:`route`: distances beyond ``max_route_length``
        are reported as inf, never as over-bound values.
        """
        return self._backend.distance(u, v)

    def node_path_segments(self, u: int, v: int) -> list[int] | None:
        """Segment ids along the shortest ``u``→``v`` path (None if unreachable).

        Returns an empty list when ``u == v``.
        """
        return self._backend.path_segments(u, v)

    def prime_sources(self, sources: Iterable[int]) -> None:
        """Settle many source nodes ahead of time (one batched query)."""
        self._backend.ensure(sources)

    def distances(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        """Node-distance matrix ``D[i, j] = d(sources[i] -> targets[j])``.

        All uncached sources are settled by a single multi-source Dijkstra
        call; unreachable or out-of-bound pairs are inf.
        """
        return self._backend.distances(sources, targets)

    # ---------------------------------------------------------- segment level
    def route(self, from_segment: int, to_segment: int) -> Route | None:
        """Shortest route between two segments (Definition: transition path).

        The route starts on ``from_segment``, continues along the shortest
        node path from its end node to ``to_segment``'s start node, and ends
        on ``to_segment``.  ``None`` when no path exists within the engine's
        exploration bound.  A self-transition yields a single-segment route
        of length 0.
        """
        key = (from_segment, to_segment)
        cached = self._route_cache.get(key, _MISS)
        if cached is not _MISS:
            self.route_cache_hits += 1
            self._route_cache.move_to_end(key)
            return cached
        self.route_cache_misses += 1
        routed = self._route_uncached(from_segment, to_segment)
        self._route_cache[key] = routed
        while len(self._route_cache) > self.route_cache_size:
            self._route_cache.popitem(last=False)
        return routed

    def _route_uncached(self, from_segment: int, to_segment: int) -> Route | None:
        if from_segment == to_segment:
            return Route(segments=(from_segment,), length=0.0)
        src = self.network.segments[from_segment]
        dst = self.network.segments[to_segment]
        # Direct continuation: dst leaves the node src enters.
        if src.end_node == dst.start_node:
            return Route(segments=(from_segment, to_segment), length=dst.length)
        node_key = (src.end_node, dst.start_node)
        cached_path = self._node_path_cache.get(node_key)
        if cached_path is None:
            mid_list, node_dist = self._backend.path_and_distance(*node_key)
            mid = tuple(mid_list) if mid_list is not None else None
            if len(self._node_path_cache) > self.route_cache_size:
                self._node_path_cache.clear()
            self._node_path_cache[node_key] = (mid, node_dist)
        else:
            mid, node_dist = cached_path
        if mid is None:
            return None
        length = node_dist + dst.length
        if length > self.max_route_length:
            return None
        return Route(segments=(from_segment, *mid, to_segment), length=length)

    def route_many(self, pairs: Sequence[tuple[int, int]]) -> list[Route | None]:
        """Route every ``(from, to)`` pair, e.g. one whole trellis step.

        All source nodes the batch needs are settled with a single
        multi-source Dijkstra call before per-pair reconstruction, replacing
        one heap search per pair.
        """
        need: list[int] = []
        segments = self.network.segments
        for from_segment, to_segment in pairs:
            if from_segment == to_segment:
                continue
            if (from_segment, to_segment) in self._route_cache:
                continue
            src = segments[from_segment]
            if src.end_node != segments[to_segment].start_node:
                need.append(src.end_node)
        if need:
            self._backend.ensure(need)
        cache = self._route_cache
        if len(cache) <= self.route_cache_size // 2:
            # Far from eviction pressure: serve bulk hits with a plain dict
            # probe, skipping the per-hit LRU reordering.  Values are
            # deterministic, so recency order only affects eviction choice.
            out: list[Route | None] = []
            for a, b in pairs:
                cached = cache.get((a, b), _MISS)
                if cached is not _MISS:
                    self.route_cache_hits += 1
                    out.append(cached)
                else:
                    out.append(self.route(a, b))
            return out
        return [self.route(a, b) for a, b in pairs]

    def route_block(self, pairs: Sequence[tuple[int, int]]) -> RouteBlock:
        """Route every ``(from, to)`` pair into one columnar block.

        Entry ``i`` equals ``route(*pairs[i])``: a self pair is ``(a,)``
        with length 0, a direct continuation ``(a, b)`` with ``b``'s length
        (never capped), and any other pair goes over the shortest node path
        and is missing when that is unreachable or longer than
        ``max_route_length``.  One multi-source Dijkstra call settles every
        source node the block needs; the rows it returns are read directly,
        so a block with more sources than the source cache holds loses
        none.  Predecessor chains of all distinct node pairs are walked in
        lockstep, and each hop's segment comes from one sorted-key
        ``searchsorted`` over the CSR.  The per-pair route cache and the
        node-path cache are neither read nor filled.  The heap backend has
        no native builder and packs :meth:`route_many` instead.
        """
        if not self.use_scipy:
            return RouteBlock.from_routes(self.route_many(pairs))
        csr, seg_start, seg_end, seg_length = self._segment_tables()
        n = len(pairs)
        flat = np.fromiter(
            (s for pair in pairs for s in pair), dtype=np.int64, count=2 * n
        )
        a, b = flat[0::2], flat[1::2]
        u, v = seg_end[a], seg_start[b]
        lengths = np.full(n, math.inf)
        counts = np.zeros(n, dtype=np.int64)
        same = a == b
        lengths[same] = 0.0
        counts[same] = 1
        direct = ~same & (u == v)
        lengths[direct] = seg_length[b[direct]]
        counts[direct] = 2
        walk = np.flatnonzero(~same & ~direct)
        # Walk each distinct (end node, start node) pair once.
        keys, which = np.unique(u[walk] * csr.num_nodes + v[walk], return_inverse=True)
        dist, depth, roads, road_start = self._node_paths(csr, keys)
        walk_length = dist[which] + seg_length[b[walk]]
        routed = walk_length <= self.max_route_length  # False for inf
        walk, which = walk[routed], which[routed]
        lengths[walk] = walk_length[routed]
        counts[walk] = depth[which] + 2
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        segment_ids = np.empty(int(offsets[-1]), dtype=np.int64)
        found = counts > 0
        segment_ids[offsets[:-1][found]] = a[found]
        two_plus = counts > 1
        segment_ids[offsets[1:][two_plus] - 1] = b[two_plus]
        if walk.shape[0]:
            segment_ids[_ragged_ranges(offsets[walk] + 1, depth[which])] = roads[
                _ragged_ranges(road_start[which], depth[which])
            ]
        return RouteBlock(found, lengths, offsets, segment_ids)

    def _node_paths(
        self, csr, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Shortest node paths for sorted ``u * N + v`` node-index keys.

        Returns ``(dist, depth, roads, road_start)``: path ``q`` has node
        distance ``dist[q]`` (inf when unreachable) and the roads
        ``roads[road_start[q] : road_start[q] + depth[q]]``.  All chains
        are walked back from their targets in lockstep, one predecessor
        gather per hop.
        """
        count = keys.shape[0]
        u, v = keys // csr.num_nodes, keys % csr.num_nodes
        dist = np.full(count, math.inf)
        depth = np.zeros(count, dtype=np.int64)
        road_start = np.zeros(count, dtype=np.int64)
        if not count:
            return dist, depth, np.empty(0, dtype=np.int64), road_start
        # Sorted keys keep each source's paths contiguous.
        sources, first = np.unique(u, return_index=True)
        bounds = [*first.tolist(), count]
        rows = self._backend.ensure(csr.node_ids[sources].tolist())
        source_rows = [rows[node] for node in csr.node_ids[sources].tolist()]
        for lo, hi, (dist_row, _) in zip(bounds, bounds[1:], source_rows):
            dist[lo:hi] = dist_row[v[lo:hi]]
        pred = np.stack([pred_row for _, pred_row in source_rows])
        row_of = np.repeat(np.arange(len(source_rows)), np.diff(bounds))
        hops = []  # (path, from node, to node, hops walked so far)
        cur = v.copy()
        active = np.flatnonzero(np.isfinite(dist))
        step = 0
        while active.shape[0]:
            p = pred[row_of[active], cur[active]]
            broken = p < 0
            if broken.any():  # never reaches the source: unreachable
                dist[active[broken]] = math.inf
                active, p = active[~broken], p[~broken]
            hops.append((active, p, cur[active], np.full(active.shape[0], step)))
            cur[active] = p
            active = active[p != u[active]]
            step += 1
        if not hops:
            return dist, depth, np.empty(0, dtype=np.int64), road_start
        path, hop_from, hop_to, hop_step = (np.concatenate(col) for col in zip(*hops))
        keep = np.isfinite(dist[path])
        path = path[keep]
        depth = np.bincount(path, minlength=count)
        np.cumsum(depth[:-1], out=road_start[1:])
        # Hop ``s`` counted back from the target is the path's
        # ``depth - 1 - s``-th road.
        roads = np.empty(path.shape[0], dtype=np.int64)
        roads[road_start[path] + depth[path] - 1 - hop_step[keep]] = csr.segments_between(
            hop_from[keep], hop_to[keep]
        )
        return dist, depth, roads, road_start

    def _segment_tables(self) -> tuple:
        """``(csr, start node index, end node index, length)`` by segment id."""
        csr = self.network.csr()
        if self._segment_table is None or self._segment_table[0] is not csr:
            segments = self.network.segments
            size = max(segments) + 1 if segments else 0
            start = np.zeros(size, dtype=np.int64)
            end = np.zeros(size, dtype=np.int64)
            length = np.zeros(size, dtype=np.float64)
            for seg_id, seg in segments.items():
                start[seg_id] = csr.index[seg.start_node]
                end[seg_id] = csr.index[seg.end_node]
                length[seg_id] = seg.length
            self._segment_table = (csr, start, end, length)
        return self._segment_table

    def route_length(self, from_segment: int, to_segment: int) -> float:
        """Length of :meth:`route` (inf when unreachable)."""
        routed = self.route(from_segment, to_segment)
        return routed.length if routed is not None else math.inf

    def route_length_matrix(
        self, from_segments: Sequence[int], to_segments: Sequence[int]
    ) -> np.ndarray:
        """Segment-transition lengths ``L[i, j] = route_length(from[i], to[j])``.

        Computed from one batched node-distance matrix plus vectorised
        arithmetic; agrees with per-pair :meth:`route_length` everywhere.
        """
        segments = self.network.segments
        ends = [segments[s].end_node for s in from_segments]
        starts = [segments[s].start_node for s in to_segments]
        node_d = self.distances(ends, starts)
        matrix = node_d + np.array([segments[s].length for s in to_segments])
        # route() only bounds the mid-path branch; direct continuations
        # (node distance 0) are never capped, so mirror that here.
        matrix[(matrix > self.max_route_length) & (node_d > 0)] = np.inf
        if len(from_segments) and len(to_segments):
            same = np.asarray(from_segments).reshape(-1, 1) == np.asarray(to_segments)
            matrix[same] = 0.0
        return matrix

    # -------------------------------------------------------------- lifecycle
    def clear_cache(self) -> None:
        """Drop all memoised Dijkstra results (e.g. after editing the network)."""
        self._backend.clear()
        self._route_cache.clear()
        self._node_path_cache.clear()
        self.route_cache_hits = 0
        self.route_cache_misses = 0

    @property
    def cached_sources(self) -> int:
        """Number of source nodes with a memoised Dijkstra result."""
        return self._backend.cached_sources

    def cache_stats(self) -> dict[str, int]:
        """Route-cache hit/miss counters plus cache occupancy."""
        return {
            "route_cache_hits": self.route_cache_hits,
            "route_cache_misses": self.route_cache_misses,
            "route_cache_entries": len(self._route_cache),
            "cached_sources": self.cached_sources,
        }


def stitch_segments(matched: list[int], engine) -> list[int]:
    """Connect per-point matched segments into one consecutive path.

    ``engine`` is any :class:`~repro.network.router.Router`.  Consecutive
    duplicates collapse; gaps are filled with the shortest route between the
    segments.  Unroutable gaps fall back to a hard break (the later segment
    simply follows), which keeps the function total.
    """
    path: list[int] = []
    for seg_id in matched:
        if path and path[-1] == seg_id:
            continue
        if not path:
            path.append(seg_id)
            continue
        route = engine.route(path[-1], seg_id)
        if route is None:
            path.append(seg_id)
            continue
        for hop in route.segments[1:]:
            if path[-1] != hop:
                path.append(hop)
    return path
