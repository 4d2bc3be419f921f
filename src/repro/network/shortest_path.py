"""Shortest-path routing between road segments.

HMM map matching evaluates the shortest path between every pair of
neighbouring candidate roads, so routing dominates runtime.  Following the
precomputation idea the paper borrows from FMM [11], the engine memoises one
single-source Dijkstra result per queried source node; repeated queries
from the same candidate segment (the common case across a trajectory) then
cost an array lookup.  Like FMM's UBODT, which keeps only paths shorter
than a bound, a source is searched only as far as its targets need.

Two backends share that contract:

* a vectorised backend on :func:`scipy.sparse.csgraph.dijkstra` over the
  network's CSR adjacency.  It searches each source to a first-pass limit
  taken from the straight-line distance to its targets (sources sharing a
  limit share one C-level call) and keeps only the nodes that search
  settled.  A target left unsettled is unknown, not unreachable: the
  source is searched again to ``max_route_length`` before anything is
  answered.  A bounded search whose predecessors could depend on heap
  order (equal-distance ties) is redone to ``max_route_length`` too, so
  every answer equals the full ``max_route_length`` search bit for bit;
* a pure-Python heap backend, used when scipy is unavailable and kept as
  the reference implementation the perf benchmarks compare against.

Segment-level routes are additionally memoised in an LRU-bounded cache with
hit/miss counters, sized for long-running matching workers.

The batched matcher does not build one :class:`Route` per candidate pair:
:meth:`ShortestPathEngine.route_block` routes a whole trajectory's candidate
products into one columnar :class:`RouteBlock` (found flags, lengths, and
the segment ids of every route in one flat array).  It settles the block's
source nodes in batched Dijkstra calls, walks every pair's predecessor
chain in lockstep with NumPy over the bounded rows laid end to end, and
bypasses the per-pair route cache; each entry equals what
:meth:`ShortestPathEngine.route` returns.
"""

from __future__ import annotations

import heapq
import math
from itertools import chain
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.geometry.cell_index import ragged_ranges, sorted_unique
from repro.network.road_network import RoadNetwork

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


class _Row(NamedTuple):
    """One source's Dijkstra result over the nodes it settled.

    A search bounded by ``limit`` settles exactly the nodes within
    ``limit`` of its source, each with its exact distance; a node it does
    not list is farther than ``limit`` or unreachable, not known absent.
    """

    nodes: np.ndarray  # int32 CSR node indices, sorted
    dist: np.ndarray  # float64 distance of each node
    pred: np.ndarray  # int32 position in ``nodes`` of its predecessor, -1 at the source
    limit: float


class _Rows(NamedTuple):
    """Rows laid end to end, and where each queried pair's target sits.

    ``nodes``, ``dist`` and ``pred`` hold one row after another.  Pair
    ``i``'s row starts at ``start[i]`` and its target is at ``pos[i]`` (-1
    when beyond ``max_route_length`` or unreachable).  ``pred`` keeps
    positions within a row, so the node at ``j`` in pair ``i``'s row has
    its predecessor at ``start[i] + pred[j]`` (``pred`` is -1 at a source).
    """

    nodes: np.ndarray
    dist: np.ndarray
    pred: np.ndarray
    start: np.ndarray
    pos: np.ndarray


def _first_pass_limits(far: np.ndarray, cap: float) -> np.ndarray:
    """Search radius for sources whose farthest target lies ``far`` metres away.

    Twice the straight-line distance plus 500 m covers nearly every network
    detour a transition takes; rounding up to 1 km * 2^k lets sources share
    one Dijkstra call and lets a cached row serve later, nearer requests.
    """
    need = np.maximum((2.0 * far + 500.0) / 1000.0, 1.0)
    return np.minimum(1000.0 * np.exp2(np.ceil(np.log2(need))), cap)


def _compact(dist: np.ndarray, pred: np.ndarray, limit: float) -> list[_Row]:
    """Dense scipy rows (distance, predecessor node) as :class:`_Row` s."""
    n = dist.shape[1]
    flat = np.flatnonzero(np.isfinite(dist))
    parent = pred.ravel()[flat]
    first = np.searchsorted(flat, np.arange(dist.shape[0] + 1) * n)
    row = np.repeat(np.arange(dist.shape[0]), np.diff(first))
    # A predecessor is settled in the same row, at its own flat index.
    position = np.searchsorted(flat, row * n + parent) - first[row]
    position[parent < 0] = -1
    nodes = (flat - row * n).astype(np.int32)
    values = dist.ravel()[flat]
    position = position.astype(np.int32)
    bounds = first.tolist()
    return [
        _Row(nodes[a:b].copy(), values[a:b].copy(), position[a:b].copy(), limit)
        for a, b in zip(bounds, bounds[1:])
    ]


class _ScipyBackend:
    """Node-level Dijkstra on the CSR adjacency, bounded and batched.

    Each source is settled only as far as its targets need
    (:meth:`rows_for`) and cached as a :class:`_Row` of its settled nodes.
    """

    def __init__(
        self, network: RoadNetwork, max_route_length: float, cache_size: int
    ) -> None:
        self._network = network
        self._limit = max_route_length
        self._cache_size = cache_size
        # CSR node index of the source -> its row
        self._rows: OrderedDict[int, _Row] = OrderedDict()
        # (csr, node coordinates, in-edge CSR, in-edge length gap), rebuilt
        # with the adjacency
        self._graph: tuple | None = None

    def _tables(self) -> tuple:
        csr = self._network.csr()
        if self._graph is None or self._graph[0] is not csr:
            nodes = self._network.nodes
            xy = np.array(
                [(nodes[n].x, nodes[n].y) for n in csr.node_ids.tolist()], dtype=np.float64
            ).reshape(-1, 2)
            into = csr.matrix.T.tocsr()
            # Least difference between two in-edge lengths of each node.
            head = np.repeat(np.arange(csr.num_nodes), np.diff(into.indptr))
            order = np.lexsort((into.data, head))
            head, length = head[order], into.data[order]
            same = head[1:] == head[:-1]
            gap = np.full(csr.num_nodes, np.inf)
            np.minimum.at(gap, head[1:][same], np.diff(length)[same])
            self._graph = (csr, xy, into, gap)
        return self._graph

    def rows_for(self, u: np.ndarray, v: np.ndarray) -> _Rows:
        """Rows that answer every ``u[i] -> v[i]`` node-index pair exactly.

        A cached row answers when it settled the target or was searched to
        ``max_route_length``.  Otherwise the source is searched to its
        first-pass limit (:func:`_first_pass_limits` over its targets) and,
        while a target is still unsettled, again to ``max_route_length``.
        The rows are read from this call, never back through the LRU, so
        none is lost to its bound.
        """
        csr, xy, _, _ = self._tables()
        n = csr.num_nodes
        sources, row_of = sorted_unique(u, return_inverse=True)
        far = np.zeros(sources.shape[0])
        np.maximum.at(far, row_of, np.hypot(*(xy[v] - xy[u]).T))
        limits = _first_pass_limits(far, self._limit)
        rows: list[_Row | None] = []
        for s in sources.tolist():
            row = self._rows.get(s)
            if row is not None:
                self._rows.move_to_end(s)
            rows.append(row)
        todo = [i for i, row in enumerate(rows) if row is None]
        query = row_of * n + v
        while True:
            if todo:
                for i, row in zip(todo, self._settle(sources[todo], limits[todo])):
                    rows[i] = row
            sizes = np.fromiter((row.nodes.shape[0] for row in rows), np.int64, len(rows))
            row_start = np.zeros(len(rows), dtype=np.int64)
            np.cumsum(sizes[:-1], out=row_start[1:])
            nodes = np.concatenate([row.nodes for row in rows])
            keys = np.repeat(np.arange(len(rows)) * n, sizes) + nodes
            pos = np.searchsorted(keys, query)
            pos[pos == keys.shape[0]] = 0
            miss = keys[pos] != query
            if not miss.any():
                break
            pos[miss] = -1
            todo = [
                i for i in sorted_unique(row_of[miss]).tolist() if rows[i].limit < self._limit
            ]
            if not todo:
                break
            # A row short of its first-pass limit is searched to it; one
            # already that deep goes all the way.
            for i in todo:
                if limits[i] <= rows[i].limit:
                    limits[i] = self._limit
        return _Rows(
            nodes,
            np.concatenate([row.dist for row in rows]),
            np.concatenate([row.pred for row in rows]),
            row_start[row_of],
            pos,
        )

    def _settle(self, sources: np.ndarray, limits: np.ndarray) -> list[_Row]:
        """Search every source to its limit, one Dijkstra call per limit.

        A bounded row whose predecessors could differ from the
        ``max_route_length`` search's (:meth:`_ambiguous`) is searched again
        to ``max_route_length``, so every row agrees with the full search.
        """
        matrix = self._tables()[0].matrix
        out: dict[int, _Row] = {}
        redo = np.zeros(sources.shape[0], dtype=bool)
        for limit in sorted_unique(limits).tolist():
            batch = np.flatnonzero(limits == limit)
            dist, pred = _csgraph_dijkstra(
                matrix, directed=True, indices=sources[batch],
                return_predecessors=True, limit=limit,
            )
            if limit < self._limit:
                redo[batch] = self._ambiguous(dist, pred, limit)
            for k, row in zip(batch.tolist(), _compact(dist, pred, limit)):
                out[k] = row
        if redo.any():
            batch = np.flatnonzero(redo)
            dist, pred = _csgraph_dijkstra(
                matrix, directed=True, indices=sources[batch],
                return_predecessors=True, limit=self._limit,
            )
            for k, row in zip(batch.tolist(), _compact(dist, pred, self._limit)):
                out[k] = row
        settled = [out[k] for k in range(sources.shape[0])]
        cache = self._rows
        for source, row in zip(sources.tolist(), settled):
            cache[source] = row
            cache.move_to_end(source)
        while len(cache) > self._cache_size:
            cache.popitem(last=False)
        return settled

    def _ambiguous(self, dist: np.ndarray, pred: np.ndarray, limit: float) -> np.ndarray:
        """Rows whose predecessors may depend on the search's heap order.

        Dijkstra keeps, as a node's predecessor, the first settled
        in-neighbour ``x`` whose ``dist[x] + length`` equals the node's
        distance: the tight in-neighbour of least ``dist[x]`` or, when
        several share that least distance, whichever its heap pops first.
        Only that last case can differ between a bounded search and the
        ``max_route_length`` one, whose heaps hold different nodes, so a row
        is flagged when some settled node has a second tight in-neighbour
        at its predecessor's distance.  Two such in-neighbours add lengths
        that differ by at most one spacing of a float no larger than
        ``limit`` to the same distance, so nodes whose in-edge lengths are
        all farther apart than that are not checked.
        """
        _, _, into, gap = self._tables()
        prone = gap <= 2.0 * np.spacing(limit)
        if not prone.any():
            return np.zeros(dist.shape[0], dtype=bool)
        n = dist.shape[1]
        flat_dist, flat_pred = dist.ravel(), pred.ravel()
        # Settled nodes but the sources, where a tie is possible.
        head = np.flatnonzero((pred >= 0) & prone)
        node = head % n
        degree = into.indptr[node + 1] - into.indptr[node]
        edges = ragged_ranges(into.indptr[node], degree)
        at = np.repeat(head, degree)
        row_base = at - np.repeat(node, degree)
        x = row_base + into.indices[edges]
        p = row_base + flat_pred[at]
        dx = flat_dist[x]
        tied = (x != p) & (dx == flat_dist[p]) & (dx + into.data[edges] == flat_dist[at])
        flagged = np.zeros(dist.shape[0], dtype=bool)
        flagged[at[tied] // n] = True
        return flagged

    def _lookup(self, u: int, v: int) -> tuple[_Row | _Rows, int] | None:
        """A row holding ``u``'s search and ``v``'s position in it (-1: beyond
        reach), or None off the network.  Either form of row starts at 0."""
        index = self._network.csr().index
        u_idx, v_idx = index.get(u), index.get(v)
        if u_idx is None or v_idx is None:
            return None
        row = self._rows.get(u_idx)
        if row is not None:  # the rows_for rule, without its batch set-up
            j = int(np.searchsorted(row.nodes, v_idx))
            if j < row.nodes.shape[0] and row.nodes[j] == v_idx:
                self._rows.move_to_end(u_idx)
                return row, j
            if row.limit >= self._limit:
                self._rows.move_to_end(u_idx)
                return row, -1
        rows = self.rows_for(
            np.array([u_idx], dtype=np.int64), np.array([v_idx], dtype=np.int64)
        )
        return rows, int(rows.pos[0])

    def prime(self, pairs: Sequence[tuple[int, int]]) -> None:
        index = self._network.csr().index
        known = [(index[a], index[b]) for a, b in pairs if a in index and b in index]
        if known:
            u, v = np.array(known, dtype=np.int64).T
            self.rows_for(u, v)

    def distance(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        found = self._lookup(u, v)
        if found is None or found[1] < 0:
            return math.inf
        row, pos = found
        return float(row.dist[pos])

    def path_and_distance(self, u: int, v: int) -> tuple[list[int] | None, float]:
        """Path segments and distance from one row lookup."""
        if u == v:
            return [], 0.0
        found = self._lookup(u, v)
        if found is None or found[1] < 0:
            return None, math.inf
        row, pos = found
        csr = self._network.csr()
        nodes, pred = row.nodes, row.pred
        path: list[int] = []
        node = pos
        while (p := int(pred[node])) >= 0:
            path.append(csr.segment_between(int(nodes[p]), int(nodes[node])))
            node = p
        path.reverse()
        return path, float(row.dist[pos])

    def distances(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        index = self._network.csr().index
        s_idx = np.array([index.get(s, -1) for s in sources], dtype=np.int64)
        t_idx = np.array([index.get(t, -1) for t in targets], dtype=np.int64)
        out = np.full((len(sources), len(targets)), np.inf)
        i, j = np.nonzero((s_idx[:, None] >= 0) & (t_idx[None, :] >= 0))
        if i.shape[0]:
            rows = self.rows_for(s_idx[i], t_idx[j])
            reached = rows.pos >= 0
            out[i[reached], j[reached]] = rows.dist[rows.pos[reached]]
        if len(sources) and len(targets):
            src = np.asarray(sources).reshape(-1, 1)
            out[src == np.asarray(targets).reshape(1, -1)] = 0.0
        return out

    @property
    def cached_sources(self) -> int:
        return len(self._rows)

    @property
    def cached_bytes(self) -> int:
        return sum(
            row.nodes.nbytes + row.dist.nbytes + row.pred.nbytes for row in self._rows.values()
        )

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

    def _search(self, source: int) -> tuple[dict[int, float], dict[int, int]]:
        """``source``'s distance and incoming-segment maps, searched on a miss."""
        dist = self._dist.get(source)
        if dist is None:
            return self._run(source)
        self._dist.move_to_end(source)
        return dist, self._pred[source]

    def prime(self, pairs: Sequence[tuple[int, int]]) -> None:
        for source, _ in pairs:
            self._search(source)

    def _run(self, source: int) -> tuple[dict[int, float], dict[int, int]]:
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
        return dist, pred

    def distance(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        return self._search(u)[0].get(v, math.inf)

    def path_and_distance(self, u: int, v: int) -> tuple[list[int] | None, float]:
        """Path segments and distance from one settled-source lookup."""
        if u == v:
            return [], 0.0
        dist, pred = self._search(u)
        if v not in dist:
            return None, math.inf
        path: list[int] = []
        node = v
        while node != u:
            seg_id = pred[node]
            path.append(seg_id)
            node = self._network.segments[seg_id].start_node
        path.reverse()
        return path, dist[v]

    def distances(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        out = np.full((len(sources), len(targets)), np.inf)
        for i, source in enumerate(sources):
            for j, target in enumerate(targets):
                out[i, j] = self.distance(source, target)
        return out

    @property
    def cached_sources(self) -> int:
        return len(self._dist)

    @property
    def cached_bytes(self) -> int:
        return 0  # dict rows; not measured

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
                no reported distance or route ever exceeds it.  Sources
                are searched less far when their targets allow, with the
                same answers.
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
        return self._backend.path_and_distance(u, v)[0]

    def prime_node_pairs(self, pairs: Sequence[tuple[int, int]]) -> None:
        """Settle the sources of many ``(u, v)`` node pairs in one batched query."""
        self._backend.prime(pairs)

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

        All node pairs the batch needs are settled in one batched query
        before per-pair reconstruction, replacing one heap search per pair.
        """
        need: list[tuple[int, int]] = []
        segments = self.network.segments
        for from_segment, to_segment in pairs:
            if from_segment == to_segment:
                continue
            if (from_segment, to_segment) in self._route_cache:
                continue
            u, v = segments[from_segment].end_node, segments[to_segment].start_node
            if u != v:
                need.append((u, v))
        if need:
            self._backend.prime(need)
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
        ``max_route_length``.  Every source node the block needs is settled
        as far as its targets need, in batched Dijkstra calls; the rows are
        read from that query directly, so a block with more sources than
        the source cache holds loses none.  Predecessor chains of all
        distinct node pairs are walked in lockstep over those rows laid end
        to end, and each hop's segment comes from one sorted-key
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
        keys, which = sorted_unique(u[walk] * csr.num_nodes + v[walk], return_inverse=True)
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
            segment_ids[ragged_ranges(offsets[walk] + 1, depth[which])] = roads[
                ragged_ranges(road_start[which], depth[which])
            ]
        return RouteBlock(found, lengths, offsets, segment_ids)

    def _node_paths(
        self, csr, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Shortest node paths for sorted ``u * N + v`` node-index keys, ``u != v``.

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
        rows = self._backend.rows_for(u, v)
        active = np.flatnonzero(rows.pos >= 0)
        cur = rows.pos.copy()
        dist[active] = rows.dist[cur[active]]
        hops = []  # (path, from node, to node, hops walked so far)
        step = 0
        while active.shape[0]:
            here = cur[active]
            p = rows.pred[here] + rows.start[active]
            hops.append((active, rows.nodes[p], rows.nodes[here], np.full(active.shape[0], step)))
            cur[active] = p
            active = active[rows.pred[p] >= 0]  # stop at the source
            step += 1
        if not hops:
            return dist, depth, np.empty(0, dtype=np.int64), road_start
        path, hop_from, hop_to, hop_step = (np.concatenate(col) for col in zip(*hops))
        depth = np.bincount(path, minlength=count)
        np.cumsum(depth[:-1], out=road_start[1:])
        # Hop ``s`` counted back from the target is the path's
        # ``depth - 1 - s``-th road.
        roads = np.empty(path.shape[0], dtype=np.int64)
        roads[road_start[path] + depth[path] - 1 - hop_step] = csr.segments_between(
            hop_from, hop_to
        )
        return dist, depth, roads, road_start

    def _segment_tables(self) -> tuple:
        """``(csr, start node index, end node index, length)`` by segment id."""
        csr = self.network.csr()
        if self._segment_table is None or self._segment_table[0] is not csr:
            segments = self.network.segments
            size = self.network.segment_id_bound
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

    @property
    def cached_row_bytes(self) -> int:
        """Bytes held by the memoised Dijkstra rows' arrays (0 on the heap
        backend, whose rows are dicts)."""
        return self._backend.cached_bytes

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
