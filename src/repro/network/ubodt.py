"""UBODT: an upper-bounded origin–destination precomputation table.

The paper notes (§V-A2, citing FMM [11]) that HMM matching can use a
precomputation table to avoid repeated shortest-path searches.  A UBODT
stores, for every node pair within a distance bound Δ, the network distance
and the first segment of the shortest path — enough to answer both route
lengths and full route reconstructions in O(path) time.

The table lives in sorted structured numpy arrays keyed by a composite
``source * K + target`` integer, so :meth:`Ubodt.lookup_many` answers whole
batches of pairs with one ``searchsorted`` call, and :meth:`Ubodt.build`
runs scipy's multi-source Dijkstra over the network's CSR adjacency instead
of one Python heap search per node (a pure-Python build remains as the
scipy-less fallback).

:class:`UbodtRouter` exposes the same ``route``/``route_length`` interface
as :class:`~repro.network.shortest_path.ShortestPathEngine`, answering
within-Δ queries from the table and delegating the (rare) longer ones to a
fallback engine.  The table serialises to ``.npz`` so city-scale
deployments build it once.
"""

from __future__ import annotations

import heapq
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.network.road_network import RoadNetwork
from repro.network.shortest_path import (
    HAVE_SCIPY,
    Route,
    ShortestPathEngine,
    _csgraph_dijkstra,
)


class Ubodt:
    """The precomputed table: ``(source, target) -> (distance, first_segment)``."""

    def __init__(self, delta_m: float) -> None:
        if delta_m <= 0:
            raise ValueError("delta_m must be positive")
        self.delta_m = float(delta_m)
        self._set_arrays(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
        )

    def _set_arrays(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        distances: np.ndarray,
        firsts: np.ndarray,
    ) -> None:
        """Adopt row arrays, sorting them by the composite key."""
        if sources.size:
            self._key_base = int(max(sources.max(), targets.max())) + 1
        else:
            self._key_base = 1
        keys = sources * self._key_base + targets
        order = np.argsort(keys, kind="stable")
        self._sources = sources[order]
        self._targets = targets[order]
        self._distances = distances[order]
        self._firsts = firsts[order]
        self._keys = keys[order]

    @classmethod
    def from_arrays(
        cls,
        delta_m: float,
        sources: np.ndarray,
        targets: np.ndarray,
        distances: np.ndarray,
        firsts: np.ndarray,
    ) -> "Ubodt":
        """A table over explicit row arrays (sorted internally)."""
        table = cls(delta_m)
        table._set_arrays(
            np.asarray(sources, dtype=np.int64),
            np.asarray(targets, dtype=np.int64),
            np.asarray(distances, dtype=np.float64),
            np.asarray(firsts, dtype=np.int64),
        )
        return table

    def sorted_arrays(self) -> dict[str, np.ndarray]:
        """The table's row arrays in composite-key order (for publishing).

        The composite ``keys`` array rides along so
        :meth:`attach_sorted` can adopt everything without allocating —
        recomputing ``source * key_base + target`` would materialise a
        private copy the size of the table.
        """
        return {
            "sources": self._sources,
            "targets": self._targets,
            "distances": self._distances,
            "firsts": self._firsts,
            "keys": self._keys,
        }

    @classmethod
    def attach_sorted(cls, delta_m: float, arrays: dict[str, np.ndarray]) -> "Ubodt":
        """Adopt pre-sorted row arrays without copying or re-sorting.

        ``arrays`` must come from :meth:`sorted_arrays` (typically via a
        read-only shared-memory attach): rows already sorted by composite
        key, with the key column included.  Unlike :meth:`from_arrays`,
        nothing is cast or reordered — lookups run directly against the
        caller's buffers.
        """
        table = cls.__new__(cls)
        if delta_m <= 0:
            raise ValueError("delta_m must be positive")
        table.delta_m = float(delta_m)
        sources, targets = arrays["sources"], arrays["targets"]
        if sources.size:
            table._key_base = int(max(sources.max(), targets.max())) + 1
        else:
            table._key_base = 1
        table._sources = sources
        table._targets = targets
        table._distances = arrays["distances"]
        table._firsts = arrays["firsts"]
        table._keys = arrays["keys"]
        return table

    def __len__(self) -> int:
        return int(self._keys.size)

    def rows(self) -> Iterator[tuple[tuple[int, int], tuple[float, int]]]:
        """Iterate ``((source, target), (distance, first_segment))`` rows."""
        for s, t, d, f in zip(self._sources, self._targets, self._distances, self._firsts):
            yield (int(s), int(t)), (float(d), int(f))

    # ----------------------------------------------------------------- lookup
    def lookup(self, source: int, target: int) -> tuple[float, int] | None:
        """``(distance, first_segment)`` or ``None`` when out of range."""
        if source == target:
            return (0.0, -1)
        if not (0 <= source < self._key_base and 0 <= target < self._key_base):
            return None
        key = source * self._key_base + target
        pos = int(np.searchsorted(self._keys, key))
        if pos < self._keys.size and self._keys[pos] == key:
            return (float(self._distances[pos]), int(self._firsts[pos]))
        return None

    def lookup_many(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`lookup` over aligned id arrays.

        Returns ``(distances, first_segments)``; missing pairs are
        ``(inf, -2)`` and self-pairs are ``(0.0, -1)``, mirroring the scalar
        contract.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        distances = np.full(sources.shape, np.inf)
        firsts = np.full(sources.shape, -2, dtype=np.int64)
        same = sources == targets
        distances[same] = 0.0
        firsts[same] = -1
        valid = (
            ~same
            & (sources >= 0)
            & (targets >= 0)
            & (sources < self._key_base)
            & (targets < self._key_base)
        )
        if self._keys.size and valid.any():
            keys = sources[valid] * self._key_base + targets[valid]
            pos = np.minimum(
                np.searchsorted(self._keys, keys), self._keys.size - 1
            )
            found = self._keys[pos] == keys
            rows = np.flatnonzero(valid)[found]
            distances[rows] = self._distances[pos[found]]
            firsts[rows] = self._firsts[pos[found]]
        return distances, firsts

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls, network: RoadNetwork, delta_m: float, chunk_size: int = 256
    ) -> "Ubodt":
        """Record every node pair within Δ, with the path's first segment.

        Runs one multi-source Dijkstra per ``chunk_size`` sources on the CSR
        adjacency when scipy is available (first segments are recovered from
        the predecessor matrix with memoised chain resolution), otherwise a
        bounded Python heap search per node.
        """
        if delta_m <= 0:
            raise ValueError("delta_m must be positive")
        if HAVE_SCIPY:
            return cls._build_vectorised(network, delta_m, chunk_size)
        return cls._build_python(network, delta_m)

    @classmethod
    def _build_vectorised(
        cls, network: RoadNetwork, delta_m: float, chunk_size: int
    ) -> "Ubodt":
        csr = network.csr()
        n = csr.num_nodes
        node_ids = csr.node_ids
        src_parts: list[np.ndarray] = []
        tgt_parts: list[np.ndarray] = []
        dist_parts: list[np.ndarray] = []
        first_parts: list[np.ndarray] = []
        for start in range(0, n, chunk_size):
            indices = np.arange(start, min(start + chunk_size, n))
            dist, pred = _csgraph_dijkstra(
                csr.matrix,
                directed=True,
                indices=indices,
                return_predecessors=True,
                limit=delta_m,
            )
            for row, s_idx in enumerate(indices):
                s_idx = int(s_idx)
                drow, prow = dist[row], pred[row]
                reach = np.flatnonzero(np.isfinite(drow))
                reach = reach[reach != s_idx]
                if reach.size == 0:
                    continue
                # First segment of each shortest path: resolve predecessor
                # chains once, memoising along the way (amortised O(n)).
                first = np.full(n, -1, dtype=np.int64)
                for v in reach:
                    v = int(v)
                    if first[v] >= 0:
                        continue
                    stack = [v]
                    node = int(prow[v])
                    while node != s_idx and first[node] < 0:
                        stack.append(node)
                        node = int(prow[node])
                    if node == s_idx:
                        leaf = stack.pop()
                        f = csr.segment_between(s_idx, leaf)
                        first[leaf] = f
                    else:
                        f = first[node]
                    while stack:
                        first[stack.pop()] = f
                src_parts.append(np.full(reach.size, node_ids[s_idx], dtype=np.int64))
                tgt_parts.append(node_ids[reach])
                dist_parts.append(drow[reach])
                first_parts.append(first[reach])
        if not src_parts:
            return cls(delta_m)
        return cls.from_arrays(
            delta_m,
            np.concatenate(src_parts),
            np.concatenate(tgt_parts),
            np.concatenate(dist_parts),
            np.concatenate(first_parts),
        )

    @classmethod
    def _build_python(cls, network: RoadNetwork, delta_m: float) -> "Ubodt":
        sources: list[int] = []
        targets: list[int] = []
        distances: list[float] = []
        firsts: list[int] = []
        for source in network.nodes:
            dist: dict[int, float] = {source: 0.0}
            first: dict[int, int] = {}
            heap: list[tuple[float, int]] = [(0.0, source)]
            settled: set[int] = set()
            while heap:
                d, node = heapq.heappop(heap)
                if node in settled:
                    continue
                settled.add(node)
                if d > delta_m:
                    break
                for seg_id in network.out_segments(node):
                    seg = network.segments[seg_id]
                    nd = d + seg.length
                    if nd <= delta_m and nd < dist.get(seg.end_node, np.inf):
                        dist[seg.end_node] = nd
                        first[seg.end_node] = seg_id if node == source else first[node]
                        heapq.heappush(heap, (nd, seg.end_node))
            for target, d in dist.items():
                if target != source and d <= delta_m:
                    sources.append(source)
                    targets.append(target)
                    distances.append(d)
                    firsts.append(first[target])
        return cls.from_arrays(
            delta_m,
            np.asarray(sources, dtype=np.int64),
            np.asarray(targets, dtype=np.int64),
            np.asarray(distances, dtype=np.float64),
            np.asarray(firsts, dtype=np.int64),
        )

    # ------------------------------------------------------------ persistence
    def save(self, path: str | Path) -> None:
        """Write the table to ``path`` (npz)."""
        keys = np.column_stack([self._sources, self._targets]).astype(np.int64)
        values = np.column_stack(
            [self._distances, self._firsts.astype(np.float64)]
        )
        if not keys.size:
            keys = np.empty((0, 2), dtype=np.int64)
            values = np.empty((0, 2), dtype=np.float64)
        np.savez(
            Path(path), delta=np.array([self.delta_m]), keys=keys, values=values
        )

    @classmethod
    def load(cls, path: str | Path) -> "Ubodt":
        """Load a table written by :meth:`save`."""
        with np.load(Path(path)) as archive:
            keys = archive["keys"]
            values = archive["values"]
            return cls.from_arrays(
                float(archive["delta"][0]),
                keys[:, 0],
                keys[:, 1],
                values[:, 0],
                values[:, 1].astype(np.int64),
            )


class UbodtRouter:
    """Drop-in segment router backed by a UBODT with Dijkstra fallback."""

    def __init__(
        self,
        network: RoadNetwork,
        table: Ubodt,
        fallback: ShortestPathEngine | None = None,
    ) -> None:
        self.network = network
        self.table = table
        self.fallback = fallback or ShortestPathEngine(network)
        self.table_hits = 0
        self.fallback_hits = 0

    def _node_route(self, source: int, target: int) -> list[int] | None:
        """Segment ids along the tabled shortest node path (None if absent)."""
        if source == target:
            return []
        path: list[int] = []
        node = source
        while node != target:
            row = self.table.lookup(node, target)
            if row is None:
                return None
            _, first_segment = row
            path.append(first_segment)
            node = self.network.segments[first_segment].end_node
        return path

    def route(self, from_segment: int, to_segment: int) -> Route | None:
        """Same contract as :meth:`ShortestPathEngine.route`."""
        if from_segment == to_segment:
            return Route(segments=(from_segment,), length=0.0)
        src = self.network.segments[from_segment]
        dst = self.network.segments[to_segment]
        if src.end_node == dst.start_node:
            return Route(segments=(from_segment, to_segment), length=dst.length)
        row = self.table.lookup(src.end_node, dst.start_node)
        if row is None:
            self.fallback_hits += 1
            return self.fallback.route(from_segment, to_segment)
        self.table_hits += 1
        middle = self._node_route(src.end_node, dst.start_node)
        if middle is None:  # truncated table row chain: defer to fallback
            self.fallback_hits += 1
            return self.fallback.route(from_segment, to_segment)
        return Route(
            segments=(from_segment, *middle, to_segment),
            length=row[0] + dst.length,
        )

    def route_many(self, pairs: Sequence[tuple[int, int]]) -> list[Route | None]:
        """Batched :meth:`route`: one Dijkstra call warms all fallback pairs."""
        segments = self.network.segments
        need: list[tuple[int, int]] = []
        for from_segment, to_segment in pairs:
            if from_segment == to_segment:
                continue
            src = segments[from_segment]
            dst = segments[to_segment]
            if src.end_node == dst.start_node:
                continue
            if self.table.lookup(src.end_node, dst.start_node) is None:
                need.append((src.end_node, dst.start_node))
        if need:
            self.fallback.prime_node_pairs(need)
        return [self.route(a, b) for a, b in pairs]

    def route_length(self, from_segment: int, to_segment: int) -> float:
        """Length of :meth:`route` (inf when unreachable).

        Answered straight from the table row — the distance is already
        stored, so no path reconstruction happens on this path.
        """
        if from_segment == to_segment:
            return 0.0
        src = self.network.segments[from_segment]
        dst = self.network.segments[to_segment]
        if src.end_node == dst.start_node:
            return dst.length
        row = self.table.lookup(src.end_node, dst.start_node)
        if row is None:
            self.fallback_hits += 1
            return self.fallback.route_length(from_segment, to_segment)
        self.table_hits += 1
        return row[0] + dst.length

    def route_length_matrix(
        self, from_segments: Sequence[int], to_segments: Sequence[int]
    ) -> np.ndarray:
        """Segment-transition lengths via one vectorised table probe.

        Misses (pairs beyond Δ) are filled from the fallback engine's
        batched node-distance matrix, so the result agrees with per-pair
        :meth:`route_length` everywhere.
        """
        segments = self.network.segments
        ends = np.array([segments[s].end_node for s in from_segments], dtype=np.int64)
        starts = np.array([segments[s].start_node for s in to_segments], dtype=np.int64)
        grid_s = np.repeat(ends, starts.size)
        grid_t = np.tile(starts, ends.size)
        distances, _ = self.table.lookup_many(grid_s, grid_t)
        matrix = distances.reshape(ends.size, starts.size)
        missing = ~np.isfinite(matrix)
        self.table_hits += int(matrix.size - missing.sum())
        if missing.any():
            self.fallback_hits += int(missing.sum())
            rows = np.flatnonzero(missing.any(axis=1))
            filled = self.fallback.distances([int(ends[i]) for i in rows], starts.tolist())
            for k, i in enumerate(rows):
                matrix[i, missing[i]] = filled[k, missing[i]]
        node_d = matrix
        matrix = matrix + np.array([segments[s].length for s in to_segments])
        # Mirror route(): direct continuations (node distance 0) are uncapped.
        matrix[(matrix > self.fallback.max_route_length) & (node_d > 0)] = np.inf
        if len(from_segments) and len(to_segments):
            same = np.asarray(from_segments).reshape(-1, 1) == np.asarray(to_segments)
            matrix[same] = 0.0
        return matrix

    def cache_stats(self) -> dict[str, int]:
        """Table/fallback hit counters plus the fallback engine's stats."""
        stats = {"table_hits": self.table_hits, "fallback_hits": self.fallback_hits}
        stats.update(self.fallback.cache_stats())
        return stats
