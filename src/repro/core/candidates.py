"""Candidate road retrieval (Definition 4 / Step 1 of §IV-E)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cellular.trajectory import TrajectoryPoint
from repro.errors import InvalidTrajectoryInput
from repro.network.road_network import RoadNetwork

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.relation_graph import RelationGraph


def spatial_candidate_pool(
    network: RoadNetwork,
    point: TrajectoryPoint,
    radius_m: float,
    limit: int,
) -> list[int]:
    """Roads within ``radius_m`` of the sample, nearest first, capped at ``limit``.

    Falls back to the nearest roads when the radius search comes back empty
    (points in network gaps must still receive candidates).  A point so far
    from the network that even the expanded nearest-road search finds
    nothing raises :class:`InvalidTrajectoryInput` — a structured rejection
    instead of an empty pool crashing deep inside the trellis.  This pool
    is what LHMM's learned observation probability re-ranks; distance-based
    baselines take their top-k directly from it.
    """
    pool = network.segments_near(point.position, radius_m)
    if not pool:
        pool = network.nearest_segments(point.position, count=limit)
    if not pool:
        raise InvalidTrajectoryInput(
            f"no candidate road anywhere near point "
            f"({point.position.x:.0f}, {point.position.y:.0f}) "
            f"(searched {radius_m:.0f}m radius, then nearest-road fallback)"
        )
    return pool[:limit]


def learned_candidate_pool(
    graph: "RelationGraph",
    point: TrajectoryPoint,
    radius_m: float,
    limit: int,
    include_cooccurrence: bool = True,
) -> list[int]:
    """Spatial pool plus the tower's historically co-occurring roads.

    Appending co-occurring roads realises LHMM's ability to reach "more
    relevant but farther roads" (Example 1): a road outside the spatial
    radius — or beyond the nearest-first cap in dense areas — still enters
    the pool when history says this tower serves it.  Training and
    inference must use the *same* pool builder so the pool-relative rank
    features stay distributionally consistent.
    """
    pool = spatial_candidate_pool(graph.network, point, radius_m, limit)
    if include_cooccurrence and point.tower_id is not None:
        # The per-tower extension tuple is cached on the graph; deriving it
        # from the co-occurrence set once per tower (instead of once per
        # point) preserves the set's enumeration order exactly.
        known = graph.cooccurrence_extension(point.tower_id)
        pool_set = set(pool)
        pool.extend(seg for seg in known if seg not in pool_set)
    return pool


class CandidatePoolCache:
    """Memoised learned candidate pools for the batched pipeline.

    Cellular points at the same tower (and simulated points share their
    tower's exact location) ask the same spatial question over and over;
    this cache answers each distinct ``(tower_id, x, y)`` key once.  Misses
    are resolved in bulk through the network's stacked spatial kernel
    (:meth:`RoadNetwork.segments_near_many`), which asks the map for
    each position's ``limit`` nearest roads only, so a cold trajectory
    costs one vectorised ring search rather than one full-radius query
    per point.  Pools are returned as fresh lists, and equal exactly what
    :func:`learned_candidate_pool` returns for the same point — including
    the nearest-road fallback and the :class:`InvalidTrajectoryInput`
    raised at the *first* failing point in input order.
    """

    def __init__(
        self,
        graph: "RelationGraph",
        radius_m: float,
        limit: int,
        include_cooccurrence: bool = True,
        max_entries: int = 100_000,
    ) -> None:
        self.graph = graph
        self.radius_m = float(radius_m)
        self.limit = int(limit)
        self.include_cooccurrence = bool(include_cooccurrence)
        self.max_entries = int(max_entries)
        self._pools: dict[tuple[int | None, float, float], tuple[int, ...]] = {}
        # Per-key explicit observation features and graph-node index arrays.
        # Both depend only on the cache key (position, tower mining state),
        # so they are memoised next to the pool; keyed additionally by
        # ``include_ranks`` because ablations flip it per matcher config.
        self._features: dict[
            tuple[int | None, float, float, bool], np.ndarray
        ] = {}
        self._nodes: dict[tuple[int | None, float, float], np.ndarray] = {}

    def _key(self, point: TrajectoryPoint) -> tuple[int | None, float, float]:
        # Keyed by position *and* tower id: the protocol layer accepts
        # arbitrary (x, y) per tower, and the co-occurrence extension
        # depends on the tower alone.
        return (point.tower_id, point.position.x, point.position.y)

    def _cached(self, cache: dict, keys: list, compute) -> list:
        """``cache[key]`` for every key; misses filled by one ``compute`` call.

        ``compute(indices)`` gets the first index of each distinct missing
        key and returns their values in that order.  The answer is gathered
        from this call's own lookups and results, so a full map cleared
        mid-call to hold its bound still answers every key.
        """
        found: dict = {}
        misses: dict = {}
        for i, key in enumerate(keys):
            if key in found or key in misses:
                continue
            value = cache.get(key)
            if value is None:
                misses[key] = i
            else:
                found[key] = value
        if misses:
            for key, value in zip(misses, compute(list(misses.values()))):
                if len(cache) >= self.max_entries:
                    cache.clear()
                cache[key] = found[key] = value
        return [found[key] for key in keys]

    def pools(self, points: Sequence[TrajectoryPoint]) -> list[list[int]]:
        """Candidate pools for all points, batch-resolving cache misses."""
        keys = [self._key(p) for p in points]
        pools = self._cached(
            self._pools, keys, lambda idx: self._resolve([points[i] for i in idx])
        )
        return [list(pool) for pool in pools]

    def pools_features(
        self, points: Sequence[TrajectoryPoint], include_ranks: bool = True
    ) -> tuple[list[list[int]], np.ndarray, np.ndarray, np.ndarray]:
        """Pools plus the stacked explicit ``D_O`` block and node indices.

        Returns ``(pools, features, counts, node_idx)`` where ``features``
        row-stacks each point's explicit observation-feature block
        (distance, frequency and — when ``include_ranks`` — the pool-rank
        columns), ``counts[i] = len(pools[i])`` and ``node_idx`` holds the
        graph-node index of every stacked candidate (the embedding gather).
        The explicit block and node indices depend only on the cache key,
        so both are memoised per key: repeat towers skip the distance
        kernel, the frequency lookups and the rank argsorts entirely.
        Cached blocks are slices of a stacked computation whose per-pair
        values are bit-identical to per-point scalar calls, so assembling
        them per trajectory reproduces
        :func:`~repro.core.features.stacked_observation_features` exactly.
        """
        from repro.core.features import (
            NUM_BASE_OBSERVATION_FEATURES,
            NUM_OBSERVATION_FEATURES,
            stacked_observation_features,
        )

        pools = self.pools(points)
        keys = [self._key(p) for p in points]

        def features(idx: list[int]) -> list[np.ndarray]:
            block, counts = stacked_observation_features(
                self.graph,
                [points[i] for i in idx],
                [pools[i] for i in idx],
                include_ranks=include_ranks,
            )
            return np.split(block, np.cumsum(counts)[:-1])

        blocks = self._cached(
            self._features, [(*key, include_ranks) for key in keys], features
        )
        node_parts = self._cached(
            self._nodes,
            keys,
            lambda idx: [self.graph.segment_nodes(pools[i]) for i in idx],
        )
        counts = np.fromiter(
            (len(pool) for pool in pools), dtype=np.int64, count=len(pools)
        )
        if not blocks:
            width = (
                NUM_OBSERVATION_FEATURES
                if include_ranks
                else NUM_BASE_OBSERVATION_FEATURES
            )
            empty = np.empty((0, width), dtype=np.float64)
            return pools, empty, counts, np.empty(0, dtype=np.int64)
        return pools, np.concatenate(blocks, axis=0), counts, np.concatenate(node_parts)

    def _resolve(self, points: list[TrajectoryPoint]) -> list[tuple[int, ...]]:
        """Learned pools of ``points`` via one stacked spatial query."""
        network = self.graph.network
        spatial = network.segments_near_many(
            [p.position for p in points], self.radius_m, self.limit
        )
        pools = []
        for point, near in zip(points, spatial):
            pool = list(near)
            if not pool:
                pool = network.nearest_segments(point.position, count=self.limit)
            if not pool:
                raise InvalidTrajectoryInput(
                    f"no candidate road anywhere near point "
                    f"({point.position.x:.0f}, {point.position.y:.0f}) "
                    f"(searched {self.radius_m:.0f}m radius, then "
                    f"nearest-road fallback)"
                )
            pool = pool[: self.limit]
            if self.include_cooccurrence and point.tower_id is not None:
                known = self.graph.cooccurrence_extension(point.tower_id)
                pool_set = set(pool)
                pool.extend(seg for seg in known if seg not in pool_set)
            pools.append(tuple(pool))
        return pools
