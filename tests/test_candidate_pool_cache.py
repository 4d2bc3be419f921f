"""Regression tests for the per-tower candidate-pool cache.

Guards the fix for the learned pool re-deriving a tower's co-occurrence
extension per point: the extension is now a tuple cached per tower on the
relation graph, and the pool cache memoises whole pools per
``(tower_id, x, y)`` key — so identical tower ids must yield identical
(cached) pool contents without re-running the spatial kernel.
"""

from __future__ import annotations

import pytest

from repro.cellular.trajectory import TrajectoryPoint
from repro.core import RelationGraph
from repro.core.candidates import CandidatePoolCache, learned_candidate_pool


@pytest.fixture(scope="module")
def graph(tiny_dataset):
    return RelationGraph(tiny_dataset.network, tiny_dataset.towers).build(
        tiny_dataset.train
    )


@pytest.fixture()
def tower_points(tiny_dataset, graph):
    """Two cellular points at the same tower (plus a third, different one)."""
    towers = [t for t in tiny_dataset.towers if graph.cooccurrence_extension(t.tower_id)]
    assert len(towers) >= 2, "dataset mining produced no co-occurring towers"
    a, b = towers[0], towers[1]
    return [
        TrajectoryPoint(position=a.location, timestamp=0.0, tower_id=a.tower_id),
        TrajectoryPoint(position=a.location, timestamp=60.0, tower_id=a.tower_id),
        TrajectoryPoint(position=b.location, timestamp=120.0, tower_id=b.tower_id),
    ]


def test_cooccurrence_extension_is_cached_per_tower(graph, tiny_dataset):
    tower = next(iter(tiny_dataset.towers)).tower_id
    first = graph.cooccurrence_extension(tower)
    second = graph.cooccurrence_extension(tower)
    assert first is second  # cached tuple, not re-derived per point


def test_identical_tower_ids_get_identical_cached_pools(graph, tower_points):
    cache = CandidatePoolCache(graph, radius_m=1600.0, limit=50)
    pools = cache.pools(tower_points)
    # Same tower + position => same pool contents, different tower differs
    # (towers at different locations see different roads).
    assert pools[0] == pools[1]
    assert pools[0] != pools[2]
    # And the cached answer equals the scalar per-point builder exactly.
    for point, pool in zip(tower_points, pools):
        assert pool == learned_candidate_pool(
            graph, point, radius_m=1600.0, limit=50
        )


def test_repeat_towers_skip_the_spatial_kernel(graph, tower_points, monkeypatch):
    cache = CandidatePoolCache(graph, radius_m=1600.0, limit=50)
    network = graph.network
    calls = []
    original = type(network).segments_near_many

    def counting(self, points, radius, limit):
        calls.append(len(points))
        return original(self, points, radius, limit)

    monkeypatch.setattr(type(network), "segments_near_many", counting)
    first = cache.pools(tower_points)
    # Three points, two distinct (tower, position) keys: one bulk call
    # resolving exactly the two distinct misses.
    assert calls == [2]
    second = cache.pools(tower_points)
    assert calls == [2]  # fully answered from the cache
    assert second == first
    # Fresh lists each time: mutating a returned pool must not poison the
    # cache for the next caller.
    second[0].append(-1)
    assert cache.pools(tower_points)[0] == first[0]


def test_pools_features_blocks_are_memoised_per_key(graph, tower_points):
    cache = CandidatePoolCache(graph, radius_m=1600.0, limit=50)
    pools, features, counts, node_idx = cache.pools_features(tower_points)
    assert [len(p) for p in pools] == counts.tolist()
    assert features.shape[0] == int(counts.sum()) == node_idx.shape[0]
    # Identical tower/position keys share one cached feature block.
    k0 = int(counts[0])
    assert features[:k0].tolist() == features[k0 : 2 * k0].tolist()
    # A repeat call reuses the cached blocks and returns the same values.
    again = cache.pools_features(tower_points)
    assert again[1].tolist() == features.tolist()
    assert again[3].tolist() == node_idx.tolist()


def test_small_cap_cache_answers_like_an_unbounded_one(graph, tiny_dataset):
    """A full map is cleared mid-call to hold its bound; that call must
    still answer every point, exactly as an unbounded cache does."""
    points = [
        TrajectoryPoint(position=t.location, timestamp=60.0 * i, tower_id=t.tower_id)
        for i, t in enumerate(list(tiny_dataset.towers)[:5])
    ]
    assert len(points) == 5
    small = CandidatePoolCache(graph, radius_m=1600.0, limit=50, max_entries=2)
    full = CandidatePoolCache(graph, radius_m=1600.0, limit=50)
    want = full.pools_features(points)
    for _ in range(2):  # cold, then over whatever the bound kept
        assert small.pools(points) == want[0]
        got = small.pools_features(points)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert a.tobytes() == b.tobytes()
        assert len(small._pools) <= 2 and len(small._nodes) <= 2
        assert len(small._features) <= 2
