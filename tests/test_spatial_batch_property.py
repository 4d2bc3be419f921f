"""Property tests: batched spatial kernels equal per-point queries exactly.

The batched candidate-retrieval layer (``segments_near_many`` and its
ring search, ``nearest_segments``, ``point_segment_distances``,
``CandidatePoolCache``) promises *bit-identical* answers to the scalar
per-point calls — same ids, same (distance, segment id) order, same
fallbacks, same structured rejection.  These properties are checked on
randomized networks with grid-aligned geometry and two-way twin roads,
so exact distance ties actually occur.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cellular.trajectory import TrajectoryPoint
from repro.core.candidates import (
    CandidatePoolCache,
    learned_candidate_pool,
    spatial_candidate_pool,
)
from repro.errors import InvalidTrajectoryInput
from repro.geometry import Point, Polyline
from repro.network import RoadNetwork, RoadSegment

GRID_M = 200.0


@st.composite
def random_networks(draw, ties: bool = False) -> RoadNetwork:
    """A small frozen network with nodes on a coarse grid.

    Grid-aligned geometry makes several segments exactly equidistant from
    grid-aligned query points, which is precisely where a sloppy batched
    sort would diverge from the scalar tie ordering.  With ``ties``, some
    roads also get a two-way twin, and ids are large, scattered and
    drawn out of insertion order, so that neither insertion order nor a
    small set's iteration order can pass for id order by accident.
    """
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            min_size=4,
            max_size=9,
            unique=True,
        )
    )
    positions = [Point(cx * GRID_M, cy * GRID_M) for cx, cy in cells]
    n = len(positions)
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda uv: uv[0] != uv[1]
            ),
            min_size=3,
            max_size=12,
        )
    )
    if not ties:
        return _build(positions, list(enumerate(pairs)))
    twins = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    roads = [r for uv, twin in zip(pairs, twins) for r in ([uv, uv[::-1]] if twin else [uv])]
    ids = draw(st.permutations([k * 7919 + k % 5 for k in range(len(roads))]))
    return _build(positions, list(zip(ids, roads)))


def _build(positions: list[Point], roads: list[tuple[int, tuple[int, int]]]) -> RoadNetwork:
    net = RoadNetwork()
    for node, position in enumerate(positions):
        net.add_node(node, position)
    for sid, (u, v) in roads:
        net.add_segment(
            RoadSegment(sid, u, v, Polyline([positions[u], positions[v]]))
        )
    return net.freeze()


query_points = st.lists(
    st.tuples(
        st.integers(-1, 5),
        st.integers(-1, 5),
        st.sampled_from([0.0, 50.0, 100.0]),
        st.sampled_from([0.0, 50.0, 100.0]),
    ).map(lambda q: Point(q[0] * GRID_M + q[2], q[1] * GRID_M + q[3])),
    min_size=1,
    max_size=8,
)

radii = st.sampled_from([0.0, 100.0, 250.0, 600.0, 1500.0])
# Up to and past the segment count of any drawn network (at most 24).
limits = st.sampled_from([0, 1, 2, 3, 5, 8, 30])


class _GraphStub:
    """The only part of RelationGraph the pool cache needs spatially."""

    def __init__(self, network: RoadNetwork) -> None:
        self.network = network


@settings(max_examples=60, deadline=None)
@given(random_networks(ties=True), query_points, radii, limits)
def test_segments_near_many_matches_per_point(net, points, radius, limit):
    # Query points repeat grid nodes and midpoints, and the list may hold
    # the same position twice.
    points = points + points[:1]
    batched = net.segments_near_many(points, radius, limit)
    scalar = [net.segments_near(p, radius)[:limit] for p in points]
    assert batched == scalar
    # A second call is answered from the memo and must not change.
    assert net.segments_near_many(points, radius, limit) == scalar


@settings(max_examples=40, deadline=None)
@given(random_networks(ties=True), query_points, radii)
def test_segments_near_is_distance_then_id(net, points, radius):
    """Within each distance tie (twins, roads meeting at the nearest node)
    candidates come out by ascending id."""
    for p in points:
        found = net.segments_near(p, radius)
        d = net.distances_to_segments(p, found).tolist()
        assert list(zip(d, found)) == sorted(zip(d, found))


@settings(max_examples=40, deadline=None)
@given(
    random_networks(ties=True),
    query_points,
    st.integers(0, 30),
    st.sampled_from([300.0, 8000.0]),
)
def test_nearest_segments_is_the_capped_near_query(net, points, count, max_radius):
    for p in points:
        assert net.nearest_segments(p, count, max_radius) == (
            net.segments_near(p, max_radius)[:count]
        )


@settings(max_examples=40, deadline=None)
@given(
    random_networks(ties=True),
    query_points,
    radii,
    limits,
    st.randoms(use_true_random=False),
)
def test_results_do_not_depend_on_insertion_order(net, points, radius, limit, rnd):
    positions = [net.nodes[n] for n in sorted(net.nodes)]
    roads = [(sid, (seg.start_node, seg.end_node)) for sid, seg in net.segments.items()]
    rnd.shuffle(roads)
    shuffled = _build(positions, roads)
    assert shuffled.segments_near_many(points, radius, limit) == (
        net.segments_near_many(points, radius, limit)
    )
    assert [shuffled.segments_near(p, radius) for p in points] == [
        net.segments_near(p, radius) for p in points
    ]


def test_far_and_empty_areas():
    """Radius 0 off every road, an empty map area, and a map with no roads."""
    positions = [Point(0.0, 0.0), Point(200.0, 0.0)]
    net = _build(positions, [(4, (0, 1)), (9, (1, 0))])
    off_road = Point(100.0, 50.0)
    assert net.segments_near_many([off_road], 0.0, 5) == [[]]
    assert net.segments_near_many([Point(5000.0, 5000.0)], 1500.0, 5) == [[]]
    # Twins tie at every position: ascending id.
    assert net.segments_near_many([off_road], 50.0, 1) == [[4]]
    assert net.nearest_segments(Point(5000.0, 5000.0), 2, 8000.0) == [4, 9]
    empty = RoadNetwork().freeze()
    assert empty.segments_near_many([off_road], 1500.0, 5) == [[]]
    assert empty.nearest_segments(off_road, 3) == []


@settings(max_examples=25, deadline=None)
@given(random_networks(ties=True), query_points)
def test_point_segment_distances_bitwise_equal(net, points):
    segment_ids = sorted(net.segments)
    pair_ids = [s for _ in points for s in segment_ids]
    px = np.repeat([p.x for p in points], len(segment_ids))
    py = np.repeat([p.y for p in points], len(segment_ids))
    batched = net.point_segment_distances(px, py, pair_ids)
    scalar = [
        net.segment(s).distance_to(p) for p in points for s in segment_ids
    ]
    # Bitwise equality, not approx: feature code mixes both code paths.
    assert batched.tolist() == scalar


@settings(max_examples=25, deadline=None)
@given(random_networks(ties=True), query_points, radii)
def test_pool_cache_matches_scalar_pools(net, points, radius):
    """The batched pool cache (incl. the empty-radius nearest fallback)
    returns exactly what the scalar pool builder returns per point."""
    graph = _GraphStub(net)
    traj_points = [
        TrajectoryPoint(position=p, timestamp=float(i), tower_id=None)
        for i, p in enumerate(points)
    ]
    cache = CandidatePoolCache(graph, radius_m=radius, limit=5)
    batched = cache.pools(traj_points)
    scalar = [
        learned_candidate_pool(graph, p, radius_m=radius, limit=5)
        for p in traj_points
    ]
    assert batched == scalar
    # A second pass is answered from the cache and must not change.
    assert cache.pools(traj_points) == scalar


@settings(max_examples=15, deadline=None)
@given(random_networks(ties=True))
def test_far_point_rejected_like_scalar(net):
    """A point beyond even the nearest-road fallback raises the structured
    InvalidTrajectoryInput from both the scalar and the batched path."""
    far = TrajectoryPoint(position=Point(1e6, 1e6), timestamp=0.0, tower_id=None)
    near = TrajectoryPoint(
        position=Point(0.0, 0.0), timestamp=1.0, tower_id=None
    )
    with pytest.raises(InvalidTrajectoryInput):
        spatial_candidate_pool(net, far, radius_m=100.0, limit=5)
    cache = CandidatePoolCache(_GraphStub(net), radius_m=100.0, limit=5)
    with pytest.raises(InvalidTrajectoryInput):
        cache.pools([near, far])
    # The passing point must not have been poisoned by the failure.
    fresh = CandidatePoolCache(_GraphStub(net), radius_m=100.0, limit=5)
    assert fresh.pools([near]) == [
        learned_candidate_pool(_GraphStub(net), near, radius_m=100.0, limit=5)
    ]
