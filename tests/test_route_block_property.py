"""Property tests: a columnar route block equals routing pair by pair.

The batched matcher routes a whole trajectory's candidate products into
one :class:`~repro.network.shortest_path.RouteBlock` instead of one
:class:`~repro.network.shortest_path.Route` per pair.  Each entry must be
exactly what ``route(a, b)`` returns — the same segments, the same length
bit for bit, and ``None`` in the same places — for the native builder on
the Dijkstra engine and for the ``from_routes`` fallback every other router
takes.  The transition rows built from a whole trip's block must equal the
per-route scalar rows of each step, bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cellular.trajectory import TrajectoryPoint
from repro.core.features import transition_feature_rows, transition_features
from repro.geometry import Point, Polyline
from repro.network import (
    RoadNetwork,
    RoadSegment,
    RouteBlock,
    ShortestPathEngine,
    Ubodt,
    UbodtRouter,
    route_block,
)
from tests.test_router_parity import random_network


def with_parallel_edges(seed: int) -> RoadNetwork:
    """:func:`random_network` where some roads get a bent parallel twin.

    Both twins bend by a random offset, so either can be the shorter one
    the CSR adjacency keeps for the node pair.
    """
    base = random_network(seed)
    rng = np.random.default_rng(seed + 1)
    net = RoadNetwork()
    for node_id, point in base.nodes.items():
        net.add_node(node_id, point)

    def bent(a: int, b: int) -> Polyline:
        pa, pb = base.nodes[a], base.nodes[b]
        mid = Point(
            (pa.x + pb.x) / 2 + float(rng.uniform(-300.0, 300.0)),
            (pa.y + pb.y) / 2 + float(rng.uniform(-300.0, 300.0)),
        )
        return Polyline([pa, mid, pb])

    next_id = max(base.segments) + 1
    for seg_id, seg in sorted(base.segments.items()):
        if rng.random() < 0.4:
            net.add_segment(RoadSegment(seg_id, seg.start_node, seg.end_node,
                                        bent(seg.start_node, seg.end_node)))
            net.add_segment(RoadSegment(next_id, seg.start_node, seg.end_node,
                                        bent(seg.start_node, seg.end_node)))
            next_id += 1
        else:
            net.add_segment(RoadSegment(seg_id, seg.start_node, seg.end_node,
                                        seg.polyline))
    return net.freeze()


def query_pairs(net: RoadNetwork, seed: int) -> list[tuple[int, int]]:
    """Random pairs plus self pairs, direct continuations and repeats."""
    rng = np.random.default_rng(seed)
    segments = sorted(net.segments)
    pairs = [
        (int(a), int(b)) for a, b in rng.choice(segments, size=(40, 2))
    ]
    pairs += [(s, s) for s in rng.choice(segments, size=3).tolist()]
    for a in rng.choice(segments, size=6).tolist():
        nexts = net.out_segments(net.segments[a].end_node)
        if nexts:
            pairs.append((a, int(rng.choice(nexts))))
    pairs += [pairs[int(k)] for k in rng.integers(0, len(pairs), size=6)]
    return pairs


def assert_block_equals(block: RouteBlock, want: list) -> None:
    assert len(block) == len(want)
    assert block.offsets[0] == 0 and block.offsets[-1] == block.segment_ids.shape[0]
    for i, expected in enumerate(want):
        got = block.route(i)
        if expected is None:
            assert got is None, i
            assert not block.found[i]
            assert block.offsets[i] == block.offsets[i + 1]
            continue
        assert got is not None, i
        assert got.segments == expected.segments, i
        # Bitwise, not approximately: the length feeds P_T.
        assert got.length.hex() == expected.length.hex(), i


engine_options = st.sampled_from(
    [
        {},
        {"source_cache_size": 2},
        {"max_route_length": 600.0},
        {"max_route_length": 1500.0, "source_cache_size": 2},
    ]
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), engine_options)
def test_native_block_equals_per_pair_routes(seed, parallel, options):
    net = with_parallel_edges(seed) if parallel else random_network(seed)
    pairs = query_pairs(net, seed)
    engine = ShortestPathEngine(net, **options)
    block = engine.route_block(pairs)
    # The block bypasses the per-pair route cache entirely.
    assert engine.cache_stats()["route_cache_entries"] == 0
    assert engine.route_cache_hits == engine.route_cache_misses == 0
    reference = ShortestPathEngine(net, **options)
    assert_block_equals(block, [reference.route(a, b) for a, b in pairs])
    # Through the router dispatch, and again warm, it stays the same.
    assert_block_equals(route_block(engine, pairs), [reference.route(a, b) for a, b in pairs])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_fallback_routers_pack_their_routes(seed, parallel):
    net = with_parallel_edges(seed) if parallel else random_network(seed)
    pairs = query_pairs(net, seed)
    heap = ShortestPathEngine(net, use_scipy=False, max_route_length=1500.0)
    assert_block_equals(
        heap.route_block(pairs),
        [ShortestPathEngine(net, use_scipy=False, max_route_length=1500.0).route(a, b)
         for a, b in pairs],
    )
    table = Ubodt.build(net, delta_m=800.0)
    router = UbodtRouter(net, table, fallback=ShortestPathEngine(net))
    reference = UbodtRouter(net, table, fallback=ShortestPathEngine(net))
    assert_block_equals(route_block(router, pairs), [reference.route(a, b) for a, b in pairs])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_from_routes_round_trip(seed):
    net = random_network(seed)
    pairs = query_pairs(net, seed)
    engine = ShortestPathEngine(net, max_route_length=1500.0)
    block = engine.route_block(pairs)
    routes = [block.route(i) for i in range(len(block))]
    assert_block_equals(RouteBlock.from_routes(routes), routes)
    assert_block_equals(RouteBlock.from_routes([]), [])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.integers(1, 5))
def test_block_rows_equal_per_route_rows_per_step(seed, parallel, steps):
    """One call over a multi-step block equals the scalar spec step by step."""
    net = with_parallel_edges(seed) if parallel else random_network(seed)
    rng = np.random.default_rng(seed)
    engine = ShortestPathEngine(net, max_route_length=2500.0)
    segments = sorted(net.segments)
    step_pairs = [query_pairs(net, seed + k)[: int(rng.integers(1, 40))] for k in range(steps)]
    points = [
        TrajectoryPoint(Point(*rng.uniform(0.0, 2000.0, size=2)), 30.0 * k)
        for k in range(steps + 1)
    ]
    block = engine.route_block([pair for pairs in step_pairs for pair in pairs])
    straight = np.repeat(
        [points[k].position.distance_to(points[k + 1].position) for k in range(steps)],
        [len(pairs) for pairs in step_pairs],
    )
    relevance = rng.random(max(segments) + 1)
    touched = np.unique(block.segment_ids)
    for spec_relevance, kwargs in [
        (None, {}),
        (relevance, {"relevance": relevance}),
        (relevance, {"relevance": relevance[touched], "relevance_ids": touched}),
    ]:
        rows, positions = transition_feature_rows(net, block, straight=straight, **kwargs)
        assert positions.tolist() == np.flatnonzero(block.found).tolist()
        want = []
        offset = 0
        for k, pairs in enumerate(step_pairs):
            for i in range(offset, offset + len(pairs)):
                route = block.route(i)
                if route is None:
                    continue
                row = transition_features(net, route, points[k], points[k + 1])
                if spec_relevance is not None:
                    implicit = float(np.mean([spec_relevance[s] for s in route.segments]))
                    row = np.concatenate([[implicit], row])
                want.append(row)
            offset += len(pairs)
        assert rows.shape == (len(want), 3 + (spec_relevance is not None))
        for got, expected in zip(rows, want):
            assert got.tobytes() == expected.tobytes()
