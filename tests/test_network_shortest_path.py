"""Tests for repro.network.shortest_path."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point, Polyline
from repro.network import (
    CityConfig,
    RoadNetwork,
    RoadSegment,
    Route,
    ShortestPathEngine,
    generate_city_network,
)
from repro.network.shortest_path import stitch_segments


def line_network(n: int = 5) -> RoadNetwork:
    """A simple bidirectional chain of ``n`` nodes, 100 m apart."""
    net = RoadNetwork()
    for i in range(n):
        net.add_node(i, Point(i * 100.0, 0.0))
    seg_id = 0
    for i in range(n - 1):
        a, b = Point(i * 100.0, 0.0), Point((i + 1) * 100.0, 0.0)
        net.add_segment(RoadSegment(seg_id, i, i + 1, Polyline([a, b])))
        seg_id += 1
        net.add_segment(RoadSegment(seg_id, i + 1, i, Polyline([b, a])))
        seg_id += 1
    return net.freeze()


class TestNodeRouting:
    def test_distance_forward(self):
        engine = ShortestPathEngine(line_network())
        assert engine.node_distance(0, 3) == pytest.approx(300.0)

    def test_distance_to_self(self):
        engine = ShortestPathEngine(line_network())
        assert engine.node_distance(2, 2) == 0.0

    def test_unreachable_is_inf(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(100, 0))
        net.freeze()
        engine = ShortestPathEngine(net)
        assert math.isinf(engine.node_distance(0, 1))

    def test_path_segments_reconstruct(self):
        net = line_network()
        engine = ShortestPathEngine(net)
        path = engine.node_path_segments(0, 3)
        assert path is not None
        assert [net.segments[s].start_node for s in path] == [0, 1, 2]

    def test_path_to_self_is_empty(self):
        engine = ShortestPathEngine(line_network())
        assert engine.node_path_segments(1, 1) == []

    def test_caching(self):
        engine = ShortestPathEngine(line_network())
        engine.node_distance(0, 4)
        engine.node_distance(0, 2)
        assert engine.cached_sources == 1
        engine.clear_cache()
        assert engine.cached_sources == 0

    @pytest.mark.parametrize("use_scipy", [True, False])
    def test_node_distance_never_exceeds_bound(self, use_scipy):
        net = line_network(30)
        engine = ShortestPathEngine(net, max_route_length=500.0, use_scipy=use_scipy)
        for v in net.nodes:
            distance = engine.node_distance(0, v)
            assert distance <= 500.0 or math.isinf(distance)

    def test_distances_matrix_matches_scalar(self):
        net = line_network(6)
        engine = ShortestPathEngine(net)
        nodes = sorted(net.nodes)
        matrix = engine.distances(nodes, nodes)
        for i, u in enumerate(nodes):
            for j, v in enumerate(nodes):
                scalar = engine.node_distance(u, v)
                if math.isinf(scalar):
                    assert math.isinf(matrix[i, j])
                else:
                    assert matrix[i, j] == pytest.approx(scalar)


class TestSegmentRouting:
    def test_self_route(self):
        engine = ShortestPathEngine(line_network())
        route = engine.route(0, 0)
        assert route == Route(segments=(0,), length=0.0)

    def test_direct_continuation(self):
        net = line_network()
        engine = ShortestPathEngine(net)
        # segment 0 is 0->1, segment 2 is 1->2
        route = engine.route(0, 2)
        assert route is not None
        assert route.segments == (0, 2)
        assert route.length == pytest.approx(100.0)

    def test_multi_hop_route(self):
        engine = ShortestPathEngine(line_network())
        route = engine.route(0, 6)  # 0->1 then 3->4: hops via 1->2, 2->3
        assert route is not None
        assert route.length == pytest.approx(300.0)
        assert route.segments[0] == 0
        assert route.segments[-1] == 6

    def test_route_length_unreachable(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(100, 0))
        net.add_node(2, Point(200, 0))
        net.add_node(3, Point(300, 0))
        net.add_segment(RoadSegment(0, 0, 1, Polyline([Point(0, 0), Point(100, 0)])))
        net.add_segment(RoadSegment(1, 2, 3, Polyline([Point(200, 0), Point(300, 0)])))
        net.freeze()
        engine = ShortestPathEngine(net)
        assert math.isinf(engine.route_length(0, 1))

    def test_max_route_length_bound(self):
        engine = ShortestPathEngine(line_network(30), max_route_length=500.0)
        assert engine.route(0, 2 * 20) is None

    def test_route_cache_counters(self):
        engine = ShortestPathEngine(line_network())
        assert engine.route(0, 6) is not None
        assert engine.route(0, 6) is not None
        stats = engine.cache_stats()
        assert stats["route_cache_hits"] == 1
        assert stats["route_cache_misses"] == 1
        engine.clear_cache()
        assert engine.cache_stats()["route_cache_entries"] == 0

    @pytest.mark.parametrize("use_scipy", [True, False])
    def test_zero_source_cache_answers_like_a_full_one(self, use_scipy):
        """Lookups answer from the search they just ran, not the LRU."""
        net = generate_city_network(CityConfig(grid_rows=6, grid_cols=6), rng=1)
        segs = sorted(net.segments)
        a, b = segs[0], segs[40]
        u, v = net.segments[a].end_node, net.segments[b].start_node
        full = ShortestPathEngine(net, use_scipy=use_scipy)
        engine = ShortestPathEngine(net, use_scipy=use_scipy, source_cache_size=0)
        assert full.route(a, b) is not None
        assert engine.route(a, b) == full.route(a, b)
        assert engine.route_block([(a, b)]).route(0) == full.route(a, b)
        assert engine.route_many([(b, a), (a, b)]) == full.route_many([(b, a), (a, b)])
        assert engine.node_distance(u, v) == full.node_distance(u, v) < math.inf
        assert engine.node_path_segments(u, v) == full.node_path_segments(u, v)
        nodes = sorted(net.nodes)
        assert (engine.distances(nodes, nodes) == full.distances(nodes, nodes)).all()
        assert engine.cached_sources == 0

    def test_route_cache_is_bounded(self):
        engine = ShortestPathEngine(line_network(8), route_cache_size=4)
        for target in range(0, 14, 2):
            engine.route(0, target)
        assert engine.cache_stats()["route_cache_entries"] <= 4

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 7), st.integers(0, 7))
    def test_route_length_consistent_with_segments(self, a, b):
        net = line_network(5)
        engine = ShortestPathEngine(net)
        route = engine.route(a, b)
        if route is None:
            return
        expected = sum(net.segments[s].length for s in route.segments[1:])
        assert route.length == pytest.approx(expected)


class TestRouteOnCity(object):
    def test_triangle_inequality_on_city(self, tiny_network, tiny_engine):
        segs = sorted(tiny_network.segments)[:6]
        for a in segs:
            for b in segs:
                direct = tiny_engine.route_length(a, b)
                if math.isinf(direct):
                    continue
                for mid in segs[:3]:
                    via = tiny_engine.route_length(a, mid) + tiny_engine.route_length(mid, b)
                    assert direct <= via + 1e-6


class TestStitch:
    def test_stitch_deduplicates(self):
        engine = ShortestPathEngine(line_network())
        assert stitch_segments([0, 0, 0], engine) == [0]

    def test_stitch_fills_gaps(self):
        net = line_network()
        engine = ShortestPathEngine(net)
        path = stitch_segments([0, 6], engine)
        assert path == [0, 2, 4, 6]

    def test_stitch_empty(self):
        engine = ShortestPathEngine(line_network())
        assert stitch_segments([], engine) == []

    def test_stitch_is_consecutive(self, tiny_network, tiny_engine):
        segs = sorted(tiny_network.segments)
        path = stitch_segments([segs[0], segs[len(segs) // 2]], tiny_engine)
        for a, b in zip(path, path[1:]):
            assert tiny_network.segments[b].start_node == tiny_network.segments[a].end_node
