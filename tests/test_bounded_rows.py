"""Property tests: bounded Dijkstra rows agree with the full search.

The scipy backend searches each source only as far as the targets asked of
it need, and keeps only the nodes that search settled.  Every row it keeps
must be what ``dijkstra(limit=max_route_length)`` gives on those nodes —
distances bit for bit, the same predecessors — and every route read from
such rows must equal both per-pair :meth:`ShortestPathEngine.route` and a
route rebuilt from the full search: for targets beyond the first-pass
limit, unreachable pairs, networks full of equal-length ties, and a source
cache of two rows.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import dijkstra

from repro.geometry import Point, Polyline
from repro.network import RoadNetwork, RoadSegment, Route, ShortestPathEngine
from tests.test_route_block_property import assert_block_equals, query_pairs
from tests.test_router_parity import random_network


def tie_network(seed: int) -> RoadNetwork:
    """A grid of 100 m blocks with random one-way gaps: many equal-length
    shortest paths, so many nodes have two tight predecessors."""
    rng = np.random.default_rng(seed)
    rows, cols = (int(k) for k in rng.integers(3, 8, size=2))
    net = RoadNetwork()
    for r in range(rows):
        for c in range(cols):
            net.add_node(r * cols + c, Point(100.0 * c, 100.0 * r))
    seg_id = 0
    for r in range(rows):
        for c in range(cols):
            here = r * cols + c
            for there in ([here + 1] if c + 1 < cols else []) + (
                [here + cols] if r + 1 < rows else []
            ):
                for a, b in ((here, there), (there, here)):
                    if rng.random() < 0.85:
                        net.add_segment(RoadSegment(
                            seg_id, a, b, Polyline([net.nodes[a], net.nodes[b]])
                        ))
                        seg_id += 1
    return net.freeze()


def detour_network(seed: int) -> RoadNetwork:
    """Nodes within a 200 m box joined by roads that bend 1-3 km away.

    Straight-line distances say every target is near, so every multi-hop
    pair lies beyond its source's first-pass limit.  Node 0 is a sink (no
    road leaves it), so pairs from it are unreachable.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 10))
    net = RoadNetwork()
    for i in range(n):
        net.add_node(i, Point(*rng.uniform(0.0, 200.0, size=2)))
    edges = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(3 * n, 2)) if a != b}
    edges |= {(i, i + 1) for i in range(1, n - 1)} | {(1, 0)}
    for seg_id, (a, b) in enumerate(sorted(e for e in edges if e[0] != 0)):
        pa, pb = net.nodes[a], net.nodes[b]
        angle, reach = rng.uniform(0.0, 2 * math.pi), rng.uniform(500.0, 1500.0)
        bend = Point(pa.x + reach * math.cos(angle), pa.y + reach * math.sin(angle))
        net.add_segment(RoadSegment(seg_id, a, b, Polyline([pa, bend, pb])))
    return net.freeze()


NETWORKS = {"random": random_network, "ties": tie_network, "detour": detour_network}


def full_search(net: RoadNetwork, max_route_length: float):
    """Every source's ``dijkstra(limit=max_route_length)`` row."""
    return dijkstra(
        net.csr().matrix, directed=True, return_predecessors=True, limit=max_route_length
    )


def full_search_route(net, full, max_route_length, a, b) -> Route | None:
    """What :meth:`ShortestPathEngine.route` means, read off the full search."""
    if a == b:
        return Route((a,), 0.0)
    csr = net.csr()
    src, dst = net.segments[a], net.segments[b]
    if src.end_node == dst.start_node:
        return Route((a, b), dst.length)
    dist, pred = full
    u, v = csr.index[src.end_node], csr.index[dst.start_node]
    length = dist[u, v] + dst.length
    if not length <= max_route_length:  # inf too
        return None
    middle = []
    node = v
    while node != u:
        middle.append(csr.segment_between(int(pred[u, node]), node))
        node = int(pred[u, node])
    return Route((a, *reversed(middle), b), float(length))


def assert_rows_are_full_search(engine: ShortestPathEngine) -> None:
    full_dist, full_pred = full_search(engine.network, engine.max_route_length)
    for source, row in engine._backend._rows.items():
        want = np.flatnonzero(full_dist[source] <= row.limit)
        assert row.nodes.tolist() == want.tolist(), source
        assert row.dist.tobytes() == full_dist[source, want].tobytes(), source
        pred = np.where(row.pred >= 0, row.nodes[row.pred], -9999)
        assert pred.tolist() == full_pred[source, want].tolist(), source


engine_options = st.sampled_from(
    [
        {},
        {"source_cache_size": 2},
        {"max_route_length": 1500.0},
        {"max_route_length": 5000.0, "source_cache_size": 2},
    ]
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(sorted(NETWORKS)), st.booleans())
def test_every_kept_row_is_the_full_search(seed, kind, short):
    net = NETWORKS[kind](seed)
    engine = ShortestPathEngine(net, **({"max_route_length": 1500.0} if short else {}))
    pairs = query_pairs(net, seed)
    engine.route_block(pairs)
    assert_rows_are_full_search(engine)
    # Scalar lookups read and extend the same rows.
    nodes = sorted(net.nodes)
    engine.distances(nodes[::2], nodes)
    for a, b in pairs[::3]:
        engine.route(a, b)
    assert_rows_are_full_search(engine)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(sorted(NETWORKS)), engine_options)
def test_block_equals_routes_and_full_search(seed, kind, options):
    net = NETWORKS[kind](seed)
    pairs = query_pairs(net, seed)
    engine = ShortestPathEngine(net, **options)
    block = engine.route_block(pairs)
    reference = ShortestPathEngine(net, **options)
    assert_block_equals(block, [reference.route(a, b) for a, b in pairs])
    full = full_search(net, engine.max_route_length)
    oracle = [full_search_route(net, full, engine.max_route_length, a, b) for a, b in pairs]
    assert_block_equals(block, oracle)
    # Warm, the block reads rows left by the scalar lookups too.
    assert_block_equals(engine.route_block(pairs[::-1]), oracle[::-1])
    # The scalar node lookups agree with the full search as well.
    dist = full[0]
    csr = net.csr()
    for a, b in pairs[:12]:
        u, v = net.segments[a].end_node, net.segments[b].start_node
        want = dist[csr.index[u], csr.index[v]]
        assert engine.node_distance(u, v) == (want if u != v else 0.0)
        path = engine.node_path_segments(u, v)
        assert (path is None) == (u != v and math.isinf(want))


def diamond(b_offset: float) -> tuple[RoadNetwork, int, int]:
    """``in -> s``, then ``s -> a -> t`` and ``s -> b -> t``, then ``t -> out``.

    With ``b_offset`` 0 both middle routes have the same length, so ``t``
    has two tight predecessors at the same distance.
    """
    net = RoadNetwork()
    points = {
        0: Point(-100.0, 0.0), 1: Point(0.0, 0.0), 2: Point(100.0, 100.0),
        3: Point(100.0, -100.0 - b_offset), 4: Point(200.0, 0.0), 5: Point(300.0, 0.0),
    }
    for node, point in points.items():
        net.add_node(node, point)
    for seg_id, (a, b) in enumerate([(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]):
        net.add_segment(RoadSegment(seg_id, a, b, Polyline([points[a], points[b]])))
    return net.freeze(), 0, 5


def test_tied_diamond_is_searched_to_the_full_limit():
    net, first, last = diamond(0.0)
    engine = ShortestPathEngine(net)
    route = engine.route_block([(first, last)]).route(0)
    row = engine._backend._rows[net.csr().index[1]]
    assert row.limit == engine.max_route_length
    full = full_search(net, engine.max_route_length)
    assert route == full_search_route(net, full, engine.max_route_length, first, last)
    assert route == ShortestPathEngine(net).route(first, last)


def test_untied_diamond_stays_bounded():
    net, first, last = diamond(20.0)
    engine = ShortestPathEngine(net)
    assert engine.route_block([(first, last)]).route(0).segments == (0, 1, 3, 5)
    row = engine._backend._rows[net.csr().index[1]]
    assert row.limit < engine.max_route_length
    assert_rows_are_full_search(engine)
