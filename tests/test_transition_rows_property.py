"""Property test: stacked transition rows equal the per-route scalar rows.

``transition_feature_rows`` builds the ``P_T`` inputs of a
:class:`RouteBlock` for the batch matcher and the streaming decoder.  Over
a block packed by ``RouteBlock.from_routes`` from drawn routes (``None``,
self routes, repeats), it promises, bit for bit, what the scalar spec
computes route by route: the explicit ``D_T`` columns of
:func:`transition_features`, and with relevance a leading implicit column
``float(np.mean([rel[s] for s in route.segments]))``.  Relevance comes in
two forms — indexed by segment id (the batch matcher's per-trajectory
array) or aligned with sorted ids (the streaming decoder's layer-local
scores, mapped with ``np.searchsorted``) — and both must give the same
rows.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cellular.trajectory import TrajectoryPoint
from repro.core.features import transition_feature_rows, transition_features
from repro.network.shortest_path import Route, RouteBlock
from tests.test_spatial_batch_property import query_points, random_networks


@st.composite
def route_lists(draw, net):
    """Routes over ``net``'s roads: ``None``, self routes, repeats, mixed lengths."""
    segments = sorted(net.segments)
    lengths = st.floats(0.0, 5000.0, allow_nan=False, allow_infinity=False)
    fresh = st.builds(
        Route,
        st.lists(st.sampled_from(segments), min_size=1, max_size=6).map(tuple),
        lengths,
    )
    self_route = st.builds(
        lambda s, length: Route((s,), length), st.sampled_from(segments), lengths
    )
    routes = draw(
        st.lists(st.one_of(st.none(), fresh, self_route), min_size=1, max_size=24)
    )
    # Repeat some routes verbatim, as a step's candidate product does.
    picks = draw(st.lists(st.integers(0, len(routes) - 1), max_size=6))
    return routes + [routes[k] for k in picks]


def scalar_rows(net, routes, prev_point, point, relevance):
    """The per-route spec the stacked builder must reproduce."""
    rows = []
    for route in routes:
        if route is None:
            continue
        explicit = transition_features(net, route, prev_point, point)
        if relevance is not None:
            implicit = float(np.mean([relevance[s] for s in route.segments]))
            explicit = np.concatenate([[implicit], explicit])
        rows.append(explicit)
    return rows


@settings(max_examples=80, deadline=None)
@given(random_networks(), query_points, st.data())
def test_stacked_rows_equal_per_route_rows(net, points, data):
    routes = data.draw(route_lists(net))
    prev_point = TrajectoryPoint(points[0], 0.0)
    point = TrajectoryPoint(points[-1], 30.0)
    positions = [i for i, route in enumerate(routes) if route is not None]
    size = max(net.segments) + 1
    values = data.draw(
        st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)
    )
    dense = np.array(values, dtype=np.float64)
    block = RouteBlock.from_routes(routes)
    straight = prev_point.position.distance_to(point.position)
    touched = np.unique(block.segment_ids)

    cases = [
        (None, {}),
        (dense, {"relevance": dense}),
        (dense, {"relevance": dense[touched], "relevance_ids": touched}),
    ]
    for spec_relevance, kwargs in cases:
        rows, got_positions = transition_feature_rows(net, block, straight, **kwargs)
        want = scalar_rows(net, routes, prev_point, point, spec_relevance)
        assert got_positions.tolist() == positions
        assert rows.shape == (len(positions), 3 + (spec_relevance is not None))
        for got, expected in zip(rows, want):
            # Bitwise, not approximately: P_T must not depend on the path.
            assert got.tobytes() == expected.tobytes()
