"""Property tests for route-driven road relevance.

The matcher scores ``P(e|X)`` only for the roads its transition routes
touch, and only when they lie in scope (within ``candidate_radius_m +
RELEVANCE_MARGIN_M`` of some trajectory point).  Two promises keep that
bit-identical to scoring every road near the trajectory up front:

* ``RoadNetwork.segments_within`` — the scope predicate — is exactly
  membership in the union of ``segments_near(p, r)`` over the points,
  boundary ties and repeated positions included;
* ``LHMM._segment_relevance`` gives a road the same float whatever batch
  it is scored in: batch size, row position and neighbours do not matter.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.geometry import Point
from repro.nn import Tensor
from tests.test_spatial_batch_property import GRID_M, query_points, random_networks

#: Radii a grid-aligned query point can sit at exactly (offsets of 0, 50 or
#: 100 m from grid lines), plus the scaled matcher's margin.
exact_radii = st.sampled_from([0.0, 50.0, 100.0, 150.0, GRID_M, 250.0, 1500.0])


@settings(max_examples=60, deadline=None)
@given(random_networks(), query_points, exact_radii, st.data())
def test_scope_predicate_equals_union_of_near_queries(net, points, radius, data):
    # Repeat some positions: the predicate dedupes them internally.
    repeats = data.draw(st.lists(st.sampled_from(points), max_size=4))
    points = points + repeats
    ids = data.draw(
        st.lists(st.sampled_from(sorted(net.segments)), min_size=1, max_size=20)
    )
    union = {s for p in points for s in net.segments_near(p, radius)}
    mask = net.segments_within(ids, points, radius)
    assert mask.tolist() == [s in union for s in ids]


def test_scope_predicate_includes_roads_at_exactly_the_radius():
    """A road at exactly ``radius`` is in scope and one just beyond a
    slightly smaller radius is not — the ``<=`` of ``segments_near``."""
    from repro.network import RoadNetwork, RoadSegment
    from repro.geometry import Polyline

    net = RoadNetwork()
    net.add_node(0, Point(0.0, 0.0))
    net.add_node(1, Point(400.0, 0.0))
    net.add_segment(RoadSegment(0, 0, 1, Polyline([Point(0.0, 0.0), Point(400.0, 0.0)])))
    net.freeze()
    probe = [Point(200.0, 1500.0)]
    assert net.segments_near(probe[0], 1500.0) == [0]
    assert net.segments_within([0], probe, 1500.0).tolist() == [True]
    assert net.segments_near(probe[0], 1499.999) == []
    assert net.segments_within([0], probe, 1499.999).tolist() == [False]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_relevance_is_independent_of_its_batch(trained_lhmm, data):
    """Bitwise: a road scored in any batch equals its one-row score."""
    matcher = trained_lhmm
    segments = sorted(matcher.network.segments)
    tower_ids = sorted(matcher.graph.towers.towers)
    towers = data.draw(st.lists(st.sampled_from(tower_ids), min_size=1, max_size=16))
    nodes = [matcher.graph.tower_node(t) for t in towers]
    tower_embeddings = Tensor(matcher.node_embeddings[nodes])
    batch = data.draw(st.lists(st.sampled_from(segments), min_size=1, max_size=600))
    values = matcher._segment_relevance(tower_embeddings, batch)
    assert values.shape == (len(batch),)

    # Same road, same float, wherever it sits in the batch.
    by_segment: dict[int, float] = {}
    for seg, value in zip(batch, values.tolist()):
        assert by_segment.setdefault(seg, value) == value

    # Other neighbours and another order: unchanged.
    shuffled = data.draw(st.permutations(batch))
    cut = data.draw(st.integers(1, len(shuffled)))
    other = matcher._segment_relevance(tower_embeddings, shuffled[:cut])
    for seg, value in zip(shuffled[:cut], other.tolist()):
        assert value == by_segment[seg]

    # Alone in its call.
    probes = data.draw(st.lists(st.sampled_from(batch), min_size=1, max_size=4))
    for seg in probes:
        (alone,) = matcher._segment_relevance(tower_embeddings, [seg]).tolist()
        assert alone == by_segment[seg]
