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

The same batch invariance holds for the other inference forwards, which
share its padding rule: the transition fusion MLP (a shortcut pass scores
a layer's pairs in one call, the reference one pair per call) and the
observation forward (the batched pipeline stacks a whole trajectory's
candidates, the scalar one scores each point alone).
"""

from __future__ import annotations

import numpy as np
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


def assert_rows_batch_invariant(score, rows, data):
    """``score(rows)`` gives each row the float of its one-row call,
    whatever the batch size, the row's position and its neighbours."""
    n = len(rows[0])
    values = score(*rows).tolist()
    assert len(values) == n
    order = data.draw(st.permutations(range(n)))
    cut = data.draw(st.integers(1, n))
    subset = np.array(order[:cut])
    for k, value in zip(subset.tolist(), score(*(r[subset] for r in rows)).tolist()):
        assert value == values[k]
    probes = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    for k in probes:
        (alone,) = score(*(r[k : k + 1] for r in rows)).tolist()
        assert alone == values[k]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 600), st.integers(0, 2**32 - 1), st.data())
def test_transition_fusion_is_independent_of_its_batch(trained_lhmm, n, seed, data):
    """Bitwise: a transition feature row's P_T equals its one-row call."""
    matcher = trained_lhmm
    width = matcher.transition_learner.fusion_mlp.layers[0].in_features
    rng = np.random.default_rng(seed)
    # Relevance and the explicit D_T columns all lie in [0, 5].
    rows = rng.uniform(0.0, 5.0, size=(n, width))
    assert_rows_batch_invariant(matcher._transition_probs, [rows], data)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 600), st.integers(0, 2**32 - 1), st.data())
def test_observation_forward_is_independent_of_its_batch(trained_lhmm, n, seed, data):
    """Bitwise: a (road, context, explicit) row's P_O equals its one-row call."""
    matcher = trained_lhmm
    rng = np.random.default_rng(seed)
    segments = sorted(matcher.network.segments)
    node_idx = matcher.graph.segment_nodes(
        rng.choice(segments, size=n).tolist()
    )
    towers = sorted(matcher.graph.towers.towers)
    tower_nodes = [matcher.graph.tower_node(t) for t in rng.choice(towers, size=4)]
    context = matcher.observation_learner.context(
        Tensor(matcher.node_embeddings[tower_nodes])
    ).numpy()
    context_rows = context[rng.integers(0, len(context), size=n)]
    width = matcher.observation_learner.num_explicit
    explicit = rng.uniform(0.0, 1.0, size=(n, width))
    assert_rows_batch_invariant(
        matcher._observation_probs, [explicit, node_idx, context_rows], data
    )
