"""Differential suite: the vectorized trellis must equal the reference.

The reference dict-based :class:`~repro.core.trellis.Trellis` is the oracle;
:class:`~repro.core.trellis.VectorizedTrellis` must decode the *same*
sequence with the same tie-breaking, the same forward tables, the same
shortcut insertions, and the same disconnected-lattice restart behaviour —
on randomized lattices, on router-backed heuristic matchers (both the
Dijkstra engine and the UBODT table router), and through the full LHMM.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.hmm_heuristic import HeuristicHmmConfig, HeuristicHmmMatcher
from repro.core.trellis import (
    TRELLIS_IMPLS,
    UNREACHABLE_SCORE,
    Trellis,
    VectorizedTrellis,
    closest_segments,
    make_trellis,
)
from repro.geometry import Point
from repro.network import ShortestPathEngine, Ubodt, UbodtRouter
from repro.network.shortest_path import Route, RouteBlock
from tests.test_core_trellis import TableScorer, chain_network, points
from tests.test_spatial_batch_property import query_points, random_networks

N_SEGMENTS = 8
SHORTCUT_KS = (0, 1, 2)


class BatchTableScorer(TableScorer):
    """Table scorer that also implements the batched protocol.

    The batch methods return exactly the scalar floats, which is the
    contract :class:`~repro.core.trellis.BatchTrellisScorer` demands.
    """

    def observation_batch(self, index, segment_ids):
        return np.array(
            [self.observation(index, seg) for seg in segment_ids], dtype=np.float64
        )

    def transition_batch(self, index, prev_segment_ids, segment_ids):
        return np.array(
            [
                [self.transition(index, prev, seg) for seg in segment_ids]
                for prev in prev_segment_ids
            ],
            dtype=np.float64,
        )


class PairsTableScorer(BatchTableScorer):
    """Batched table scorer with the optional ``transition_pairs`` hook.

    Records every hook call's ``(step, prev, seg)`` keys.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pair_calls: list[list[tuple[int, int, int]]] = []

    def transition_pairs(self, keys):
        self.pair_calls.append(list(keys))
        return np.array(
            [self.transition(index, prev, seg) for index, prev, seg in keys],
            dtype=np.float64,
        )


def random_lattice(seed: int):
    """A randomized trellis instance over the chain network.

    Scores come from a small discrete set so ties are common; some cases
    sever a whole layer (every transition unreachable) to exercise the
    restart path; candidate-set sizes vary from 1 up, and trajectories may
    be a single point.
    """
    rng = np.random.default_rng(seed)
    n_points = int(rng.integers(1, 7))
    candidate_sets = [
        sorted(
            rng.choice(N_SEGMENTS, size=int(rng.integers(1, 5)), replace=False).tolist()
        )
        for _ in range(n_points)
    ]
    levels = np.array([0.1, 0.25, 0.25, 0.5, 0.5, 0.5, 0.9])
    obs = {
        (i, s): float(rng.choice(levels))
        for i in range(n_points)
        for s in range(N_SEGMENTS)
    }
    trans = {
        (i, a, b): float(rng.choice(levels))
        for i in range(1, n_points)
        for a in range(N_SEGMENTS)
        for b in range(N_SEGMENTS)
    }
    if n_points >= 2 and rng.random() < 0.4:
        # Sever one layer entirely: the forward pass then rides on the
        # UNREACHABLE penalty and both backends must degrade identically.
        cut = int(rng.integers(1, n_points))
        for a in range(N_SEGMENTS):
            for b in range(N_SEGMENTS):
                trans[(cut, a, b)] = UNREACHABLE_SCORE
    return n_points, candidate_sets, obs, trans


def shortcut_lattice(seed: int):
    """A lattice whose shortcut pass inserts roads that become two-hop
    predecessors of later layers.

    Point ``i`` sits over chain segment ``i``, which layer ``i``'s
    candidates never include; lattice transitions and observations are
    weak, while everything off the lattice (the inserted roads) scores
    0.9, so shortcuts through the closest route road win and insert it.
    """
    rng = np.random.default_rng(seed)
    n_points = int(rng.integers(5, 7))
    # Roads on both sides of segment i, so routes from a low two-hop
    # predecessor to a high candidate cross segment i-1.
    candidate_sets = [
        sorted(
            {int(rng.integers(0, i)) for _ in range(int(rng.integers(1, 3)))}
            | {int(rng.integers(i + 1, N_SEGMENTS)) for _ in range(2)}
        )
        if i
        else [1, 2]
        for i in range(n_points)
    ]
    levels = np.array([0.05, 0.1, 0.1, 0.2, 0.3])
    obs = {
        (i, s): float(rng.choice(levels))
        for i in range(n_points)
        for s in candidate_sets[i]
    }
    trans = {
        (i, a, b): float(rng.choice(levels))
        for i in range(1, n_points)
        for a in candidate_sets[i - 1]
        for b in candidate_sets[i]
    }
    return n_points, candidate_sets, obs, trans


def run_impl(impl, candidate_sets, scorer, shortcut_k, net, engine, pts):
    trellis = make_trellis(
        [list(c) for c in candidate_sets], scorer, net, engine, pts, impl=impl
    )
    sequence = trellis.run(shortcut_k=shortcut_k)
    return trellis, sequence


def assert_trellis_equal(ref: Trellis, vec: Trellis, ref_seq, vec_seq):
    """Full-state equality: decode, scores, tables, candidate sets."""
    assert vec_seq == ref_seq
    assert vec.best_score == ref.best_score
    assert vec.candidate_sets == ref.candidate_sets
    assert vec._f == ref._f
    assert vec._pre == ref._pre


class TestRandomizedParity:
    @pytest.mark.parametrize("shortcut_k", SHORTCUT_KS)
    @pytest.mark.parametrize("seed", range(25))
    def test_random_lattices(self, seed, shortcut_k):
        net = chain_network(N_SEGMENTS)
        engine = ShortestPathEngine(net)
        n_points, candidate_sets, obs, trans = random_lattice(seed)
        pts = points(n_points)
        ref, ref_seq = run_impl(
            "reference", candidate_sets, TableScorer(obs, trans), shortcut_k,
            net, engine, pts,
        )
        vec, vec_seq = run_impl(
            "vectorized", candidate_sets, TableScorer(obs, trans), shortcut_k,
            net, engine, pts,
        )
        assert_trellis_equal(ref, vec, ref_seq, vec_seq)

    @pytest.mark.parametrize("shortcut_k", SHORTCUT_KS)
    @pytest.mark.parametrize("seed", range(10))
    def test_random_lattices_batched_scorer(self, seed, shortcut_k):
        """The batched-scorer fast path must also match the scalar oracle."""
        net = chain_network(N_SEGMENTS)
        engine = ShortestPathEngine(net)
        n_points, candidate_sets, obs, trans = random_lattice(seed)
        pts = points(n_points)
        ref, ref_seq = run_impl(
            "reference", candidate_sets, TableScorer(obs, trans), shortcut_k,
            net, engine, pts,
        )
        vec, vec_seq = run_impl(
            "vectorized", candidate_sets, BatchTableScorer(obs, trans), shortcut_k,
            net, engine, pts,
        )
        assert_trellis_equal(ref, vec, ref_seq, vec_seq)

    def test_all_tied_scores_pick_first_candidate(self):
        """Uniform scores: both backends must break every tie the same way
        (first candidate in set order wins)."""
        net = chain_network(N_SEGMENTS)
        engine = ShortestPathEngine(net)
        candidate_sets = [[3, 1, 5], [2, 6, 0], [4, 7, 1]]
        scorer = TableScorer(default_obs=0.5, default_trans=0.5)
        pts = points(3)
        for k in SHORTCUT_KS:
            ref, ref_seq = run_impl(
                "reference", candidate_sets, TableScorer(default_obs=0.5, default_trans=0.5),
                k, net, engine, pts,
            )
            vec, vec_seq = run_impl(
                "vectorized", candidate_sets, TableScorer(default_obs=0.5, default_trans=0.5),
                k, net, engine, pts,
            )
            assert_trellis_equal(ref, vec, ref_seq, vec_seq)
            assert ref_seq[0] == candidate_sets[0][0]

    def test_single_point_trajectory(self):
        net = chain_network(N_SEGMENTS)
        engine = ShortestPathEngine(net)
        obs = {(0, 2): 0.9, (0, 5): 0.4}
        for impl in TRELLIS_IMPLS:
            trellis, seq = run_impl(
                impl, [[5, 2]], TableScorer(obs), 1, net, engine, points(1)
            )
            assert seq == [2]

    def test_single_candidate_layers(self):
        net = chain_network(N_SEGMENTS)
        engine = ShortestPathEngine(net)
        candidate_sets = [[1], [3], [6]]
        pts = points(3)
        for k in SHORTCUT_KS:
            ref, ref_seq = run_impl(
                "reference", candidate_sets, TableScorer(), k, net, engine, pts
            )
            vec, vec_seq = run_impl(
                "vectorized", candidate_sets, TableScorer(), k, net, engine, pts
            )
            assert_trellis_equal(ref, vec, ref_seq, vec_seq)

    def test_make_trellis_selects_backend(self):
        net = chain_network(N_SEGMENTS)
        engine = ShortestPathEngine(net)
        ref = make_trellis([[0]], TableScorer(), net, engine, points(1), impl="reference")
        vec = make_trellis([[0]], TableScorer(), net, engine, points(1), impl="vectorized")
        assert type(ref) is Trellis
        assert type(vec) is VectorizedTrellis
        with pytest.raises(ValueError):
            make_trellis([[0]], TableScorer(), net, engine, points(1), impl="numpy")


def spy_plans(monkeypatch) -> list[dict[int, list[tuple[int, int, int]]]]:
    """Record every shortcut plan the vectorized trellis makes, in order."""
    plans = []
    original = VectorizedTrellis._plan_shortcuts

    def spy(self, layers, shortcut_k):
        plan = original(self, layers, shortcut_k)
        plans.append(plan)
        return plan

    monkeypatch.setattr(VectorizedTrellis, "_plan_shortcuts", spy)
    return plans


class TestShortcutPhases:
    """The per-trip shortcut plan against the reference, on lattices
    where inserted roads become two-hop predecessors."""

    @staticmethod
    def _run_pair(seed, shortcut_k, scorer_cls):
        net = chain_network(N_SEGMENTS)
        engine = ShortestPathEngine(net)
        n_points, candidate_sets, obs, trans = shortcut_lattice(seed)
        pts = points(n_points)
        make = lambda cls: cls(obs, trans, default_obs=0.9, default_trans=0.9)
        ref, ref_seq = run_impl(
            "reference", candidate_sets, make(TableScorer), shortcut_k, net, engine, pts
        )
        scorer = make(scorer_cls)
        vec, vec_seq = run_impl(
            "vectorized", candidate_sets, scorer, shortcut_k, net, engine, pts
        )
        assert_trellis_equal(ref, vec, ref_seq, vec_seq)
        # Some road inserted at layer l <= n-3 is a two-hop predecessor of
        # layer l+2: the case the extra W rows serve.
        assert any(
            len(vec.candidate_sets[l]) > len(candidate_sets[l])
            for l in range(1, n_points - 2)
        )
        return vec, scorer, n_points

    @pytest.mark.parametrize("shortcut_k", (1, 2, 3))
    @pytest.mark.parametrize("seed", range(12))
    def test_pairs_hook_matches_reference(self, seed, shortcut_k):
        self._run_pair(seed, shortcut_k, PairsTableScorer)

    @pytest.mark.parametrize("shortcut_k", (1, 2, 3))
    @pytest.mark.parametrize("seed", range(12))
    def test_at_most_three_pair_calls_per_layer(self, seed, shortcut_k, monkeypatch):
        """Tighter than the name: one hook call per plan, so one per trip
        plus one per layer planned again."""
        plans = spy_plans(monkeypatch)
        _, scorer, n_points = self._run_pair(seed, shortcut_k, PairsTableScorer)
        # One plan for every layer, then one more per layer whose two-hop
        # set grew; these lattices always grow one.
        assert list(plans[0]) == list(range(2, n_points))
        replanned = plans[1:]
        assert replanned, "no layer was planned again"
        assert all(len(plan) == 1 for plan in replanned)
        calls = scorer.pair_calls
        assert calls, "the shortcut pass fetched nothing in batch"
        assert len(calls) <= 1 + len(replanned)
        for keys in calls:
            assert keys and len(set(keys)) == len(keys)

    @pytest.mark.parametrize("shortcut_k", (1, 2, 3))
    def test_one_pair_call_per_trip_without_replanning(self, shortcut_k, monkeypatch):
        """On random lattices that plan no layer again, the pass makes
        exactly one hook call when its plan reads a transition the forward
        matrices lack (a closest road off layer ``i-1``), else none."""
        net = chain_network(N_SEGMENTS)
        engine = ShortestPathEngine(net)
        plans = spy_plans(monkeypatch)
        single_call_trips = 0
        for seed in range(40):
            n_points, candidate_sets, obs, trans = random_lattice(seed)
            if n_points < 3:
                continue
            pts = points(n_points)
            plans.clear()
            ref, ref_seq = run_impl(
                "reference", candidate_sets, TableScorer(obs, trans), shortcut_k,
                net, engine, pts,
            )
            scorer = PairsTableScorer(obs, trans)
            vec, vec_seq = run_impl(
                "vectorized", candidate_sets, scorer, shortcut_k, net, engine, pts
            )
            assert_trellis_equal(ref, vec, ref_seq, vec_seq)
            if len(plans) > 1:
                assert len(scorer.pair_calls) <= len(plans)
                continue
            off_lattice = any(
                u not in candidate_sets[i - 1]
                for i, shortcuts in plans[0].items()
                for _, _, u in shortcuts
            )
            assert len(scorer.pair_calls) == int(off_lattice)
            single_call_trips += off_lattice
        assert single_call_trips > 0

    @pytest.mark.parametrize("scorer_cls", (TableScorer, BatchTableScorer))
    @pytest.mark.parametrize("shortcut_k", (1, 2, 3))
    @pytest.mark.parametrize("seed", range(12))
    def test_hookless_scorer_matches_reference(self, seed, shortcut_k, scorer_cls):
        self._run_pair(seed, shortcut_k, scorer_cls)


class TestClosestSegments:
    """The stacked Alg. 2 line 5 pass equals the reference's scalar
    first-minimum ``min(route, key=distance_to)``, route by route, each
    route against its own point."""

    @staticmethod
    def _scalar(net, position, route):
        return min(route, key=lambda seg: net.segments[seg].distance_to(position))

    @staticmethod
    def _block(routes):
        return RouteBlock.from_routes(
            [None if route is None else Route(route, 0.0) for route in routes]
        )

    @settings(max_examples=80, deadline=None)
    @given(random_networks(), st.data())
    def test_equals_scalar_first_minimum(self, net, data):
        # Grid-aligned geometry, parallel duplicate roads and repeated ids
        # make exact distance ties common; missing routes get no winner.
        ids = sorted(net.segments)
        routes = data.draw(
            st.lists(
                st.none()
                | st.lists(st.sampled_from(ids), min_size=1, max_size=40).map(tuple),
                min_size=1,
                max_size=6,
            )
        )
        drawn = data.draw(query_points)
        positions = [drawn[r % len(drawn)] for r in range(len(routes))]
        expected = [
            self._scalar(net, position, route)
            for position, route in zip(positions, routes)
            if route is not None
        ]
        assert closest_segments(net, self._block(routes), positions) == expected

    def test_exact_ties_keep_the_first_road(self):
        net = chain_network(N_SEGMENTS)
        node = Point(300.0, 0.0)  # the shared end of segments 2 and 3
        routes = [(3, 2), (2, 3), (1, 2, 3, 4), (4, 3, 2, 1), (5,)]
        block = self._block(routes)
        assert closest_segments(net, block, [node] * 5) == [3, 2, 2, 3, 5]
        # Each route is measured against its own point.
        far = Point(650.0, 0.0)  # inside segment 6
        positions = [node, far, node, far, node]
        assert closest_segments(net, block, positions) == [
            self._scalar(net, p, route) for p, route in zip(positions, routes)
        ] == [3, 3, 2, 4, 5]

    def test_empty_block(self):
        net = chain_network(N_SEGMENTS)
        assert closest_segments(net, self._block([None, None]), [Point(0, 0)] * 2) == []


class TestRouterBackedParity:
    """Heuristic-HMM matching: both backends, both routers, k in {0, 1, 2}."""

    @pytest.fixture(scope="class")
    def ubodt_router(self, tiny_dataset):
        network = tiny_dataset.network
        table = Ubodt.build(network, delta_m=2000.0)
        return UbodtRouter(network, table, fallback=ShortestPathEngine(network))

    def _match_all(self, dataset, router, impl, shortcut_k, trajectories):
        config = HeuristicHmmConfig(shortcut_k=shortcut_k, trellis_impl=impl)
        matcher = HeuristicHmmMatcher(dataset, config, router=router)
        return [matcher.match(t) for t in trajectories]

    @pytest.mark.parametrize("shortcut_k", SHORTCUT_KS)
    def test_dijkstra_router_parity(self, tiny_dataset, shortcut_k):
        trajectories = [s.cellular for s in tiny_dataset.samples[:8]]
        router = ShortestPathEngine(tiny_dataset.network)
        ref = self._match_all(tiny_dataset, router, "reference", shortcut_k, trajectories)
        vec = self._match_all(tiny_dataset, router, "vectorized", shortcut_k, trajectories)
        for a, b in zip(ref, vec):
            assert b.matched_sequence == a.matched_sequence
            assert b.path == a.path
            assert b.candidate_sets == a.candidate_sets

    @pytest.mark.parametrize("shortcut_k", SHORTCUT_KS)
    def test_ubodt_router_parity(self, tiny_dataset, ubodt_router, shortcut_k):
        trajectories = [s.cellular for s in tiny_dataset.samples[:8]]
        ref = self._match_all(
            tiny_dataset, ubodt_router, "reference", shortcut_k, trajectories
        )
        vec = self._match_all(
            tiny_dataset, ubodt_router, "vectorized", shortcut_k, trajectories
        )
        for a, b in zip(ref, vec):
            assert b.matched_sequence == a.matched_sequence
            assert b.path == a.path
            assert b.candidate_sets == a.candidate_sets


class TestLHMMParity:
    """Full-matcher differential test on the fitted session LHMM."""

    def test_match_identical_across_backends(self, trained_lhmm, tiny_dataset):
        matcher = trained_lhmm
        trajectories = [s.cellular for s in tiny_dataset.test[:6]]
        saved_impl = matcher.config.trellis_impl
        saved_degradation = matcher.degradation_enabled
        results: dict[str, list] = {}
        try:
            matcher.degradation_enabled = False
            for impl in TRELLIS_IMPLS:
                matcher.config.trellis_impl = impl
                results[impl] = [matcher.match(t) for t in trajectories]
        finally:
            matcher.config.trellis_impl = saved_impl
            matcher.degradation_enabled = saved_degradation
        for ref, vec in zip(results["reference"], results["vectorized"]):
            assert vec.matched_sequence == ref.matched_sequence
            assert vec.path == ref.path
            assert vec.score == ref.score
            assert vec.candidate_sets == ref.candidate_sets

    @pytest.mark.parametrize("shortcut_k", (2, 3))
    def test_batched_pipeline_matches_scalar_reference(
        self, trained_lhmm, tiny_dataset, shortcut_k
    ):
        """The per-trip shortcut plan at k > 1 through the full matcher:
        batched pipeline + vectorized trellis against scalar + reference."""
        matcher = trained_lhmm
        trajectories = [s.cellular for s in tiny_dataset.samples[:8]]
        config = matcher.config
        saved = (config.pipeline_impl, config.trellis_impl, config.shortcut_k)
        saved_degradation = matcher.degradation_enabled
        results = {}
        try:
            matcher.degradation_enabled = False
            config.shortcut_k = shortcut_k
            for pipeline_impl, trellis_impl in (
                ("scalar", "reference"),
                ("batched", "vectorized"),
            ):
                config.pipeline_impl = pipeline_impl
                config.trellis_impl = trellis_impl
                results[pipeline_impl] = [matcher.match(t) for t in trajectories]
        finally:
            config.pipeline_impl, config.trellis_impl, config.shortcut_k = saved
            matcher.degradation_enabled = saved_degradation
        for ref, got in zip(results["scalar"], results["batched"]):
            assert got.matched_sequence == ref.matched_sequence
            assert got.path == ref.path
            assert got.score == ref.score
            assert got.candidate_sets == ref.candidate_sets
        # The shortcut pass inserted roads beyond the top-k candidates.
        assert any(
            len(c) > config.candidate_k for r in results["batched"] for c in r.candidate_sets
        )

