"""Differential parity: the batched pipeline equals the scalar reference.

``pipeline_impl`` selects how candidates, observation features, embeddings
and transition features are produced — per point (``scalar``) or stacked
per trajectory (``batched``).  The two must be *bit-identical* end to end:
same decoded paths, same matched candidates, same candidate sets, same
Viterbi score, warm or cold caches.  The trellis backend is exercised in
both combinations because the batched pipeline feeds the vectorized
trellis in production while the parity oracle runs the reference trellis.
"""

from __future__ import annotations

import pytest

from repro.core import OnlineLHMM
from repro.core.config import PIPELINE_IMPLS
from repro.core.matcher import _LHMMScorer
from repro.nn import Tensor


def _reset_caches(matcher) -> None:
    matcher.engine.clear_cache()
    network = matcher.network
    network._near_memo.clear()
    matcher._pool_cache_obj = None


def _match_all(matcher, trajectories, pipeline_impl, trellis_impl):
    saved = (matcher.config.pipeline_impl, matcher.config.trellis_impl)
    matcher.config.pipeline_impl = pipeline_impl
    matcher.config.trellis_impl = trellis_impl
    _reset_caches(matcher)
    try:
        return [matcher.match(t) for t in trajectories]
    finally:
        matcher.config.pipeline_impl, matcher.config.trellis_impl = saved


@pytest.fixture(scope="module")
def parity_cases(tiny_dataset):
    return [s.cellular for s in tiny_dataset.samples[:12]]


def test_batched_pipeline_bit_identical_to_scalar(trained_lhmm, parity_cases):
    reference = _match_all(trained_lhmm, parity_cases, "scalar", "reference")
    batched = _match_all(trained_lhmm, parity_cases, "batched", "vectorized")
    for ref, got in zip(reference, batched):
        assert got.path == ref.path
        assert got.matched_sequence == ref.matched_sequence
        assert got.candidate_sets == ref.candidate_sets
        assert got.score == ref.score  # bitwise, not approx
        assert got.provenance == ref.provenance == "lhmm"


@pytest.mark.parametrize("trellis_impl", ["reference", "vectorized"])
def test_pipelines_agree_under_either_trellis(
    trained_lhmm, parity_cases, trellis_impl
):
    """Pipeline choice and trellis backend are independent axes; every
    combination decodes the same paths."""
    results = {
        impl: _match_all(trained_lhmm, parity_cases[:6], impl, trellis_impl)
        for impl in PIPELINE_IMPLS
    }
    assert [r.path for r in results["batched"]] == [
        r.path for r in results["scalar"]
    ]
    assert [r.score for r in results["batched"]] == [
        r.score for r in results["scalar"]
    ]


def test_warm_caches_do_not_change_answers(trained_lhmm, parity_cases):
    """Caches are value-transparent: a second (warm) batched pass returns
    exactly what the cold pass returned."""
    cold = _match_all(trained_lhmm, parity_cases, "batched", "vectorized")
    trained_lhmm.config.pipeline_impl = "batched"
    trained_lhmm.config.trellis_impl = "vectorized"
    try:
        warm = [trained_lhmm.match(t) for t in parity_cases]
    finally:
        trained_lhmm.config.pipeline_impl = "batched"
    assert [r.path for r in warm] == [r.path for r in cold]
    assert [r.score for r in warm] == [r.score for r in cold]


def test_streaming_parity_across_pipelines(trained_lhmm, parity_cases):
    """OnlineLHMM commits the same segments whichever pipeline feeds it.

    Unlike online-vs-batch parity (where attention context differs by
    design), both sides here are the same streaming decoder — only the
    candidate/feature plumbing changes, and that plumbing is bit-identical.
    """
    for trajectory in parity_cases[:4]:
        commits = {}
        for impl in PIPELINE_IMPLS:
            saved = trained_lhmm.config.pipeline_impl
            trained_lhmm.config.pipeline_impl = impl
            _reset_caches(trained_lhmm)
            try:
                online = OnlineLHMM(trained_lhmm, lag=4)
                for point in trajectory.points:
                    online.add_point(point)
                commits[impl] = online.finish()
            finally:
                trained_lhmm.config.pipeline_impl = saved
        assert commits["batched"] == commits["scalar"]


# ---------------------------------------------------------------------------
# Route-driven road relevance: P(e|X) is scored for the in-scope roads of
# the routes the trellis touches — up front for every step's candidate
# product, lazily for routes the shortcut pass adds.  Each combination of
# pipeline and trellis must decode exactly like the scalar/reference pair,
# and every road it checked must read what scoring the whole scope up front
# (every road near the trajectory) gives, or 0.5 outside it.

COMBOS = [
    (pipeline_impl, trellis_impl)
    for pipeline_impl in PIPELINE_IMPLS
    for trellis_impl in ("reference", "vectorized")
]


def _capture_scorers(monkeypatch) -> list[tuple[_LHMMScorer, set[int]]]:
    """Record each scorer the matcher builds with the roads it checked up front."""
    built = []
    original = _LHMMScorer.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append((self, set(self._checked)))

    monkeypatch.setattr(_LHMMScorer, "__init__", spy)
    return built


def _eager_relevance(matcher, trajectory) -> dict[int, float]:
    """``P(e|X)`` of every road near the trajectory, scored in one call."""
    radius = matcher.config.candidate_radius_m + matcher.RELEVANCE_MARGIN_M
    scope = sorted(
        {s for p in trajectory.points for s in matcher.network.segments_near(p.position, radius)}
    )
    towers = Tensor(matcher.node_embeddings[matcher._tower_nodes_for(trajectory.points)])
    return dict(zip(scope, matcher._segment_relevance(towers, scope).tolist()))


def _assert_relevance_matches_eager(scorer, eager) -> None:
    for seg in scorer._checked:
        assert scorer._relevance[seg] == eager.get(seg, 0.5)


def _assert_same_decode(got, ref) -> None:
    assert got.path == ref.path
    assert got.matched_sequence == ref.matched_sequence
    assert got.candidate_sets == ref.candidate_sets
    assert got.score == ref.score


@pytest.fixture(scope="module")
def topped_up_case(trained_lhmm, tiny_dataset):
    """A trajectory whose shortcut pass reaches in-scope roads that no
    candidate-product route touched (so relevance is topped up lazily)."""
    with pytest.MonkeyPatch.context() as patch:
        built = _capture_scorers(patch)
        for sample in tiny_dataset.samples:
            built.clear()
            trained_lhmm.match(sample.cellular)
            eager = _eager_relevance(trained_lhmm, sample.cellular)
            for scorer, up_front in built:
                if any(seg in eager for seg in scorer._checked - up_front):
                    return sample.cellular
    pytest.fail("no tiny-dataset trajectory tops relevance up")


@pytest.mark.parametrize("pipeline_impl,trellis_impl", COMBOS)
def test_shortcut_routes_top_up_relevance(
    trained_lhmm, topped_up_case, monkeypatch, pipeline_impl, trellis_impl
):
    (ref,) = _match_all(trained_lhmm, [topped_up_case], "scalar", "reference")
    built = _capture_scorers(monkeypatch)
    (got,) = _match_all(trained_lhmm, [topped_up_case], pipeline_impl, trellis_impl)
    _assert_same_decode(got, ref)
    [(scorer, up_front)] = built
    eager = _eager_relevance(trained_lhmm, topped_up_case)
    assert any(seg in eager for seg in scorer._checked - up_front)
    _assert_relevance_matches_eager(scorer, eager)


@pytest.mark.parametrize("pipeline_impl,trellis_impl", COMBOS)
def test_route_roads_outside_scope_read_one_half(
    trained_lhmm, parity_cases, monkeypatch, pipeline_impl, trellis_impl
):
    """Shrink the scope to 150 m around the points: many route roads fall
    outside it and must keep the 0.5 default."""
    monkeypatch.setattr(
        trained_lhmm, "RELEVANCE_MARGIN_M", 150.0 - trained_lhmm.config.candidate_radius_m
    )
    cases = parity_cases[:4]
    reference = _match_all(trained_lhmm, cases, "scalar", "reference")
    built = _capture_scorers(monkeypatch)
    results = _match_all(trained_lhmm, cases, pipeline_impl, trellis_impl)
    outside = 0
    for trajectory, got, ref, (scorer, _) in zip(cases, results, reference, built):
        _assert_same_decode(got, ref)
        eager = _eager_relevance(trained_lhmm, trajectory)
        _assert_relevance_matches_eager(scorer, eager)
        outside += sum(seg not in eager for seg in scorer._checked)
    assert outside > 0
