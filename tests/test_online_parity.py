"""Property test: fixed-lag streaming equals batch decoding when the lag
covers the whole trajectory.

This pins down the *only* intended difference between :class:`OnlineLHMM`
and :class:`LHMM.match` — the fixed-lag commitment horizon — and guards
against lattice drift (scoring, routing, tie-breaking, or backtracking
diverging between the two implementations).

The matcher under test ablates the implicit (attention-based) probability
components and the shortcut pass, because those are *documented*
online/batch differences, not drift:

* the batch context/relevance attention sees the whole trajectory
  (including future points), while the streaming decoder can only attend
  over the points received so far — with implicit components on, exact
  parity is impossible by construction;
* shortcut optimisation (Alg. 2) is a whole-path pass the streaming
  decoder deliberately skips.

With those off, the two decoders walk mathematically identical lattices,
so ``lag >= len(trajectory)`` must reproduce ``LHMM.match`` exactly, on
every trajectory — under *both* trellis backends (the streaming decoder
runs the batch trellis's layer kernel, the batch matcher either trellis)
and on *both* routers: the Dijkstra engine, whose native route blocks
streaming reads, and a :class:`UbodtRouter`, whose routes reach streaming
packed by ``RouteBlock.from_routes`` (as on ``router: ubodt`` serving
shards).  Conversely a small lag may legitimately commit
early and diverge — that trade-off is asserted as "documented" by the
bounded CMF test in ``test_core_online.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import LHMM, LHMMConfig, OnlineLHMM
from repro.core.trellis import TRELLIS_IMPLS
from repro.network import ShortestPathEngine, Ubodt, UbodtRouter


@pytest.fixture(scope="module")
def parity_lhmm(tiny_dataset):
    """An LHMM whose online/batch lattices are exactly comparable."""
    config = LHMMConfig(
        embedding_dim=12,
        het_layers=1,
        mlp_hidden=12,
        candidate_k=10,
        candidate_pool=50,
        candidate_radius_m=1600.0,
        epochs=2,
        batch_size=4,
        negatives_per_positive=3,
        use_implicit_observation=False,
        use_implicit_transition=False,
        shortcut_k=1,  # requested but inert: use_shortcuts=False gates it
        use_shortcuts=False,
    )
    return LHMM(config, rng=5).fit(tiny_dataset)


@pytest.fixture(scope="module")
def ubodt_router(tiny_dataset):
    network = tiny_dataset.network
    table = Ubodt.build(network, delta_m=2000.0)
    return UbodtRouter(network, table, fallback=ShortestPathEngine(network))


@pytest.mark.parametrize("impl", TRELLIS_IMPLS)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_full_lag_streaming_equals_batch(
    data, impl, parity_lhmm, tiny_dataset, ubodt_router
):
    """For random trajectory slices, lag >= n commits == batch segments."""
    samples = tiny_dataset.samples
    sample = samples[data.draw(st.integers(0, len(samples) - 1), label="sample")]
    points = sample.cellular.points
    start = data.draw(st.integers(0, len(points) - 2), label="start")
    length = data.draw(st.integers(2, len(points) - start), label="length")
    keep_every = data.draw(st.integers(1, 3), label="keep_every")

    from repro.cellular.trajectory import Trajectory

    trajectory = Trajectory(
        points=points[start : start + length], trajectory_id=sample.sample_id
    ).subsampled(keep_every)

    saved_impl = parity_lhmm.config.trellis_impl
    saved_engine = parity_lhmm.engine
    parity_lhmm.config.trellis_impl = impl
    try:
        for router in (saved_engine, ubodt_router):
            parity_lhmm.use_router(router)
            batch = parity_lhmm.match(trajectory)
            online = OnlineLHMM(
                parity_lhmm, lag=len(trajectory), context_window=len(trajectory)
            )
            for point in trajectory.points:
                online.add_point(point)
            # With lag >= n nothing may commit before finish: the whole
            # trajectory is still pending (the latency cost of full-batch
            # accuracy).
            assert online.pending_points() == len(trajectory)
            assert online.committed_path == []

            assert online.finish() == batch.path
    finally:
        parity_lhmm.config.trellis_impl = saved_impl
        parity_lhmm.use_router(saved_engine)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(sample_index=st.integers(0, 39), lag=st.integers(1, 3))
def test_small_lag_commits_are_prefix_stable(sample_index, lag, parity_lhmm, tiny_dataset):
    """Fixed-lag commits never retract: each commit extends the previous.

    (The documented trade-off: a small lag can diverge from batch output,
    but what is committed stays committed.)
    """
    sample = tiny_dataset.samples[sample_index % len(tiny_dataset.samples)]
    online = OnlineLHMM(parity_lhmm, lag=lag)
    previous: list[int] = []
    for point in sample.cellular.points:
        online.add_point(point)
        committed = online.committed_path
        assert committed[: len(previous)] == previous
        previous = committed
    final = online.finish()
    assert final[: len(previous)] == previous
