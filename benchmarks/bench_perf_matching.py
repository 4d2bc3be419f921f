"""Perf smoke benchmark: vectorised routing + parallel matching.

Self-contained (builds its own small city, independent of the session-scoped
benchmark fixtures) so it runs in well under a minute::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_matching.py -s -m perf

It measures and writes to ``benchmarks/results/perf_matching.txt``:

* batched route-matrix throughput of the scipy CSR engine vs the seed
  per-pair pure-Python heap engine (expected ≥ 3x);
* UBODT build time plus vectorised ``lookup_many`` vs scalar lookups;
* end-to-end ``match_many`` wall-clock, serial vs 2 workers, with decoded
  paths verified bit-identical;
* end-to-end ``LHMM.match`` under the scalar reference pipeline vs the
  batched/vectorised pipeline, caches cold per run, best-of-N, with every
  decoded path asserted bit-identical — this is the headline number for
  the whole-pipeline vectorization work, recorded to ``BENCH_matching.json``
  at the repo root for ``scripts/check_bench_regression.py``.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from benchmarks.bench_util import metric, write_bench_json
from benchmarks.conftest import check_shape, save_report
from repro.cellular import SimulationConfig, TowerPlacementConfig
from repro.core import LHMM, LHMMConfig
from repro.datasets import DatasetConfig, make_city_dataset
from repro.network import CityConfig, ShortestPathEngine, Ubodt, UbodtRouter

pytestmark = pytest.mark.perf

PERF_CITY = CityConfig(
    grid_rows=12,
    grid_cols=12,
    block_size_m=250.0,
    density_gradient=0.5,
    removal_prob=0.08,
    one_way_prob=0.05,
)
PERF_SIMULATION = SimulationConfig(
    min_trip_m=900.0,
    max_trip_m=2400.0,
    cellular_interval_mean_s=35.0,
    cellular_interval_sigma_s=10.0,
    cellular_interval_max_s=90.0,
    gps_interval_s=12.0,
)
PERF_TOWERS = TowerPlacementConfig(base_spacing_m=350.0, spacing_gradient=1.0)


@pytest.fixture(scope="module")
def perf_dataset():
    config = DatasetConfig(
        name="perf-city",
        city=PERF_CITY,
        towers=PERF_TOWERS,
        simulation=PERF_SIMULATION,
        num_trajectories=60,
        groundtruth="oracle",
    )
    return make_city_dataset(config, rng=13)


LHMM_SMOKE_CONFIG = dict(
    embedding_dim=12,
    het_layers=1,
    mlp_hidden=12,
    candidate_k=10,
    candidate_pool=50,
    candidate_radius_m=1600.0,
    epochs=2,
    batch_size=4,
    negatives_per_positive=3,
)


@pytest.fixture(scope="module")
def perf_matcher(perf_dataset):
    return LHMM(LHMMConfig(**LHMM_SMOKE_CONFIG), rng=0).fit(perf_dataset)


def test_perf_routing_and_matching(perf_dataset, perf_matcher):
    dataset = perf_dataset
    network = dataset.network
    lines = [f"perf smoke on {network.num_nodes} nodes / {network.num_segments} segments"]

    # ---- 1. batched route-matrix queries vs the seed per-pair engine ----
    rng = np.random.default_rng(3)
    nodes = sorted(network.nodes)
    sources = [int(n) for n in rng.choice(nodes, size=40, replace=False)]
    targets = [int(n) for n in rng.choice(nodes, size=40, replace=False)]

    seed_engine = ShortestPathEngine(network, use_scipy=False)
    start = time.perf_counter()
    reference = [
        [seed_engine.node_distance(u, v) for v in targets] for u in sources
    ]
    per_pair_s = time.perf_counter() - start

    vector_engine = ShortestPathEngine(network)
    start = time.perf_counter()
    matrix = vector_engine.distances(sources, targets)
    batched_s = time.perf_counter() - start

    for i in range(len(sources)):
        for j in range(len(targets)):
            if math.isinf(reference[i][j]):
                assert math.isinf(matrix[i, j])
            else:
                assert matrix[i, j] == pytest.approx(reference[i][j])
    routing_speedup = per_pair_s / max(batched_s, 1e-9)
    lines.append(
        f"route matrix 40x40   per-pair {per_pair_s * 1e3:8.1f} ms   "
        f"batched {batched_s * 1e3:8.1f} ms   speedup {routing_speedup:6.1f}x"
    )
    check_shape(routing_speedup >= 3.0, "batched routing >= 3x per-pair engine")

    # ---- 2. UBODT build + vectorised lookups ----
    start = time.perf_counter()
    table = Ubodt.build(network, delta_m=2500.0)
    build_s = time.perf_counter() - start
    probe_s = np.repeat(sources, len(targets)).astype(np.int64)
    probe_t = np.tile(targets, len(sources)).astype(np.int64)
    start = time.perf_counter()
    table.lookup_many(probe_s, probe_t)
    many_s = time.perf_counter() - start
    start = time.perf_counter()
    for s, t in zip(probe_s, probe_t):
        table.lookup(int(s), int(t))
    scalar_s = time.perf_counter() - start
    lines.append(
        f"ubodt delta=2500m    build {build_s:6.2f} s ({len(table)} rows)   "
        f"lookup_many {many_s * 1e3:6.1f} ms vs scalar {scalar_s * 1e3:6.1f} ms"
    )

    # ---- 3. end-to-end match_many: serial vs parallel, bit-identical ----
    matcher = perf_matcher
    trajectories = [sample.cellular for sample in dataset.samples]

    matcher.engine.clear_cache()
    start = time.perf_counter()
    serial = matcher.match_many(trajectories)
    serial_s = time.perf_counter() - start

    matcher.engine.clear_cache()
    start = time.perf_counter()
    parallel = matcher.match_many(trajectories, workers=2)
    parallel_s = time.perf_counter() - start

    assert [r.path for r in parallel] == [r.path for r in serial]
    assert [r.matched_sequence for r in parallel] == [
        r.matched_sequence for r in serial
    ]
    match_speedup = serial_s / max(parallel_s, 1e-9)
    stats = matcher.last_parallel_stats or {}
    cores = os.cpu_count() or 1
    lines.append(
        f"match_many {len(trajectories):3d} trajs  serial {serial_s:6.2f} s   "
        f"2 workers {parallel_s:6.2f} s   speedup {match_speedup:5.2f}x   "
        f"(paths bit-identical, {stats.get('workers', 0)} workers, {cores} cores)"
    )
    if cores >= 2:
        check_shape(parallel_s < serial_s, "2-worker match_many beats serial wall-clock")
    else:
        lines.append(
            "single-core host: parallel wall-clock win not enforced "
            "(determinism still verified above)"
        )

    # ---- 4. UBODT-routed matching parity (same paths, table absorbs work) --
    ubodt_matcher = matcher.use_router(
        UbodtRouter(network, table, fallback=ShortestPathEngine(network))
    )
    ubodt_paths = [ubodt_matcher.match(t).path for t in trajectories[:5]]
    assert ubodt_paths == [r.path for r in serial[:5]]
    router = ubodt_matcher.engine
    lines.append(
        f"ubodt router parity  first 5 trajs identical; "
        f"{router.table_hits} table hits / {router.fallback_hits} fallback hits"
    )
    # The matcher fixture is module-scoped: put the default engine back so
    # later tests do not inherit the UBODT router.
    matcher.use_router(dataset.engine)

    save_report("perf_matching", "\n".join(lines))


def _cold_match_all(matcher, trajectories, pipeline_impl, trellis_impl):
    """One cold end-to-end matching pass under the given pipeline.

    Every cache whose state the batched pipeline could warm for the scalar
    one (and vice versa) is cleared, so each timed pass pays the full
    retrieval, routing and feature-extraction cost it owns.
    """
    matcher.config.pipeline_impl = pipeline_impl
    matcher.config.trellis_impl = trellis_impl
    matcher.engine.clear_cache()
    network = matcher.network
    network._near_memo.clear()
    network._route_turns.clear()
    matcher._pool_cache_obj = None
    start = time.perf_counter()
    paths = [tuple(matcher.match(t).path) for t in trajectories]
    return time.perf_counter() - start, paths


def test_perf_pipeline_vectorization(perf_dataset, perf_matcher):
    """Scalar reference pipeline vs the batched/vectorised pipeline, e2e.

    Both pipelines run the identical trained model over the identical
    trajectories with cold caches; decoded paths are asserted bit-identical
    on every repetition (the speed is only meaningful because the pipelines
    are interchangeable).  Timings are best-of-N because the CI hosts are
    noisy single-core boxes; the deterministic instruction-count ratio
    (``python -m repro profile``) is the stable companion number.
    """
    matcher = perf_matcher
    trajectories = [sample.cellular for sample in perf_dataset.samples]
    reps = 3

    scalar_s: list[float] = []
    batched_s: list[float] = []
    reference_paths = None
    try:
        for _ in range(reps):
            elapsed, scalar_paths = _cold_match_all(
                matcher, trajectories, "scalar", "reference"
            )
            scalar_s.append(elapsed)
            elapsed, batched_paths = _cold_match_all(
                matcher, trajectories, "batched", "vectorized"
            )
            batched_s.append(elapsed)
            # Hard assertion, never soft-skipped: the vectorised pipeline
            # must decode the exact same paths as the scalar reference.
            assert batched_paths == scalar_paths
            if reference_paths is None:
                reference_paths = scalar_paths
            assert scalar_paths == reference_paths
    finally:
        matcher.config.pipeline_impl = "batched"
        matcher.config.trellis_impl = "vectorized"

    best_scalar = min(scalar_s)
    best_batched = min(batched_s)
    speedup = best_scalar / max(best_batched, 1e-9)
    lines = [
        f"pipeline vectorization, {len(trajectories)} trajs, "
        f"best of {reps} cold runs",
        f"scalar reference     {best_scalar:6.2f} s   "
        f"(all runs: {', '.join(f'{s:.2f}' for s in scalar_s)})",
        f"batched vectorized   {best_batched:6.2f} s   "
        f"(all runs: {', '.join(f'{s:.2f}' for s in batched_s)})",
        f"speedup              {speedup:6.2f}x   (paths bit-identical, "
        f"every rep)",
    ]
    # In-tree floor: the scalar baseline shares the batched routing stack
    # (node-path cache, route_many fast path, turn-sum memo), so it is
    # itself far faster than the pre-vectorization pipeline; against that
    # stronger baseline the batched pipeline typically wins 3-4x here.
    # The hard floor sits below the observed noise band so a slow run
    # flags real regressions, not scheduler jitter; the >= 5x end-to-end
    # claim is vs the pre-vectorization pipeline (see docs/performance.md)
    # and the measured ratio is tracked by BENCH_matching.json.
    check_shape(speedup >= 2.5, "batched pipeline >= 2.5x scalar reference e2e")

    write_bench_json(
        "matching",
        config=dict(
            LHMM_SMOKE_CONFIG,
            num_trajectories=len(trajectories),
            reps=reps,
            dataset="perf-city 12x12 rng=13",
        ),
        metrics={
            "e2e_scalar_best_s": metric(best_scalar, "s", "lower"),
            "e2e_batched_best_s": metric(best_batched, "s", "lower"),
            "e2e_pipeline_speedup": metric(speedup, "x", "higher"),
        },
        notes="scalar-vs-batched LHMM.match over the perf smoke city; "
        "paths bit-identical on every rep; best-of-N cold-cache timing",
    )
    save_report("perf_pipeline", "\n".join(lines))

