"""``batch-scaled``: serial in-process ``LHMM.match`` on a city of >10k segments.

The Hangzhou-like preset at scale 2.5 has ~12.2k segments and ~3.6k nodes,
toward the paper's Table I cities.  Spatial lookups and routing dominate
here, and the route cache sees mostly new pairs.  No serving layer runs.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from pathlib import Path

from perfbench.common import (
    Result,
    accuracy,
    chunks,
    cpu_probe_ms,
    digest,
    end_to_end,
    load_and_fit,
    make_inputs,
    path_is_connected,
    root_self_fraction,
    self_peak_rss_mb,
    span_metrics,
    split,
    trace_overhead,
)
from perfbench.trace import SPAN_NAMES, Tracer, instrumented

PRESET, SCALE = "hangzhou", 2.5
TRAIN, WARMUP = 12, 6
#: Timed trajectories per second of ``--seconds``.  The timed set is sized
#: from the run length alone, never from measured speed, so the work and
#: every count it yields depend only on the seed.
TRAJ_PER_SECOND = 9
SETUPS = 3
#: Timed trajectories re-decoded by the scalar/reference oracle per run.
ORACLE_SAMPLE = {False: 4, True: 16}
OVERHEAD_SAMPLE = 12


def _setup_once(city_path: Path, warmup):
    start = time.perf_counter()
    dataset, model = load_and_fit(city_path)
    fitted = time.perf_counter()
    for sample in warmup:
        model.match(sample.cellular)
    done = time.perf_counter()
    return dataset, model, {"fit": fitted - start, "total": done - start}


def _oracle_mismatches(model, trajectories, results) -> int:
    """Re-decode with the scalar pipeline and reference trellis; count diffs."""
    from repro.serve.protocol import encode_match_result

    cfg = model.config
    saved = cfg.pipeline_impl, cfg.trellis_impl
    cfg.pipeline_impl, cfg.trellis_impl = "scalar", "reference"
    try:
        return sum(
            encode_match_result(model.match(t)) != encode_match_result(r)
            for t, r in zip(trajectories, results)
        )
    finally:
        cfg.pipeline_impl, cfg.trellis_impl = saved


def run(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    from repro.datasets import save_dataset

    n_timed = max(20, round(TRAJ_PER_SECOND * seconds))
    start = time.perf_counter()
    city, heldout = make_inputs(PRESET, SCALE, TRAIN, WARMUP + n_timed, seed)
    city_path = work / "batch-city.json.gz"
    save_dataset(city, city_path)
    generate_s = time.perf_counter() - start
    del city
    samples = heldout[WARMUP:]
    trajectories = [s.cellular for s in samples]

    # Each set-up serves the next slice of the timed trips, so the timed work
    # is spread over the whole run rather than one stretch of it: the host's
    # speed drifts over tens of seconds, and this averages more of it.
    reps = []
    tracer = Tracer()
    results, op_seconds, errors = [], [], []
    slices = []
    hits = misses = 0
    picks: list[int] = []
    oracle_diff = 0
    route_after: dict = {}
    probe_before = cpu_probe_ms()
    for chunk, n_picks in zip(
        chunks(n_timed, SETUPS), split(ORACLE_SAMPLE[trace], SETUPS)
    ):
        dataset = model = None
        gc.collect()
        dataset, model, parts = _setup_once(city_path, heldout[:WARMUP])
        reps.append(parts)
        before = model.engine.cache_stats()
        with instrumented(tracer) if trace else contextlib.nullcontext():
            start = time.perf_counter()
            for i in chunk:
                op_start = time.perf_counter()
                try:
                    result = model.match(trajectories[i])
                except Exception as error:  # noqa: BLE001 - counted as a failed op
                    errors.append(repr(error))
                    result = None
                op_seconds.append(time.perf_counter() - op_start)
                results.append(result)
            slices.append(time.perf_counter() - start)
        route_after = model.engine.cache_stats()
        hits += route_after["route_cache_hits"] - before["route_cache_hits"]
        misses += route_after["route_cache_misses"] - before["route_cache_misses"]
        # The oracle re-decodes an evenly spread sample of this slice.
        step = max(1, len(chunk) // max(n_picks, 1))
        mine = [i for i in chunk[::step] if results[i] is not None][:n_picks]
        oracle_diff += _oracle_mismatches(
            model, [trajectories[i] for i in mine], [results[i] for i in mine]
        )
        picks += mine
    probe_after = cpu_probe_ms()
    memory_mb = self_peak_rss_mb()
    wall_s = sum(slices)

    # ---- output checks (outside the timed phase) ----
    problems = [f"match failed: {e}" for e in errors[:3]]
    answered = [(s, r) for s, r in zip(samples, results) if r is not None]
    degraded = sum(r.provenance != "lhmm" for _, r in answered)
    broken = sum(not path_is_connected(dataset.network, r.path) for _, r in answered)
    if broken:
        problems.append(f"{broken} decoded paths are not connected")
    if oracle_diff:
        problems.append(f"{oracle_diff}/{len(picks)} differ from the scalar oracle")
    quality = accuracy(
        dataset.network, [s.sim_path for s, _ in answered], [r.path for _, r in answered]
    )
    decoded_digest = digest(
        [[r.path, r.matched_sequence, r.score] if r else None for r in results]
    )

    setup = {k: statistics.median(rep[k] for rep in reps) for k in reps[0]}
    points = sum(len(t) for t in trajectories)
    probe = (probe_before + probe_after) / 2
    per_layer = {
        "setup.generate_s": (generate_s, "s"),
        "setup.fit_s": (setup["fit"], "s"),
        "host.cpu_probe_ms": (probe, "ms"),
        "error_rate": (len(errors) / n_timed, "ratio"),
        "degraded_rate": (degraded / max(len(answered), 1), "ratio"),
    }
    if trace:
        per_layer.update(span_metrics(tracer, SPAN_NAMES, wall_s))
        counts = tracer.counts
        per_layer.update({
            "network.route.cache_hit_ratio": (hits / max(hits + misses, 1), "ratio"),
            "network.route.cache_misses": (misses, "count"),
            "network.route.cache_entries": (route_after["route_cache_entries"], "count"),
            "network.route.cached_sources": (route_after["cached_sources"], "count"),
            "core.candidates.pool_size_mean": (
                counts["pool_segments"] / max(counts["pool_points"], 1), "count"),
            "core.relevance.scope_segments": (counts["scope_segments"], "count"),
            "core.transition.pairs_scored": (counts["pairs_scored"], "count"),
            "trace.root_self_fraction": (root_self_fraction(tracer, "core.match"), "ratio"),
            "trace.overhead": (trace_overhead(
                # Trips of the last slice: warm in the last set-up's caches.
                lambda: [model.match(trajectories[i]) for i in chunk[:OVERHEAD_SAMPLE]]),
                "ratio"),
        })
    return Result(
        attempted=n_timed,
        failed=len(errors),
        correct=not problems,
        end_to_end=end_to_end(
            setup_s=setup["total"],
            trajectories=(len(answered), wall_s),
            points=(points, wall_s),
            op_seconds=op_seconds,
            memory_mb=memory_mb,
            attempted=n_timed,
            failed=len(errors),
            degraded=degraded,
            answered=len(answered),
            quality=quality,
        ),
        per_layer=per_layer,
        detail={
            "digest": decoded_digest,
            "trajectories": n_timed,
            "segments": dataset.network.num_segments,
            "errors": f"{len(errors)}/{n_timed}",
            "degraded": f"{degraded}/{len(answered)}",
            "oracle_checked": len(picks),
            "route_cache": {"hits": hits, "misses": misses, **route_after},
            "cpu_probe_ms": [round(probe_before, 3), round(probe_after, 3)],
            "setup_s": [round(rep["total"], 3) for rep in reps],
            "slice_s": [round(t, 3) for t in slices],
        },
        problems=problems,
    )
