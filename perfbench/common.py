"""Pieces every workload shares: inputs, model, statistics and the result."""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

from perfbench.trace import Tracer, instrumented

#: The learned model every workload fits: the shape ``python -m repro
#: profile`` uses, one epoch, so set-up stays a few seconds.
MODEL_CONFIG = dict(
    embedding_dim=12,
    het_layers=1,
    mlp_hidden=12,
    candidate_k=10,
    candidate_pool=50,
    epochs=1,
    batch_size=4,
    negatives_per_positive=3,
)


@dataclass
class Result:
    """What one workload run reports.

    ``end_to_end`` and ``per_layer`` map metric name to ``(value, unit)``;
    ``detail`` is printed as a human-readable line before the result.
    """

    attempted: int
    failed: int
    correct: bool
    end_to_end: dict[str, tuple[float, str]]
    per_layer: dict[str, tuple[float, str]]
    detail: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


#: The map, its towers and the training trips come from this fixed seed, so
#: every ``--seed`` runs against the same city and the same fitted model.
#: ``--seed`` draws the trips that are matched (warm-up and timed).
CITY_SEED = 20230401


def make_inputs(preset: str, scale: float, n_train: int, n_heldout: int, seed: int):
    """``(city, heldout)``: the fixed city with ``n_train`` training samples,
    and ``n_heldout`` samples drawn from ``seed`` on that city.

    Ground truth is the simulator's driven path (``oracle``), which is also
    what accuracy is scored against.  Held-out trips are simulated and
    filtered the way :func:`repro.datasets.make_city_dataset` does it.
    """
    from repro.cellular import VehicleSimulator, apply_standard_filters
    from repro.datasets import MatchingSample, make_city_dataset, preset_config
    from repro.utils import derive_rng

    config = replace(
        preset_config(preset, num_trajectories=n_train + 8, scale=scale),
        groundtruth="oracle",
    )
    city = make_city_dataset(config, rng=CITY_SEED)
    if len(city.samples) < n_train:
        raise RuntimeError(f"{preset} x{scale}: only {len(city.samples)} training trips")
    # Trip lengths clamped to the city, as make_city_dataset clamps them.
    min_x, min_y, max_x, max_y = city.network.bounding_box()
    diagonal = ((max_x - min_x) ** 2 + (max_y - min_y) ** 2) ** 0.5
    simulation = config.simulation
    if simulation.max_trip_m > 0.85 * diagonal:
        simulation = replace(
            simulation,
            max_trip_m=max(600.0, 0.85 * diagonal),
            min_trip_m=min(simulation.min_trip_m, max(300.0, 0.4 * diagonal)),
        )
    simulator = VehicleSimulator(
        city.network, city.towers, config=simulation,
        rng=derive_rng(seed, "perfbench", preset),
    )
    heldout: list[MatchingSample] = []
    trip_id = len(city.samples)
    while len(heldout) < n_heldout:
        trip = simulator.simulate_trip(trip_id)
        trip_id += 1
        cellular = apply_standard_filters(trip.cellular)
        if len(cellular) < 3:
            continue
        heldout.append(MatchingSample(
            sample_id=trip.trip_id,
            cellular=cellular,
            raw_cellular=trip.cellular,
            gps=trip.gps,
            truth_path=list(trip.path),
            sim_path=list(trip.path),
        ))
    return city.with_samples(city.samples[:n_train]), heldout


def load_and_fit(city_path):
    """The system's set-up from its saved inputs: fresh map objects (so no
    cache survives from an earlier set-up) and a model fit on all their
    samples, which are the training split."""
    from repro.core import LHMM, LHMMConfig
    from repro.datasets import load_dataset

    dataset = load_dataset(city_path)
    model = LHMM(LHMMConfig(**MODEL_CONFIG), rng=CITY_SEED).fit(
        dataset, train_samples=dataset.samples
    )
    return dataset, model


def chunks(n: int, parts: int) -> list[range]:
    """``range(n)`` cut into ``parts`` contiguous, near-equal pieces."""
    bounds = [round(k * n / parts) for k in range(parts + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def split(total: int, parts: int) -> list[int]:
    """``total`` as ``parts`` near-equal whole numbers."""
    return [len(piece) for piece in chunks(total, parts)]


def cpu_probe_ms() -> float:
    """Median of five runs of a fixed pure-Python loop (host speed witness)."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def accuracy(network, truths: list[list[int]], paths: list[list[int]]) -> dict:
    """Mean precision, recall and route mismatch fraction over all paths."""
    from repro.eval.metrics import precision_recall, route_mismatch_fraction

    precision = recall = rmf = 0.0
    for truth, path in zip(truths, paths):
        p, r = precision_recall(network, truth, path)
        precision += p
        recall += r
        rmf += route_mismatch_fraction(network, truth, path)
    n = len(paths)
    return {"precision": precision / n, "recall": recall / n, "rmf": rmf / n}


def digest(items) -> str:
    """Short stable hash of JSON-encodable decoded outputs."""
    blob = json.dumps(items, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def path_is_connected(network, path: list[int]) -> bool:
    """Every consecutive pair of segments in ``path`` shares a node."""
    segments = network.segments
    return bool(path) and all(
        segments[a].end_node == segments[b].start_node or a == b
        for a, b in zip(path, path[1:])
    )


def end_to_end(
    *,
    setup_s: float,
    trajectories: tuple[int, float],
    points: tuple[int, float],
    op_seconds: list[float],
    memory_mb: float,
    attempted: int,
    failed: int,
    degraded: int,
    answered: int,
    quality: dict,
) -> dict[str, tuple[float, str]]:
    """The end-to-end metric block every workload prints.

    ``trajectories`` and ``points`` are each a count with the timed wall
    time it took.  p90 is the only tail: every workload times well over 100
    operations, so at least ten samples lie beyond it.
    """
    return {
        "setup_s": (setup_s, "s"),
        "traj_per_s": (trajectories[0] / trajectories[1], "traj/s"),
        "points_per_s": (points[0] / points[1], "points/s"),
        "p50_ms": (statistics.median(op_seconds) * 1e3, "ms"),
        "p90_ms": (statistics.quantiles(op_seconds, n=10)[8] * 1e3, "ms"),
        "memory_mb": (memory_mb, "MB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
        "lhmm_rate": (1.0 - degraded / max(answered, 1), "ratio"),
        "precision": (quality["precision"], "ratio"),
        "recall": (quality["recall"], "ratio"),
        "rmf": (quality["rmf"], "ratio"),
    }


def span_metrics(tracer, names, wall_s: float) -> dict[str, tuple[float, str]]:
    """``<span>.calls``, ``.self_s`` and ``.share`` for each span name."""
    out = {}
    for name in names:
        stats = tracer.spans.get(name)
        calls = stats.calls if stats else 0
        self_s = stats.self_s if stats else 0.0
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
        out[f"{name}.share"] = (self_s / wall_s if wall_s > 0 else 0.0, "ratio")
    return out


def trace_overhead(work) -> float:
    """Traced ÷ untraced wall time of ``work()``, alternated twice, warm."""
    untraced = traced = 0.0
    for _ in range(2):
        start = time.perf_counter()
        work()
        untraced += time.perf_counter() - start
        with instrumented(Tracer()):
            start = time.perf_counter()
            work()
            traced += time.perf_counter() - start
    return traced / untraced


def root_self_fraction(tracer, root: str) -> float:
    """Share of the root span's duration that no named child span covers."""
    stats = tracer.spans.get(root)
    if not stats or stats.total_s <= 0:
        return 0.0
    return stats.self_s / stats.total_s
