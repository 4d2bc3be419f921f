#!/usr/bin/env python
"""Paper-scale smoke: batched LHMM on Hangzhou x7.0, checked against the oracle.

The Hangzhou-like preset at scale 7.0 has ~97.5k segments and ~28k nodes,
close to the paper's 92k-segment city.  The script generates it, fits the
small model shape the benchmark uses on a few training trips, matches the
held-out trips with the batched pipeline, and re-decodes each with the
scalar pipeline and the reference trellis.  It also checks the batched
candidate pools: the ring search of ``segments_near_many`` over every
distinct held-out position against the per-point full-radius
``segments_near(p, r)[:limit]`` (ids here run far past a small hash
table's size, so equal-distance ties are common).  It prints the per-trip
match time, the peak RSS after fit and at the end, and the bytes held by the
routing engine's cached Dijkstra rows.  It exits 1 when any pool or trip
differs from its oracle, or when the peak RSS exceeds :data:`PEAK_RSS_MB`.

Usage::

    PYTHONPATH=src python scripts/paper_scale_smoke.py [--train 8] [--trips 8]
        [--seed 20230401] [--scale 7.0]
"""

from __future__ import annotations

import argparse
import dataclasses
import resource
import statistics
import sys
import time

#: The model shape ``perfbench`` fits (one epoch, so set-up stays short).
MODEL_SHAPE = dict(
    embedding_dim=12,
    het_layers=1,
    mlp_hidden=12,
    candidate_k=10,
    candidate_pool=50,
    epochs=1,
    batch_size=4,
    negatives_per_positive=3,
)

#: Ceiling on the process's peak RSS.  Training sets the peak: about
#: 630 MB at x7.0 now that backward frees the autograd graph as it walks
#: it, against about 1,260 MB when the whole graph lived to the end.
PEAK_RSS_MB = 900.0


def _peak_rss_mb() -> float:
    """High-water mark of this process's resident set (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    from repro.core import LHMM, LHMMConfig
    from repro.datasets import make_city_dataset, preset_config
    from repro.serve.protocol import encode_match_result

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train", type=int, default=8, help="training trips")
    parser.add_argument("--trips", type=int, default=8, help="held-out trips matched")
    parser.add_argument("--seed", type=int, default=20230401)
    parser.add_argument("--scale", type=float, default=7.0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    config = dataclasses.replace(
        preset_config("hangzhou", num_trajectories=args.train + args.trips, scale=args.scale),
        groundtruth="oracle",
    )
    dataset = make_city_dataset(config, rng=args.seed)
    network = dataset.network
    train, heldout = dataset.samples[: args.train], dataset.samples[args.train :]
    if not train or not heldout:
        print(f"only {len(dataset.samples)} trips generated", file=sys.stderr)
        return 1
    generated = time.perf_counter()
    model = LHMM(LHMMConfig(**MODEL_SHAPE), rng=args.seed).fit(dataset, train_samples=train)
    fitted = time.perf_counter()
    print(
        f"hangzhou x{args.scale}: {network.num_segments} segments, "
        f"{network.num_nodes} nodes; generated in {generated - start:.1f} s, "
        f"fit on {len(train)} trips in {fitted - generated:.1f} s; "
        f"peak RSS after fit {_peak_rss_mb():.0f} MB"
    )

    seconds, results = [], []
    for sample in heldout:
        tick = time.perf_counter()
        results.append(model.match(sample.cellular))
        seconds.append(time.perf_counter() - tick)
    engine = model.engine
    print(
        f"batched match: {len(heldout)} trips, {statistics.median(seconds):.3f} s per "
        f"trip (median; mean {statistics.fmean(seconds):.3f} s), "
        f"{engine.cached_sources} cached Dijkstra rows holding "
        f"{engine.cached_row_bytes / 2**20:.1f} MiB"
    )

    cfg = model.config
    positions = list(
        {(p.position.x, p.position.y): p.position for s in heldout for p in s.cellular.points}
        .values()
    )
    network._near_memo.clear()
    tick = time.perf_counter()
    pools = network.segments_near_many(positions, cfg.candidate_radius_m, cfg.candidate_pool)
    ring_s = time.perf_counter() - tick
    tick = time.perf_counter()
    spec = [
        network.segments_near(p, cfg.candidate_radius_m)[: cfg.candidate_pool]
        for p in positions
    ]
    spec_s = time.perf_counter() - tick
    pools_differ = sum(pool != want for pool, want in zip(pools, spec))
    print(
        f"candidate pools: {len(positions)} positions, ring search {ring_s:.2f} s, "
        f"full-radius queries {spec_s:.2f} s, {pools_differ} differ"
    )

    cfg.pipeline_impl, cfg.trellis_impl = "scalar", "reference"
    differ = [
        sample.sample_id
        for sample, result in zip(heldout, results)
        if encode_match_result(model.match(sample.cellular)) != encode_match_result(result)
    ]
    peak_mb = _peak_rss_mb()
    print(f"peak RSS {peak_mb:.0f} MB; total {time.perf_counter() - start:.1f} s")
    if differ:
        print(f"{len(differ)}/{len(heldout)} trips differ from the scalar oracle: {differ}")
    if peak_mb > PEAK_RSS_MB:
        print(f"peak RSS {peak_mb:.0f} MB exceeds the {PEAK_RSS_MB:.0f} MB ceiling")
    if differ or pools_differ or peak_mb > PEAK_RSS_MB:
        return 1
    print(f"all {len(heldout)} trips equal the scalar pipeline + reference trellis")
    return 0


if __name__ == "__main__":
    sys.exit(main())
