"""Command-line interface: generate, inspect, train, evaluate, match, serve.

Usage::

    python -m repro generate --preset hangzhou --trajectories 300 -o city.json.gz
    python -m repro stats    --dataset city.json.gz
    python -m repro train    --dataset city.json.gz -o model.npz --epochs 6
    python -m repro evaluate --dataset city.json.gz --model model.npz
    python -m repro evaluate --dataset city.json.gz --baseline THMM
    python -m repro evaluate --dataset city.json.gz --model model.npz \
                             --router ubodt --ubodt-delta 3000 --workers 4
    python -m repro match    --dataset city.json.gz --model model.npz \
                             --sample-id 12 --svg match.svg --ascii
    python -m repro serve    --dataset city.json.gz --model model.npz \
                             --port 8080 --workers 4
    python -m repro golden              # check the golden match + stream corpora
    python -m repro golden --regen      # rewrite them after a reviewed change
    python -m repro profile             # profile the matching pipeline
    python -m repro profile --pipeline scalar --json profile.json

Every command takes ``--seed`` for reproducibility.  All heavy outputs are
files; stdout carries human-readable summaries only.  ``serve`` runs until
interrupted, then drains in-flight work before exiting (``docs/serving.md``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="LHMM cellular map matching (ICDE 2023 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a synthetic city dataset")
    generate.add_argument("--preset", choices=["hangzhou", "xiamen"], default="hangzhou")
    generate.add_argument("--trajectories", type=int, default=300)
    generate.add_argument("--scale", type=float, default=1.0,
                          help="city size multiplier (0.5 = quarter-size)")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("-o", "--output", required=True, help="output .json.gz path")

    stats = commands.add_parser("stats", help="print Table-I statistics of a dataset")
    stats.add_argument("--dataset", required=True)

    train = commands.add_parser("train", help="train LHMM on a dataset")
    train.add_argument("--dataset", required=True)
    train.add_argument("-o", "--output", required=True, help="output model .npz path")
    train.add_argument("--epochs", type=int, default=6)
    train.add_argument("--dim", type=int, default=48, help="embedding dimension")
    train.add_argument("--candidates", type=int, default=12, help="candidate count k")
    train.add_argument("--variant", default="LHMM",
                       help="ablation variant (LHMM, LHMM-E, LHMM-H, LHMM-O, LHMM-T, LHMM-S)")
    train.add_argument("--checkpoint-dir", default=None,
                       help="durably checkpoint training state here after every "
                            "epoch (survives SIGKILL; see --resume)")
    train.add_argument("--resume", action="store_true",
                       help="continue from the newest intact checkpoint in "
                            "--checkpoint-dir instead of starting over; the "
                            "resumed run is bit-identical to an uninterrupted one")
    train.add_argument("--keep-checkpoints", type=int, default=3,
                       help="newest checkpoints to retain in --checkpoint-dir")
    train.add_argument("--ema-decay", type=float, default=None,
                       help="decay of the EMA shadow weight set saved into the "
                            "artifact alongside the raw weights (default: the "
                            "config's 0.999; serve/evaluate select it with "
                            "--weights ema)")
    train.add_argument("--seed", type=int, default=0)

    evaluate = commands.add_parser("evaluate", help="evaluate a model or baseline")
    evaluate.add_argument("--dataset", required=True)
    group = evaluate.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="trained LHMM .npz")
    group.add_argument("--baseline", help="baseline name (STM, IVMM, ..., DMM)")
    evaluate.add_argument("--weights", choices=["raw", "ema"], default="raw",
                          help="artifact weight set to evaluate (ema = the "
                               "trainer's shadow set, when present)")
    evaluate.add_argument("--limit", type=int, default=None,
                          help="max test trajectories to evaluate")
    _add_router_arguments(evaluate)
    evaluate.add_argument("--workers", type=int, default=1,
                          help="matching processes (1 = serial)")
    evaluate.add_argument("--json", default=None,
                          help="write aggregates + per-sample metrics as JSON")
    evaluate.add_argument("--csv", default=None,
                          help="write per-sample metrics as CSV")
    evaluate.add_argument("--seed", type=int, default=0)

    match = commands.add_parser("match", help="match one trajectory and render it")
    match.add_argument("--dataset", required=True)
    match.add_argument("--model", required=True)
    match.add_argument("--weights", choices=["raw", "ema"], default="raw",
                       help="artifact weight set to match with")
    match.add_argument("--sample-id", type=int, default=None,
                       help="sample to match (default: first test sample)")
    match.add_argument("--svg", default=None, help="write an SVG map here")
    match.add_argument("--ascii", action="store_true", help="print an ASCII map")
    _add_router_arguments(match)

    golden = commands.add_parser(
        "golden",
        help="check (or --regen) the golden regression corpora of matches "
             "and streams",
    )
    golden.add_argument(
        "--regen", action="store_true",
        help="rewrite the corpus from the frozen configuration instead of "
             "checking against it (review the JSON diff before committing)",
    )
    golden.add_argument(
        "--path", default=None,
        help="match corpus JSON (default: tests/golden/golden_matches.json); "
             "the stream corpus is golden_streams.json next to it",
    )

    profile = commands.add_parser(
        "profile",
        help="profile end-to-end matching: cProfile hotspots plus "
             "per-stage wall-clock over a smoke city",
    )
    profile.add_argument("--dataset", default=None,
                         help="dataset .json.gz to profile on (default: "
                              "generate a small smoke city in-process)")
    profile.add_argument("--trajectories", type=int, default=30,
                         help="trajectories to match in the profiled loop")
    profile.add_argument("--scale", type=float, default=0.4,
                         help="smoke-city size multiplier when generating")
    profile.add_argument("--pipeline", choices=["batched", "scalar"],
                         default="batched",
                         help="candidate/feature pipeline to profile")
    profile.add_argument("--epochs", type=int, default=1,
                         help="training epochs for the profiled model")
    profile.add_argument("--top", type=int, default=15,
                         help="cProfile rows to print (sorted by tottime)")
    profile.add_argument("--json", default=None,
                         help="write the per-stage summary as JSON here")
    profile.add_argument("--seed", type=int, default=0)

    serve = commands.add_parser(
        "serve", help="run a long-lived map-matching HTTP service: an asyncio "
                      "gateway in front of forked matcher workers attached "
                      "to shared-memory artifacts"
    )
    serve.add_argument("--dataset", default=None,
                       help="map + towers the model serves (required unless "
                            "every shard comes from --region)")
    serve.add_argument("--model", default=None,
                       help="trained LHMM .npz (required unless every shard "
                            "comes from --region)")
    serve.add_argument("--weights", choices=["raw", "ema"], default="raw",
                       help="artifact weight set every shard serves; "
                            "challengers started via POST /v1/admin/ab can "
                            "pick their own")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 = pick a free port)")
    _add_router_arguments(serve)
    serve.add_argument("--workers", type=int, default=1,
                       help="matcher worker processes the gateway starts with")
    serve.add_argument("--min-workers", type=int, default=None,
                       help="floor the queue-depth autoscaler drains down to "
                            "when idle (default: --workers)")
    serve.add_argument("--max-workers", type=int, default=None,
                       help="ceiling the autoscaler forks up to under "
                            "sustained queueing (default: --workers, i.e. "
                            "autoscaling off)")
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="append control-plane decisions (respawns, scale "
                            "events, rollouts) as JSONL here; also honoured "
                            "via $REPRO_CLUSTER_JOURNAL")
    serve.add_argument("--cluster", action="store_true",
                       help="accepted for compatibility and ignored: the "
                            "gateway is the only server")
    serve.add_argument("--region", action="append", default=None,
                       metavar="NAME=DATASET:MODEL",
                       help="serve an extra region from its own dataset + "
                            "model artifact; repeatable.  --dataset/--model, "
                            "when given, serve the 'default' region")
    serve.add_argument("--max-inflight", type=int, default=64,
                       help="concurrent worker operations running at once; "
                            "arrivals beyond it queue, and queue overflow is "
                            "shed with HTTP 503 + Retry-After")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="response-cache entries for /v1/match "
                            "(0 disables caching)")
    serve.add_argument("--max-sessions", type=int, default=256,
                       help="concurrent streaming sessions")
    serve.add_argument("--session-ttl", type=float, default=300.0,
                       help="idle seconds before a session is evicted")
    serve.add_argument("--lag", type=int, default=4,
                       help="default fixed-lag commit distance for sessions")
    serve.add_argument("--respawn-limit", type=int, default=3,
                       help="worker respawns allowed across the fleet before "
                            "a dead worker's slot leaves the hash ring")
    serve.add_argument("--node", default=None, metavar="NAME",
                       help="federation node name; giving it turns this "
                            "gateway into a federation member that routes, "
                            "proxies, and replicates across --peer gateways")
    serve.add_argument("--fed-host", default="127.0.0.1", metavar="HOST",
                       help="interface the federation frame listener binds")
    serve.add_argument("--fed-port", type=int, default=0, metavar="N",
                       help="federation listener port (0 = pick a free port)")
    serve.add_argument("--peer", action="append", default=None,
                       metavar="NAME=HOST:FEDPORT",
                       help="a peer gateway's federation endpoint; repeatable")
    serve.add_argument("--advertise", default=None, metavar="HOST:PORT",
                       help="HTTP address peers should redirect/proxy clients "
                            "to for this node's regions (default: the bound "
                            "--host/--port)")
    serve.add_argument("--route-mode", choices=["proxy", "redirect"],
                       default="proxy",
                       help="serve misrouted /v1/match requests by proxying "
                            "to the owner over the federation link, or answer "
                            "HTTP 307 redirects to it")
    serve.add_argument("--fed-heartbeat", type=float, default=1.0,
                       metavar="S",
                       help="seconds between federation peer heartbeats")
    serve.add_argument("--fed-heartbeat-timeout", type=float, default=3.0,
                       metavar="S",
                       help="silent seconds before a peer is declared down "
                            "and its regions answer 503 + Retry-After")
    serve.add_argument("--no-replicate", action="store_true",
                       help="disable session-journal replication to peer "
                            "gateways (federation keeps routing but loses "
                            "failover)")

    return parser


def _add_router_arguments(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--router", choices=["dijkstra", "ubodt"], default="dijkstra",
        help="routing backend: online Dijkstra or a precomputed UBODT table")
    subparser.add_argument(
        "--ubodt-delta", type=float, default=3000.0,
        help="UBODT distance bound Δ in metres (with --router ubodt)")
    subparser.add_argument(
        "--ubodt-table", default=None,
        help="UBODT .npz cache: loaded when present, else built and saved here")


def _resolve_router(args: argparse.Namespace, dataset):
    """The routing backend the command asked for (shared engine by default)."""
    if args.router != "ubodt":
        return dataset.engine
    from repro.network import Ubodt, UbodtRouter

    table = None
    if args.ubodt_table and Path(args.ubodt_table).exists():
        table = Ubodt.load(args.ubodt_table)
        if table.delta_m != args.ubodt_delta:
            print(
                f"note: {args.ubodt_table} has delta={table.delta_m:.0f}m, "
                f"ignoring --ubodt-delta {args.ubodt_delta:.0f}m"
            )
    if table is None:
        table = Ubodt.build(dataset.network, args.ubodt_delta)
        if args.ubodt_table:
            table.save(args.ubodt_table)
            print(f"wrote {args.ubodt_table} ({len(table)} rows)")
    return UbodtRouter(dataset.network, table, fallback=dataset.engine)


# ---------------------------------------------------------------- commands
def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import make_city_dataset, preset_config, save_dataset

    config = preset_config(args.preset, num_trajectories=args.trajectories,
                           scale=args.scale)
    dataset = make_city_dataset(config, rng=args.seed)
    save_dataset(dataset, args.output)
    print(
        f"wrote {args.output}: {len(dataset)} samples, "
        f"{dataset.network.num_segments} segments, {len(dataset.towers)} towers"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.datasets import compute_statistics, load_dataset

    dataset = load_dataset(args.dataset)
    stats = compute_statistics(dataset)
    width = max(len(label) for label, _ in stats.rows())
    print(f"dataset {dataset.name!r} ({len(dataset)} samples)")
    for label, value in stats.rows():
        print(f"  {label.ljust(width)}  {value}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core import LHMM, LHMMConfig
    from repro.datasets import load_dataset

    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    dataset = load_dataset(args.dataset)
    overrides = {} if args.ema_decay is None else {"ema_decay": args.ema_decay}
    config = LHMMConfig(
        embedding_dim=args.dim,
        mlp_hidden=args.dim,
        candidate_k=args.candidates,
        epochs=args.epochs,
        **overrides,
    ).ablated(args.variant)
    matcher = LHMM(config, rng=args.seed).fit(
        dataset,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        keep_checkpoints=args.keep_checkpoints,
    )
    matcher.save(args.output)
    report = matcher.report
    print(
        f"trained {args.variant} on {len(dataset.train)} trajectories; "
        f"final losses: obs_pre={report.observation_pretrain[-1]:.3f} "
        f"obs_fin={report.observation_finetune[-1]:.3f} "
        f"trans_pre={(report.transition_pretrain or [float('nan')])[-1]:.3f} "
        f"trans_fin={report.transition_finetune[-1]:.3f}"
    )
    print(f"wrote {args.output}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.baselines import make_baseline
    from repro.core import LHMM
    from repro.datasets import load_dataset
    from repro.eval import evaluate_matcher

    dataset = load_dataset(args.dataset)
    if args.model:
        matcher = LHMM.load(args.model, dataset, weights=args.weights)
        suffix = "" if args.weights == "raw" else f":{args.weights}"
        name = f"LHMM[{Path(args.model).name}{suffix}]"
    else:
        matcher = make_baseline(args.baseline, dataset, rng=args.seed)
        name = args.baseline
    router = _resolve_router(args, dataset)
    if isinstance(matcher, LHMM):
        matcher.use_router(router)
    elif hasattr(matcher, "engine"):
        matcher.engine = router
    samples = dataset.test if args.limit is None else dataset.test[: args.limit]
    result = evaluate_matcher(
        matcher, dataset, samples, method_name=name, workers=args.workers
    )
    row = result.row()
    print(f"{name} on {len(samples)} test trajectories of {dataset.name!r}:")
    print(
        "  precision={precision:.3f} recall={recall:.3f} RMF={rmf:.3f} "
        "CMF50={cmf50:.3f} HR={hr:.3f} avg_time={avg_time:.3f}s".format(**row)
    )
    if args.router == "ubodt" and args.workers <= 1:
        print(
            f"  ubodt: {router.table_hits} table hits, "
            f"{router.fallback_hits} fallback hits"
        )
    if args.json:
        result.save_json(args.json)
        print(f"wrote {args.json}")
    if args.csv:
        result.save_csv(args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    from repro.core import LHMM
    from repro.datasets import load_dataset
    from repro.eval.metrics import corridor_mismatch_fraction, precision_recall
    from repro.viz import render_match_ascii, render_match_svg

    dataset = load_dataset(args.dataset)
    matcher = LHMM.load(args.model, dataset, weights=args.weights)
    matcher.use_router(_resolve_router(args, dataset))
    if args.sample_id is None:
        if not dataset.test:
            print(
                f"error: dataset {args.dataset!r} has no test samples; "
                "pass --sample-id to match a specific sample",
                file=sys.stderr,
            )
            return 2
        sample = dataset.test[0]
    else:
        matching = [s for s in dataset.samples if s.sample_id == args.sample_id]
        if not matching:
            known = sorted(s.sample_id for s in dataset.samples)
            hint = f"valid ids: {known[0]}..{known[-1]}" if known else "dataset is empty"
            print(
                f"error: no sample with id {args.sample_id} ({hint})",
                file=sys.stderr,
            )
            return 2
        sample = matching[0]
    result = matcher.match(sample.cellular)
    precision, recall = precision_recall(dataset.network, sample.truth_path, result.path)
    cmf = corridor_mismatch_fraction(dataset.network, sample.truth_path, result.path)
    print(
        f"sample {sample.sample_id}: {len(sample.cellular)} points -> "
        f"{len(result.path)} segments; precision={precision:.3f} "
        f"recall={recall:.3f} CMF50={cmf:.3f}"
    )
    if args.ascii:
        print(
            render_match_ascii(
                dataset.network, sample.truth_path, {"L": result.path}, sample.cellular
            )
        )
    if args.svg:
        Path(args.svg).write_text(
            render_match_svg(
                dataset.network,
                sample.truth_path,
                {"LHMM": result.path},
                trajectory=sample.cellular,
                towers=dataset.towers,
            )
        )
        print(f"wrote {args.svg}")
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    from repro.testing import golden

    path = Path(args.path) if args.path else golden.default_corpus_path()
    stream_path = golden.stream_corpus_path(path)
    dataset = golden.build_golden_dataset()
    matcher = golden.build_golden_matcher(dataset)
    records = golden.compute_golden_records(matcher, dataset)
    streams = golden.compute_stream_records(matcher, dataset)
    if args.regen:
        golden.write_corpus(path, records)
        golden.write_corpus(stream_path, streams)
        print(f"wrote {path} ({len(records)} pinned trajectories)")
        print(f"wrote {stream_path} ({len(streams)} pinned streams)")
        return 0
    if not path.exists() or not stream_path.exists():
        print(f"no corpus at {path} or {stream_path}; "
              "run `python -m repro golden --regen` first")
        return 1
    problems = golden.diff_records(records, golden.load_corpus(path)["records"])
    problems += golden.diff_stream_records(
        streams, golden.load_corpus(stream_path)["records"]
    )
    if problems:
        print(f"golden corpus mismatch ({len(problems)} problems):")
        for problem in problems:
            print(f"  {problem}")
        print("if the change is intentional, regenerate with --regen and "
              "review the diff")
        return 1
    print(f"golden corpus ok ({len(records)} trajectories match {path}, "
          f"{len(streams)} streams match {stream_path})")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile end-to-end matching: per-stage wall-clock + cProfile.

    The per-stage table reads the pipeline's own entry points out of the
    cProfile run, so the times are *cumulative per stage* and may nest.
    On the batched pipeline ``route_block`` routes every step's candidate
    pairs up front into one columnar block, and also the pairs the
    shortcut pass routes and scores inside ``trellis.run``;
    ``route_pairs`` is not called there.  On the scalar pipeline
    ``route_pairs`` routes the candidate pairs step by step and the
    shortcut pairs.  ``relevance`` (scope check and ``P(e|X)`` scoring of the
    roads those routes touch) runs mostly before the trellis, and so, on
    the batched pipeline, does ``trip_transitions`` (every ``P_T`` row of
    the trajectory, built and scored at once); ``transitions`` then only
    hands each trellis step its slice.  The hotspot listing
    underneath is the flat view of the same run.  All matching caches are
    cleared first so the run reflects cold-cache behaviour — the same
    convention as the perf smoke benchmarks.
    """
    import cProfile
    import io
    import json
    import pstats
    import time

    from repro.core import LHMM, LHMMConfig
    from repro.core.matcher import _LHMMScorer
    from repro.core.trellis import Trellis, VectorizedTrellis
    from repro.datasets import load_dataset, make_city_dataset, preset_config
    from repro.network import router

    if args.dataset:
        dataset = load_dataset(args.dataset)
    else:
        config = preset_config(
            "xiamen", num_trajectories=args.trajectories, scale=args.scale
        )
        dataset = make_city_dataset(config, rng=args.seed)
        print(
            f"generated smoke city: {dataset.network.num_segments} segments, "
            f"{len(dataset)} trajectories"
        )
    matcher = LHMM(
        LHMMConfig(
            embedding_dim=12,
            het_layers=1,
            mlp_hidden=12,
            candidate_k=10,
            candidate_pool=50,
            epochs=args.epochs,
            batch_size=4,
            negatives_per_positive=3,
        ),
        rng=args.seed,
    ).fit(dataset)
    matcher.config.pipeline_impl = args.pipeline
    matcher.config.trellis_impl = (
        "vectorized" if args.pipeline == "batched" else "reference"
    )
    trajectories = [s.cellular for s in dataset.samples][: args.trajectories]

    # The vectorized trellis chains into the base class, so only the
    # backend this pipeline runs is read: both would double-count.
    trellis_cls = VectorizedTrellis if args.pipeline == "batched" else Trellis
    stages = [
        (LHMM, "prepare_candidates", "prepare_candidates"),
        (router, "route_block", "route_block"),
        (router, "route_pairs", "route_pairs"),
        (_LHMMScorer, "_score_relevance", "relevance"),
        (_LHMMScorer, "_score_trip", "trip_transitions"),
        (_LHMMScorer, "transition_batch", "transitions"),
        (trellis_cls, "run", "trellis.run"),
        (trellis_cls, "_apply_shortcuts", "shortcuts"),
    ]

    matcher.engine.clear_cache()
    network = matcher.network
    network._near_memo.clear()
    network._route_turns.clear()
    matcher._pool_cache_obj = None

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    for trajectory in trajectories:
        matcher.match(trajectory)
    profiler.disable()
    total_s = time.perf_counter() - start

    # pstats keys each function by (file, first line, name); entry 3 of
    # its row is the cumulative time, which counts recursion once.
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stage_s: dict[str, float] = {}
    for cls, attr, label in stages:
        code = getattr(cls.__dict__.get(attr), "__code__", None)
        if code is None:
            continue
        row = stats.stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        if row is not None:
            stage_s[label] = row[3]

    print(
        f"\nmatched {len(trajectories)} trajectories with the "
        f"{args.pipeline!r} pipeline in {total_s:.3f} s (cold caches)"
    )
    print("\nper-stage wall-clock (cumulative; stages nest, see --help):")
    for label, seconds in sorted(stage_s.items(), key=lambda kv: -kv[1]):
        print(f"  {label.ljust(20)} {seconds:7.3f} s  ({seconds / total_s:5.1%})")

    stats.sort_stats("tottime").print_stats(args.top)
    print("\ncProfile hotspots (tottime):")
    print(stream.getvalue())

    if args.json:
        payload = {
            "pipeline": args.pipeline,
            "trajectories": len(trajectories),
            "total_s": total_s,
            "stages_s": stage_s,
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


def _install_rollout_signal(server) -> None:
    """SIGHUP → zero-downtime cluster rollout, off the signal handler's thread.

    The rollout (stage + canary + one-worker-at-a-time swap) runs on a
    worker thread; a rejected canary logs and leaves the old generation
    serving — exactly like ``POST /v1/admin/rollout``.
    """
    import signal
    import threading

    def _rollout_async(*_signal_args) -> None:
        def _run() -> None:
            try:
                info = server.rollout()
                print(
                    f"SIGHUP: rolled out generation {info['generation']} "
                    f"({info['workers_swapped']} workers swapped)"
                )
            except Exception as error:  # noqa: BLE001 - keep serving
                print(f"SIGHUP: rollout failed, old generation keeps serving: "
                      f"{error}", file=sys.stderr)

        threading.Thread(target=_run, name="repro-cluster-rollout", daemon=True).start()

    try:
        signal.signal(signal.SIGHUP, _rollout_async)
    except (AttributeError, ValueError):  # pragma: no cover - non-POSIX
        pass


def _parse_region_specs(args: argparse.Namespace) -> list:
    """Shard specs from ``--dataset/--model`` + repeated ``--region``."""
    from repro.serve import DEFAULT_REGION, ShardSpec

    specs = []
    if args.dataset or args.model:
        if not (args.dataset and args.model):
            raise ValueError("--dataset and --model must be given together")
        specs.append(ShardSpec(
            region=DEFAULT_REGION,
            dataset=args.dataset,
            model=args.model,
            router=args.router,
            ubodt_delta_m=args.ubodt_delta,
            ubodt_table=args.ubodt_table,
            weights=args.weights,
        ))
    for item in args.region or []:
        name, eq, rest = item.partition("=")
        dataset_path, colon, model_path = rest.partition(":")
        if not eq or not colon or not name or not dataset_path or not model_path:
            raise ValueError(
                f"--region {item!r}: expected NAME=DATASET:MODEL"
            )
        specs.append(ShardSpec(
            region=name,
            dataset=dataset_path,
            model=model_path,
            router=args.router,
            ubodt_delta_m=args.ubodt_delta,
            ubodt_table=None,
            weights=args.weights,
        ))
    if not specs:
        raise ValueError(
            "nothing to serve: give --dataset/--model, or at least one "
            "--region NAME=DATASET:MODEL"
        )
    return specs


def _parse_federation(args: argparse.Namespace):
    """Build a FederationConfig from --node/--peer/... (None without --node)."""
    if args.node is None:
        if args.peer:
            raise ValueError("--peer requires --node (a name for this gateway)")
        return None
    from repro.serve import FederationConfig, PeerSpec

    peers = tuple(PeerSpec.parse(item) for item in args.peer or [])
    advertise_host = advertise_port = None
    if args.advertise is not None:
        host, colon, port = args.advertise.rpartition(":")
        if not colon or not host or not port.isdigit():
            raise ValueError(f"--advertise {args.advertise!r}: expected HOST:PORT")
        advertise_host, advertise_port = host, int(port)
    return FederationConfig(
        node=args.node,
        listen_host=args.fed_host,
        listen_port=args.fed_port,
        peers=peers,
        advertise_host=advertise_host,
        advertise_port=advertise_port,
        heartbeat_interval_s=args.fed_heartbeat,
        heartbeat_timeout_s=args.fed_heartbeat_timeout,
        replicate=not args.no_replicate,
        route_mode=args.route_mode,
    )


def _cluster_config(args: argparse.Namespace):
    """The gateway configuration the ``serve`` flags describe."""
    from repro.serve import ClusterConfig

    return ClusterConfig(
        host=args.host,
        port=args.port,
        num_workers=max(1, args.workers),
        default_lag=args.lag,
        max_sessions=args.max_sessions,
        session_ttl_s=args.session_ttl,
        max_inflight=args.max_inflight,
        cache_size=args.cache_size,
        respawn_limit=args.respawn_limit,
        min_workers=args.min_workers,
        max_workers=args.max_workers,
        journal_path=args.journal,
        federation=_parse_federation(args),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ClusterServer, ShardRegistry

    try:
        specs = _parse_region_specs(args)
        config = _cluster_config(args)
    except ValueError as error:
        print(f"error [usage]: {error}", file=sys.stderr)
        raise SystemExit(2) from None
    registry = ShardRegistry.publish(specs)
    total_kb = registry.total_bytes() / 1024
    print(
        f"published {len(specs)} shard(s), {total_kb:.0f} KiB of shared "
        f"artifacts: {', '.join(registry.regions)}"
    )
    server = ClusterServer(registry, config).start()
    _install_rollout_signal(server)
    workers_note = f"{config.num_workers} workers"
    if server.min_workers != server.max_workers:
        workers_note += f" (autoscaling {server.min_workers}..{server.max_workers})"
    print(f"cluster gateway at {server.address} ({workers_note}, "
          f"router={args.router})")
    federation = config.federation
    if federation is not None and server._fed is not None:
        fed = server._fed
        peer_names = ", ".join(sorted(p.name for p in federation.peers)) or "none"
        print(f"federation node {federation.node!r} listening on "
              f"{federation.listen_host}:{fed.fed_port} (peers: {peer_names}, "
              f"route-mode={federation.route_mode})")
    print("endpoints: POST /v1/sessions, POST /v1/sessions/<id>/points, "
          "DELETE /v1/sessions/<id>, POST /v1/match, "
          "POST /v1/admin/rollout, POST /v1/admin/ab[/promote|/abort], "
          "GET /healthz, GET /metrics "
          "(add \"region\" to request bodies on multi-shard deployments)")
    print("zero-downtime rollout: POST /v1/admin/rollout or send SIGHUP "
          "after replacing a model artifact; live A/B: POST /v1/admin/ab")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\ndraining cluster ...")
    finally:
        summary = server.shutdown()
        print(f"drained; committed {len(summary['sessions'])} open sessions")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "match": _cmd_match,
    "golden": _cmd_golden,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Operator-facing failures — a missing, corrupt, or incompatible model
    artifact, a diverged training run — exit with code 2 and a one-line
    structured error (``error [<code>]: ...`` plus a remediation hint),
    never a traceback.  Genuine bugs still traceback.
    """
    from repro.errors import ReproError

    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as error:
        filename = getattr(error, "filename", None) or error
        print(f"error [not_found]: {filename}", file=sys.stderr)
        print("hint: check the path; train a model with `python -m repro train` "
              "or generate a dataset with `python -m repro generate`",
              file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error [{error.code}]: {error}", file=sys.stderr)
        if error.hint:
            print(f"hint: {error.hint}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
