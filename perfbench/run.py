"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-scaled --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; metric names and units come from ``BENCHMARK.json``.  The program is
imported from the checkout's ``src`` directory, never from anywhere else;
without it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes goes below this directory of the checkout.
WORK = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("batch-scaled", "serve-mixed")


def _import_program() -> None:
    """Make ``repro`` importable from this checkout only; exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.pycache_prefix = str(WORK / "pycache")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: repro imported from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _metric_block(emitted: dict, declared: dict, fill_missing: bool) -> dict:
    """Emitted metrics in declared order, units checked against the spec."""
    unknown = set(emitted) - set(declared)
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    block = {}
    for name, unit in declared.items():
        if name not in emitted:
            if not fill_missing:
                raise RuntimeError(f"end-to-end metric {name} was not measured")
            # A layer this workload never enters: zero work.
            emitted[name] = (0, unit)
        value, emitted_unit = emitted[name]
        if emitted_unit != unit:
            raise RuntimeError(f"{name}: unit {emitted_unit!r}, declared {unit!r}")
        block[name] = {"value": value, "unit": unit}
    return block


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so a started server is still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _import_program()
    declared = _declared()
    WORK.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "batch-scaled":
        from perfbench import batch

        result = batch.run(args.seed, args.seconds, trace, WORK)
    else:
        from perfbench import serve

        result = serve.run(args.seed, args.seconds, trace, WORK)

    if trace:
        metrics = _metric_block(result.per_layer, declared["per_layer"], True)
    else:
        metrics = _metric_block(result.end_to_end, declared["end_to_end"], False)
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **result.detail}))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
