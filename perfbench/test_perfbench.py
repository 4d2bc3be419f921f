"""The benchmark's own checks, at a tiny size.

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q

Every workload runs twice on one seed with tracing on: decoded-path digests,
accuracy and every count-type per-layer metric must repeat exactly.  Every
declared metric must be emitted with its declared unit.  Without the
program's source the runner must fail before printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as runner

runner._import_program()

from perfbench import batch, serve  # noqa: E402

DECLARED = runner._declared()


def _is_count(name: str) -> bool:
    return (
        name.endswith(".calls")
        or name.startswith("network.route.")
        or name in (
            "core.transition.pairs_scored",
            "core.relevance.scope_segments",
            "serve.cache.hit_ratio",
        )
    )


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(batch, "SCALE", 0.6)
    monkeypatch.setattr(batch, "SETUPS", 1)
    monkeypatch.setattr(batch, "ORACLE_SAMPLE", {False: 2, True: 4})
    monkeypatch.setattr(serve, "SETUPS", 1)
    monkeypatch.setattr(serve, "MATCH_REQUESTS_PER_SECOND", 30)
    monkeypatch.setattr(serve, "STREAM_SESSIONS_PER_SECOND", 6)


def _run(workload: str, trace: bool, work: Path):
    work.mkdir(exist_ok=True)
    if workload == "batch-scaled":
        return batch.run(3, 1, trace, work)
    return serve.run(3, 1, trace, work)


@pytest.mark.parametrize("workload", runner.WORKLOADS)
def test_counts_repeat_and_metrics_are_declared(workload, tiny, tmp_path):
    first = _run(workload, True, tmp_path)
    second = _run(workload, True, tmp_path)
    untraced = _run(workload, False, tmp_path)
    for result in (first, second, untraced):
        assert result.correct, result.problems
        assert result.failed == 0
    assert first.detail["digest"] == second.detail["digest"] == untraced.detail["digest"]
    for name in ("precision", "recall", "rmf", "success_rate", "lhmm_rate"):
        assert first.end_to_end[name] == second.end_to_end[name] == untraced.end_to_end[name]
    counts = [name for name in DECLARED["per_layer"] if _is_count(name)]
    assert counts
    for name in counts:
        assert first.per_layer.get(name) == second.per_layer.get(name), name

    per_layer = runner._metric_block(dict(first.per_layer), DECLARED["per_layer"], True)
    end_to_end = runner._metric_block(
        dict(untraced.end_to_end), DECLARED["end_to_end"], False
    )
    assert list(per_layer) == list(DECLARED["per_layer"])
    assert list(end_to_end) == list(DECLARED["end_to_end"])
    for block in (per_layer, end_to_end):
        for metric in block.values():
            assert isinstance(metric["value"], (int, float))
    for name, metric in end_to_end.items():
        assert metric["value"] > 0, name
    assert per_layer["trace.root_self_fraction"]["value"] > 0


def test_fails_without_program_source(tmp_path):
    root = Path(runner.__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        root / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    spec = json.loads((root / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "batch-scaled",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
