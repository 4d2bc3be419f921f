"""Golden regression corpus: a frozen city, model, and expected matches.

The corpus pins ``LHMM.match`` end to end — dataset synthesis, training,
candidate generation, trellis decoding — against committed expectations
(``tests/golden/golden_matches.json``).  Any change that shifts a matched
edge sequence shows up as a test failure with the exact trajectory that
moved, which separates "refactor" (corpus unchanged) from "behaviour
change" (corpus must be regenerated and the diff reviewed).  A second
corpus (``tests/golden/golden_streams.json``) pins the streaming decoder
(:class:`~repro.core.online.OnlineLHMM`) on the same trajectories.

The configurations here are deliberately *frozen copies*, independent of
the test-suite fixtures: tweaking ``tests/conftest.py`` for speed must not
silently re-define what the golden corpus means.

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python -m repro golden --regen

and review the JSON diff like any other code change.  ``python -m repro
golden`` (no flag) re-derives everything and checks it against the file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.cellular import SimulationConfig, TowerPlacementConfig
from repro.core import LHMM, LHMMConfig, OnlineLHMM
from repro.datasets import DatasetConfig, make_city_dataset
from repro.datasets.dataset import MatchingDataset
from repro.network import CityConfig

#: Bump when the corpus *format* changes (not when expectations change).
CORPUS_VERSION = 1

GOLDEN_DATASET_SEED = 2023
GOLDEN_MODEL_SEED = 11
GOLDEN_NUM_TRAJECTORIES = 24
#: How many of the dataset's samples are pinned.
GOLDEN_MATCH_COUNT = 20

GOLDEN_CITY = CityConfig(
    grid_rows=9,
    grid_cols=9,
    block_size_m=250.0,
    density_gradient=0.5,
    removal_prob=0.08,
    one_way_prob=0.05,
)

GOLDEN_SIMULATION = SimulationConfig(
    min_trip_m=900.0,
    max_trip_m=2200.0,
    cellular_interval_mean_s=35.0,
    cellular_interval_sigma_s=10.0,
    cellular_interval_max_s=90.0,
    gps_interval_s=12.0,
)

GOLDEN_TOWERS = TowerPlacementConfig(base_spacing_m=350.0, spacing_gradient=1.0)


def golden_lhmm_config() -> LHMMConfig:
    """The frozen matcher configuration behind the corpus."""
    return LHMMConfig(
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


def default_corpus_path() -> Path:
    """``tests/golden/golden_matches.json`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden" / "golden_matches.json"


def build_golden_dataset() -> MatchingDataset:
    """The frozen synthetic city + trajectories."""
    config = DatasetConfig(
        name="golden",
        city=GOLDEN_CITY,
        towers=GOLDEN_TOWERS,
        simulation=GOLDEN_SIMULATION,
        num_trajectories=GOLDEN_NUM_TRAJECTORIES,
        groundtruth="oracle",
    )
    return make_city_dataset(config, rng=GOLDEN_DATASET_SEED)


def build_golden_matcher(dataset: MatchingDataset | None = None) -> LHMM:
    """An LHMM fitted on the frozen dataset with the frozen seeds."""
    if dataset is None:
        dataset = build_golden_dataset()
    return LHMM(golden_lhmm_config(), rng=GOLDEN_MODEL_SEED).fit(dataset)


def compute_golden_records(
    matcher: LHMM, dataset: MatchingDataset
) -> list[dict[str, Any]]:
    """Match the pinned trajectories and return comparable records.

    The degradation cascade is disabled while matching: a golden trajectory
    that fails to match must fail the check, not silently fall back.
    """
    saved = matcher.degradation_enabled
    matcher.degradation_enabled = False
    try:
        records = []
        for sample in dataset.samples[:GOLDEN_MATCH_COUNT]:
            result = matcher.match(sample.cellular)
            records.append(
                {
                    "sample_id": sample.sample_id,
                    "matched_sequence": [int(s) for s in result.matched_sequence],
                    "path": [int(s) for s in result.path],
                    "score": float(result.score),
                }
            )
        return records
    finally:
        matcher.degradation_enabled = saved


def corpus_payload(records: list[dict[str, Any]]) -> dict[str, Any]:
    """The full JSON document, with enough metadata to spot stale corpora."""
    return {
        "version": CORPUS_VERSION,
        "dataset_seed": GOLDEN_DATASET_SEED,
        "model_seed": GOLDEN_MODEL_SEED,
        "num_trajectories": GOLDEN_NUM_TRAJECTORIES,
        "match_count": GOLDEN_MATCH_COUNT,
        "records": records,
    }


def write_corpus(path: Path, records: list[dict[str, Any]]) -> None:
    """Write the corpus JSON (creating parent directories as needed)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(corpus_payload(records), indent=1) + "\n")


def load_corpus(path: Path) -> dict[str, Any]:
    """Read a corpus document written by :func:`write_corpus`."""
    return json.loads(path.read_text())


#: Streaming lags pinned by the stream corpus; ``None`` means "the whole
#: trajectory", so nothing commits before ``finish()``.
GOLDEN_STREAM_LAGS = (1, 3, None)


def stream_corpus_path(match_corpus: Path) -> Path:
    """The stream corpus that sits next to a match corpus."""
    return match_corpus.with_name("golden_streams.json")


def compute_stream_records(
    matcher: LHMM, dataset: MatchingDataset
) -> list[dict[str, Any]]:
    """Stream the pinned trajectories through :class:`OnlineLHMM`.

    Each record holds ``committed_path`` after every fed point and the
    ``finish()`` path, for one trajectory at one lag of
    :data:`GOLDEN_STREAM_LAGS`.  The golden matcher keeps its implicit
    ``P_O``/``P_T`` on, so this pins the streaming decoder with road
    relevance in the loop.
    """
    records = []
    for sample in dataset.samples[:GOLDEN_MATCH_COUNT]:
        points = sample.cellular.points
        for lag in GOLDEN_STREAM_LAGS:
            online = OnlineLHMM(matcher, lag=lag or len(points))
            committed = []
            for point in points:
                online.add_point(point)
                committed.append([int(s) for s in online.committed_path])
            records.append(
                {
                    "sample_id": sample.sample_id,
                    "lag": online.lag,
                    "committed": committed,
                    "final": [int(s) for s in online.finish()],
                }
            )
    return records


def diff_stream_records(
    actual: list[dict[str, Any]], expected: list[dict[str, Any]]
) -> list[str]:
    """Human-readable mismatches between computed and expected stream records."""
    problems: list[str] = []
    if len(actual) != len(expected):
        problems.append(f"record count {len(actual)} != expected {len(expected)}")
    for got, want in zip(actual, expected):
        label = f"sample {want['sample_id']} lag {want['lag']}"
        if (got["sample_id"], got["lag"]) != (want["sample_id"], want["lag"]):
            problems.append(f"record order drift at {label}")
            continue
        for k, (a, b) in enumerate(zip(got["committed"], want["committed"])):
            if a != b:
                problems.append(f"{label}: committed_path changed after point {k}")
                break
        if got["final"] != want["final"]:
            problems.append(f"{label}: finish() path changed")
    return problems


#: How many dataset samples the default serve-side canary set uses.
DEFAULT_CANARY_COUNT = 5


def canary_trajectories(dataset, count: int = DEFAULT_CANARY_COUNT) -> list:
    """The serve-side canary set for ``dataset``.

    The single definition of "which trajectories must a candidate model
    match before serving": the gateway's rollout probe and its A/B
    challenger gate both call this, so a corpus or dataset change can
    never desync one gate from the other.
    """
    return [s.cellular for s in dataset.samples[:count]]


def run_canary(matcher: LHMM, trajectories: list) -> list[str]:
    """Smoke-check a candidate matcher before it starts serving.

    Matches every canary trajectory with the degradation cascade *off* —
    a model that can only answer through fallbacks must not pass the
    canary — and returns a list of human-readable problems (empty means
    the candidate is fit to serve).  Used by the gateway's canary probe
    worker: a non-empty return keeps the old generation serving.
    """
    problems: list[str] = []
    saved = matcher.degradation_enabled
    matcher.degradation_enabled = False
    try:
        for i, trajectory in enumerate(trajectories):
            label = getattr(trajectory, "trajectory_id", None)
            label = i if label is None else label
            try:
                result = matcher.match(trajectory)
            except Exception as error:  # noqa: BLE001 - report, don't raise
                problems.append(
                    f"canary trajectory {label}: {type(error).__name__}: {error}"
                )
                continue
            if not result.path:
                problems.append(f"canary trajectory {label}: empty matched path")
    finally:
        matcher.degradation_enabled = saved
    return problems


def diff_records(
    actual: list[dict[str, Any]],
    expected: list[dict[str, Any]],
    score_tol: float = 1e-9,
) -> list[str]:
    """Human-readable mismatches between computed and expected records.

    Edge sequences and paths must match *exactly*; scores are float sums
    and get a tolerance so a benign platform ulp cannot fail the corpus.
    """
    problems: list[str] = []
    if len(actual) != len(expected):
        problems.append(f"record count {len(actual)} != expected {len(expected)}")
    for got, want in zip(actual, expected):
        sid = want.get("sample_id")
        if got["sample_id"] != sid:
            problems.append(f"sample order drift: got {got['sample_id']}, want {sid}")
            continue
        if got["matched_sequence"] != want["matched_sequence"]:
            problems.append(f"sample {sid}: matched_sequence changed")
        if got["path"] != want["path"]:
            problems.append(f"sample {sid}: path changed")
        if abs(got["score"] - want["score"]) > score_tol:
            problems.append(
                f"sample {sid}: score {got['score']!r} != {want['score']!r}"
            )
    return problems
