"""Golden regression test: ``OnlineLHMM`` pinned against a committed corpus.

``tests/golden/golden_streams.json`` holds, for each golden trajectory at
lags 1, 3 and the full trajectory length, ``committed_path`` after every
fed point and the ``finish()`` path.  Unlike ``test_online_parity.py``,
the golden matcher keeps its implicit ``P_O``/``P_T`` on, so streaming is
pinned with the attention context and road relevance in the loop.  Both
pipelines must reproduce the same corpus: streaming reads
``pipeline_impl`` only to pick the candidate-pool source, which yields the
same pool either way, and never reads ``trellis_impl``.

A failure means streaming behaviour *changed*; if that is intended,
regenerate with ``python -m repro golden --regen`` and review the diff.
"""

from __future__ import annotations

import pytest

from repro.core.config import PIPELINE_IMPLS
from repro.testing import golden


@pytest.fixture(scope="module")
def stream_corpus():
    path = golden.stream_corpus_path(golden.default_corpus_path())
    assert path.exists(), (
        f"missing {path}; generate it with `python -m repro golden --regen`"
    )
    return golden.load_corpus(path)


@pytest.fixture(scope="module")
def golden_matcher():
    dataset = golden.build_golden_dataset()
    return dataset, golden.build_golden_matcher(dataset)


def test_stream_corpus_covers_every_trajectory_and_lag(stream_corpus):
    records = stream_corpus["records"]
    assert stream_corpus["dataset_seed"] == golden.GOLDEN_DATASET_SEED
    assert stream_corpus["model_seed"] == golden.GOLDEN_MODEL_SEED
    assert len(records) == golden.GOLDEN_MATCH_COUNT * len(golden.GOLDEN_STREAM_LAGS)
    # Some stream must commit before finish(), or the lags pin nothing.
    assert any(record["committed"][-1] for record in records)
    assert all(record["final"] for record in records)


@pytest.mark.parametrize("pipeline_impl", PIPELINE_IMPLS)
def test_streams_pinned_exactly(golden_matcher, stream_corpus, pipeline_impl):
    dataset, matcher = golden_matcher
    saved = matcher.config.pipeline_impl
    matcher.config.pipeline_impl = pipeline_impl
    try:
        records = golden.compute_stream_records(matcher, dataset)
    finally:
        matcher.config.pipeline_impl = saved
    assert golden.diff_stream_records(records, stream_corpus["records"]) == []
