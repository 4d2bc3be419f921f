"""Tests for repro.core.parallel (process-parallel batch matching)."""

import pytest

from repro.core.parallel import fork_match_many
from repro.errors import WorkerCrash
from repro.testing import faults


def assert_results_identical(serial, parallel) -> None:
    assert len(serial) == len(parallel)
    for expected, got in zip(serial, parallel):
        assert got.path == expected.path
        assert got.matched_sequence == expected.matched_sequence
        assert got.candidate_sets == expected.candidate_sets
        assert got.score == pytest.approx(expected.score, rel=1e-12)


class TestForkMatchMany:
    def test_parallel_equals_serial_trajectory_for_trajectory(
        self, trained_lhmm, tiny_dataset
    ):
        trajectories = [sample.cellular for sample in tiny_dataset.test]
        assert len(trajectories) >= 4
        serial = trained_lhmm.match_many(trajectories)
        parallel = trained_lhmm.match_many(trajectories, workers=2)
        assert_results_identical(serial, parallel)

    def test_parallel_reports_worker_cache_stats(self, trained_lhmm, tiny_dataset):
        trajectories = [sample.cellular for sample in tiny_dataset.test][:4]
        trained_lhmm.match_many(trajectories, workers=2)
        stats = trained_lhmm.last_parallel_stats
        assert stats is not None
        assert 1 <= stats["workers"] <= 2
        assert stats["chunks"] >= 1
        for counters in stats["per_worker"].values():
            assert counters["route_cache_hits"] + counters["route_cache_misses"] > 0

    def test_single_worker_stays_serial(self, trained_lhmm, tiny_dataset):
        trajectory = tiny_dataset.test[0].cellular
        results = trained_lhmm.match_many([trajectory], workers=1)
        assert len(results) == 1
        assert results[0].path == trained_lhmm.match(trajectory).path

    def test_explicit_chunk_size(self, trained_lhmm, tiny_dataset):
        trajectories = [sample.cellular for sample in tiny_dataset.test][:5]
        serial = trained_lhmm.match_many(trajectories)
        parallel = trained_lhmm.match_many(trajectories, workers=2, chunk_size=1)
        assert_results_identical(serial, parallel)
        assert trained_lhmm.last_parallel_stats["chunks"] == 5

    def test_worker_crash_raises_and_match_many_reanswers_serially(
        self, trained_lhmm, tiny_dataset
    ):
        """A SIGKILLed forked worker is not respawned: the pool raises
        WorkerCrash, and ``match_many`` re-answers the batch serially."""
        trajectories = [sample.cellular for sample in tiny_dataset.test][:4]
        serial = trained_lhmm.match_many(trajectories)
        # Armed in this process, inherited by the forked workers only:
        # the fault point fires inside the pool's chunk function.
        with faults.armed("worker.chunk", "kill", chunk=0):
            with pytest.raises(WorkerCrash, match="rerun serially"):
                fork_match_many(trained_lhmm, trajectories, workers=2, chunk_size=2)
            recovered = trained_lhmm.match_many(trajectories, workers=2)
        assert_results_identical(serial, recovered)
