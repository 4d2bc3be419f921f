"""Tests for the online (streaming) matcher."""

import pytest

from repro.core import OnlineLHMM


class TestOnlineLHMM:
    def test_requires_fitted_matcher(self, tiny_dataset):
        from repro.core import LHMM
        from tests.conftest import tiny_lhmm_config

        with pytest.raises(RuntimeError):
            OnlineLHMM(LHMM(tiny_lhmm_config()))

    def test_rejects_bad_lag(self, trained_lhmm):
        with pytest.raises(ValueError):
            OnlineLHMM(trained_lhmm, lag=0)

    def test_empty_stream(self, trained_lhmm):
        online = OnlineLHMM(trained_lhmm)
        assert online.finish() == []

    def test_streaming_produces_connected_path(self, trained_lhmm, tiny_dataset):
        online = OnlineLHMM(trained_lhmm, lag=3)
        sample = tiny_dataset.test[0]
        path = online.match_stream(sample.cellular)
        assert path
        net = tiny_dataset.network
        breaks = sum(
            1
            for a, b in zip(path, path[1:])
            if net.segments[b].start_node != net.segments[a].end_node
        )
        assert breaks <= 1

    def test_commitment_keeps_pending_bounded(self, trained_lhmm, tiny_dataset):
        online = OnlineLHMM(trained_lhmm, lag=2)
        sample = tiny_dataset.test[1]
        for point in sample.cellular.points:
            online.add_point(point)
            assert online.pending_points() <= 2 + 1

    def test_committed_path_grows_monotonically(self, trained_lhmm, tiny_dataset):
        online = OnlineLHMM(trained_lhmm, lag=2)
        sample = tiny_dataset.test[0]
        committed_lengths = []
        for point in sample.cellular.points:
            online.add_point(point)
            committed_lengths.append(len(online.committed_path))
        assert committed_lengths == sorted(committed_lengths)

    def test_online_close_to_batch(self, trained_lhmm, tiny_dataset):
        """With a generous lag the streamed path should resemble batch output."""
        from repro.eval.metrics import corridor_mismatch_fraction

        sample = tiny_dataset.test[0]
        batch = trained_lhmm.match(sample.cellular)
        online = OnlineLHMM(trained_lhmm, lag=8).match_stream(sample.cellular)
        batch_cmf = corridor_mismatch_fraction(
            tiny_dataset.network, sample.truth_path, batch.path
        )
        online_cmf = corridor_mismatch_fraction(
            tiny_dataset.network, sample.truth_path, online
        )
        # online has no shortcuts and lagged decisions: allow a margin
        assert online_cmf <= batch_cmf + 0.35
