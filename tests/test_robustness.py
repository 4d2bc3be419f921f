"""Fast robustness tests: input validation, the degradation cascade,
per-item error slots, and client-side retry backoff.

Worker-killing and fleet-healing scenarios live in ``test_chaos.py``
(``pytest -m chaos``); everything here runs in-process.
"""

import math
import random

import pytest

from repro.cellular.trajectory import Trajectory, TrajectoryPoint
from repro.errors import InvalidTrajectoryInput, MatchError, MatchFailure
from repro.geometry import Point
from repro.serve import MatchingClient, ServeClientError, ServerBusy
from repro.testing import faults


def _trajectory(coords, tower_id=None):
    return Trajectory(
        points=[
            TrajectoryPoint(position=Point(x, y), timestamp=float(t), tower_id=tower_id)
            for x, y, t in coords
        ]
    )


class TestInputValidation:
    def test_empty_trajectory_rejected(self, trained_lhmm):
        with pytest.raises(InvalidTrajectoryInput, match="trajectory is empty"):
            trained_lhmm.match(Trajectory(points=[]))

    def test_non_finite_coordinate_names_the_point(self, trained_lhmm):
        bad = _trajectory([(100.0, 100.0, 0.0), (math.nan, 100.0, 30.0)])
        with pytest.raises(InvalidTrajectoryInput, match=r"points\[1\].*non-finite"):
            trained_lhmm.match(bad)

    def test_out_of_bounds_point_names_the_point(self, trained_lhmm):
        bad = _trajectory([(100.0, 100.0, 0.0), (1e7, 1e7, 30.0)])
        with pytest.raises(
            InvalidTrajectoryInput, match=r"points\[1\].*outside the served map"
        ):
            trained_lhmm.match(bad)

    def test_context_prefix_is_configurable(self, trained_lhmm):
        with pytest.raises(InvalidTrajectoryInput, match=r"trajectories\[4\]"):
            trained_lhmm.validate_trajectory(
                Trajectory(points=[]), context="trajectories[4]"
            )

    def test_absent_tower_id_is_normalised_not_rejected(
        self, trained_lhmm, tiny_dataset
    ):
        sample = tiny_dataset.test[0].cellular
        stripped = Trajectory(
            points=[
                TrajectoryPoint(position=p.position, timestamp=p.timestamp, tower_id=None)
                for p in sample.points
            ]
        )
        result = trained_lhmm.match(stripped)
        assert result.path  # matched via nearest-tower normalisation

    def test_valid_trajectory_passes(self, trained_lhmm, tiny_dataset):
        trained_lhmm.validate_trajectory(tiny_dataset.test[0].cellular)


class TestDegradationCascade:
    def test_learned_failure_degrades_to_heuristic_hmm(
        self, trained_lhmm, tiny_dataset
    ):
        trajectory = tiny_dataset.test[0].cellular
        before = trained_lhmm.degraded_counts.get("heuristic_hmm", 0)
        with faults.armed("match.learned", "raise"):
            result = trained_lhmm.match(trajectory)
        assert result.provenance == "heuristic_hmm"
        assert result.degraded
        assert result.path
        assert len(result.matched_sequence) == len(trajectory)
        assert trained_lhmm.degraded_counts["heuristic_hmm"] == before + 1
        assert isinstance(trained_lhmm.last_degraded_cause, MatchFailure)

    def test_double_failure_degrades_to_nearest_road(self, trained_lhmm, tiny_dataset):
        trajectory = tiny_dataset.test[0].cellular
        with faults.armed("match.learned", "raise"):
            with faults.armed("match.heuristic", "raise"):
                result = trained_lhmm.match(trajectory)
        assert result.provenance == "nearest_road"
        assert result.degraded
        assert len(result.matched_sequence) == len(trajectory)
        # The path is the deduplicated projection sequence.
        assert all(a != b for a, b in zip(result.path, result.path[1:]))

    def test_normal_match_is_tagged_lhmm(self, trained_lhmm, tiny_dataset):
        result = trained_lhmm.match(tiny_dataset.test[0].cellular)
        assert result.provenance == "lhmm"
        assert not result.degraded

    def test_degradation_can_be_disabled(self, trained_lhmm, tiny_dataset):
        trajectory = tiny_dataset.test[0].cellular
        trained_lhmm.degradation_enabled = False
        try:
            with faults.armed("match.learned", "raise"):
                with pytest.raises(MatchFailure):
                    trained_lhmm.match(trajectory)
        finally:
            trained_lhmm.degradation_enabled = True

    def test_invalid_input_is_never_degraded(self, trained_lhmm, tiny_dataset):
        # Bad input must raise 422-class errors, not quietly fall back.
        trajectory = tiny_dataset.test[0].cellular
        with faults.armed("match.learned", "raise", error="invalid"):
            with pytest.raises(InvalidTrajectoryInput):
                trained_lhmm.match(trajectory)


class TestSerialErrorSlots:
    def test_match_many_isolates_the_poison_trajectory(
        self, trained_lhmm, tiny_dataset
    ):
        good = tiny_dataset.test[0].cellular
        bad = Trajectory(points=[])
        slots = trained_lhmm.match_many([good, bad, good], return_errors=True)
        assert len(slots) == 3
        assert isinstance(slots[1], MatchError)
        assert slots[1].code == "invalid_trajectory"
        assert slots[1].index == 1
        assert slots[0].path == slots[2].path == trained_lhmm.match(good).path

    def test_match_many_default_still_raises(self, trained_lhmm, tiny_dataset):
        good = tiny_dataset.test[0].cellular
        with pytest.raises(InvalidTrajectoryInput):
            trained_lhmm.match_many([good, Trajectory(points=[])])


class _FlakyClient(MatchingClient):
    """A client whose ``match`` answers 429 a fixed number of times."""

    def __init__(self, failures: int, retry_after_s: float = 0.0) -> None:
        super().__init__("localhost", 1)
        self.failures = failures
        self.retry_after_s = retry_after_s
        self.calls = 0

    def match(self, trajectories, region=None, deadline_ms=None):
        self.calls += 1
        if self.calls <= self.failures:
            raise ServerBusy(429, "busy", {}, self.retry_after_s)
        return [{"ok": True}]


class _FailingClient(MatchingClient):
    """A client whose ``match`` raises a given error a fixed number of
    times, then succeeds — for exercising retryability decisions."""

    def __init__(self, errors) -> None:
        super().__init__("localhost", 1)
        self.errors = list(errors)
        self.calls = 0

    def match(self, trajectories, region=None, deadline_ms=None):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return [{"ok": True}]


class TestMatchWithRetry:
    def test_backoff_grows_exponentially_with_jitter(self):
        client = _FlakyClient(failures=4)
        sleeps: list[float] = []
        result = client.match_with_retry(
            [], sleep=sleeps.append, clock=lambda: 0.0, rng=random.Random(0)
        )
        assert result == [{"ok": True}]
        assert client.calls == 5
        assert len(sleeps) == 4
        # Jitter multiplies by [0.5, 1.0], so attempt n waits within
        # [0.5, 1.0] x (0.25 * 2**n) — and the sequence never shrinks.
        for attempt, slept in enumerate(sleeps):
            ceiling = min(5.0, 0.25 * 2**attempt)
            assert 0.5 * ceiling <= slept <= ceiling
        assert all(a <= b for a, b in zip(sleeps, sleeps[1:]))

    def test_delay_is_capped(self):
        client = _FlakyClient(failures=7)
        sleeps: list[float] = []
        client.match_with_retry(
            [],
            sleep=sleeps.append,
            clock=lambda: 0.0,
            rng=random.Random(1),
            deadline_s=1000.0,
        )
        assert max(sleeps) <= 5.0

    def test_retry_after_is_respected(self):
        client = _FlakyClient(failures=1, retry_after_s=2.0)
        sleeps: list[float] = []
        client.match_with_retry(
            [], sleep=sleeps.append, clock=lambda: 0.0, rng=random.Random(2)
        )
        assert sleeps[0] >= 1.0  # 2.0 x jitter >= 0.5

    def test_total_deadline_caps_retrying(self):
        client = _FlakyClient(failures=100, retry_after_s=4.0)
        now = [0.0]
        sleeps: list[float] = []

        def fake_sleep(seconds: float) -> None:
            sleeps.append(seconds)
            now[0] += seconds

        with pytest.raises(ServerBusy):
            client.match_with_retry(
                [],
                max_attempts=50,
                deadline_s=10.0,
                sleep=fake_sleep,
                clock=lambda: now[0],
                rng=random.Random(3),
            )
        assert sum(sleeps) <= 10.0
        assert client.calls < 50  # the deadline, not the attempt cap, stopped it

    def test_large_retry_after_is_clipped_to_remaining_deadline(self):
        """A server-sent Retry-After bigger than what is left of the total
        deadline must be clipped, not obeyed: sleeping the full hint would
        overshoot the deadline and forfeit the final attempt."""
        client = _FlakyClient(failures=1, retry_after_s=30.0)
        now = [0.0]
        sleeps: list[float] = []

        def fake_sleep(seconds: float) -> None:
            sleeps.append(seconds)
            now[0] += seconds

        # rng seed 0 jitters the 5 s-capped hint to ~4.6 s > the 3 s
        # budget; the fixed loop clips the sleep and still gets the win.
        result = client.match_with_retry(
            [],
            deadline_s=3.0,
            sleep=fake_sleep,
            clock=lambda: now[0],
            rng=random.Random(0),
        )
        assert result == [{"ok": True}]
        assert client.calls == 2
        assert sleeps == [3.0]

    def test_attempt_cap_still_applies(self):
        client = _FlakyClient(failures=100)
        with pytest.raises(ServerBusy):
            client.match_with_retry(
                [],
                max_attempts=3,
                sleep=lambda s: None,
                clock=lambda: 0.0,
                rng=random.Random(4),
            )
        assert client.calls == 3

    def test_503_during_drain_is_retried(self):
        """A draining gateway answers 503 + retry_after_s; the retry loop
        honours the hint and wins once the drain (or respawn) completes."""
        client = _FailingClient(
            [ServeClientError(503, "draining", {"retry_after_s": 2.0})] * 2
        )
        sleeps: list[float] = []
        result = client.match_with_retry(
            [], sleep=sleeps.append, clock=lambda: 0.0, rng=random.Random(5)
        )
        assert result == [{"ok": True}]
        assert client.calls == 3
        assert all(s >= 1.0 for s in sleeps)  # 2.0 x jitter in [0.5, 1.0]

    def test_connection_reset_is_retried(self):
        """A worker respawn can reset in-flight sockets mid-request; that
        is transient, not fatal."""
        client = _FailingClient(
            [ConnectionResetError("peer reset"), ConnectionRefusedError("down")]
        )
        result = client.match_with_retry(
            [], sleep=lambda s: None, clock=lambda: 0.0, rng=random.Random(6)
        )
        assert result == [{"ok": True}]
        assert client.calls == 3

    def test_non_transient_http_errors_raise_immediately(self):
        """4xx input errors and 500s repeat deterministically — retrying
        them only repeats the failure."""
        for status in (400, 404, 422, 500):
            client = _FailingClient([ServeClientError(status, "nope", {})])
            with pytest.raises(ServeClientError):
                client.match_with_retry(
                    [], sleep=lambda s: None, clock=lambda: 0.0,
                    rng=random.Random(7),
                )
            assert client.calls == 1

    def test_exhausted_attempts_raise_the_transient_error(self):
        client = _FailingClient([ConnectionResetError("reset")] * 10)
        with pytest.raises(ConnectionResetError):
            client.match_with_retry(
                [], max_attempts=4, sleep=lambda s: None, clock=lambda: 0.0,
                rng=random.Random(8),
            )
        assert client.calls == 4
