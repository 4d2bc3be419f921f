"""Tests for the cluster's self-healing control plane.

Two layers, mirroring the design of :mod:`repro.serve.control`:

* **unit** — the four control primitives (journal, admission gate, crash
  tracker, autoscaler policy) exercised with synthetic clocks, so every
  hysteresis edge is deterministic;
* **end-to-end** — short-lived clusters driven over HTTP: zero-downtime
  artifact rollout (``POST /v1/admin/rollout``), rejected rollouts that
  leave the old generation serving, deadline propagation (504) and
  admission-queue overload (503 + ``server_overloaded``), always
  asserting served results stay byte-identical to direct ``LHMM`` calls.

The heavyweight chaos scenarios (SIGKILL, stall injection, autoscaling
under Poisson load) live in ``tests/test_chaos_cluster.py``.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datasets import save_dataset
from repro.errors import DeadlineExceeded, ServerOverloaded
from repro.serve import (
    AdmissionGate,
    AutoscalerPolicy,
    ClusterConfig,
    ClusterServer,
    ControlJournal,
    CrashTracker,
    MatchingClient,
    RollingWindow,
    ServeClientError,
    ServerBusy,
    ShardRegistry,
    ShardSpec,
)
from tests.conftest import OwnSegments


# =====================================================================
# unit: RollingWindow
# =====================================================================
class TestRollingWindow:
    def test_percentile_nearest_rank(self):
        window = RollingWindow(window_s=60.0)
        for value in (0.1, 0.2, 0.3, 0.4, 0.5):
            window.record(value, now=100.0)
        assert window.percentile(0.0, now=100.0) == 0.1
        assert window.percentile(50.0, now=100.0) == 0.3
        assert window.percentile(100.0, now=100.0) == 0.5

    def test_empty_window_is_zero(self):
        assert RollingWindow().percentile(95.0) == 0.0

    def test_old_samples_evicted(self):
        window = RollingWindow(window_s=10.0)
        window.record(1.0, now=0.0)
        window.record(2.0, now=8.0)
        assert window.values(now=9.0) == [1.0, 2.0]
        # At t=11 the first sample is outside the 10s window.
        assert window.values(now=11.0) == [2.0]
        assert window.count(now=11.0) == 1

    def test_max_samples_bound(self):
        window = RollingWindow(window_s=60.0, max_samples=4)
        for index in range(10):
            window.record(float(index), now=50.0)
        assert window.values(now=50.0) == [6.0, 7.0, 8.0, 9.0]


# =====================================================================
# unit: ControlJournal
# =====================================================================
class TestControlJournal:
    def test_records_and_tails_in_order(self):
        journal = ControlJournal()
        journal.record("scale_up", target=3)
        journal.record("scale_down", target=2)
        tail = journal.tail(10)
        assert [entry["event"] for entry in tail] == ["scale_up", "scale_down"]
        assert tail[0]["target"] == 3
        assert all("ts" in entry for entry in tail)

    def test_keep_bounds_memory(self):
        journal = ControlJournal(keep=3)
        for index in range(6):
            journal.record("tick", n=index)
        assert [entry["n"] for entry in journal.tail(10)] == [3, 4, 5]

    def test_jsonl_file_survives_each_event(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = ControlJournal(path=str(path))
        journal.record("worker_respawn", worker="w0")
        # Flushed per event — readable *before* close, which is what makes
        # the journal useful after a SIGKILL.
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["event"] == "worker_respawn"
        assert entry["worker"] == "w0"
        journal.record("breaker_open", worker="w1")
        journal.close()
        journal.close()  # idempotent
        events = [json.loads(line)["event"] for line in path.read_text().splitlines()]
        assert events == ["worker_respawn", "breaker_open"]


# =====================================================================
# unit: CrashTracker
# =====================================================================
class TestCrashTracker:
    def test_breaker_opens_at_threshold_within_window(self):
        tracker = CrashTracker(threshold=3, window_s=30.0)
        assert tracker.record("w0", now=0.0) is False
        assert tracker.record("w0", now=1.0) is False
        assert tracker.record("w0", now=2.0) is True  # just opened
        assert tracker.is_open("w0")
        # Opening is reported exactly once.
        assert tracker.record("w0", now=3.0) is False
        assert tracker.open_breakers() == ["w0"]

    def test_crashes_outside_window_do_not_count(self):
        tracker = CrashTracker(threshold=3, window_s=10.0)
        tracker.record("w1", now=0.0)
        tracker.record("w1", now=1.0)
        # The first two crashes have aged out by t=20.
        assert tracker.record("w1", now=20.0) is False
        assert not tracker.is_open("w1")
        assert tracker.recent("w1", now=20.0) == 1

    def test_recent_drives_backoff_exponent(self):
        tracker = CrashTracker(threshold=5, window_s=30.0)
        for stamp in (0.0, 1.0, 2.0):
            tracker.record("w2", now=stamp)
        assert tracker.recent("w2", now=2.0) == 3

    def test_forget_clears_state(self):
        tracker = CrashTracker(threshold=1, window_s=30.0)
        assert tracker.record("w3", now=0.0) is True
        tracker.forget("w3")
        assert not tracker.is_open("w3")
        assert tracker.recent("w3", now=0.0) == 0
        assert tracker.open_breakers() == []


# =====================================================================
# unit: AutoscalerPolicy
# =====================================================================
class TestAutoscalerPolicy:
    def _policy(self, **overrides):
        defaults = dict(
            min_workers=1,
            max_workers=4,
            high_water_depth=4,
            high_water_wait_s=0.5,
            low_water_wait_s=0.05,
            up_cooldown_s=2.0,
            down_cooldown_s=10.0,
            idle_ticks_needed=3,
        )
        defaults.update(overrides)
        return AutoscalerPolicy(**defaults)

    def test_scales_up_on_queue_depth(self):
        policy = self._policy()
        assert policy.decide(0.0, workers=1, depth=4, p95_wait_s=0.0, inflight=1) == "up"

    def test_scales_up_on_wait_pressure(self):
        policy = self._policy()
        assert policy.decide(0.0, workers=2, depth=0, p95_wait_s=0.6, inflight=2) == "up"

    def test_up_respects_cooldown_and_ceiling(self):
        policy = self._policy()
        assert policy.decide(0.0, workers=1, depth=8, p95_wait_s=1.0, inflight=1) == "up"
        # Still pressured one tick later: inside the up-cooldown → hold.
        assert policy.decide(0.5, workers=2, depth=8, p95_wait_s=1.0, inflight=2) is None
        assert policy.decide(3.0, workers=2, depth=8, p95_wait_s=1.0, inflight=2) == "up"
        # At the ceiling, pressure no longer scales up.
        assert policy.decide(9.0, workers=4, depth=8, p95_wait_s=1.0, inflight=4) is None

    def test_scales_down_only_after_consecutive_idle_ticks(self):
        policy = self._policy(idle_ticks_needed=3, down_cooldown_s=0.0)
        assert policy.decide(0.0, workers=3, depth=0, p95_wait_s=0.0, inflight=0) is None
        assert policy.decide(1.0, workers=3, depth=0, p95_wait_s=0.0, inflight=0) is None
        assert policy.decide(2.0, workers=3, depth=0, p95_wait_s=0.0, inflight=0) == "down"

    def test_busy_tick_resets_idle_streak(self):
        policy = self._policy(idle_ticks_needed=2, down_cooldown_s=0.0)
        assert policy.decide(0.0, workers=2, depth=0, p95_wait_s=0.0, inflight=0) is None
        # A single busy tick (inflight == workers) restarts the countdown.
        assert policy.decide(1.0, workers=2, depth=0, p95_wait_s=0.0, inflight=2) is None
        assert policy.decide(2.0, workers=2, depth=0, p95_wait_s=0.0, inflight=0) is None
        assert policy.decide(3.0, workers=2, depth=0, p95_wait_s=0.0, inflight=0) == "down"

    def test_down_respects_floor_and_cooldown(self):
        policy = self._policy(idle_ticks_needed=1, down_cooldown_s=10.0)
        # At the floor: never down.
        for tick in range(5):
            assert (
                policy.decide(float(tick), workers=1, depth=0, p95_wait_s=0.0, inflight=0)
                is None
            )
        policy = self._policy(idle_ticks_needed=1, down_cooldown_s=10.0)
        assert policy.decide(0.0, workers=2, depth=8, p95_wait_s=1.0, inflight=2) == "up"
        # Idle immediately after scaling: the down-cooldown holds the fleet.
        assert policy.decide(5.0, workers=3, depth=0, p95_wait_s=0.0, inflight=0) is None
        assert policy.decide(11.0, workers=3, depth=0, p95_wait_s=0.0, inflight=0) == "down"

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            AutoscalerPolicy(min_workers=0, max_workers=2)
        with pytest.raises(ValueError):
            AutoscalerPolicy(min_workers=3, max_workers=2)


# =====================================================================
# unit: AdmissionGate (loop-confined, driven via asyncio.run)
# =====================================================================
class TestAdmissionGate:
    def test_immediate_admission_and_release(self):
        async def scenario():
            gate = AdmissionGate(max_inflight=2, queue_limit=4)
            await gate.acquire()
            assert gate.inflight == 1
            assert gate.admitted_total == 1
            gate.release()
            assert gate.inflight == 0

        asyncio.run(scenario())

    def test_waiters_are_granted_fifo(self):
        async def scenario():
            gate = AdmissionGate(max_inflight=1, queue_limit=4)
            await gate.acquire()
            order: list[int] = []

            async def contender(tag: int):
                await gate.acquire()
                order.append(tag)
                gate.release()

            tasks = [asyncio.ensure_future(contender(tag)) for tag in (1, 2, 3)]
            await asyncio.sleep(0)  # let all three enqueue
            assert gate.depth == 3
            gate.release()  # grant cascades through the queue
            await asyncio.gather(*tasks)
            assert order == [1, 2, 3]

        asyncio.run(scenario())

    def test_overflow_is_shed_with_server_overloaded(self):
        async def scenario():
            gate = AdmissionGate(max_inflight=1, queue_limit=1)
            await gate.acquire()
            waiter = asyncio.ensure_future(gate.acquire())
            await asyncio.sleep(0)
            assert gate.depth == 1
            with pytest.raises(ServerOverloaded):
                await gate.acquire()
            assert gate.shed_overflow_total == 1
            gate.release()
            await waiter
            gate.release()

        asyncio.run(scenario())

    def test_expired_deadline_is_shed_before_queueing(self):
        async def scenario():
            gate = AdmissionGate(max_inflight=1, queue_limit=4)
            with pytest.raises(DeadlineExceeded):
                await gate.acquire(deadline=time.monotonic() - 1.0)
            assert gate.shed_deadline_total == 1
            assert gate.inflight == 0

        asyncio.run(scenario())

    def test_queued_waiter_deadline_expires_without_leaking_slot(self):
        async def scenario():
            gate = AdmissionGate(max_inflight=1, queue_limit=4)
            await gate.acquire()
            with pytest.raises(DeadlineExceeded):
                await gate.acquire(deadline=time.monotonic() + 0.05)
            assert gate.shed_deadline_total == 1
            # The holder's slot is untouched and still grantable.
            gate.release()
            await gate.acquire()
            assert gate.inflight == 1
            gate.release()

        asyncio.run(scenario())

    def test_sweep_sheds_expired_waiters_at_the_queue(self):
        async def scenario():
            gate = AdmissionGate(max_inflight=1, queue_limit=4)
            await gate.acquire()
            waiter = asyncio.ensure_future(gate.acquire(deadline=time.monotonic() + 60.0))
            await asyncio.sleep(0)
            assert gate.depth == 1
            # Simulate the deadline passing mid-stall (no release coming):
            # the supervision tick's sweep must shed it in place.
            gate._waiters[0].deadline = time.monotonic() - 1.0
            assert gate.sweep() == 1
            with pytest.raises(DeadlineExceeded):
                await waiter
            assert gate.depth == 0
            snapshot = gate.snapshot()
            assert snapshot["shed_deadline_total"] == 1
            assert snapshot["inflight"] == 1
            gate.release()

        asyncio.run(scenario())


# =====================================================================
# end-to-end: rollout, deadlines, overload
# =====================================================================
@pytest.fixture(scope="module")
def control_paths(tmp_path_factory, tiny_dataset, trained_lhmm):
    root = tmp_path_factory.mktemp("cluster-control")
    dataset_path = root / "tiny.json.gz"
    model_path = root / "model.npz"
    save_dataset(tiny_dataset, dataset_path)
    trained_lhmm.save(model_path)
    return str(dataset_path), str(model_path)


def _publish(control_paths):
    dataset_path, model_path = control_paths
    return ShardRegistry.publish(
        [ShardSpec(region="default", dataset=dataset_path, model=model_path)]
    )


class TestRolloutEndpoint:
    def test_rollout_publishes_new_generation_bit_identically(
        self, control_paths, trained_lhmm, tiny_dataset
    ):
        own = OwnSegments()
        registry = _publish(control_paths)
        server = ClusterServer(
            registry, ClusterConfig(port=0, num_workers=2, cache_size=0)
        ).start()
        try:
            client = MatchingClient(server.host, server.port, timeout=60.0)
            samples = tiny_dataset.samples[:3]
            before = client.match([s.cellular for s in samples])

            summary = client.rollout()
            assert summary["region"] == "default"
            assert summary["generation"] == 2
            assert summary["workers_swapped"] == 2
            assert summary["workers_failed"] == 0
            assert summary["canary_checked"] >= 1

            health = client.health()
            assert health["generations"]["default"] == 2
            assert health["workers_alive"] == 2

            # The swapped fleet serves the *same bytes* as generation 1
            # and as a direct matcher call.
            after = client.match([s.cellular for s in samples])
            assert after == before
            assert [r["path"] for r in after] == [
                trained_lhmm.match(s.cellular).path for s in samples
            ]

            metrics = client.metrics()
            assert metrics["counters"]["rollouts_total"] == 1
            assert metrics["generations"]["default"] == 2
            assert all(w["generation"] == 2 for w in metrics["workers"])
            events = [e["event"] for e in metrics["control"]["journal_tail"]]
            assert "rollout_committed" in events or "rollout_started" in events
        finally:
            server.shutdown()
        assert own.leaked() == []

    def test_corrupt_artifact_is_rejected_and_old_generation_serves(
        self, control_paths, trained_lhmm, tiny_dataset, tmp_path
    ):
        bad_model = tmp_path / "corrupt.npz"
        bad_model.write_bytes(b"this is not an npz archive")
        own = OwnSegments()
        registry = _publish(control_paths)
        server = ClusterServer(
            registry, ClusterConfig(port=0, num_workers=1, cache_size=0)
        ).start()
        try:
            client = MatchingClient(server.host, server.port, timeout=60.0)
            sample = tiny_dataset.samples[4]
            baseline = set(own.leaked())

            with pytest.raises(ServeClientError) as excinfo:
                client.rollout(model=str(bad_model))
            assert excinfo.value.status >= 400

            # Nothing changed: generation 1 keeps serving, no staged
            # segments were left behind.
            assert client.health()["generations"]["default"] == 1
            result = client.match([sample.cellular])
            assert result[0]["path"] == trained_lhmm.match(sample.cellular).path
            assert set(own.leaked()) == baseline
            metrics = client.metrics()
            assert metrics["counters"]["rollout_failures_total"] >= 1
            assert metrics["counters"]["rollouts_total"] == 0
        finally:
            server.shutdown()
        assert own.leaked() == []

    def test_rollout_unknown_region_is_404_and_bad_model_type_400(self, control_paths):
        own = OwnSegments()
        registry = _publish(control_paths)
        server = ClusterServer(
            registry, ClusterConfig(port=0, num_workers=1, cache_size=0)
        ).start()
        try:
            client = MatchingClient(server.host, server.port, timeout=60.0)
            with pytest.raises(ServeClientError) as excinfo:
                client.rollout(region="atlantis")
            assert excinfo.value.status == 404
            with pytest.raises(ServeClientError) as excinfo:
                client._request("POST", "/v1/admin/rollout", {"model": 5})
            assert excinfo.value.status == 400
        finally:
            server.shutdown()
        assert own.leaked() == []


class TestDeadlinesAndOverload:
    def test_deadline_propagation_and_queue_shedding(
        self, control_paths, trained_lhmm, tiny_dataset, monkeypatch, tmp_path
    ):
        """One saturated single-worker cluster exercises the whole shedding
        ladder: expired deadline → 504 before any work, queued waiter whose
        deadline passes → 504, overflow → 503 + ``server_overloaded``, and
        the admitted request still completes bit-identically."""
        # The *first* match op inside a worker hangs 3s (token-gated so
        # respawned/extra workers never re-fire it).  Env must be set
        # before the fork below.
        token = tmp_path / "hang-once"
        monkeypatch.setenv(
            "REPRO_FAULTS", f"cluster.op:hang:op=match:seconds=3:once={token}"
        )
        own = OwnSegments()
        registry = _publish(control_paths)
        server = ClusterServer(
            registry,
            ClusterConfig(
                port=0,
                num_workers=1,
                cache_size=0,
                max_inflight=1,
                queue_limit=1,
                retry_after_s=2.0,
            ),
        ).start()
        pool = ThreadPoolExecutor(max_workers=2)
        try:
            client = MatchingClient(server.host, server.port, timeout=60.0)
            samples = tiny_dataset.samples[:3]

            # (1) A pre-expired deadline never reaches a worker: 504 with
            # the stable code, shed at the admission gate.
            with pytest.raises(ServeClientError) as excinfo:
                client.match([samples[0].cellular], deadline_ms=0.001)
            assert excinfo.value.status == 504
            assert excinfo.value.payload["code"] == "deadline_exceeded"

            # (2) An invalid deadline is a protocol error.
            with pytest.raises(ServeClientError) as excinfo:
                client.match([samples[0].cellular], deadline_ms=-5)
            assert excinfo.value.status == 400

            # (3) Saturate: the admitted request hangs inside the worker.
            admitted = pool.submit(client.match, [samples[0].cellular])
            deadline = time.time() + 10
            while server._gate.inflight < 1:
                assert time.time() < deadline
                time.sleep(0.01)

            # (4) A queued waiter whose deadline passes is shed with 504.
            queued = pool.submit(client.match, [samples[1].cellular], deadline_ms=500)
            while server._gate.depth < 1:
                assert time.time() < deadline
                time.sleep(0.01)

            # (5) The queue is now full: overflow sheds instantly with the
            # cluster's 503 + Retry-After overload answer.
            with pytest.raises(ServerBusy) as excinfo:
                client.match([samples[2].cellular])
            assert excinfo.value.status == 503
            assert excinfo.value.payload["code"] == "server_overloaded"
            assert excinfo.value.retry_after_s == 2.0

            with pytest.raises(ServeClientError) as excinfo:
                queued.result(timeout=30)
            assert excinfo.value.status == 504
            assert excinfo.value.payload["code"] == "deadline_exceeded"

            # (6) The admitted request rides out the stall and answers
            # exactly what a direct call computes.
            result = admitted.result(timeout=30)
            assert result[0]["path"] == trained_lhmm.match(samples[0].cellular).path

            admission = client.metrics()["admission"]
            assert admission["shed_overflow_total"] >= 1
            assert admission["shed_deadline_total"] >= 2
        finally:
            pool.shutdown(wait=False)
            server.shutdown()
        assert own.leaked() == []

    def test_generous_deadline_serves_normally(
        self, control_paths, trained_lhmm, tiny_dataset
    ):
        own = OwnSegments()
        registry = _publish(control_paths)
        server = ClusterServer(
            registry, ClusterConfig(port=0, num_workers=1, cache_size=0)
        ).start()
        try:
            client = MatchingClient(server.host, server.port, timeout=60.0)
            sample = tiny_dataset.samples[6]
            result = client.match([sample.cellular], deadline_ms=60_000)
            assert result[0]["path"] == trained_lhmm.match(sample.cellular).path
        finally:
            server.shutdown()
        assert own.leaked() == []
