"""Cluster chaos tests: the self-healing control plane under real fire.

Every scenario here drives a live gateway + forked worker fleet through
the failures ``docs/robustness.md`` promises to absorb — the gateway
SIGKILLed mid-load, a zero-downtime rollout racing an open-loop client
swarm, a poisoned candidate artifact failing its canary, Poisson load
pushing the autoscaler up and back down, and an alive-but-unresponsive
worker caught by the stall detector.  The invariants never change:
no request is dropped, every served path stays bit-identical to a
direct ``LHMM`` / ``OnlineLHMM`` call, and no shared-memory segment
outlives its owner.

Excluded from the default suite; run with ``pytest -m chaos -k cluster``
(CI does, as a blocking step, uploading the control journal on failure).
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Empty, Queue

import pytest

from repro.core import OnlineLHMM
from repro.datasets import save_dataset
from repro.errors import ModelReloadFailed
from repro.serve import (
    ClusterConfig,
    ClusterServer,
    MatchingClient,
    ServeClientError,
    ShardRegistry,
    ShardSpec,
)
from repro.serve.shm import leaked_segments
from repro.testing import faults
from tests.conftest import OwnSegments

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def cluster_paths(tmp_path_factory, trained_lhmm, tiny_dataset):
    root = tmp_path_factory.mktemp("cluster-chaos")
    model_path = root / "model.npz"
    dataset_path = root / "tiny.json.gz"
    trained_lhmm.save(model_path)
    save_dataset(tiny_dataset, dataset_path)
    return str(dataset_path), str(model_path)


def _publish(cluster_paths):
    dataset_path, model_path = cluster_paths
    return ShardRegistry.publish(
        [ShardSpec(region="default", dataset=dataset_path, model=model_path)]
    )


def make_trace(samples, rate_per_s: float, count: int, seed: int):
    """A replayable open-loop trace: (arrival_offset_s, sample) pairs."""
    rng = random.Random(seed)
    now = 0.0
    trace = []
    for _ in range(count):
        now += rng.expovariate(rate_per_s)
        trace.append((now, samples[rng.randrange(len(samples))]))
    return trace


def open_loop(
    host: str,
    port: int,
    trace,
    client_threads: int = 8,
    max_attempts: int = 4,
    deadline_s: float = 30.0,
) -> tuple[list, float]:
    """Fire the trace at its scheduled rate; never wait for completions.

    Latency is measured from each request's *scheduled arrival* so time
    spent queueing (client pool or server) counts against it.  Returns
    ``(results, wall_s)`` where each result is
    ``(latency_s, ok, sample, path_or_none)``.
    """
    results = []
    lock = threading.Lock()
    local = threading.local()

    def fire(sample, scheduled_abs: float):
        client = getattr(local, "client", None)
        if client is None:
            client = local.client = MatchingClient(
                host, port, timeout=60.0, keep_alive=True
            )
        path = None
        try:
            response = client.match_with_retry(
                [sample.cellular], max_attempts=max_attempts,
                base_delay_s=0.05, deadline_s=deadline_s,
            )
            ok = "error" not in response[0]
            if ok:
                path = response[0]["path"]
        except Exception:  # noqa: BLE001 - an error is a datapoint here
            ok = False
        latency = time.perf_counter() - scheduled_abs
        with lock:
            results.append((latency, ok, sample, path))

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=client_threads) as pool:
        futures = []
        for offset, sample in trace:
            scheduled_abs = start + offset
            delay = scheduled_abs - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(pool.submit(fire, sample, scheduled_abs))
        for future in futures:
            future.result()
    return results, time.perf_counter() - start


def _feed_with_retry(session, point, attempts: int = 40):
    """Feed one point, riding out 503s while a swap/respawn settles."""
    for attempt in range(attempts):
        try:
            return session.feed(point)
        except (ServeClientError, ConnectionError) as error:
            if isinstance(error, ServeClientError) and error.status != 503:
                raise
            if attempt == attempts - 1:
                raise
            time.sleep(0.25)


def _await_metric(client, predicate, timeout_s: float = 60.0, use_health: bool = False):
    """Poll /metrics (or /healthz) until ``predicate(snapshot)`` holds."""
    deadline = time.monotonic() + timeout_s
    while True:
        snapshot = client.health() if use_health else client.metrics()
        if predicate(snapshot):
            return snapshot
        assert time.monotonic() < deadline, f"condition never held: {snapshot}"
        time.sleep(0.1)


class TestGatewayKill:
    def test_gateway_sigkill_unlinks_every_published_segment(
        self, cluster_paths, tiny_dataset
    ):
        """SIGKILL -9 the whole gateway process mid-load: the janitor
        process (watching the gateway over a pipe) must unlink every
        shared segment the deployment published — /dev/shm is not a
        leak site, even for a death no atexit hook survives."""
        dataset_path, model_path = cluster_paths
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        env.pop(faults.ENV_VAR, None)
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve",
                "--cluster", "--workers", "2", "--port", "0", "--cache-size", "0",
                "--dataset", dataset_path, "--model", model_path,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        lines: Queue = Queue()
        threading.Thread(
            target=lambda: [lines.put(l) for l in proc.stdout], daemon=True
        ).start()
        try:
            address = None
            deadline = time.monotonic() + 120.0
            while address is None:
                assert proc.poll() is None, "gateway died during startup"
                try:
                    line = lines.get(timeout=max(0.1, deadline - time.monotonic()))
                except Empty:
                    pytest.fail("gateway never announced its address")
                matched = re.search(r"cluster gateway at http://([\d.]+):(\d+)", line)
                if matched:
                    address = (matched.group(1), int(matched.group(2)))

            # Real traffic is in flight when the axe falls.
            client = MatchingClient(*address, timeout=60.0)
            published = {
                shard["segment"] for shard in client.metrics()["shards"].values()
            }
            assert published, "the deployment published no segments?"
            sample = tiny_dataset.test[0]
            results = client.match_with_retry([sample.cellular], max_attempts=6)
            assert results[0]["path"]
            session = client.create_session(lag=3)
            session.feed(sample.cellular.points[0])

            os.kill(proc.pid, signal.SIGKILL)
            assert proc.wait(timeout=30) == -signal.SIGKILL

            # The janitor sees the pipe close and unlinks everything.
            deadline = time.monotonic() + 30.0
            while published & set(leaked_segments()):
                assert time.monotonic() < deadline, (
                    f"segments leaked after gateway SIGKILL: "
                    f"{published & set(leaked_segments())}"
                )
                time.sleep(0.1)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


class TestZeroDowntimeRollout:
    def test_rollout_under_open_loop_load_drops_nothing(
        self, cluster_paths, trained_lhmm, tiny_dataset
    ):
        """``POST /v1/admin/rollout`` while a seeded open-loop swarm is
        firing: zero failed requests, every path bit-identical on both
        generations, and a streaming session opened on generation 1
        finishes on generation 2 exactly like an uninterrupted decode."""
        own = OwnSegments()
        registry = _publish(cluster_paths)
        server = ClusterServer(
            registry, ClusterConfig(port=0, num_workers=2, cache_size=0)
        ).start()
        try:
            client = MatchingClient(server.host, server.port, timeout=60.0)
            samples = tiny_dataset.test[:6]
            expected = {
                s.sample_id: trained_lhmm.match(s.cellular).path for s in samples
            }
            stream_sample = tiny_dataset.test[7]
            points = list(stream_sample.cellular.points)

            session = client.create_session(lag=3)
            for point in points[: len(points) // 2]:
                session.feed(point)

            rollout_result: dict = {}

            def fire_rollout():
                try:
                    rollout_result["summary"] = server.rollout()
                except BaseException as error:  # noqa: BLE001
                    rollout_result["error"] = error

            timer = threading.Timer(1.0, fire_rollout)
            timer.start()
            trace = make_trace(samples, rate_per_s=25.0, count=60, seed=20260808)
            results, _wall = open_loop(
                server.host, server.port, trace,
                client_threads=6, max_attempts=6, deadline_s=60.0,
            )
            timer.join(timeout=120)

            assert "error" not in rollout_result, rollout_result.get("error")
            summary = rollout_result["summary"]
            assert summary["generation"] == 2
            assert summary["workers_swapped"] == 2
            assert summary["workers_failed"] == 0

            # Zero downtime, literally: every request in the swarm was
            # answered, and answered with the exact direct-matcher path.
            assert len(results) == 60
            failed = [r for r in results if not r[1]]
            assert failed == []
            for _latency, _ok, sample, path in results:
                assert path == expected[sample.sample_id]

            # The generation-1 session replays onto generation 2 and
            # finishes bit-identical to an uninterrupted decoder.
            for point in points[len(points) // 2 :]:
                _feed_with_retry(session, point)
            assert session.close() == OnlineLHMM(
                trained_lhmm, lag=3
            ).match_stream(stream_sample.cellular)

            health = client.health()
            assert health["generations"]["default"] == 2
            assert health["workers_alive"] == 2
            metrics = client.metrics()
            assert metrics["counters"]["rollouts_total"] == 1
            assert metrics["counters"]["rollout_failures_total"] == 0
        finally:
            server.shutdown()
        assert own.leaked() == []

    def test_failed_canary_rolls_back_and_old_generation_serves(
        self, cluster_paths, trained_lhmm, tiny_dataset, monkeypatch
    ):
        """A candidate that fails its canary never reaches the fleet: the
        staged segments are unlinked, generation 1 keeps serving, and the
        journal records the rollback.  Clearing the fault, the *same*
        deployment rolls out successfully."""
        own = OwnSegments()
        registry = _publish(cluster_paths)
        server = ClusterServer(
            registry, ClusterConfig(port=0, num_workers=2, cache_size=0)
        ).start()
        try:
            client = MatchingClient(server.host, server.port, timeout=60.0)
            sample = tiny_dataset.test[2]
            baseline = set(own.leaked())

            # The probe worker forks during the rollout and inherits this
            # env; the already-running serving workers predate it and are
            # untouched.
            monkeypatch.setenv(faults.ENV_VAR, "cluster.op:raise:op=canary")
            with pytest.raises(ModelReloadFailed):
                server.rollout()
            monkeypatch.delenv(faults.ENV_VAR)

            # Rolled back completely: same generation, same segments,
            # same (bit-identical) answers.
            assert registry.generations()["default"] == 1
            assert set(own.leaked()) == baseline
            result = client.match_with_retry([sample.cellular], max_attempts=6)
            assert result[0]["path"] == trained_lhmm.match(sample.cellular).path
            metrics = client.metrics()
            assert metrics["counters"]["rollout_failures_total"] == 1
            assert metrics["counters"]["rollouts_total"] == 0
            events = [e["event"] for e in metrics["control"]["journal_tail"]]
            assert "rollout_rolled_back" in events

            # The deployment is not wedged: the next rollout lands.
            summary = server.rollout()
            assert summary["generation"] == 2
            assert summary["workers_swapped"] == 2
            assert client.health()["generations"]["default"] == 2
        finally:
            server.shutdown()
        assert own.leaked() == []


class TestAutoscaler:
    def test_scales_up_under_poisson_load_and_drains_back(
        self, cluster_paths, trained_lhmm, tiny_dataset
    ):
        """Open-loop Poisson load over a deliberately tight admission gate
        builds queue depth; the autoscaler forks workers up toward
        ``max_workers``, then drains back to ``min_workers`` once the
        burst passes — with a streaming session surviving both directions
        and every request answered bit-identically."""
        own = OwnSegments()
        registry = _publish(cluster_paths)
        server = ClusterServer(
            registry,
            ClusterConfig(
                port=0,
                num_workers=1,
                min_workers=1,
                max_workers=3,
                cache_size=0,
                max_inflight=1,
                queue_limit=64,
                control_interval_s=0.05,
                scale_up_depth=2,
                scale_up_wait_s=0.3,
                scale_up_cooldown_s=0.3,
                scale_down_cooldown_s=0.5,
                scale_down_idle_ticks=4,
            ),
        )
        # Shrink the wait window so post-burst idleness is visible fast
        # (the default 30s window would stall scale-down for the test).
        server._gate.wait_window.window_s = 2.0
        server.start()
        try:
            client = MatchingClient(server.host, server.port, timeout=60.0)
            samples = tiny_dataset.test[:5]
            expected = {
                s.sample_id: trained_lhmm.match(s.cellular).path for s in samples
            }
            stream_sample = tiny_dataset.test[6]
            points = list(stream_sample.cellular.points)

            session = client.create_session(lag=3)
            for point in points[: len(points) // 2]:
                session.feed(point)

            trace = make_trace(samples, rate_per_s=80.0, count=120, seed=20260809)
            results, _wall = open_loop(
                server.host, server.port, trace,
                client_threads=8, max_attempts=6, deadline_s=60.0,
            )

            assert len(results) == 120
            assert [r for r in results if not r[1]] == []
            for _latency, _ok, sample, path in results:
                assert path == expected[sample.sample_id]

            metrics = client.metrics()
            assert metrics["counters"]["scale_ups_total"] >= 1
            events = [e["event"] for e in metrics["control"]["journal_tail"]]
            assert "scale_up" in events

            # The burst is over: the fleet drains back to the floor.
            health = _await_metric(
                client,
                lambda h: h["workers_total"] == 1 and h["workers_alive"] == 1,
                timeout_s=60.0,
                use_health=True,
            )
            assert health["min_workers"] == 1 and health["max_workers"] == 3
            metrics = client.metrics()
            assert metrics["counters"]["scale_downs_total"] >= 1
            assert metrics["autoscaler"]["target"] == 1

            # The session rode out the whole cycle (its points may have
            # replayed onto whichever worker owns its ring slot now).
            for point in points[len(points) // 2 :]:
                _feed_with_retry(session, point)
            assert session.close() == OnlineLHMM(
                trained_lhmm, lag=3
            ).match_stream(stream_sample.cellular)
        finally:
            server.shutdown()
        assert own.leaked() == []


class TestStallDetection:
    def test_stalled_worker_is_killed_and_respawned(
        self, cluster_paths, trained_lhmm, tiny_dataset, monkeypatch, tmp_path
    ):
        """A worker that is alive but wedged (60s hang inside its IPC
        handler) burns through the probe miss budget, is SIGKILLed by the
        supervisor, and its respawn serves bit-identical answers."""
        token = tmp_path / "stall-once"
        monkeypatch.setenv(
            faults.ENV_VAR,
            f"cluster.op:hang:op=ping:seconds=60:once={token}",
        )
        own = OwnSegments()
        registry = _publish(cluster_paths)
        server = ClusterServer(
            registry,
            ClusterConfig(
                port=0,
                num_workers=1,
                cache_size=0,
                control_interval_s=0.1,
                probe_interval_s=0.2,
                probe_timeout_s=0.4,
                probe_miss_budget=2,
            ),
        ).start()
        try:
            client = MatchingClient(server.host, server.port, timeout=60.0)
            # The first health probe wedges the worker; the supervisor
            # must notice (miss budget) and replace it.
            _await_metric(
                client,
                lambda h: h["respawns_used"] >= 1 and h["workers_alive"] >= 1,
                timeout_s=30.0,
                use_health=True,
            )
            assert token.exists()  # the hang really fired
            monkeypatch.delenv(faults.ENV_VAR)

            sample = tiny_dataset.test[3]
            results = client.match_with_retry(
                [sample.cellular], max_attempts=8, base_delay_s=0.1
            )
            assert results[0]["path"] == trained_lhmm.match(sample.cellular).path

            metrics = client.metrics()
            assert metrics["counters"]["worker_stalls_total"] >= 1
            assert metrics["counters"]["worker_deaths_total"] >= 1
            assert metrics["counters"]["worker_respawns_total"] >= 1
            events = [e["event"] for e in metrics["control"]["journal_tail"]]
            assert "worker_stall" in events
        finally:
            server.shutdown()
        assert own.leaked() == []


class TestABSplitUnderFire:
    def test_ab_split_survives_worker_sigkill_exactly(
        self, cluster_paths, trained_lhmm, tiny_dataset
    ):
        """A 20% challenger split under open-loop Poisson load with a
        champion fleet worker SIGKILLed mid-stream: every response stays
        bit-identical to the generation its key hash assigned it, the
        per-generation request counters sum exactly to the admitted
        requests, and the observed split is the exact count predicted by
        the deterministic key hash over the trace — not a statistical
        estimate.  A streaming session rides through the kill and commits
        a path bit-identical to an uninterrupted decoder."""
        from repro.core import LHMM
        from repro.serve import canonical_key, routes_to_challenger
        from repro.serve import protocol

        dataset_path, model_path = cluster_paths
        ema_matcher = LHMM.load(model_path, tiny_dataset, weights="ema")
        own = OwnSegments()
        registry = _publish(cluster_paths)
        server = ClusterServer(
            registry, ClusterConfig(port=0, num_workers=2, cache_size=0)
        ).start()
        try:
            client = MatchingClient(server.host, server.port, timeout=60.0)
            info = client.start_ab(split=0.2, weights="ema")
            assert info["challenger_generation"] == 2

            samples = tiny_dataset.test[:6]
            split = 0.2
            expected_path = {}
            assigned = {}
            for s in samples:
                key = canonical_key(protocol.encode_trajectory(s.cellular))
                hit = routes_to_challenger(key, split)
                assigned[s.sample_id] = hit
                expected_path[s.sample_id] = (
                    ema_matcher if hit else trained_lhmm
                ).match(s.cellular).path

            stream_sample = tiny_dataset.test[7]
            points = list(stream_sample.cellular.points)
            session = client.create_session(lag=3)
            for point in points[: len(points) // 2]:
                session.feed(point)

            # SIGKILL one champion fleet worker mid-stream (never the
            # dedicated challenger worker — that failover has its own
            # test); the supervisor must respawn it under fire.
            victim = next(iter(server._handles.values())).process
            killer = threading.Timer(1.0, os.kill, (victim.pid, signal.SIGKILL))
            killer.start()

            trace = make_trace(samples, rate_per_s=25.0, count=60, seed=20260808)
            expected_challenger = sum(
                1 for _, s in trace if assigned[s.sample_id]
            )
            assert 0 < expected_challenger < len(trace)  # both sides exercised
            results, _wall = open_loop(
                server.host, server.port, trace,
                client_threads=6, max_attempts=8, deadline_s=60.0,
            )
            killer.join(timeout=30)

            # Nothing dropped, and every response is bit-identical to the
            # generation the key hash deterministically assigned it.
            assert len(results) == 60
            assert [r for r in results if not r[1]] == []
            for _latency, _ok, sample, path in results:
                assert path == expected_path[sample.sample_id]

            # Exact split accounting: the counters across both
            # generations sum to the admitted requests, and the observed
            # split is the hash-predicted count exactly.
            metrics = client.metrics()
            generations = metrics["ab"]["default"]["generations"]
            by_role = {g["role"]: g for g in generations.values()}
            assert by_role["challenger"]["requests"] == expected_challenger
            assert by_role["champion"]["requests"] == 60 - expected_challenger
            assert by_role["champion"]["failed"] == 0
            assert by_role["challenger"]["failed"] == 0
            assert metrics["counters"]["ab_challenger_deaths_total"] == 0
            assert metrics["counters"]["worker_deaths_total"] >= 1
            assert metrics["counters"]["worker_respawns_total"] >= 1

            # The generation-1 streaming session commits bit-identically
            # through the kill (sessions always stay on the champion).
            for point in points[len(points) // 2 :]:
                _feed_with_retry(session, point)
            assert session.close() == OnlineLHMM(
                trained_lhmm, lag=3
            ).match_stream(stream_sample.cellular)

            client.abort_ab()
            assert client.health()["ab_live"] == []
        finally:
            server.shutdown()
        assert own.leaked() == []
