"""End-to-end tests for the sharded cluster serving tier.

One module-scoped cluster (gateway + 2 forked workers over shared-memory
artifacts, two regions served from the same tiny city) backs most tests;
lifecycle-sensitive tests (drain, session handoff plumbing) boot their
own short-lived cluster.  The central assertion everywhere: responses
through the gateway are byte-identical to direct ``LHMM`` /
``OnlineLHMM`` calls — the cluster is a deployment shape, not a
different matcher.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import pytest

from repro.core import LHMM, OnlineLHMM
from repro.datasets import save_dataset
from repro.serve import (
    ClusterConfig,
    ClusterServer,
    MatchingClient,
    ServeClientError,
    ShardRegistry,
    ShardSpec,
)
from repro.serve import protocol
from tests.conftest import OwnSegments


@pytest.fixture(scope="module")
def cluster_paths(tmp_path_factory, tiny_dataset, trained_lhmm):
    root = tmp_path_factory.mktemp("cluster")
    dataset_path = root / "tiny.json.gz"
    model_path = root / "model.npz"
    save_dataset(tiny_dataset, dataset_path)
    trained_lhmm.save(model_path)
    return str(dataset_path), str(model_path)


def _specs(cluster_paths, regions=("default",)):
    dataset_path, model_path = cluster_paths
    return [
        ShardSpec(region=region, dataset=dataset_path, model=model_path)
        for region in regions
    ]


@pytest.fixture(scope="module")
def cluster(cluster_paths):
    own = OwnSegments()
    registry = ShardRegistry.publish(
        _specs(cluster_paths, regions=("default", "uptown"))
    )
    server = ClusterServer(
        registry,
        ClusterConfig(port=0, num_workers=2, cache_size=64, session_ttl_s=60.0),
    )
    with server:
        yield server
    assert own.leaked() == []


@pytest.fixture()
def client(cluster):
    return MatchingClient(cluster.host, cluster.port, timeout=60.0)


class TestBatchMatching:
    def test_results_byte_identical_to_direct_call(
        self, cluster, client, trained_lhmm, tiny_dataset
    ):
        samples = tiny_dataset.samples[:6]
        served = client.match([s.cellular for s in samples])
        for sample, got in zip(samples, served):
            expected = protocol.encode_match_result(trained_lhmm.match(sample.cellular))
            # Full structural equality — path, matched_sequence, score,
            # provenance — after one JSON round-trip, which is exact for
            # doubles.  This is the byte-identity claim.
            assert got == expected

    def test_single_points_form(self, client, trained_lhmm, tiny_dataset):
        sample = tiny_dataset.samples[7]
        results = client.match(sample.cellular)
        assert results[0]["path"] == trained_lhmm.match(sample.cellular).path

    def test_second_region_serves_identically(
        self, client, trained_lhmm, tiny_dataset
    ):
        sample = tiny_dataset.samples[3]
        default_result = client.match([sample.cellular])
        uptown_result = client.match([sample.cellular], region="uptown")
        assert uptown_result == default_result
        assert uptown_result[0]["path"] == trained_lhmm.match(sample.cellular).path

    def test_unknown_region_is_404(self, client, tiny_dataset):
        with pytest.raises(ServeClientError) as excinfo:
            client.match([tiny_dataset.samples[0].cellular], region="atlantis")
        assert excinfo.value.status == 404
        assert excinfo.value.payload.get("code") == "unknown_region"

    def test_cache_serves_repeats_identically(self, client, tiny_dataset):
        sample = tiny_dataset.samples[9]
        first = client.match([sample.cellular])
        before = client.metrics()["counters"].get("cache_hits_total", 0)
        again = client.match([sample.cellular])
        after = client.metrics()["counters"].get("cache_hits_total", 0)
        assert again == first
        assert after > before

    def test_malformed_body_is_400(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.match([[{"x": "not-a-number", "y": 0, "t": 0}]])
        assert excinfo.value.status == 400

    def test_empty_trajectory_list_is_400(self, cluster):
        import http.client

        conn = http.client.HTTPConnection(cluster.host, cluster.port, timeout=30)
        conn.request(
            "POST", "/v1/match", body=b'{"trajectories": []}',
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 400
        response.read()
        conn.close()

    def test_concurrent_clients_all_get_correct_paths(
        self, cluster, trained_lhmm, tiny_dataset
    ):
        samples = tiny_dataset.samples[:8]
        expected = {
            s.sample_id: trained_lhmm.match(s.cellular).path for s in samples
        }
        failures = []

        def worker(sample):
            local = MatchingClient(cluster.host, cluster.port, timeout=60.0)
            try:
                results = local.match([sample.cellular])
                if results[0]["path"] != expected[sample.sample_id]:
                    failures.append(sample.sample_id)
            except Exception as error:  # noqa: BLE001
                failures.append((sample.sample_id, repr(error)))

        threads = [threading.Thread(target=worker, args=(s,)) for s in samples]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert failures == []


class TestStreamingSessions:
    def test_stream_matches_online_decoder(
        self, client, trained_lhmm, tiny_dataset
    ):
        sample = tiny_dataset.samples[11]
        session = client.create_session(lag=3)
        for point in sample.cellular.points:
            session.feed(point)
        path = session.close()
        assert path == OnlineLHMM(trained_lhmm, lag=3).match_stream(sample.cellular)

    def test_sessions_on_both_regions(self, client, trained_lhmm, tiny_dataset):
        sample = tiny_dataset.samples[12]
        for region in ("default", "uptown"):
            session = client.create_session(lag=4, region=region)
            for point in sample.cellular.points:
                session.feed(point)
            assert session.close() == OnlineLHMM(
                trained_lhmm, lag=4
            ).match_stream(sample.cellular)

    def test_unknown_session_is_404(self, client, tiny_dataset):
        with pytest.raises(ServeClientError) as excinfo:
            client.feed_points("nope-1234", [tiny_dataset.samples[0].cellular.points[0]])
        assert excinfo.value.status == 404

    def test_sessions_are_sticky_across_feeds(self, client, cluster, tiny_dataset):
        """All feeds of one session land on the consistent-hash owner."""
        sample = tiny_dataset.samples[13]
        session = client.create_session(lag=3)
        record = cluster._records[session.session_id]
        owner = cluster._ring.route(session.session_id)
        assert record.worker_name == owner
        for point in sample.cellular.points[:5]:
            session.feed(point)
        assert cluster._records[session.session_id].worker_name == owner
        session.close()

    def test_client_rotates_to_fallback_target(self, cluster, tiny_dataset):
        """A dead primary plus a live fallback still serves session traffic."""
        with socket.socket() as probe:  # bound then released: nothing listens
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        client = MatchingClient(
            "127.0.0.1", dead_port,
            timeout=30.0,
            fallbacks=[(cluster.host, cluster.port)],
            failover_deadline_s=15.0,
        )
        session = client.create_session(lag=3)
        session.feed(tiny_dataset.samples[0].cellular.points[0])
        assert isinstance(session.close(), list)


class TestObservability:
    def test_healthz_shape(self, client):
        health = client.health()
        assert health["status"] in ("ok", "degraded")
        assert health["mode"] == "cluster"
        assert health["workers_alive"] >= 1
        assert set(health["regions"]) == {"default", "uptown"}

    def test_metrics_reports_workers_shards_cache(self, client):
        snapshot = client.metrics()
        assert len(snapshot["workers"]) == 2
        for worker in snapshot["workers"]:
            assert worker["name"].startswith("w")
            if worker["alive"]:
                assert worker["memory"]["rss_kb"] > 0
        assert set(snapshot["shards"]) == {"default", "uptown"}
        assert snapshot["shared_artifact_bytes"] > 0
        assert snapshot["cache"]["capacity"] == 64
        # Both regions publish their own segment; the segments differ.
        segments = {s["segment"] for s in snapshot["shards"].values()}
        assert len(segments) == 2


class TestLifecycle:
    def test_drain_commits_open_sessions_and_unlinks(
        self, cluster_paths, trained_lhmm, tiny_dataset
    ):
        own = OwnSegments()
        registry = ShardRegistry.publish(_specs(cluster_paths))
        server = ClusterServer(
            registry, ClusterConfig(port=0, num_workers=1, cache_size=0)
        ).start()
        client = MatchingClient(server.host, server.port, timeout=60.0)
        sample = tiny_dataset.samples[2]
        session = client.create_session(lag=3)
        for point in sample.cellular.points[:4]:
            session.feed(point)
        summary = server.shutdown()
        # The drain finalised the open session deterministically: its
        # committed path equals a full offline fixed-lag decode of the
        # points fed so far.
        assert session.session_id in summary["sessions"]
        decoder = OnlineLHMM(trained_lhmm, lag=3)
        for point in sample.cellular.points[:4]:
            decoder.add_point(point)
        assert summary["sessions"][session.session_id] == decoder.finish()
        # This cluster's segments are gone (the module cluster's remain).
        assert own.leaked() == []

    def test_shutdown_is_idempotent(self, cluster_paths):
        own = OwnSegments()
        registry = ShardRegistry.publish(_specs(cluster_paths))
        server = ClusterServer(
            registry, ClusterConfig(port=0, num_workers=1)
        ).start()
        server.shutdown()
        server.shutdown()  # second call must not raise
        assert own.leaked() == []

    def test_worker_survives_respawn_roundtrip(
        self, cluster_paths, trained_lhmm, tiny_dataset
    ):
        """Kill one worker; the supervisor respawns it and serving resumes."""
        own = OwnSegments()
        server = ClusterServer(
            ShardRegistry.publish(_specs(cluster_paths)),
            ClusterConfig(port=0, num_workers=2, cache_size=0),
        ).start()
        try:
            victim = server._handles["w0"]
            os.kill(victim.process.pid, signal.SIGKILL)
            client = MatchingClient(server.host, server.port, timeout=60.0)
            sample = tiny_dataset.samples[6]
            result = client.match_with_retry([sample.cellular], base_delay_s=0.2)
            assert result[0]["path"] == trained_lhmm.match(sample.cellular).path
            deadline = time.monotonic() + 30
            while True:
                health = client.health()
                if health["respawns_used"] >= 1 and health["workers_alive"] == 2:
                    break
                assert time.monotonic() < deadline, f"no respawn: {health}"
                time.sleep(0.05)
            assert server._handles["w0"].generation == victim.generation + 1
        finally:
            server.shutdown()
        assert own.leaked() == []

    def test_port_zero_resolves(self, cluster):
        assert cluster.port != 0
        assert cluster.address == f"http://{cluster.host}:{cluster.port}"


class TestRegistryValidation:
    def test_missing_model_fails_at_publish(self, cluster_paths, tmp_path):
        dataset_path, _ = cluster_paths
        with pytest.raises(FileNotFoundError):
            ShardRegistry.publish(
                [ShardSpec(region="default", dataset=dataset_path,
                           model=str(tmp_path / "missing.npz"))]
            )

    def test_duplicate_region_rejected(self, cluster_paths):
        with pytest.raises(ValueError, match="duplicate region"):
            ShardRegistry.publish(_specs(cluster_paths, regions=("a", "a")))

    def test_bad_region_name_rejected(self, cluster_paths):
        dataset_path, model_path = cluster_paths
        with pytest.raises(ValueError, match="invalid region"):
            ShardSpec(region="a/b", dataset=dataset_path, model=model_path)
