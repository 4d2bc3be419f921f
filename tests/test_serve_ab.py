"""Live A/B traffic splitting, end to end, on the gateway.

Two model generations serve simultaneously — the raw-weight champion and
an EMA-weight challenger of the same artifact — with the deterministic
key-hash split from :mod:`repro.serve.ab`.  Every assertion is exact,
never statistical: the expected assignment of each trajectory is
recomputed client-side from its canonical payload, each response is
compared byte-identically against the generation that must have produced
it, and the per-generation ``/metrics`` counters must sum to exactly the
number of admitted trajectories.  ``promote`` atomically makes the
challenger the sole serving generation; ``abort`` drops it without a
trace.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core import LHMM
from repro.datasets import save_dataset
from repro.serve import (
    ClusterConfig,
    ClusterServer,
    MatchingClient,
    ServeClientError,
    ShardRegistry,
    ShardSpec,
    canonical_key,
    routes_to_challenger,
)
from repro.serve import protocol
from repro.serve.shm import leaked_segments


@pytest.fixture(scope="module")
def model_artifact(tmp_path_factory, trained_lhmm):
    path = tmp_path_factory.mktemp("ab") / "model.npz"
    trained_lhmm.save(path)
    return path


@pytest.fixture(scope="module")
def ema_matcher(model_artifact, tiny_dataset):
    """The challenger generation: the artifact's EMA shadow weight set."""
    return LHMM.load(model_artifact, tiny_dataset, weights="ema")


def _assigned(samples, split):
    """Expected challenger assignment per sample — exact, from the key hash."""
    return [
        routes_to_challenger(
            canonical_key(protocol.encode_trajectory(s.cellular)), split
        )
        for s in samples
    ]


def _expect(samples, to_challenger, champion, challenger):
    return [
        protocol.encode_match_result(
            (challenger if hit else champion).match(s.cellular)
        )
        for s, hit in zip(samples, to_challenger)
    ]


def _generation_counters(metrics_ab):
    """``role -> counters`` from one region/server A/B snapshot."""
    return {g["role"]: g for g in metrics_ab["generations"].values()}


@pytest.fixture(scope="module")
def cluster_paths(tmp_path_factory, tiny_dataset, trained_lhmm):
    root = tmp_path_factory.mktemp("ab_cluster")
    dataset_path = root / "tiny.json.gz"
    model_path = root / "model.npz"
    save_dataset(tiny_dataset, dataset_path)
    trained_lhmm.save(model_path)
    return str(dataset_path), str(model_path)


@pytest.fixture()
def cluster(cluster_paths):
    dataset_path, model_path = cluster_paths
    registry = ShardRegistry.publish(
        [ShardSpec(region="default", dataset=dataset_path, model=model_path)]
    )
    server = ClusterServer(
        registry, ClusterConfig(port=0, num_workers=2, cache_size=64)
    )
    with server:
        yield server
    assert leaked_segments() == []


@pytest.fixture()
def cluster_client(cluster):
    return MatchingClient(cluster.host, cluster.port, timeout=60.0)


class TestClusterAB:
    def test_two_generations_serve_simultaneously_then_promote(
        self, cluster_client, trained_lhmm, ema_matcher, tiny_dataset,
        cluster_paths,
    ):
        client = cluster_client
        info = client.start_ab(split=0.5, weights="ema")
        assert info["region"] == "default"
        assert info["champion_generation"] == 1
        assert info["challenger_generation"] == 2
        assert info["challenger_weights"] == "ema"
        assert info["canary_checked"] > 0
        assert client.health()["ab_live"] == ["default"]

        samples = tiny_dataset.samples[:12]
        to_challenger = _assigned(samples, 0.5)
        assert any(to_challenger) and not all(to_challenger)
        served = client.match([s.cellular for s in samples])
        assert served == _expect(samples, to_challenger, trained_lhmm, ema_matcher)

        metrics = client.metrics()
        ab = metrics["ab"]["default"]
        assert ab["split"] == 0.5
        roles = _generation_counters(ab)
        assert roles["challenger"]["requests"] == sum(to_challenger)
        assert (
            roles["champion"]["requests"] + roles["challenger"]["requests"]
            == len(samples)
        )
        assert metrics["counters"]["ab_starts_total"] == 1

        # Promote: the challenger becomes the fleet's sole generation.
        info = client.promote_ab()
        assert info["generation"] == 2
        assert info["workers_swapped"] == 2
        assert info["workers_failed"] == 0
        assert client.health()["ab_live"] == []
        # The same payloads must now come back as the challenger's
        # results for EVERY trajectory — this also proves the response
        # cache was invalidated at the generation swap (a stale champion
        # entry would be bit-different here).
        served = client.match([s.cellular for s in samples])
        assert served == _expect(samples, [True] * len(samples), None, ema_matcher)
        counters = client.metrics()["counters"]
        assert counters["ab_promotions_total"] == 1
        assert counters["ab_challenger_deaths_total"] == 0

    def test_split_is_exact_and_both_generations_bit_identical(
        self, cluster_client, trained_lhmm, ema_matcher, tiny_dataset,
        cluster_paths,
    ):
        client = cluster_client
        info = client.start_ab(split=0.5, weights="ema")
        assert info["champion_generation"] == 1
        assert info["challenger_generation"] == 2
        assert info["challenger_model"] == cluster_paths[1]
        assert info["challenger_weights"] == "ema"
        assert client.health()["ab_live"] == ["default"]

        samples = tiny_dataset.samples[:12]
        to_challenger = _assigned(samples, 0.5)
        assert any(to_challenger) and not all(to_challenger), (
            "fixture corpus must exercise both generations at split=0.5"
        )
        served = client.match([s.cellular for s in samples])
        assert served == _expect(samples, to_challenger, trained_lhmm, ema_matcher)

        ab = client.metrics()["ab"]["default"]
        assert ab["split"] == 0.5
        roles = _generation_counters(ab)
        assert roles["challenger"]["requests"] == sum(to_challenger)
        assert roles["champion"]["requests"] == len(samples) - sum(to_challenger)
        assert roles["champion"]["failed"] == roles["challenger"]["failed"] == 0
        # Exactness of the sum is the no-dropped-requests claim.
        total = roles["champion"]["requests"] + roles["challenger"]["requests"]
        assert total == len(samples)
        client.abort_ab()

    def test_promote_makes_challenger_the_sole_generation(
        self, cluster_client, ema_matcher, tiny_dataset
    ):
        client = cluster_client
        client.start_ab(split=0.3, weights="ema")
        samples = tiny_dataset.samples[:8]
        client.match([s.cellular for s in samples])

        info = client.promote_ab()
        assert info["generation"] == 2
        roles = _generation_counters(info["ab"])
        assert (
            roles["champion"]["requests"] + roles["challenger"]["requests"]
            == len(samples)
        )

        health = client.health()
        assert health["ab_live"] == []
        assert health["generations"]["default"] == 2
        # Every post-promote response is the challenger's, bit-identical.
        served = client.match([s.cellular for s in samples])
        assert served == _expect(samples, [True] * len(samples), None, ema_matcher)
        metrics = client.metrics()
        assert metrics["counters"]["ab_promotions_total"] == 1
        assert "ab" not in metrics

    def test_abort_restores_the_champion_untouched(
        self, cluster_client, trained_lhmm, tiny_dataset
    ):
        client = cluster_client
        client.start_ab(split=0.9, weights="ema")
        info = client.abort_ab()
        assert info["generation"] == 1
        samples = tiny_dataset.samples[:6]
        served = client.match([s.cellular for s in samples])
        assert served == _expect(samples, [False] * len(samples), trained_lhmm, None)
        assert client.health()["generations"]["default"] == 1
        assert client.metrics()["counters"]["ab_aborts_total"] == 1

    def test_lifecycle_refusals(self, cluster_client):
        client = cluster_client
        with pytest.raises(ServeClientError) as excinfo:
            client.promote_ab()
        assert excinfo.value.status == 409
        with pytest.raises(ServeClientError) as excinfo:
            client.abort_ab()
        assert excinfo.value.status == 409

        client.start_ab(split=0.5)
        with pytest.raises(ServeClientError) as excinfo:
            client.start_ab(split=0.2, weights="ema")
        assert excinfo.value.status == 409
        # A refused start leaves the live test exactly as it was.
        ab = client.metrics()["ab"]["default"]
        assert ab["split"] == 0.5
        assert ab["challenger_weights"] != "ema"
        assert client.metrics()["counters"]["ab_starts_total"] == 1
        client.abort_ab()

    def test_abort_drops_the_challenger_without_a_trace(
        self, cluster_client, trained_lhmm, tiny_dataset
    ):
        client = cluster_client
        client.start_ab(split=0.9, weights="ema")
        info = client.abort_ab()
        assert info["region"] == "default"
        assert info["generation"] == 1
        assert client.health()["ab_live"] == []
        samples = tiny_dataset.samples[:6]
        served = client.match([s.cellular for s in samples])
        assert served == _expect(samples, [False] * len(samples), trained_lhmm, None)
        snapshot = client.metrics()
        assert snapshot["counters"]["ab_aborts_total"] == 1
        assert "ab" not in snapshot

    def test_refusals_and_rollout_mutual_exclusion(
        self, cluster_client, cluster_paths
    ):
        client = cluster_client
        _, model_path = cluster_paths
        with pytest.raises(ServeClientError) as excinfo:
            client.promote_ab()
        assert excinfo.value.status == 409
        with pytest.raises(ServeClientError) as excinfo:
            client.abort_ab()
        assert excinfo.value.status == 409

        client.start_ab(split=0.25)
        with pytest.raises(ServeClientError) as excinfo:
            client.start_ab(split=0.25)
        assert excinfo.value.status == 409
        # Rollouts and A/B tests both retarget the fleet; never both.
        with pytest.raises(ServeClientError) as excinfo:
            client.rollout(model=model_path)
        assert excinfo.value.status == 409
        client.abort_ab()
        # With the test resolved, the rollout path is free again.
        info = client.rollout(model=model_path)
        assert info["workers_failed"] == 0

    def test_challenger_death_fails_over_to_the_champion(
        self, cluster, cluster_client, trained_lhmm, tiny_dataset
    ):
        """SIGKILL the challenger worker: traffic keeps flowing, counters
        keep summing, and every response is the champion's bit-identical
        answer."""
        client = cluster_client
        client.start_ab(split=1.0, weights="ema")  # all traffic on the challenger
        record = cluster._ab["default"]
        os.kill(record.handle.process.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while record.handle.alive and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not record.handle.alive

        samples = tiny_dataset.samples[:8]
        served = client.match([s.cellular for s in samples])
        assert served == _expect(samples, [False] * len(samples), trained_lhmm, None)

        metrics = client.metrics()
        assert metrics["counters"]["ab_challenger_deaths_total"] == 1
        roles = _generation_counters(metrics["ab"]["default"])
        # Failover accounting: every admitted trajectory landed on the
        # champion, none vanished.
        assert roles["champion"]["requests"] == len(samples)
        assert roles["challenger"]["requests"] == 0
        client.abort_ab()

    @pytest.mark.parametrize("split", [0, -0.5, 1.5, "half", True])
    def test_invalid_split_is_rejected(self, cluster_client, split):
        with pytest.raises(ServeClientError) as excinfo:
            cluster_client.start_ab(split=split)
        assert excinfo.value.status == 400
        assert cluster_client.health()["ab_live"] == []

    def test_invalid_weights_is_rejected(self, cluster_client):
        with pytest.raises(ServeClientError) as excinfo:
            cluster_client.start_ab(weights="fp16")
        assert excinfo.value.status == 400
        assert cluster_client.health()["ab_live"] == []
