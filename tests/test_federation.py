"""Federated multi-host serving: TCP transport, routing, replication, fencing.

Two layers under test:

* :mod:`repro.serve.transport` — fenced handshakes and the
  heartbeat-guarded :class:`PeerLink` (pure asyncio, no cluster);
* :mod:`repro.serve.federation` — two in-process gateways, each owning
  one region, proxying/redirecting misrouted requests, replicating
  session journals, and adopting sessions across a simulated partition
  with fencing (the adopted copy commits the bit-identical path; the
  superseded owner gets 409).

The real-kill versions of the failover scenarios (SIGKILL, SIGSTOP,
frame-dropping proxy) live in ``tests/test_chaos_federation.py``.
"""

from __future__ import annotations

import asyncio
import socket
import time

import pytest

from repro.core import LHMM, OnlineLHMM
from repro.datasets import save_dataset
from repro.serve import (
    ClusterConfig,
    ClusterServer,
    FederationConfig,
    MatchingClient,
    PeerSpec,
    ServeClientError,
    ServeRedirect,
    ServerBusy,
    ShardRegistry,
    ShardSpec,
)
from repro.serve import protocol
from repro.serve.transport import (
    FenceRegistry,
    FrameListener,
    PeerLink,
    TransportConfig,
    backoff_delays,
)
from tests.conftest import OwnSegments

FAST = TransportConfig(
    connect_timeout_s=2.0,
    handshake_timeout_s=2.0,
    heartbeat_interval_s=0.1,
    heartbeat_timeout_s=0.5,
    backoff_base_s=0.05,
    backoff_max_s=0.2,
)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _wait_for(predicate, timeout=15.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def _submit(server: ClusterServer, coro):
    """Run a coroutine on a running cluster's event loop from the test."""
    return asyncio.run_coroutine_threadsafe(coro, server._loop).result(timeout=15)


# --------------------------------------------------------------------------
# Transport primitives
# --------------------------------------------------------------------------
class TestFenceRegistry:
    def test_monotonic_admission(self):
        fences = FenceRegistry()
        assert fences.admit("node", 5)
        assert fences.admit("node", 5)  # equal generations may reconnect
        assert not fences.admit("node", 4)
        assert fences.admit("node", 6)
        assert fences.current("node") == 6
        assert fences.current("unseen") is None

    def test_names_are_independent(self):
        fences = FenceRegistry()
        assert fences.admit("a", 9)
        assert fences.admit("b", 1)


class TestPeerSpec:
    def test_parse_roundtrip(self):
        spec = PeerSpec.parse("gw-east=10.0.0.7:9301")
        assert (spec.name, spec.host, spec.port) == ("gw-east", "10.0.0.7", 9301)

    @pytest.mark.parametrize(
        "bad", ["gw-east", "gw-east=10.0.0.7", "=host:1", "gw=:1", "gw=h:nope"]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            PeerSpec.parse(bad)


def test_backoff_delays_cap():
    gen = backoff_delays(0.2, 1.0)
    assert [next(gen) for _ in range(5)] == [0.2, 0.4, 0.8, 1.0, 1.0]


class TestPeerLink:
    def test_call_heartbeat_timeout_and_reconnect(self):
        """A peer that stops answering trips the heartbeat; recovery reconnects."""

        async def main():
            mute = False
            transitions: list[str] = []

            async def handler(message):
                if mute:
                    return None  # swallow everything: half-open simulation
                return {"id": message.get("id"), "ok": True, "echo": message.get("op")}

            async def on_hello(payload, reader, writer):
                return ("serve", {"ok": True, "node": "gw"}, handler)

            listener = FrameListener(on_hello, config=FAST)
            await listener.start()

            async def up(link, ack):
                transitions.append("up")

            async def down(link):
                transitions.append("down")

            link = PeerLink(
                "gw", listener.host, listener.port, lambda: {"node": "me"},
                config=FAST, on_up=up, on_down=down,
            )
            link.start()

            async def wait(predicate, what):
                deadline = asyncio.get_running_loop().time() + 10
                while not predicate():
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError(f"timed out waiting for {what}")
                    await asyncio.sleep(0.02)

            await wait(lambda: link.up, "link up")
            reply = await link.call({"op": "work"}, timeout=2)
            assert reply["echo"] == "work"

            mute = True  # heartbeats now go unanswered -> timeout -> down
            await wait(lambda: not link.up, "heartbeat-timeout detection")
            with pytest.raises(Exception):
                await link.call({"op": "work"}, timeout=0.2)

            mute = False  # and the backoff loop re-establishes the link
            await wait(lambda: link.up and link.connects >= 2, "reconnect")
            assert (await link.call({"op": "again"}, timeout=2))["echo"] == "again"
            assert transitions[:2] == ["up", "down"]

            await link.stop()
            await listener.stop()

        asyncio.run(main())

    def test_fenced_hello_stops_link_permanently(self):
        async def main():
            fences = FenceRegistry()
            fences.admit("me", 10)  # a newer incarnation already registered

            async def on_hello(payload, reader, writer):
                if not fences.admit(payload["node"], payload["epoch"]):
                    return ("reject", {
                        "ok": False,
                        "error": {"code": "stale_epoch", "message": "superseded"},
                    })
                return ("serve", {"ok": True}, None)

            listener = FrameListener(on_hello, config=FAST)
            await listener.start()
            link = PeerLink(
                "gw", listener.host, listener.port,
                lambda: {"node": "me", "epoch": 3}, config=FAST,
            )
            link.start()
            deadline = asyncio.get_running_loop().time() + 10
            while not link.rejected:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            assert not link.up
            await link.stop()
            await listener.stop()

        asyncio.run(main())


# --------------------------------------------------------------------------
# Cluster fixtures
# --------------------------------------------------------------------------
@pytest.fixture(scope="module")
def cluster_paths(tmp_path_factory, tiny_dataset, trained_lhmm):
    root = tmp_path_factory.mktemp("federation")
    dataset_path = root / "tiny.json.gz"
    model_path = root / "model.npz"
    save_dataset(tiny_dataset, dataset_path)
    trained_lhmm.save(model_path)
    return str(dataset_path), str(model_path)


def _specs(cluster_paths, regions):
    dataset_path, model_path = cluster_paths
    return [
        ShardSpec(region=region, dataset=dataset_path, model=model_path)
        for region in regions
    ]


def test_parse_location_splits_host_port_path():
    host, port, path = MatchingClient._parse_location(
        "http://10.1.2.3:8443/v1/match?region=east", "/fallback"
    )
    assert (host, port, path) == ("10.1.2.3", 8443, "/v1/match?region=east")
    host, port, path = MatchingClient._parse_location("http://gw.example", "/x")
    assert (host, port, path) == ("gw.example", 80, "/x")


# --------------------------------------------------------------------------
# Two federated gateways (A proxies, B redirects)
# --------------------------------------------------------------------------
def _federation_config(node, port, peer_name, peer_port, route_mode):
    return FederationConfig(
        node=node,
        listen_port=port,
        peers=(PeerSpec(peer_name, "127.0.0.1", peer_port),),
        heartbeat_interval_s=0.2,
        heartbeat_timeout_s=1.0,
        connect_timeout_s=2.0,
        backoff_base_s=0.05,
        backoff_max_s=0.5,
        route_mode=route_mode,
        replication_timeout_s=5.0,
    )


def _boot_pair(cluster_paths, regions_a, regions_b, route_a="proxy", route_b="proxy"):
    port_a, port_b = _free_port(), _free_port()
    server_a = ClusterServer(
        ShardRegistry.publish(_specs(cluster_paths, regions_a)),
        ClusterConfig(
            port=0, num_workers=1, cache_size=0, session_ttl_s=60.0,
            federation=_federation_config("node-a", port_a, "node-b", port_b, route_a),
        ),
    )
    server_b = ClusterServer(
        ShardRegistry.publish(_specs(cluster_paths, regions_b)),
        ClusterConfig(
            port=0, num_workers=1, cache_size=0, session_ttl_s=60.0,
            federation=_federation_config("node-b", port_b, "node-a", port_a, route_b),
        ),
    )
    server_a.start()
    server_b.start()
    _wait_for(
        lambda: server_a._fed.peer_up(server_a._fed._peers["node-b"])
        and server_b._fed.peer_up(server_b._fed._peers["node-a"])
        and server_a._fed._peers["node-b"].regions
        and server_b._fed._peers["node-a"].regions,
        message="federation links up with adverts exchanged",
    )
    return server_a, server_b


@pytest.fixture(scope="module")
def federation_pair(cluster_paths):
    own = OwnSegments()
    pair = _boot_pair(
        cluster_paths, ("default",), ("uptown",), route_a="proxy", route_b="redirect"
    )
    yield pair
    pair[1].shutdown()
    pair[0].shutdown()
    assert own.leaked() == []


class TestFederatedRouting:
    def test_proxied_match_is_byte_identical(
        self, federation_pair, trained_lhmm, tiny_dataset
    ):
        server_a, _ = federation_pair
        client = MatchingClient(server_a.host, server_a.port, timeout=60.0)
        sample = tiny_dataset.samples[2]
        # "uptown" lives on node-b; node-a proxies over the peer link.
        served = client.match([sample.cellular], region="uptown")
        expected = protocol.encode_match_result(trained_lhmm.match(sample.cellular))
        assert served[0] == expected
        counters = client.metrics()["counters"]
        assert counters["fed_proxied_matches_total"] >= 1

    def test_redirect_mode_sends_307_and_client_follows(
        self, federation_pair, trained_lhmm, tiny_dataset
    ):
        server_a, server_b = federation_pair
        sample = tiny_dataset.samples[3]
        client = MatchingClient(server_b.host, server_b.port, timeout=60.0)
        with pytest.raises(ServeRedirect) as excinfo:
            client.match([sample.cellular], region="default")
        assert f":{server_a.port}" in excinfo.value.location
        followed = client.match_with_retry([sample.cellular], region="default")
        expected = protocol.encode_match_result(trained_lhmm.match(sample.cellular))
        assert followed[0] == expected

    def test_session_on_wrong_gateway_redirects_and_client_follows(
        self, federation_pair, trained_lhmm, tiny_dataset
    ):
        server_a, server_b = federation_pair
        sample = tiny_dataset.samples[4]
        # Sessions always redirect to the owner (stickiness); the client's
        # failover path follows the 307 transparently.
        client = MatchingClient(server_b.host, server_b.port, timeout=60.0)
        session = client.create_session(lag=3, region="default")
        assert client.host == server_a.host and client.port == server_a.port
        for point in sample.cellular.points:
            session.feed(point)
        assert session.close() == OnlineLHMM(trained_lhmm, lag=3).match_stream(
            sample.cellular
        )

    def test_unknown_region_anywhere_is_404(self, federation_pair, tiny_dataset):
        server_a, _ = federation_pair
        client = MatchingClient(server_a.host, server_a.port, timeout=30.0)
        with pytest.raises(ServeClientError) as excinfo:
            client.match([tiny_dataset.samples[0].cellular], region="atlantis")
        assert excinfo.value.status == 404

    def test_healthz_and_metrics_surface_federation(self, federation_pair):
        server_a, _ = federation_pair
        client = MatchingClient(server_a.host, server_a.port, timeout=30.0)
        health = client.health()
        assert health["status"] == "ok"
        fed = health["federation"]
        assert fed["node"] == "node-a"
        assert fed["partitioned"] == []
        assert fed["peers"]["node-b"]["up"] is True
        assert fed["peers"]["node-b"]["regions"] == ["uptown"]
        snapshot = client.metrics()
        assert snapshot["federation"]["node"] == "node-a"
        assert "fed_replications_total" in snapshot["counters"]


class TestFederatedReplication:
    def test_session_journal_ships_to_replica_peer(
        self, federation_pair, tiny_dataset
    ):
        server_a, server_b = federation_pair
        client = MatchingClient(server_a.host, server_a.port, timeout=60.0)
        sample = tiny_dataset.samples[8]
        session = client.create_session(lag=3, region="default")
        sid = session.session_id
        for point in sample.cellular.points[:6]:
            session.feed(point)
        # Replication is semi-synchronous: by the time a feed's HTTP
        # response lands, the replica holds the same journal prefix.
        replica = server_b._fed._replicas[sid]
        assert replica.owner == "node-a"
        assert len(replica.journal) == 6
        assert replica.last_seq == server_a._records[sid].last_seq
        session.close()
        _wait_for(
            lambda: sid not in server_b._fed._replicas,
            message="replica dropped after commit",
        )

    def test_duplicate_seq_replays_committed_state(
        self, federation_pair, tiny_dataset
    ):
        server_a, _ = federation_pair
        client = MatchingClient(server_a.host, server_a.port, timeout=60.0)
        sample = tiny_dataset.samples[9]
        session = client.create_session(lag=3, region="default")
        sid = session.session_id
        first = client.feed_points(sid, [sample.cellular.points[0]], seq=0)
        before = client.metrics()["counters"].get("feed_duplicates_total", 0)
        again = client.feed_points(sid, [sample.cellular.points[0]], seq=0)
        assert again == first  # the retry did not feed the point twice
        assert client.metrics()["counters"]["feed_duplicates_total"] == before + 1
        assert len(server_a._records[sid].journal) == 1
        client.close_session(sid)


# --------------------------------------------------------------------------
# Partition, adoption, fencing (single-process simulation; chaos suite
# re-proves this with real SIGKILL/SIGSTOP in separate processes)
# --------------------------------------------------------------------------
@pytest.fixture()
def failover_pair(cluster_paths):
    # Both nodes serve "default" (so either can own a failed-over session);
    # only node-a serves "uptown" (so its loss partitions that region).
    own = OwnSegments()
    pair = _boot_pair(cluster_paths, ("default", "uptown"), ("default",))
    yield pair
    pair[1].shutdown()
    pair[0].shutdown()
    assert own.leaked() == []


class TestPartitionFailover:
    def test_adoption_replays_bit_identically_and_fences_the_old_owner(
        self, failover_pair, trained_lhmm, tiny_dataset
    ):
        server_a, server_b = failover_pair
        client_a = MatchingClient(server_a.host, server_a.port, timeout=60.0)
        client_b = MatchingClient(server_b.host, server_b.port, timeout=60.0)
        sample = tiny_dataset.samples[10]
        points = sample.cellular.points
        half = len(points) // 2

        sid = client_a.create_session(lag=3, region="default").session_id
        for seq, point in enumerate(points[:half]):
            client_a.feed_points(sid, [point], seq=seq)
        assert len(server_b._fed._replicas[sid].journal) == half

        # Partition node-a away *from node-b's view only*: node-b's link
        # drops and stays down, while node-a can still reach node-b (the
        # asymmetric half-open case fencing exists for).
        _submit(server_b, server_b._fed._peers["node-a"].link.stop())
        _wait_for(
            lambda: not server_b._fed.peer_up(server_b._fed._peers["node-a"]),
            message="node-b marking node-a down",
        )

        # node-a's exclusive region degrades on node-b: 503 + Retry-After,
        # never a hang.
        with pytest.raises(ServerBusy) as excinfo:
            client_b.match([points], region="uptown")
        assert excinfo.value.payload["code"] == "region_partitioned"
        assert excinfo.value.retry_after_s > 0
        health = client_b.health()
        assert health["status"] == "degraded"
        assert health["federation"]["partitioned"] == ["node-a"]

        # The client fails over to node-b, which adopts from its replica
        # journal and continues the stream.
        for seq, point in enumerate(points[half:], start=half):
            client_b.feed_points(sid, [point], seq=seq)
        assert client_b.metrics()["counters"]["fed_adoptions_total"] == 1

        # The superseded owner must never commit: its close is fenced
        # through its (still-live) link to node-b.
        with pytest.raises(ServeClientError) as fenced:
            client_a.close_session(sid)
        assert fenced.value.status == 409
        assert fenced.value.payload["code"] == "session_fenced"
        assert sid not in server_a._records

        # Exactly one commit, bit-identical to the uninterrupted decode.
        closed = client_b.close_session(sid)
        expected = OnlineLHMM(trained_lhmm, lag=3).match_stream(sample.cellular)
        assert closed["path"] == expected
        assert client_a.metrics()["counters"]["fed_fenced_total"] >= 1
