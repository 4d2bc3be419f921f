"""Federation chaos tests: two real gateways under partition-grade fire.

Every scenario drives two ``python -m repro serve --cluster`` processes
joined into a federation through the real CLI flags, then breaks the
world the way ``docs/robustness.md`` promises to absorb:

* **SIGSTOP half-open** — a stopped peer answers nothing but its TCP
  stays open; the transport heartbeat must trip within its timeout, the
  survivor must answer for the lost peer's regions with bounded-time
  ``503`` + ``Retry-After``, and SIGCONT must heal the link;
* **SIGKILL mid-stream** — the session owner dies with no warning; the
  client fails over to the replica gateway, which adopts the journal and
  commits a path bit-identical to an uninterrupted decode, and the dead
  owner's shared-memory segments vanish;
* **frame-dropping proxy** — an asymmetric partition (B cannot hear A,
  A can hear B) lets both sides believe they own one session; the
  fencing tokens must ensure **exactly one commit** — the superseded
  owner's close is answered 409, never silently doubled.

Excluded from the default suite; run with ``pytest -m chaos -k
federation`` (CI does, as a blocking step, uploading both gateways'
control journals on failure).
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from queue import Empty, Queue

import pytest

from repro.core import OnlineLHMM
from repro.datasets import save_dataset
from repro.serve import MatchingClient, ServeClientError, ServerBusy
from repro.serve import protocol
from repro.serve.shm import leaked_segments
from repro.testing import faults

pytestmark = pytest.mark.chaos

#: Where the gateways' control journals land (CI uploads these on failure).
JOURNAL_DIR = os.environ.get("REPRO_FED_JOURNAL_DIR")


@pytest.fixture(scope="module")
def cluster_paths(tmp_path_factory, trained_lhmm, tiny_dataset):
    root = tmp_path_factory.mktemp("federation-chaos")
    model_path = root / "model.npz"
    dataset_path = root / "tiny.json.gz"
    trained_lhmm.save(model_path)
    save_dataset(tiny_dataset, dataset_path)
    return str(dataset_path), str(model_path)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _journal_path(tmp_path, node: str) -> str:
    root = Path(JOURNAL_DIR) if JOURNAL_DIR else tmp_path
    root.mkdir(parents=True, exist_ok=True)
    return str(root / f"fed_journal_{node}.jsonl")


class Gateway:
    """One ``repro serve --cluster`` subprocess joined to the federation."""

    def __init__(
        self,
        node: str,
        cluster_paths,
        tmp_path,
        *,
        regions,
        fed_port: int,
        peers,
        route_mode: str = "proxy",
    ) -> None:
        dataset_path, model_path = cluster_paths
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        env.pop(faults.ENV_VAR, None)
        env.pop("REPRO_CLUSTER_JOURNAL", None)
        cmd = [
            sys.executable, "-u", "-m", "repro", "serve", "--cluster",
            "--workers", "1", "--port", "0", "--cache-size", "0",
            "--node", node, "--fed-port", str(fed_port),
            "--fed-heartbeat", "0.2", "--fed-heartbeat-timeout", "1.0",
            "--route-mode", route_mode,
            "--journal", _journal_path(tmp_path, node),
        ]
        for region in regions:
            cmd += ["--region", f"{region}={dataset_path}:{model_path}"]
        for peer in peers:
            cmd += ["--peer", peer]
        self.node = node
        self.fed_port = fed_port
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self.lines: Queue = Queue()
        threading.Thread(
            target=lambda: [self.lines.put(l) for l in self.proc.stdout],
            daemon=True,
        ).start()
        self.host = ""
        self.port = 0

    def await_address(self, timeout_s: float = 120.0) -> None:
        deadline = time.monotonic() + timeout_s
        while not self.port:
            assert self.proc.poll() is None, f"{self.node} died during startup"
            try:
                line = self.lines.get(timeout=max(0.1, deadline - time.monotonic()))
            except Empty:
                pytest.fail(f"{self.node} never announced its address")
            matched = re.search(r"cluster gateway at http://([\d.]+):(\d+)", line)
            if matched:
                self.host, self.port = matched.group(1), int(matched.group(2))

    def client(self, **kwargs) -> MatchingClient:
        return MatchingClient(self.host, self.port, timeout=60.0, **kwargs)

    def kill(self, sig=signal.SIGKILL) -> None:
        if self.proc.poll() is None:
            os.kill(self.proc.pid, sig)

    def cleanup(self) -> None:
        if self.proc.poll() is None:
            try:  # it may be SIGSTOPped: resume so SIGKILL can land
                os.kill(self.proc.pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
            self.proc.kill()
            self.proc.wait(timeout=15)


def _await(predicate, timeout_s: float = 60.0, message: str = "condition"):
    deadline = time.monotonic() + timeout_s
    while True:
        value = predicate()
        if value:
            return value
        assert time.monotonic() < deadline, f"timed out waiting for {message}"
        time.sleep(0.1)


def _peers_up(client: MatchingClient) -> bool:
    try:
        fed = client.health()["federation"]
    except Exception:  # noqa: BLE001 - gateway still booting
        return False
    return bool(fed["peers"]) and all(
        p["up"] and p["regions"] for p in fed["peers"].values()
    )


def _feed_failover(client, sid, point, seq, attempts: int = 60):
    """Feed one point, riding out 503/404 while failover converges."""
    for attempt in range(attempts):
        try:
            return client.feed_points(sid, [point], seq=seq)
        except (ServeClientError, ConnectionError, TimeoutError) as error:
            if isinstance(error, ServeClientError) and error.status not in (
                503, 404,
            ):
                raise
            if attempt == attempts - 1:
                raise
            time.sleep(0.25)


class FrameDropProxy:
    """A TCP forwarder that can silently eat bytes in both directions.

    While ``forwarding`` is False every byte is read and discarded but
    both sockets stay open — exactly the half-open shape a lossy link or
    a wedged middlebox produces, which only application heartbeats can
    detect.
    """

    def __init__(self, target_host: str, target_port: int) -> None:
        self.target = (target_host, target_port)
        self.forwarding = True
        self._server = socket.socket()
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind(("127.0.0.1", 0))
        self._server.listen(16)
        self.port = self._server.getsockname()[1]
        self._closing = False
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                downstream, _ = self._server.accept()
            except OSError:
                return
            try:
                upstream = socket.create_connection(self.target, timeout=5)
            except OSError:
                downstream.close()
                continue
            for src, dst in ((downstream, upstream), (upstream, downstream)):
                threading.Thread(
                    target=self._pump, args=(src, dst), daemon=True
                ).start()

    def _pump(self, src: socket.socket, dst: socket.socket) -> None:
        try:
            while True:
                data = src.recv(65536)
                if not data:
                    break
                if self.forwarding:
                    dst.sendall(data)
                # else: dropped on the floor; the connection stays open.
        except OSError:
            pass
        for sock in (src, dst):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()

    def blackhole(self) -> None:
        self.forwarding = False

    def heal(self) -> None:
        self.forwarding = True

    def close(self) -> None:
        self._closing = True
        self._server.close()


# --------------------------------------------------------------------------
# Scenario 1: SIGSTOP half-open
# --------------------------------------------------------------------------
class TestHalfOpenPeer:
    def test_sigstop_trips_heartbeat_degrades_and_recovers(
        self, cluster_paths, tmp_path, trained_lhmm, tiny_dataset
    ):
        """SIGSTOP a peer: its TCP stays open but nothing answers.  The
        survivor must detect it via heartbeats within seconds, answer the
        stopped peer's regions with bounded-time 503 + Retry-After (not a
        hang), report ``degraded`` on /healthz — and heal on SIGCONT."""
        port_a, port_b = _free_port(), _free_port()
        a = Gateway(
            "node-a", cluster_paths, tmp_path, regions=("default",),
            fed_port=port_a, peers=[f"node-b=127.0.0.1:{port_b}"],
        )
        b = Gateway(
            "node-b", cluster_paths, tmp_path, regions=("uptown",),
            fed_port=port_b, peers=[f"node-a=127.0.0.1:{port_a}"],
        )
        try:
            a.await_address()
            b.await_address()
            client = a.client()
            _await(lambda: _peers_up(client), message="federation links up")

            sample = tiny_dataset.test[0]
            expected = protocol.encode_match_result(trained_lhmm.match(sample.cellular))
            assert client.match([sample.cellular], region="uptown")[0] == expected

            b.kill(signal.SIGSTOP)
            detect_start = time.monotonic()
            _await(
                lambda: client.health()["federation"]["partitioned"] == ["node-b"],
                timeout_s=15.0,
                message="heartbeat-timeout partition detection",
            )
            assert time.monotonic() - detect_start < 10.0
            assert client.health()["status"] == "degraded"

            # The lost peer's region degrades in bounded time — never hangs.
            ask_start = time.monotonic()
            with pytest.raises(ServerBusy) as excinfo:
                client.match([sample.cellular], region="uptown")
            assert time.monotonic() - ask_start < 10.0
            assert excinfo.value.payload["code"] == "region_partitioned"
            assert excinfo.value.retry_after_s > 0
            # Its own region keeps serving through the partition.
            assert client.match([sample.cellular], region="default")[0] == expected

            b.kill(signal.SIGCONT)
            _await(
                lambda: client.health()["federation"]["partitioned"] == [],
                message="partition healing after SIGCONT",
            )
            assert client.match([sample.cellular], region="uptown")[0] == expected
            assert client.health()["status"] == "ok"
        finally:
            b.cleanup()
            a.cleanup()


# --------------------------------------------------------------------------
# Scenario 2: SIGKILL mid-stream, journal-replica failover
# --------------------------------------------------------------------------
class TestOwnerSigkillFailover:
    def test_session_fails_over_to_replica_bit_identically(
        self, cluster_paths, tmp_path, trained_lhmm, tiny_dataset
    ):
        """SIGKILL the gateway owning a mid-flight streaming session.  The
        client's fallback target adopts the replicated journal and the
        committed path is bit-identical to an uninterrupted ``OnlineLHMM``
        decode; the dead gateway's shared segments are unlinked even
        though its workers never saw a signal."""
        port_a, port_b = _free_port(), _free_port()
        a = Gateway(
            "node-a", cluster_paths, tmp_path, regions=("default",),
            fed_port=port_a, peers=[f"node-b=127.0.0.1:{port_b}"],
        )
        try:
            a.await_address()
            a_segments = {
                shard["segment"]
                for shard in a.client().metrics()["shards"].values()
            }
            assert a_segments, "node-a published no segments?"
            b = Gateway(
                "node-b", cluster_paths, tmp_path, regions=("default",),
                fed_port=port_b, peers=[f"node-a=127.0.0.1:{port_a}"],
            )
        except BaseException:
            a.cleanup()
            raise
        try:
            b.await_address()
            _await(lambda: _peers_up(a.client()), message="links up on node-a")
            _await(lambda: _peers_up(b.client()), message="links up on node-b")

            client = a.client(
                fallbacks=[(b.host, b.port)], failover_deadline_s=45.0
            )
            sample = tiny_dataset.test[1]
            points = list(sample.cellular.points)
            half = len(points) // 2
            assert half >= 1

            session = client.create_session(lag=3, region="default")
            sid = session.session_id
            for point in points[:half]:
                session.feed(point)

            a.kill(signal.SIGKILL)
            assert a.proc.wait(timeout=30) == -signal.SIGKILL

            # The same session object keeps feeding: the client rotates to
            # the fallback, node-b adopts the replica journal, the stream
            # continues.  seq idempotency absorbs any ambiguous retry.
            for seq, point in enumerate(points[half:], start=half):
                _feed_failover(client, sid, point, seq)
            closed = client.close_session(sid)

            expected = OnlineLHMM(trained_lhmm, lag=3).match_stream(sample.cellular)
            assert closed["path"] == expected

            survivor = b.client()
            counters = survivor.metrics()["counters"]
            assert counters["fed_adoptions_total"] >= 1

            # The orphaned workers read EOF on their gateway socketpair and
            # exit; the janitor then sees its pipe close and unlinks.
            _await(
                lambda: not (set(leaked_segments()) & a_segments),
                timeout_s=30.0,
                message="dead owner's segments to unlink",
            )
        finally:
            b.cleanup()
            a.cleanup()


# --------------------------------------------------------------------------
# Scenario 3: asymmetric frame-dropping partition — no double commit
# --------------------------------------------------------------------------
class TestSplitBrainFencing:
    def test_partition_yields_exactly_one_commit(
        self, cluster_paths, tmp_path, trained_lhmm, tiny_dataset
    ):
        """Drop every frame from node-b's view of node-a while node-a can
        still reach node-b.  Both gateways now hold a live copy of one
        session — the adopted replica on node-b and the original on
        node-a.  The fencing tokens must let exactly one commit through:
        node-b's adoption carries the higher fence, so node-a's close is
        answered 409 (``session_fenced``) and only node-b's close emits a
        path — bit-identical to the uninterrupted decode."""
        port_a, port_b = _free_port(), _free_port()
        proxy = FrameDropProxy("127.0.0.1", port_a)
        a = Gateway(
            "node-a", cluster_paths, tmp_path, regions=("default",),
            fed_port=port_a, peers=[f"node-b=127.0.0.1:{port_b}"],
        )
        b = Gateway(
            "node-b", cluster_paths, tmp_path, regions=("default",),
            fed_port=port_b, peers=[f"node-a=127.0.0.1:{proxy.port}"],
        )
        try:
            a.await_address()
            b.await_address()
            client_a, client_b = a.client(), b.client()
            _await(lambda: _peers_up(client_a), message="links up on node-a")
            _await(lambda: _peers_up(client_b), message="links up on node-b")

            sample = tiny_dataset.test[2]
            points = list(sample.cellular.points)
            half = len(points) // 2
            session = client_a.create_session(lag=3, region="default")
            sid = session.session_id
            for seq, point in enumerate(points[:half]):
                client_a.feed_points(sid, [point], seq=seq)

            # Partition one direction only: node-b stops hearing node-a.
            proxy.blackhole()
            _await(
                lambda: client_b.health()["federation"]["partitioned"]
                == ["node-a"],
                timeout_s=15.0,
                message="node-b declaring node-a partitioned",
            )
            # ... while node-a still believes the federation is whole.
            assert client_a.health()["federation"]["partitioned"] == []

            # Clients that can only reach node-b drive the adoption.
            for seq, point in enumerate(points[half:], start=half):
                _feed_failover(client_b, sid, point, seq)
            assert client_b.metrics()["counters"]["fed_adoptions_total"] >= 1

            # The superseded owner tries to commit over its (still-live)
            # link to node-b: the fence rejects it — no double commit.
            with pytest.raises(ServeClientError) as fenced:
                client_a.close_session(sid)
            assert fenced.value.status == 409
            assert fenced.value.payload["code"] == "session_fenced"

            closed = client_b.close_session(sid)
            expected = OnlineLHMM(trained_lhmm, lag=3).match_stream(sample.cellular)
            assert closed["path"] == expected

            # Heal the link: the survivors re-converge, nothing re-commits.
            proxy.heal()
            _await(
                lambda: client_b.health()["federation"]["partitioned"] == [],
                message="partition healing after proxy restore",
            )
            with pytest.raises(ServeClientError) as gone:
                client_b.close_session(sid)
            assert gone.value.status == 404  # committed and gone — exactly once
        finally:
            proxy.close()
            b.cleanup()
            a.cleanup()
