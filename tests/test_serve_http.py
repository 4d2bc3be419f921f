"""End-to-end tests of the HTTP matching service.

Boots the asyncio gateway (one forked worker) on an ephemeral port and
drives it through :class:`MatchingClient` — concurrent streaming
sessions, batch matches, saturation (503 + ``Retry-After``), graceful
drain, and the HTTP reader's limits on untrusted bytes — always
asserting results are *identical* to calling the matcher directly.
"""

import http.client
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cellular.trajectory import TrajectoryPoint
from repro.core import OnlineLHMM
from repro.geometry import Point
from repro.serve import MatchingClient, ServeClientError, ServerBusy, cluster, protocol


@pytest.fixture()
def client(gateway):
    return MatchingClient(gateway.host, gateway.port, timeout=60.0)


class TestEndToEnd:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["protocol_version"] == 1

    def test_batch_matches_equal_direct_calls(self, client, trained_lhmm, tiny_dataset):
        samples = tiny_dataset.test[:3]
        results = client.match([s.cellular for s in samples])
        direct = [trained_lhmm.match(s.cellular) for s in samples]
        assert [r["path"] for r in results] == [d.path for d in direct]
        assert [r["matched_sequence"] for r in results] == [
            d.matched_sequence for d in direct
        ]
        for served, computed in zip(results, direct):
            assert served["score"] == computed.score

    def test_single_trajectory_shorthand(self, client, trained_lhmm, tiny_dataset):
        sample = tiny_dataset.test[0]
        result = client._request(
            "POST",
            "/v1/match",
            {"points": [{"x": p.position.x, "y": p.position.y, "t": p.timestamp,
                         "tower_id": p.tower_id} for p in sample.cellular.points]},
        )["result"]
        assert result["path"] == trained_lhmm.match(sample.cellular).path

    def test_streaming_session_equals_direct_decoder(
        self, client, trained_lhmm, tiny_dataset
    ):
        sample = tiny_dataset.test[0]
        reference = OnlineLHMM(trained_lhmm, lag=3)
        with client.create_session(lag=3) as session:
            for fed, point in enumerate(sample.cellular.points, start=1):
                state = session.feed(point)
                reference.add_point(point)
                assert state["committed"] == reference.committed_path
                assert state["pending"] == reference.pending_points()
                assert state["points"] == fed
            path = session.close()
        assert path == reference.finish()

    def test_concurrent_streams_and_batches(self, gateway, trained_lhmm, tiny_dataset):
        """Interleaved workloads on many threads stay isolated and exact."""
        stream_samples = tiny_dataset.test[:2]
        batch_samples = tiny_dataset.test[2:5]

        def run_stream(sample):
            local = MatchingClient(gateway.host, gateway.port, timeout=60.0)
            session = local.create_session(lag=3)
            for point in sample.cellular.points:
                session.feed(point)
            return session.close()

        def run_batch(sample):
            local = MatchingClient(gateway.host, gateway.port, timeout=60.0)
            return local.match_with_retry([sample.cellular])[0]

        with ThreadPoolExecutor(max_workers=5) as pool:
            stream_futures = [pool.submit(run_stream, s) for s in stream_samples]
            batch_futures = [pool.submit(run_batch, s) for s in batch_samples]
            stream_paths = [f.result(timeout=120) for f in stream_futures]
            batch_results = [f.result(timeout=120) for f in batch_futures]

        for sample, path in zip(stream_samples, stream_paths):
            assert path == OnlineLHMM(trained_lhmm, lag=3).match_stream(sample.cellular)
        for sample, result in zip(batch_samples, batch_results):
            assert result == protocol.encode_match_result(
                trained_lhmm.match(sample.cellular)
            )

    def test_worker_drops_decoders_on_close(self, boot_gateway, tiny_dataset):
        """A worker keeps a decoder only while its session is open."""
        server = boot_gateway()
        client = MatchingClient(server.host, server.port, timeout=60.0)
        sample = tiny_dataset.test[0]
        sessions = [client.create_session(lag=3) for _ in range(2)]
        for session in sessions:
            session.feed(list(sample.cellular.points))
        (worker,) = client.metrics()["workers"]
        assert worker["live_decoders"] == 2
        for session in sessions:
            session.close()
        (worker,) = client.metrics()["workers"]
        assert worker["live_decoders"] == 0


class TestErrorHandling:
    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404

    def test_unknown_session_is_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.close_session("missing")
        assert excinfo.value.status == 404

    def test_malformed_points_is_400(self, client):
        session = client.create_session()
        with pytest.raises(ServeClientError) as excinfo:
            client._request(
                "POST", f"/v1/sessions/{session.session_id}/points", {"points": [{"x": 1}]}
            )
        assert excinfo.value.status == 400
        session.close()

    def test_bad_json_is_400(self, gateway):
        connection = http.client.HTTPConnection(gateway.host, gateway.port, timeout=10)
        try:
            connection.request(
                "POST", "/v1/match", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            assert connection.getresponse().status == 400
        finally:
            connection.close()

    def test_bad_lag_is_400(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.create_session(lag=0)
        assert excinfo.value.status == 400

    def test_session_limit_is_429(self, boot_gateway):
        server = boot_gateway(max_sessions=1)
        client = MatchingClient(server.host, server.port, timeout=60.0)
        client.create_session()
        with pytest.raises(ServerBusy) as excinfo:
            client.create_session()
        assert excinfo.value.status == 429


class TestSessionLifecycle:
    """The gateway alone owns session ids, admission and expiry."""

    def test_closed_session_is_404(self, client, tiny_dataset):
        point = tiny_dataset.test[0].cellular.points[0]
        session = client.create_session()
        session.feed(point)
        session.close()
        with pytest.raises(ServeClientError) as excinfo:
            client.feed_points(session.session_id, [point])
        assert excinfo.value.status == 404
        with pytest.raises(ServeClientError) as excinfo:
            client.close_session(session.session_id)
        assert excinfo.value.status == 404

    def test_expired_sessions_are_swept(self, boot_gateway, tiny_dataset):
        """Idle records leave the table on the control tick, unused or not."""
        server = boot_gateway(session_ttl_s=0.3, max_sessions=2)
        client = MatchingClient(server.host, server.port, timeout=60.0)
        idle = [client.create_session() for _ in range(2)]
        time.sleep(1.0)
        assert client.health()["active_sessions"] == 0
        metrics = client.metrics()
        assert metrics["sessions"]["active"] == 0
        assert metrics["counters"]["sessions_evicted_total"] == 2
        point = tiny_dataset.test[0].cellular.points[0]
        with pytest.raises(ServeClientError) as excinfo:
            client.feed_points(idle[0].session_id, [point])
        assert excinfo.value.status == 404
        # Both slots are free again.
        for _ in range(2):
            client.create_session()

    def test_rejected_feed_changes_nothing(self, boot_gateway, trained_lhmm, tiny_dataset):
        """A feed rejected half-way — a good point, then one with no road
        near it — is all-or-nothing: the stream afterwards equals a direct
        decoder over the journaled points only."""
        server = boot_gateway()
        client = MatchingClient(server.host, server.port, timeout=60.0)
        sample = next(s for s in tiny_dataset.test if len(s.cellular) >= 4)
        points = sample.cellular.points
        _, _, max_x, max_y = tiny_dataset.network.bounding_box()
        far = TrajectoryPoint(
            Point(max_x + 9000.0, max_y + 9000.0), points[2].timestamp + 1.0
        )
        session = client.create_session(lag=3)
        client.feed_points(session.session_id, points[:2])
        with pytest.raises(ServeClientError) as excinfo:
            client.feed_points(session.session_id, [points[2], far])
        assert excinfo.value.status == 422
        state = client.feed_points(session.session_id, [points[3]])
        reference = OnlineLHMM(trained_lhmm, lag=3)
        for point in (points[0], points[1], points[3]):
            reference.add_point(point)
        assert state["committed"] == reference.committed_path
        assert state["pending"] == reference.pending_points()
        assert state["points"] == 3
        assert session.close() == reference.finish()

    def test_sessions_survive_scale_up_then_down(
        self, boot_gateway, trained_lhmm, tiny_dataset
    ):
        """Sessions that moved to an added worker replay back onto their
        old worker when it retires, over the stale decoder left there."""
        # The test scales by hand; the idle-tick budget keeps the
        # autoscaler from retiring the added worker on its own.
        server = boot_gateway(
            num_workers=1, min_workers=1, max_workers=2, scale_down_idle_ticks=10**6
        )
        client = MatchingClient(server.host, server.port, timeout=60.0)
        streams = []
        long_enough = [s for s in tiny_dataset.samples if len(s.cellular) >= 4]
        for sample in long_enough[:8]:
            points = sample.cellular.points[:4]
            session = client.create_session(lag=3)
            session.feed(points[:2])
            streams.append((session, points))
        server._run_on_loop(server._scale_up())
        for session, points in streams:
            session.feed(points[2])

        async def scale_down():
            await server._scale_down(server._serving_handles())

        server._run_on_loop(scale_down())
        for session, points in streams:
            session.feed(points[3])
        for session, points in streams:
            reference = OnlineLHMM(trained_lhmm, lag=3)
            for point in points:
                reference.add_point(point)
            assert session.close() == reference.finish()


def _raw_exchange(gateway, request: bytes) -> tuple[int, bytes]:
    """Send raw bytes; return the status and everything read until close."""
    with socket.create_connection((gateway.host, gateway.port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    reply = b"".join(chunks)
    status_line, _, rest = reply.partition(b"\r\n")
    version, status, _ = status_line.split(b" ", 2)
    assert version == b"HTTP/1.1"
    head, _, body = rest.partition(b"\r\n\r\n")
    headers = dict(
        line.split(b": ", 1) for line in head.split(b"\r\n") if line
    )
    assert headers[b"Connection"] == b"close"
    assert int(headers[b"Content-Length"]) == len(body)
    return int(status), body


class TestHttpReaderLimits:
    """Untrusted bytes end in a well-formed 4xx + close, never a dropped
    connection or a misparsed pipeline — and the gateway keeps serving."""

    @pytest.fixture(autouse=True)
    def _still_serving(self, gateway):
        yield
        assert MatchingClient(gateway.host, gateway.port).health()["status"] == "ok"

    def test_request_line_over_64_kib_is_414(self, gateway):
        request = b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n"
        status, body = _raw_exchange(gateway, request)
        assert status == 414
        assert b"request line" in body

    def test_header_line_over_64_kib_is_431(self, gateway):
        request = (
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * (70 * 1024) + b"\r\n\r\n"
        )
        status, body = _raw_exchange(gateway, request)
        assert status == 431
        assert b"header line" in body

    def test_more_than_100_headers_is_431(self, gateway):
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(101))
        status, body = _raw_exchange(
            gateway, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
        )
        assert status == 431
        assert b"100 headers" in body

    def test_non_numeric_content_length_is_400(self, gateway):
        status, body = _raw_exchange(
            gateway,
            b"POST /v1/match HTTP/1.1\r\nContent-Length: ten\r\n\r\n{}",
        )
        assert status == 400
        assert b"Content-Length" in body

    def test_chunked_body_is_rejected_not_parsed_as_a_request(self, gateway):
        # Were the chunk bytes read as the next pipelined request, the
        # embedded GET would be answered too; the reader must stop at
        # the first 4xx instead.
        chunk = b"GET /healthz HTTP/1.1\r\n\r\n"
        request = (
            b"POST /v1/match HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(chunk) + chunk + b"\r\n0\r\n\r\n"
        )
        status, body = _raw_exchange(gateway, request)
        assert status == 400
        assert b"Transfer-Encoding" in body
        assert b"HTTP/1.1 200" not in body

    def test_silent_client_is_closed_after_the_read_timeout(
        self, gateway, monkeypatch, trained_lhmm, tiny_dataset
    ):
        """A client that connects and sends nothing loses the connection
        once the read timeout expires, and the gateway keeps matching."""
        monkeypatch.setattr(cluster, "_READ_TIMEOUT_S", 0.5)
        with socket.create_connection((gateway.host, gateway.port), timeout=10) as sock:
            started = time.monotonic()
            assert sock.recv(1) == b""  # closed without an answer
            assert time.monotonic() - started >= 0.4
        sample = tiny_dataset.test[0]
        served = MatchingClient(gateway.host, gateway.port).match([sample.cellular])
        assert served[0]["path"] == trained_lhmm.match(sample.cellular).path


class TestBackpressureAndDrain:
    def test_saturated_queue_answers_503_with_retry_after(
        self, boot_gateway, trained_lhmm, tiny_dataset, tmp_path
    ):
        """One running op + a one-deep admission queue: the third
        request must shed with 503 + Retry-After and the stable
        ``server_overloaded`` code, and the admitted two still answer."""
        token = tmp_path / "hang-once"
        server = boot_gateway(
            fault_spec=f"cluster.op:hang:op=match:seconds=3:once={token}",
            max_inflight=1,
            queue_limit=1,
            retry_after_s=2.0,
        )
        client = MatchingClient(server.host, server.port, timeout=60.0)
        sample = tiny_dataset.test[0]
        with ThreadPoolExecutor(max_workers=2) as pool:
            admitted = [pool.submit(client.match, [sample.cellular])]
            deadline = time.monotonic() + 10
            while not token.exists():  # the first request hangs in the worker
                assert time.monotonic() < deadline
                time.sleep(0.01)
            admitted.append(pool.submit(client.match, [sample.cellular]))
            while client.health()["queue_depth"] < 1:  # second one now queued
                assert time.monotonic() < deadline
                time.sleep(0.01)

            with pytest.raises(ServerBusy) as excinfo:
                client.match([sample.cellular])
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after_s == 2.0
            assert excinfo.value.payload["code"] == "server_overloaded"
            assert excinfo.value.payload["error"].startswith("admission queue full")

            expected = trained_lhmm.match(sample.cellular).path
            for future in admitted:
                assert future.result(timeout=60)[0]["path"] == expected
        assert client.metrics()["admission"]["shed_overflow_total"] >= 1

    def test_shutdown_drains_in_flight_and_commits_sessions(
        self, boot_gateway, trained_lhmm, tiny_dataset, tmp_path
    ):
        """In-flight batch work is answered and open sessions are committed."""
        token = tmp_path / "hang-once"
        server = boot_gateway(
            fault_spec=f"cluster.op:hang:op=match:seconds=1:once={token}"
        )
        client = MatchingClient(server.host, server.port, timeout=60.0)
        sample = tiny_dataset.test[0]

        # An open streaming session with a few points fed.
        session = client.create_session(lag=3)
        session.feed(sample.cellular.points[:4])

        with ThreadPoolExecutor(max_workers=1) as pool:
            in_flight = pool.submit(client.match, [sample.cellular])
            deadline = time.monotonic() + 10
            while not token.exists():  # the request is now inside the worker
                assert time.monotonic() < deadline
                time.sleep(0.01)
            summary = server.shutdown()
            # The admitted request was answered correctly during the drain.
            assert in_flight.result(timeout=30)[0]["path"] == trained_lhmm.match(
                sample.cellular
            ).path

        # The open session was committed: its fixed-lag path was flushed.
        expected = OnlineLHMM(trained_lhmm, lag=3)
        for point in sample.cellular.points[:4]:
            expected.add_point(point)
        assert summary["sessions"] == {session.session_id: expected.finish()}

        # And the listener is really down.
        with pytest.raises(OSError):
            client.health()

    def test_requests_after_drain_start_are_rejected(self, boot_gateway):
        server = boot_gateway()
        client = MatchingClient(server.host, server.port)
        server._draining = True  # simulate mid-drain state with listener up
        with pytest.raises(ServeClientError) as excinfo:
            client.create_session()
        assert excinfo.value.status == 503
        with pytest.raises(ServeClientError) as excinfo:
            client.match([[{"x": 0.0, "y": 0.0, "t": 0.0}]])
        assert excinfo.value.status == 503
        assert client.health()["status"] == "draining"
        server._draining = False
