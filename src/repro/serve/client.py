"""A small stdlib HTTP client for the matching service.

Mirrors the server's endpoints one method each, speaking the JSON
protocol of :mod:`repro.serve.protocol`.  Errors map onto exceptions:
an overload answer — 503 + ``Retry-After`` (``server_overloaded``), or
the session-cap 429 — raises :class:`ServerBusy` carrying the server's retry
hint; any other non-2xx raises :class:`ServeClientError`.  A convenience
:meth:`MatchingClient.match_with_retry` backs off on anything transient —
overload shedding, 503 during a drain or worker-fleet outage, and
connection resets from a restarting server — so rolling restarts are
invisible to callers.

By default the client opens one connection per request (simple,
thread-safe).  With ``keep_alive=True`` it holds one persistent
connection and pipelines requests over it (reconnecting transparently
when the server closed it between requests) — markedly faster against
the asyncio gateway, but then an instance must not be shared across
threads.
"""

from __future__ import annotations

import http.client
import random
import time
from typing import Iterable, Sequence

from repro.cellular.trajectory import Trajectory, TrajectoryPoint
from repro.serve import protocol


class ServeClientError(RuntimeError):
    """Non-2xx response from the matching service."""

    def __init__(self, status: int, message: str, payload: dict | None = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload or {}


class ServerBusy(ServeClientError):
    """The service is shedding load (503/429 + ``Retry-After``); retry later."""

    def __init__(self, status: int, message: str, payload: dict, retry_after_s: float) -> None:
        super().__init__(status, message, payload)
        self.retry_after_s = retry_after_s


class ServeRedirect(ServeClientError):
    """The resource lives on another gateway (3xx + ``Location``).

    A federated cluster answers ``307 Temporary Redirect`` for sessions
    and (in redirect routing mode) matches whose region another gateway
    owns.  :meth:`MatchingClient.match_with_retry` and the session
    methods follow these automatically (capped hops); a caller using the
    raw methods can catch this and re-point the client at
    :attr:`location`.
    """

    def __init__(self, status: int, message: str, payload: dict, location: str) -> None:
        super().__init__(status, message, payload)
        self.location = location


def _as_point_payload(point) -> dict:
    if isinstance(point, TrajectoryPoint):
        return protocol.encode_point(point)
    if isinstance(point, dict):
        return point
    raise TypeError(f"cannot encode {type(point).__name__} as a trajectory point")


def _as_trajectory_payload(trajectory) -> list[dict]:
    if isinstance(trajectory, Trajectory):
        return protocol.encode_trajectory(trajectory)
    return [_as_point_payload(p) for p in trajectory]


class StreamingSession:
    """Client-side handle for one server session (context manager).

    ``feed`` returns the server's committed state; ``close`` returns the
    final path and invalidates the handle.
    """

    def __init__(self, client: "MatchingClient", session_id: str, lag: int) -> None:
        self.client = client
        self.session_id = session_id
        self.lag = lag
        self._final: dict | None = None
        #: Monotonic feed sequence number: sent with every feed and only
        #: advanced on success, so a failover retry of the same batch is
        #: deduplicated server-side instead of double-committing points.
        self._seq = 0

    def feed(self, points: Iterable[TrajectoryPoint] | TrajectoryPoint) -> dict:
        """Send one point or a list of points; returns committed state."""
        if isinstance(points, (TrajectoryPoint, dict)):
            points = [points]
        state = self.client.feed_points(self.session_id, list(points), seq=self._seq)
        self._seq += 1
        return state

    def close(self) -> list[int]:
        """Finalise the session and return the complete matched path."""
        if self._final is None:
            self._final = self.client.close_session(self.session_id)
        return self._final["path"]

    def __enter__(self) -> "StreamingSession":
        return self

    def __exit__(self, exc_type, *exc_info: object) -> None:
        if exc_type is None and self._final is None:
            self.close()


class MatchingClient:
    """Talks to a :class:`~repro.serve.cluster.ClusterServer` gateway."""

    #: Connection-level failures a retrying caller should treat like a
    #: transient server blip (restart, drain-close, half-open socket).
    TRANSIENT_ERRORS = (
        ConnectionResetError,
        ConnectionRefusedError,
        ConnectionAbortedError,
        BrokenPipeError,
        http.client.RemoteDisconnected,
        http.client.CannotSendRequest,
    )

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        keep_alive: bool = False,
        fallbacks: Sequence[tuple[str, int]] = (),
        failover_deadline_s: float = 20.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.keep_alive = keep_alive
        #: Peer gateway addresses to rotate through when the primary is
        #: unreachable (federated deployments).  Session ops fail over
        #: here — the peer holding the replicated journal adopts the
        #: session and the stream continues bit-identically.
        self.fallbacks = tuple(fallbacks)
        #: Total wall-clock budget one failover-capable request may spend
        #: across redirects, target rotation, and Retry-After waits.
        self.failover_deadline_s = failover_deadline_s
        self._connection: http.client.HTTPConnection | None = None

    # --------------------------------------------------------------- plumbing
    def _connect(self) -> http.client.HTTPConnection:
        if not self.keep_alive:
            return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def _drop_connection(self, connection: http.client.HTTPConnection) -> None:
        connection.close()
        if connection is self._connection:
            self._connection = None

    def close(self) -> None:
        """Drop the persistent connection (no-op without ``keep_alive``)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        body = protocol.dumps(payload) if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        attempts = 2 if self.keep_alive else 1
        for attempt in range(attempts):
            connection = self._connect()
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except self.TRANSIENT_ERRORS:
                # A reused connection the server closed between requests
                # fails on first use: retry once on a fresh socket.  A
                # per-request connection has nothing to retry here.
                self._drop_connection(connection)
                if attempt == attempts - 1:
                    raise
                continue
            except Exception:
                self._drop_connection(connection)
                raise
            break
        if not self.keep_alive or response.will_close:
            self._drop_connection(connection)
        try:
            parsed = protocol.loads(raw) if raw else {}
        except protocol.ProtocolError:
            parsed = {"error": raw.decode("utf-8", "replace")}
        if 200 <= response.status < 300:
            return parsed
        message = parsed.get("error", response.reason)
        if response.status in (301, 302, 307, 308):
            location = response.headers.get("Location") or parsed.get("location")
            if location:
                raise ServeRedirect(response.status, message, parsed, location)
        if response.status in (429, 503):
            # Overload answers carry a retry hint; surface them as
            # ServerBusy so retry loops can honour it.  A 503 without any
            # hint (e.g. an intermediary) stays a plain ServeClientError.
            retry_after = parsed.get("retry_after_s")
            if retry_after is None:
                header = response.headers.get("Retry-After")
                if header is not None:
                    retry_after = float(header)
                elif response.status == 429:
                    retry_after = 1.0
            if retry_after is not None:
                raise ServerBusy(response.status, message, parsed, float(retry_after))
        raise ServeClientError(response.status, message, parsed)

    # -------------------------------------------------------------- failover
    def _retarget(self, host: str, port: int) -> None:
        """Re-point this client at another gateway (sticks for later calls)."""
        if (host, port) == (self.host, self.port):
            return
        self.close()
        self.host = host
        self.port = port

    @staticmethod
    def _parse_location(location: str, default_path: str) -> tuple[str, int, str]:
        from urllib.parse import urlsplit

        parts = urlsplit(location)
        host = parts.hostname
        if host is None:
            raise ServeClientError(502, f"unparseable redirect location {location!r}")
        path = parts.path or default_path
        if parts.query:
            path = f"{path}?{parts.query}"
        return host, parts.port or 80, path

    def _request_failover(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        max_redirect_hops: int = 4,
    ) -> dict:
        """:meth:`_request` with redirects, target rotation, and 503 waits.

        Follows ``307`` redirects (capped at ``max_redirect_hops``, the
        client retargeting itself so the stream stays on the owner), and
        on transient transport failures — resets, refusals, *and* read
        timeouts from a half-open TCP connection to a stopped host —
        rotates through ``[primary, *fallbacks]`` with a short backoff.
        ``503 + Retry-After`` (partitioned region, drain) waits and
        retries.  Everything is bounded by ``failover_deadline_s``; when
        the budget runs out the last error is raised.
        """
        deadline = time.monotonic() + self.failover_deadline_s
        targets = [(self.host, self.port), *self.fallbacks]
        hops = 0
        rotations = 0
        while True:
            try:
                return self._request(method, path, payload)
            except ServeRedirect as error:
                hops += 1
                if hops > max_redirect_hops:
                    raise
                host, port, path = self._parse_location(error.location, path)
                self._retarget(host, port)
            except ServerBusy as error:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    raise
                time.sleep(min(max(error.retry_after_s, 0.05), 2.0, remaining))
            except (*self.TRANSIENT_ERRORS, TimeoutError):
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    raise
                rotations += 1
                host, port = targets[rotations % len(targets)]
                self._retarget(host, port)
                time.sleep(min(0.05 * min(rotations, 8), 1.0, max(0.0, remaining)))

    # -------------------------------------------------------------- streaming
    def create_session(
        self,
        lag: int | None = None,
        context_window: int | None = None,
        region: str | None = None,
    ) -> StreamingSession:
        """Open a streaming session; returns a handle.

        ``region`` selects the shard on a multi-city gateway (default:
        the gateway's ``default`` region).
        """
        payload: dict = {}
        if lag is not None:
            payload["lag"] = lag
        if context_window is not None:
            payload["context_window"] = context_window
        if region is not None:
            payload["region"] = region
        response = self._request_failover("POST", "/v1/sessions", payload)
        return StreamingSession(self, response["session_id"], response["lag"])

    def feed_points(self, session_id: str, points: Sequence, seq: int | None = None) -> dict:
        """Feed points into a session; returns committed state.

        ``seq`` (a client-side monotonic counter) makes the feed
        idempotent: a retry of an already-accepted ``seq`` — e.g. after a
        timeout whose request actually landed, or against the gateway
        that adopted the session — returns the committed state without
        feeding the points twice.
        """
        payload: dict = {"points": [_as_point_payload(p) for p in points]}
        if seq is not None:
            payload["seq"] = seq
        return self._request_failover(
            "POST", f"/v1/sessions/{session_id}/points", payload
        )

    def close_session(self, session_id: str) -> dict:
        """Finalise a session; returns ``{"path": [...], "points": n}``."""
        return self._request_failover("DELETE", f"/v1/sessions/{session_id}")

    # ------------------------------------------------------------------ batch
    def match(
        self,
        trajectories,
        region: str | None = None,
        deadline_ms: float | None = None,
    ) -> list[dict]:
        """Match one trajectory or a list of them.

        Accepts :class:`Trajectory` objects, point lists, or pre-encoded
        payloads; always returns a list of result dicts (``path``,
        ``matched_sequence``, ``score``) in input order.  ``region``
        selects the shard.  ``deadline_ms`` is the total budget the
        caller grants the server: the gateway sheds the request
        with 504 once it expires (queued or mid-flight) rather than
        burning worker time on an answer nobody is waiting for.
        """
        single = isinstance(trajectories, Trajectory) or (
            isinstance(trajectories, (list, tuple))
            and trajectories
            and isinstance(trajectories[0], (TrajectoryPoint, dict))
        )
        if single:
            trajectories = [trajectories]
        payload: dict = {"trajectories": [_as_trajectory_payload(t) for t in trajectories]}
        if region is not None:
            payload["region"] = region
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        return self._request("POST", "/v1/match", payload)["results"]

    def match_with_retry(
        self,
        trajectories,
        max_attempts: int = 8,
        base_delay_s: float = 0.25,
        max_delay_s: float = 5.0,
        deadline_s: float = 60.0,
        sleep=time.sleep,
        clock=time.monotonic,
        rng: random.Random | None = None,
        region: str | None = None,
        deadline_ms: float | None = None,
        max_redirect_hops: int = 4,
    ) -> list[dict]:
        """Like :meth:`match`, with capped exponential backoff on transient failures.

        Retryable conditions are exactly the ones a healthy deployment
        produces in passing: overload shedding (:class:`ServerBusy` —
        503/429 + ``Retry-After``), 503 while a server drains or its
        worker fleet respawns, and connection-level resets/refusals from
        a process mid-restart.  Anything else — 4xx input errors, 500s —
        raises immediately; retrying those would only repeat the failure.

        The wait before attempt *n* is ``base_delay_s * 2**n`` (never below
        the server's ``Retry-After``, never above ``max_delay_s``) with
        full jitter — a multiplier drawn from ``[0.5, 1.0]`` so a herd of
        shed clients does not re-arrive in lockstep.  ``deadline_s`` caps
        the *total* time spent retrying: every sleep — including one
        stretched by a server-sent ``Retry-After`` — is clipped to the
        remaining budget, so a large hint never forfeits the final
        attempt by overshooting the deadline.  Raises the last retryable
        error when attempts or the deadline run out.
        """
        rng = rng or random.Random()
        started = clock()

        def _match_following_redirects() -> list[dict]:
            # A federated gateway in redirect mode answers 307 with the
            # region owner's address: follow (retargeting the client so
            # the hop sticks) without burning a retry attempt — the hop
            # cap bounds a redirect loop instead, and a still-redirecting
            # answer past the cap propagates as its ServeRedirect.
            hops = 0
            while True:
                try:
                    return self.match(trajectories, region=region, deadline_ms=deadline_ms)
                except ServeRedirect as error:
                    hops += 1
                    if hops > max_redirect_hops:
                        raise
                    host, port, _ = self._parse_location(error.location, "/v1/match")
                    self._retarget(host, port)

        for attempt in range(max_attempts):
            try:
                return _match_following_redirects()
            except (ServeClientError, *self.TRANSIENT_ERRORS) as error:
                retry_after = 0.0
                if isinstance(error, ServerBusy):
                    retry_after = error.retry_after_s
                elif isinstance(error, ServeClientError):
                    if error.status != 503:
                        raise  # non-transient HTTP failure
                    retry_after = float(error.payload.get("retry_after_s", 0.0))
                remaining = deadline_s - (clock() - started)
                if attempt == max_attempts - 1 or remaining <= 0.0:
                    raise
                delay = min(max_delay_s, base_delay_s * (2.0 ** attempt))
                delay = max(delay, retry_after)
                delay = min(delay, max_delay_s)
                delay *= 0.5 + 0.5 * rng.random()
                # A Retry-After larger than what is left of the budget
                # must not push the sleep past the deadline — clip it and
                # spend the remainder on one last attempt instead.
                sleep(min(delay, remaining))
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------ admin
    def rollout(self, region: str | None = None, model: str | None = None) -> dict:
        """``POST /v1/admin/rollout`` — zero-downtime artifact rollout.

        Stages a new artifact generation for ``region`` (the gateway's
        default region when omitted), canaries it on a probe worker, then
        swaps the fleet one worker at a time; pass ``model`` to point at
        a different artifact path.  Returns the rollout summary
        (``generation``, ``workers_swapped``, ...).  Raises
        :class:`ServeClientError` with 409 when a rollout is already in
        progress, or with the server's failure status when the canary
        rejected the artifact — the old generation keeps serving then.
        """
        payload: dict = {}
        if region is not None:
            payload["region"] = region
        if model is not None:
            payload["model"] = model
        return self._request("POST", "/v1/admin/rollout", payload)

    def start_ab(
        self,
        model: str | None = None,
        split: float | None = None,
        weights: str | None = None,
        region: str | None = None,
    ) -> dict:
        """``POST /v1/admin/ab`` — start an A/B test against a challenger.

        The gateway stages + canaries the challenger at ``model`` and
        routes the deterministic ``split`` fraction of match traffic to
        it; ``weights`` selects its weight set (``"raw"``/``"ema"``),
        ``region`` its shard.
        Omitted fields take the server defaults.  Raises
        :class:`ServeClientError` with 409 when a test or rollout is
        already live, or with the failure status when the challenger was
        refused — the champion keeps all traffic then.
        """
        payload: dict = {}
        for name, value in (
            ("model", model),
            ("split", split),
            ("weights", weights),
            ("region", region),
        ):
            if value is not None:
                payload[name] = value
        return self._request("POST", "/v1/admin/ab", payload)

    def promote_ab(self, region: str | None = None) -> dict:
        """``POST /v1/admin/ab/promote`` — challenger becomes the server.

        Returns the promotion summary including the final per-generation
        ``"ab"`` snapshot; 409 when no test is live.
        """
        payload = {} if region is None else {"region": region}
        return self._request("POST", "/v1/admin/ab/promote", payload)

    def abort_ab(self, region: str | None = None) -> dict:
        """``POST /v1/admin/ab/abort`` — drop the challenger untouched."""
        payload = {} if region is None else {"region": region}
        return self._request("POST", "/v1/admin/ab/abort", payload)

    def health(self) -> dict:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        """``GET /metrics``."""
        return self._request("GET", "/metrics")
