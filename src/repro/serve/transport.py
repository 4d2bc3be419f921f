"""Cross-host TCP frame transport for the serving tier.

:mod:`repro.serve.ipc` gives the cluster its length-prefixed JSON frames;
this module generalises them across the host boundary for gateway↔gateway
federation.  Two pieces:

* :class:`FrameListener` — the *accepting* side.  An asyncio TCP server
  whose first inbound frame must be a ``hello``; an application callback
  decides accept/reject (fencing lives there, see :class:`FenceRegistry`)
  and, once accepted, the listener dispatches every further frame on the
  connection to a per-connection handler.

* :class:`PeerLink` — a persistent, self-healing client connection for
  gateway↔gateway federation.  It reconnects forever with exponential
  backoff, multiplexes request/response frames by ``id``, and sends
  application-level heartbeats so a **half-open** connection (peer
  SIGSTOPped, network partition — TCP carries no signal for either) trips
  ``heartbeat_timeout_s`` and is torn down instead of hanging callers.

Everything here is transport only: no routing, no replication.  Those
live in :mod:`repro.serve.federation`.  The gateway reaches its own
forked workers over an inherited ``socketpair`` instead
(:mod:`repro.serve.cluster`).
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Awaitable, Callable
from dataclasses import dataclass

from repro.serve import ipc


class TransportError(RuntimeError):
    """Connection-level failure (dial, framing, or mid-call drop)."""


class PeerDown(TransportError):
    """The :class:`PeerLink` has no live connection to its peer."""


class HandshakeRejected(TransportError):
    """The listener refused our ``hello`` — we are fenced out.

    Carries the rejection payload so the caller can log the code.
    """

    def __init__(self, response: dict) -> None:
        error = response.get("error") or {}
        super().__init__(str(error.get("message") or "handshake rejected"))
        self.response = response
        self.code = str(error.get("code") or "rejected")


@dataclass(slots=True)
class TransportConfig:
    """Timeout/backoff knobs shared by links and listeners."""

    connect_timeout_s: float = 5.0
    handshake_timeout_s: float = 5.0
    heartbeat_interval_s: float = 1.0
    heartbeat_timeout_s: float = 3.0
    backoff_base_s: float = 0.2
    backoff_max_s: float = 5.0


class FenceRegistry:
    """Monotonic generation fencing per named endpoint.

    ``admit(name, generation)`` answers whether a handshake claiming
    ``generation`` may proceed: anything older than the highest generation
    ever admitted for that name is stale and must be refused.  Equal
    generations are admitted (a live endpoint may legitimately reconnect);
    strict supersession is the caller's job via unique tokens if it needs
    exactly-one semantics.
    """

    def __init__(self) -> None:
        self._high: dict[str, int] = {}

    def admit(self, name: str, generation: int) -> bool:
        """Record and admit ``generation`` unless a newer one was seen."""
        current = self._high.get(name)
        if current is not None and generation < current:
            return False
        self._high[name] = generation
        return True

    def current(self, name: str) -> int | None:
        """Highest generation admitted for ``name`` (``None`` if unseen)."""
        return self._high.get(name)


def backoff_delays(base_s: float, max_s: float):
    """Yield capped exponential backoff delays: base, 2*base, ... max."""
    delay = base_s
    while True:
        yield delay
        delay = min(max_s, delay * 2.0)


# A hello callback returns one of:
#   ("reject", response)          -- write response, close the connection
#   ("serve", response, handler)  -- write response, then dispatch every
#                                    subsequent frame through ``handler``
HelloDecision = tuple[str, dict] | tuple[str, dict, Callable[[dict], Awaitable[dict | None]]]


class FrameListener:
    """Asyncio TCP acceptor speaking length-prefixed frames with a fenced hello.

    ``on_hello(payload, reader, writer)`` is awaited with the first frame
    of every connection and returns a :data:`HelloDecision`.  In ``serve``
    mode the listener then reads frames in a loop and writes back whatever
    the per-connection handler returns (``None`` responses are swallowed —
    one-way notifications).  Handler exceptions become transport-level
    error frames rather than killing the connection.
    """

    def __init__(
        self,
        on_hello: Callable[[dict, asyncio.StreamReader, asyncio.StreamWriter], Awaitable[HelloDecision]],
        *,
        config: TransportConfig | None = None,
    ) -> None:
        self.config = config or TransportConfig()
        self._on_hello = on_hello
        self._server: asyncio.base_events.Server | None = None
        self._conns: set[asyncio.StreamWriter] = set()
        self.host = ""
        self.port = 0

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting."""
        self._server = await asyncio.start_server(self._serve, host, port)
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]

    async def stop(self) -> None:
        """Stop accepting and drop every served connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._conns):
            writer.close()
        self._conns.clear()

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            hello = await asyncio.wait_for(
                ipc.read_message(reader), self.config.handshake_timeout_s
            )
        except (TimeoutError, asyncio.TimeoutError, ipc.IpcError, OSError):
            writer.close()
            return
        if hello is None or hello.get("op") != "hello":
            writer.close()
            return
        try:
            decision = await self._on_hello(hello, reader, writer)
        except Exception as error:  # noqa: BLE001 - surface as a rejection
            decision = (
                "reject",
                {"ok": False, "error": {"code": "hello_failed", "message": str(error)}},
            )
        mode, response = decision[0], decision[1]
        try:
            await ipc.write_message(writer, response)
        except (ipc.IpcError, OSError, ConnectionError):
            writer.close()
            return
        if mode == "reject":
            writer.close()
            return
        handler = decision[2]  # type: ignore[misc]
        self._conns.add(writer)
        try:
            while True:
                message = await ipc.read_message(reader)
                if message is None:
                    break
                try:
                    reply = await handler(message)
                except Exception as error:  # noqa: BLE001 - keep the conn alive
                    reply = {
                        "id": message.get("id"),
                        "ok": False,
                        "error": {"code": "handler_failed", "message": str(error)},
                    }
                if reply is not None:
                    await ipc.write_message(writer, reply)
        except (ipc.IpcError, OSError, ConnectionError):
            pass
        finally:
            self._conns.discard(writer)
            writer.close()


class PeerLink:
    """A self-healing, heartbeat-guarded frame connection to one peer.

    Lifecycle: :meth:`start` spawns a background task that dials the peer,
    performs the hello handshake (payload from ``hello_factory`` — called
    per attempt so it can carry fresh state), then pumps responses until
    the connection drops, and reconnects with exponential backoff forever
    until :meth:`stop`.  ``on_up(link, ack)`` / ``on_down(link)`` fire on
    every transition; :meth:`call` multiplexes request frames by ``id``.

    Heartbeats make half-open connections *fail*: every
    ``heartbeat_interval_s`` the link sends a ping op and requires a reply
    within ``heartbeat_timeout_s``; a miss aborts the connection, which
    fails all in-flight calls with :class:`PeerDown` and schedules a
    reconnect.  A peer that fences us out (:class:`HandshakeRejected`)
    stops the link permanently — retrying with stale credentials is never
    correct — and records :attr:`rejected`.
    """

    PING_OP = "fed.ping"

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        hello_factory: Callable[[], dict],
        *,
        config: TransportConfig | None = None,
        on_up: Callable[["PeerLink", dict], Awaitable[None]] | None = None,
        on_down: Callable[["PeerLink"], Awaitable[None]] | None = None,
    ) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.config = config or TransportConfig()
        self._hello_factory = hello_factory
        self._on_up = on_up
        self._on_down = on_down
        self.up = False
        self.rejected = False
        self.last_seen = 0.0
        self.connects = 0
        self._task: asyncio.Task | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._write_lock = asyncio.Lock()
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._stopping = False

    def start(self) -> None:
        """Begin the connect/serve/reconnect loop on the running event loop."""
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name=f"peerlink-{self.name}"
        )

    async def stop(self) -> None:
        """Tear the link down and cancel the background task."""
        self._stopping = True
        self._abort_connection()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._task = None

    async def call(self, message: dict, *, timeout: float | None = None) -> dict:
        """Send one request frame and await its response.

        Raises :class:`PeerDown` when the link is down or drops mid-call,
        and ``TimeoutError`` when the peer does not answer in time (the
        connection is aborted in that case — an unresponsive peer is
        indistinguishable from a half-open one).
        """
        writer = self._writer
        if not self.up or writer is None:
            raise PeerDown(f"peer {self.name} is down")
        self._next_id += 1
        frame_id = self._next_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[frame_id] = future
        payload = dict(message)
        payload["id"] = frame_id
        try:
            async with self._write_lock:
                await ipc.write_message(writer, payload)
        except (ipc.IpcError, OSError, ConnectionError) as error:
            self._pending.pop(frame_id, None)
            self._abort_connection()
            raise PeerDown(f"peer {self.name} dropped: {error}") from error
        try:
            if timeout is None:
                return await future
            return await asyncio.wait_for(future, timeout)
        except (TimeoutError, asyncio.TimeoutError):
            self._pending.pop(frame_id, None)
            self._abort_connection()
            raise
        finally:
            self._pending.pop(frame_id, None)

    def _abort_connection(self) -> None:
        writer = self._writer
        if writer is not None:
            self._writer = None
            try:
                writer.transport.abort()
            except Exception:  # noqa: BLE001 - already torn down
                pass

    def _fail_pending(self, error: Exception) -> None:
        pending = list(self._pending.values())
        self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(error)

    async def _run(self) -> None:
        delays = backoff_delays(self.config.backoff_base_s, self.config.backoff_max_s)
        while not self._stopping:
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port),
                    self.config.connect_timeout_s,
                )
            except (OSError, TimeoutError, asyncio.TimeoutError):
                await asyncio.sleep(next(delays))
                continue
            try:
                await ipc.write_message(writer, {"op": "hello", **self._hello_factory()})
                ack = await asyncio.wait_for(
                    ipc.read_message(reader), self.config.handshake_timeout_s
                )
                if ack is None:
                    raise TransportError("peer closed during handshake")
                if not ack.get("ok", False):
                    raise HandshakeRejected(ack)
            except HandshakeRejected:
                self.rejected = True
                writer.close()
                if self._on_down is not None:
                    await self._on_down(self)
                return
            except (ipc.IpcError, OSError, TimeoutError, asyncio.TimeoutError, TransportError):
                writer.close()
                await asyncio.sleep(next(delays))
                continue
            # Connected and admitted: reset backoff, pump frames.
            delays = backoff_delays(
                self.config.backoff_base_s, self.config.backoff_max_s
            )
            self._writer = writer
            self.up = True
            self.connects += 1
            self.last_seen = time.monotonic()
            if self._on_up is not None:
                try:
                    await self._on_up(self, ack)
                except Exception:  # noqa: BLE001 - app callback must not kill the link
                    pass
            heartbeat = asyncio.get_running_loop().create_task(self._heartbeat())
            try:
                while True:
                    message = await ipc.read_message(reader)
                    if message is None:
                        break
                    self.last_seen = time.monotonic()
                    future = self._pending.pop(message.get("id"), None)
                    if future is not None and not future.done():
                        future.set_result(message)
            except (ipc.IpcError, OSError, ConnectionError):
                pass
            finally:
                heartbeat.cancel()
                try:
                    await heartbeat
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
                self.up = False
                self._abort_connection()
                writer.close()
                self._fail_pending(PeerDown(f"peer {self.name} connection lost"))
                if self._on_down is not None and not self._stopping:
                    try:
                        await self._on_down(self)
                    except Exception:  # noqa: BLE001
                        pass
            if self._stopping:
                return
            await asyncio.sleep(next(delays))

    async def _heartbeat(self) -> None:
        # Pings ride the same multiplexed frame stream as real calls, so a
        # response to *any* op proves liveness; the ping just guarantees
        # traffic exists for the timeout to measure.
        while True:
            await asyncio.sleep(self.config.heartbeat_interval_s)
            try:
                await self.call(
                    {"op": self.PING_OP}, timeout=self.config.heartbeat_timeout_s
                )
            except (PeerDown, TimeoutError, asyncio.TimeoutError):
                # call() already aborted the connection; the read loop is
                # unwinding and will mark the link down.
                return
