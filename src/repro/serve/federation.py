"""Gateway-to-gateway federation: multi-host routing, replication, fencing.

One :class:`FederationRuntime` rides on each cluster gateway
(:class:`~repro.serve.cluster.ClusterServer`) and turns N single-host
clusters into one partition-tolerant serving federation:

* **Region routing** — every gateway owns the regions in its own
  :class:`~repro.serve.shards.ShardRegistry` and advertises them in the
  handshake of every peer connection (a registry-style gossip: adverts
  refresh on each reconnect).  A request for a region served elsewhere is
  proxied over the peer frame link (``route_mode="proxy"``) or answered
  with ``307 Temporary Redirect`` to the owner's HTTP address
  (``route_mode="redirect"``); streaming sessions always redirect, since
  they must stay sticky to the owning host.

* **Replicated session journals** — the owner of a streaming session
  ships its point journal to one peer (chosen by a consistent-hash ring
  over peer names, so the replica assignment is stable across the
  federation).  Replication is *semi-synchronous*: the owner waits up to
  ``replication_timeout_s`` per feed while the link is up, but never
  refuses client traffic because a replica is unreachable — per the
  partition semantics below, an isolated gateway keeps serving its own
  regions.  When the owner dies, the peer *adopts* the session: the
  journal replays into a fresh worker and — ``OnlineLHMM`` decoding
  being deterministic — the committed path is bit-identical to the
  uninterrupted run.

* **Fencing** — two generations of fences prevent split-brain.  Gateway
  *boot epochs* (nanosecond timestamps) fence handshakes: a restarted
  gateway supersedes its previous incarnation, and a stale one is
  refused at hello time.  Per-session *fencing tokens* (monotonic
  integers bumped on every adoption) fence journal shipping and close
  commits: after a partition heals, the old owner's replication and
  close attempts carry a stale fence, are rejected with ``fenced``, and
  the old owner drops its record — the adopted copy is the only one
  that ever commits a path.

* **Partition awareness** — peer liveness is measured by the transport
  heartbeats (:class:`~repro.serve.transport.PeerLink`), so a half-open
  TCP connection to a SIGSTOPped host trips ``heartbeat_timeout_s``
  rather than hanging callers.  A gateway that loses a peer serves its
  own regions normally, answers for the lost peer's regions with ``503``
  + ``Retry-After`` (``region_partitioned``), and surfaces the partition
  on ``/healthz`` (status ``degraded``, ``federation.partitioned``) and
  ``/metrics``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.errors import ClusterUnavailable, UnknownRegion
from repro.serve.cluster import (
    ConsistentHashRing,
    SessionFenced,
    UnknownSessionError,
    _error_payload,
    _HttpError,
    _SessionRecord,
    _WorkerOpError,
)
from repro.serve.protocol import ProtocolError
from repro.serve.shards import DEFAULT_REGION
from repro.serve.transport import (
    FenceRegistry,
    FrameListener,
    PeerDown,
    PeerLink,
    TransportConfig,
)


@dataclass(slots=True)
class PeerSpec:
    """One federated peer gateway: its name and frame-listener address."""

    name: str
    host: str
    port: int

    @classmethod
    def parse(cls, text: str) -> "PeerSpec":
        """Parse the CLI form ``NAME=HOST:PORT``."""
        name, sep, address = text.partition("=")
        host, sep2, port = address.rpartition(":")
        if not sep or not sep2 or not name or not host:
            raise ValueError(
                f"invalid peer spec {text!r} (expected NAME=HOST:PORT)"
            )
        try:
            port_num = int(port)
        except ValueError:
            raise ValueError(f"invalid peer port in {text!r}") from None
        return cls(name=name, host=host, port=port_num)


@dataclass(slots=True)
class FederationConfig:
    """Tunables of one gateway's federation runtime."""

    #: This gateway's unique node name (ring identity + fence key).
    node: str
    listen_host: str = "127.0.0.1"
    #: Frame-listener port (0 binds ephemeral; read ``fed_port`` after start).
    listen_port: int = 0
    peers: tuple = ()
    #: HTTP address advertised to peers for redirects (defaults to the
    #: gateway's own bound address — override behind NAT/LB).
    advertise_host: str | None = None
    advertise_port: int | None = None
    heartbeat_interval_s: float = 1.0
    heartbeat_timeout_s: float = 3.0
    connect_timeout_s: float = 5.0
    backoff_base_s: float = 0.2
    backoff_max_s: float = 5.0
    #: Ship session journals to one peer (replica chosen on the ring).
    replicate: bool = True
    #: Per-feed wait for the replica's ack while its link is up.
    replication_timeout_s: float = 2.0
    #: Misrouted ``/v1/match``: ``"proxy"`` over the peer link, or
    #: ``"redirect"`` with 307 + ``Location`` (sessions always redirect).
    route_mode: str = "proxy"
    #: Timeout for one proxied match call.
    call_timeout_s: float = 60.0
    ring_replicas: int = 64


@dataclass(slots=True)
class _PeerState:
    """Everything this gateway knows about one peer."""

    spec: PeerSpec
    link: PeerLink | None = None
    regions: tuple = ()
    http: str = ""
    epoch: int = 0
    last_hello: float = 0.0


@dataclass(slots=True)
class _ReplicaRecord:
    """A peer-owned session's journal held here as the failover replica."""

    session_id: str
    region: str
    lag: int
    context_window: int
    owner: str
    fence: int
    last_seq: int = -1
    journal: list = field(default_factory=list)
    received_at: float = 0.0
    closing: bool = False


class FederationRuntime:
    """The federation side of one gateway; lives on the gateway's loop."""

    def __init__(self, server, config: FederationConfig) -> None:
        if config.route_mode not in ("proxy", "redirect"):
            raise ValueError(
                f"route_mode must be 'proxy' or 'redirect', got {config.route_mode!r}"
            )
        self.server = server
        self.config = config
        self.node = config.node
        #: Boot-epoch fence: strictly increases across restarts of this
        #: node, so a superseded incarnation can never re-handshake.
        self.epoch = time.time_ns()
        self._peers: dict[str, _PeerState] = {
            spec.name: _PeerState(spec=spec) for spec in config.peers
        }
        if self.node in self._peers:
            raise ValueError(f"node {self.node!r} cannot be its own peer")
        self._ring = ConsistentHashRing(
            tuple(sorted(self._peers)), replicas=config.ring_replicas
        )
        self._hello_fences = FenceRegistry()
        #: sid -> fence minted when *we* adopted it (rejects the old owner).
        self._session_fences: dict[str, int] = {}
        self._replicas: dict[str, _ReplicaRecord] = {}
        self._listener: FrameListener | None = None
        self._tasks: set[asyncio.Task] = set()
        self._OPS = {
            "fed.ping": FederationRuntime._op_ping,
            "fed.match": FederationRuntime._op_match,
            "fed.session.open": FederationRuntime._op_session_open,
            "fed.session.feed": FederationRuntime._op_session_feed,
            "fed.session.close": FederationRuntime._op_session_close,
            "fed.session.drop": FederationRuntime._op_session_drop,
        }

    # ------------------------------------------------------------- lifecycle
    def _transport_config(self) -> TransportConfig:
        return TransportConfig(
            connect_timeout_s=self.config.connect_timeout_s,
            handshake_timeout_s=self.config.connect_timeout_s,
            heartbeat_interval_s=self.config.heartbeat_interval_s,
            heartbeat_timeout_s=self.config.heartbeat_timeout_s,
            backoff_base_s=self.config.backoff_base_s,
            backoff_max_s=self.config.backoff_max_s,
        )

    async def start(self) -> None:
        """Bind the frame listener and start dialing every peer."""
        self._listener = FrameListener(self._on_hello, config=self._transport_config())
        await self._listener.start(self.config.listen_host, self.config.listen_port)
        for state in self._peers.values():
            link = PeerLink(
                state.spec.name,
                state.spec.host,
                state.spec.port,
                self._advert,
                config=self._transport_config(),
                on_up=self._peer_up,
                on_down=self._peer_down,
            )
            state.link = link
            link.start()
        self.server._journal.record(
            "fed_started",
            node=self.node,
            epoch=self.epoch,
            port=self.fed_port,
            peers=sorted(self._peers),
        )

    async def stop(self) -> None:
        """Cancel background tasks and close the listener and every peer link."""
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
            self._tasks.clear()
        for state in self._peers.values():
            if state.link is not None:
                await state.link.stop()
        if self._listener is not None:
            await self._listener.stop()
            self._listener = None

    @property
    def fed_port(self) -> int:
        """The bound frame-listener port (after :meth:`start`)."""
        return self._listener.port if self._listener is not None else 0

    def _spawn(self, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _count(self, name: str, amount: int = 1) -> None:
        self.server.metrics.increment(name, amount)

    # ----------------------------------------------------- adverts/handshake
    def http_address(self) -> str:
        """The HTTP URL peers should advertise for this node (``--advertise``)."""
        host = self.config.advertise_host or self.server.host
        port = self.config.advertise_port or self.server.port
        return f"http://{host}:{port}"

    def _advert(self) -> dict:
        """This node's handshake payload (sent on every dial + hello ack)."""
        return {
            "node": self.node,
            "epoch": self.epoch,
            "regions": list(self.server.registry.regions),
            "http": self.http_address(),
        }

    def _absorb_advert(self, payload: dict) -> None:
        state = self._peers.get(payload.get("node"))
        if state is None:
            return
        epoch = payload.get("epoch")
        if isinstance(epoch, int) and not isinstance(epoch, bool):
            state.epoch = epoch
        regions = payload.get("regions")
        if isinstance(regions, list):
            state.regions = tuple(str(region) for region in regions)
        http = payload.get("http")
        if isinstance(http, str):
            state.http = http
        state.last_hello = time.monotonic()

    async def _on_hello(self, payload: dict, reader, writer):
        node = payload.get("node")
        epoch = payload.get("epoch")
        if not isinstance(node, str) or isinstance(epoch, bool) or not isinstance(epoch, int):
            return (
                "reject",
                {
                    "ok": False,
                    "error": {
                        "code": "protocol_error",
                        "message": "hello requires 'node' (str) and 'epoch' (int)",
                    },
                },
            )
        if not self._hello_fences.admit(node, epoch):
            self._count("fed_fenced_hellos_total")
            self.server._journal.record("fed_hello_fenced", peer=node, epoch=epoch)
            return (
                "reject",
                {
                    "ok": False,
                    "error": {
                        "code": "stale_epoch",
                        "message": f"node {node!r} epoch {epoch} is superseded",
                    },
                },
            )
        self._absorb_advert(payload)
        return ("serve", {"ok": True, **self._advert()}, self._dispatch_frame)

    async def _peer_up(self, link: PeerLink, ack: dict) -> None:
        self._absorb_advert(ack)
        self._count("fed_peer_up_total")
        self.server._journal.record("fed_peer_up", peer=link.name)
        state = self._peers.get(link.name)
        if state is not None and self.config.replicate:
            # The peer may be a fresh process with empty replica state:
            # re-ship every session whose replica routes to it.
            self._spawn(self._resync_peer(state))

    async def _peer_down(self, link: PeerLink) -> None:
        self._count("fed_peer_down_total")
        self.server._journal.record("fed_peer_down", peer=link.name)

    async def _resync_peer(self, state: _PeerState) -> None:
        for record in list(self.server._records.values()):
            if self.replica_for(record.session_id) is not state:
                continue
            try:
                if await self.replicate_open(record):
                    self._count("fed_resyncs_total")
            except SessionFenced:
                continue  # the record was popped; the peer owns it now
            except Exception:  # noqa: BLE001 - resync is best-effort
                return

    # ------------------------------------------------------------ peer state
    def peer_up(self, state: _PeerState) -> bool:
        """Whether the peer link is connected and heartbeats are flowing."""
        return state.link is not None and state.link.up

    def owner_for_region(self, region: str) -> _PeerState | None:
        """The peer advertising ``region`` (name order breaks ties)."""
        for name in sorted(self._peers):
            if region in self._peers[name].regions:
                return self._peers[name]
        return None

    def partitioned_peers(self) -> list[str]:
        """Names of configured peers currently unreachable (sorted)."""
        return sorted(name for name, s in self._peers.items() if not self.peer_up(s))

    def _redirect(self, state: _PeerState, path: str) -> _HttpError:
        location = state.http + path
        return _HttpError(
            307,
            f"resource is owned by peer {state.spec.name!r}",
            headers={"Location": location},
            extra={
                "code": "federation_redirect",
                "peer": state.spec.name,
                "location": location,
            },
        )

    def _partition_error(self, region: str, state: _PeerState) -> _HttpError:
        retry_after = self.server.config.retry_after_s
        self._count("fed_partition_503_total")
        return _HttpError(
            503,
            f"region {region!r} is owned by peer {state.spec.name!r}, "
            "which is unreachable (partition)",
            headers={"Retry-After": str(max(1, round(retry_after)))},
            extra={
                "code": "region_partitioned",
                "peer": state.spec.name,
                "retry_after_s": retry_after,
            },
        )

    # -------------------------------------------------------- remote routing
    async def handle_remote_match(
        self, region: str, payload: dict, deadline: float | None
    ) -> tuple[int, dict]:
        """A ``/v1/match`` for a region another gateway owns."""
        state = self.owner_for_region(region)
        if state is None:
            raise UnknownRegion(
                f"region {region!r} is not served by this node or any federated peer"
            )
        body = payload.get("trajectories")
        single = False
        if body is None:
            body = [payload.get("points")]
            single = True
        if not isinstance(body, list) or not body:
            raise ProtocolError(
                "expected 'trajectories' (list of point lists) or 'points'"
            )
        if self.config.route_mode == "redirect":
            self._count("fed_redirects_total")
            raise self._redirect(state, "/v1/match")
        if not self.peer_up(state):
            raise self._partition_error(region, state)
        message: dict = {"op": "fed.match", "region": region, "trajectories": body}
        if deadline is not None:
            # Absolute monotonic deadlines do not cross hosts; ship the
            # remaining budget and let the owner re-anchor it.
            message["budget_ms"] = max(0.0, (deadline - time.monotonic()) * 1000.0)
        try:
            reply = await state.link.call(message, timeout=self.config.call_timeout_s)
        except (PeerDown, TimeoutError, asyncio.TimeoutError) as error:
            raise self._partition_error(region, state) from error
        if not reply.get("ok", False):
            raise _WorkerOpError(reply.get("error") or {})
        self._count("fed_proxied_matches_total")
        for name, key in (
            ("trajectories_matched", "matched"),
            ("match_degraded_total", "degraded"),
            ("match_failed_total", "failed"),
        ):
            amount = reply.get(key, 0)
            if amount:
                self.server.metrics.increment(name, amount)
        return self.server._encode_match_slots(reply["results"], single)

    def remote_session_error(self, region: str, path: str) -> Exception:
        """The error for a session op targeting a region owned elsewhere."""
        state = self.owner_for_region(region)
        if state is None:
            return UnknownRegion(
                f"region {region!r} is not served by this node or any federated peer"
            )
        if self.peer_up(state):
            self._count("fed_redirects_total")
            return self._redirect(state, path)
        return self._partition_error(region, state)

    # ------------------------------------------------------------ replication
    def replica_for(self, session_id: str) -> _PeerState | None:
        """The peer holding ``session_id``'s journal replica (ring-stable)."""
        if not self._peers or not self.config.replicate:
            return None
        try:
            name = self._ring.route(session_id)
        except ClusterUnavailable:  # pragma: no cover - peers imply a ring
            return None
        return self._peers.get(name)

    def _fence_local(self, record: _SessionRecord) -> None:
        """A peer rejected our fence: we were superseded.  Drop + 409."""
        self.server._records.pop(record.session_id, None)
        self._count("fed_fenced_total")
        self.server._journal.record(
            "fed_session_fenced", session=record.session_id, fence=record.fence
        )
        raise SessionFenced(record.session_id)

    async def replicate_open(self, record: _SessionRecord) -> bool:
        """Ship a session's full journal to its replica peer.

        Returns ``True`` when the replica acked; ``False`` when there is
        no reachable replica (the session keeps serving — availability
        over replication, see the partition semantics).  Raises
        :class:`SessionFenced` when the peer holds a higher fence: this
        gateway no longer owns the session.
        """
        state = self.replica_for(record.session_id)
        if state is None:
            return False
        if not self.peer_up(state):
            record.replica_synced = False
            return False
        message = {
            "op": "fed.session.open",
            "session_id": record.session_id,
            "region": record.region,
            "lag": record.lag,
            "context_window": record.context_window,
            "owner": self.node,
            "fence": record.fence,
            "last_seq": record.last_seq,
            "journal": list(record.journal),
        }
        try:
            reply = await state.link.call(
                message, timeout=self.config.replication_timeout_s
            )
        except (PeerDown, TimeoutError, asyncio.TimeoutError):
            record.replica_synced = False
            self._count("fed_replication_failures_total")
            return False
        if reply.get("ok", False):
            record.replica_synced = True
            self._count("fed_replications_total")
            return True
        if (reply.get("error") or {}).get("code") == "fenced":
            self._fence_local(record)
        record.replica_synced = False
        self._count("fed_replication_failures_total")
        return False

    async def replicate_feed(self, record: _SessionRecord, points: list) -> bool:
        """Ship one accepted feed to the replica (semi-synchronous).

        ``record.journal`` already contains ``points``, so a resync after
        a missed delta simply re-ships the full journal.  Raises
        :class:`SessionFenced` when the replica adopted the session while
        we were unreachable — the caller must answer 409, never commit.
        """
        state = self.replica_for(record.session_id)
        if state is None:
            return False
        if not self.peer_up(state):
            record.replica_synced = False
            self._count("fed_replication_failures_total")
            return False
        if not record.replica_synced:
            return await self.replicate_open(record)
        message = {
            "op": "fed.session.feed",
            "session_id": record.session_id,
            "region": record.region,
            "points": points,
            "seq": record.last_seq,
            "fence": record.fence,
        }
        try:
            reply = await state.link.call(
                message, timeout=self.config.replication_timeout_s
            )
        except (PeerDown, TimeoutError, asyncio.TimeoutError):
            record.replica_synced = False
            self._count("fed_replication_failures_total")
            return False
        if reply.get("ok", False):
            self._count("fed_replications_total")
            return True
        code = (reply.get("error") or {}).get("code")
        if code == "fenced":
            self._fence_local(record)
        if code == "unknown_replica":
            # The peer restarted and lost the replica: full resync.
            return await self.replicate_open(record)
        record.replica_synced = False
        self._count("fed_replication_failures_total")
        return False

    async def confirm_close(self, record: _SessionRecord) -> bool:
        """Ask the replica to approve a close commit (fence check).

        ``False`` means the replica adopted the session — the commit must
        be refused.  An unreachable replica approves by default: the
        partition rules make the *isolated owner* keep serving its own
        sessions, and a concurrent adoption on the other side is resolved
        at heal time by the fence (whichever close landed first wins; the
        loser's next op is rejected).
        """
        state = self.replica_for(record.session_id)
        if state is None or not self.peer_up(state):
            return True
        try:
            reply = await state.link.call(
                {
                    "op": "fed.session.close",
                    "session_id": record.session_id,
                    "fence": record.fence,
                },
                timeout=self.config.replication_timeout_s,
            )
        except (PeerDown, TimeoutError, asyncio.TimeoutError):
            return True
        if reply.get("ok", False):
            return True
        if (reply.get("error") or {}).get("code") == "fenced":
            self._count("fed_fenced_total")
            self.server._journal.record(
                "fed_close_fenced", session=record.session_id, fence=record.fence
            )
            return False
        return True

    def drop_replica(self, record: _SessionRecord) -> None:
        """Fire-and-forget: tell the replica the session committed."""
        state = self.replica_for(record.session_id)
        if state is None or not self.peer_up(state):
            return

        async def _send() -> None:
            try:
                await state.link.call(
                    {
                        "op": "fed.session.drop",
                        "session_id": record.session_id,
                        "fence": record.fence,
                    },
                    timeout=self.config.replication_timeout_s,
                )
            except Exception:  # noqa: BLE001 - best effort
                pass

        self._spawn(_send())

    # --------------------------------------------------------------- adoption
    def resolve_session(self, session_id: str, path: str) -> _SessionRecord:
        """Place an unknown session id: redirect to a live owner, or adopt.

        Called when a session op arrives for an id this gateway does not
        own.  If we hold its replica and the owner is *up*, the client is
        misrouted — 307 to the owner.  If the owner is down (heartbeat
        timeout), we adopt: mint a higher fence, rebuild a gateway record
        from the replicated journal, and let the normal replay machinery
        commit the bit-identical path.  No replica → the id is unknown.
        """
        replica = self._replicas.get(session_id)
        if replica is None:
            raise UnknownSessionError(session_id)
        owner_state = self._peers.get(replica.owner)
        if owner_state is not None and self.peer_up(owner_state):
            self._count("fed_redirects_total")
            raise self._redirect(owner_state, path)
        if replica.region not in self.server.registry.regions:
            raise ClusterUnavailable(
                f"session {session_id} belongs to region {replica.region!r}, "
                "which is not served on this node"
            )
        fence = max(replica.fence, self._session_fences.get(session_id, -1)) + 1
        self._session_fences[session_id] = fence
        self._replicas.pop(session_id, None)
        record = _SessionRecord(
            session_id=session_id,
            region=replica.region,
            lag=replica.lag,
            context_window=replica.context_window,
            worker_name="",
            generation=-1,  # forces a journal replay on the first op
            journal=list(replica.journal),
            last_touched=time.monotonic(),
        )
        record.fence = fence
        record.last_seq = replica.last_seq
        self._count("fed_adoptions_total")
        self.server._journal.record(
            "fed_session_adopted",
            session=session_id,
            owner=replica.owner,
            fence=fence,
            points=len(record.journal),
        )
        return record

    # --------------------------------------------------------- inbound frames
    async def _dispatch_frame(self, message: dict) -> dict:
        op = str(message.get("op") or "")
        base = {"id": message.get("id")}
        handler = self._OPS.get(op)
        if handler is None:
            return {
                **base,
                "ok": False,
                "error": {
                    "code": "protocol_error",
                    "message": f"unknown federation op {op!r}",
                    "status": 400,
                },
            }
        try:
            result = await handler(self, message)
        except Exception as error:  # noqa: BLE001 - answer, don't drop the link
            return {**base, "ok": False, "error": _error_payload(error)}
        return {**base, "ok": True, **result}

    async def _op_ping(self, message: dict) -> dict:
        return {"pong": True, "node": self.node, "epoch": self.epoch}

    async def _op_match(self, message: dict) -> dict:
        """Serve a proxied match for a region we own (gated like HTTP)."""
        region = message.get("region", DEFAULT_REGION)
        server = self.server
        server._check_draining()
        deadline = None
        budget = message.get("budget_ms")
        if isinstance(budget, (int, float)) and not isinstance(budget, bool):
            deadline = time.monotonic() + max(0.0, float(budget)) / 1000.0
        if region not in server.registry.regions:
            raise UnknownRegion(f"region {region!r} is not served here")
        await server._gate.acquire(deadline)
        try:
            reply = await server._match_on_worker(
                region, message.get("trajectories") or [], deadline
            )
        finally:
            server._gate.release()
        return {
            "results": reply["results"],
            "matched": reply.get("matched", 0),
            "degraded": reply.get("degraded", 0),
            "failed": reply.get("failed", 0),
        }

    def _effective_fence(self, session_id: str) -> int:
        fence = -1
        replica = self._replicas.get(session_id)
        if replica is not None:
            fence = max(fence, replica.fence)
        owned = self.server._records.get(session_id)
        if owned is not None:
            fence = max(fence, owned.fence)
        adopted = self._session_fences.get(session_id)
        if adopted is not None:
            fence = max(fence, adopted)
        return fence

    @staticmethod
    def _fenced_error(session_id: str, fence) -> dict:
        return {
            "error": {
                "code": "fenced",
                "message": f"fence {fence!r} for session {session_id} is stale",
                "status": 409,
            }
        }

    def _prune_replicas(self) -> None:
        ttl = self.server.config.session_ttl_s * 4.0
        now = time.monotonic()
        stale = [
            sid
            for sid, rec in self._replicas.items()
            if now - rec.received_at > ttl
        ]
        for sid in stale:
            self._replicas.pop(sid, None)

    async def _op_session_open(self, message: dict) -> dict:
        sid = str(message.get("session_id"))
        fence = message.get("fence", 0)
        if isinstance(fence, bool) or not isinstance(fence, int):
            raise ProtocolError("field 'fence' must be an integer")
        if fence < self._effective_fence(sid):
            return {"ok": False, **self._fenced_error(sid, fence)}
        owned = self.server._records.get(sid)
        if owned is not None:
            if fence <= owned.fence:
                return {"ok": False, **self._fenced_error(sid, fence)}
            # We believed we owned this session but a peer holds a higher
            # fence: we were superseded while unreachable (resumed after a
            # stop/partition).  Cede ownership; we are the replica now.
            self.server._records.pop(sid, None)
            self._count("fed_fenced_total")
            self.server._journal.record(
                "fed_ownership_ceded", session=sid, fence=fence
            )
        self._replicas[sid] = _ReplicaRecord(
            session_id=sid,
            region=str(message.get("region", DEFAULT_REGION)),
            lag=int(message.get("lag", 0)),
            context_window=int(message.get("context_window", 0)),
            owner=str(message.get("owner", "")),
            fence=fence,
            last_seq=int(message.get("last_seq", -1)),
            journal=list(message.get("journal") or []),
            received_at=time.monotonic(),
        )
        self._prune_replicas()
        return {"accepted": True}

    async def _op_session_feed(self, message: dict) -> dict:
        sid = str(message.get("session_id"))
        fence = message.get("fence", 0)
        replica = self._replicas.get(sid)
        if replica is None:
            return {
                "ok": False,
                "error": {
                    "code": "unknown_replica",
                    "message": f"no replica for session {sid}",
                    "status": 404,
                },
            }
        if self.server._records.get(sid) is not None or fence < self._effective_fence(sid):
            return {"ok": False, **self._fenced_error(sid, fence)}
        seq = message.get("seq")
        if isinstance(seq, int) and not isinstance(seq, bool) and seq >= 0:
            if seq <= replica.last_seq:
                return {"accepted": True, "duplicate": True}
            replica.last_seq = seq
        points = message.get("points")
        if isinstance(points, list):
            replica.journal.extend(points)
        replica.received_at = time.monotonic()
        return {"accepted": True, "points": len(replica.journal)}

    async def _op_session_close(self, message: dict) -> dict:
        sid = str(message.get("session_id"))
        fence = message.get("fence", 0)
        owned = self.server._records.get(sid)
        if owned is not None and fence <= owned.fence:
            return {"ok": False, **self._fenced_error(sid, fence)}
        if fence < self._effective_fence(sid):
            return {"ok": False, **self._fenced_error(sid, fence)}
        replica = self._replicas.get(sid)
        if replica is not None:
            replica.closing = True
        return {"approved": True}

    async def _op_session_drop(self, message: dict) -> dict:
        sid = str(message.get("session_id"))
        fence = message.get("fence", 0)
        if isinstance(fence, int) and fence >= self._effective_fence(sid):
            self._replicas.pop(sid, None)
        return {"dropped": True}

    # --------------------------------------------------------- observability
    def snapshot(self) -> dict:
        """Federation state for ``/healthz`` and ``/metrics`` (peers, replicas)."""
        now = time.monotonic()
        peers = {}
        for name in sorted(self._peers):
            state = self._peers[name]
            link = state.link
            peers[name] = {
                "up": self.peer_up(state),
                "regions": sorted(state.regions),
                "http": state.http,
                "connects": link.connects if link is not None else 0,
                "last_seen_age_s": (
                    round(now - link.last_seen, 3)
                    if link is not None and link.last_seen
                    else None
                ),
            }
        return {
            "node": self.node,
            "epoch": self.epoch,
            "listen": {
                "host": self._listener.host if self._listener else self.config.listen_host,
                "port": self.fed_port,
            },
            "route_mode": self.config.route_mode,
            "replicate": self.config.replicate,
            "peers": peers,
            "partitioned": self.partitioned_peers(),
            "replica_sessions": len(self._replicas),
            "adopted_fences": len(self._session_fences),
        }
