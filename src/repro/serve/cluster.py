"""The matching service: asyncio gateway + matcher worker fleet.

This is the one serving shape — ``--workers 1`` is the small case:

* a single-threaded **gateway** (one asyncio loop) owns HTTP parsing,
  admission control, the response cache, and session affinity — no
  per-request threads;
* N forked **worker processes** each run the full ``LHMM`` /
  ``OnlineLHMM`` machinery over shared-memory artifacts
  (:mod:`repro.serve.shards`) and speak the length-prefixed IPC protocol
  of :mod:`repro.serve.ipc` over a ``socketpair`` — one socket per
  worker, many in-flight operations multiplexed by message id;
* **consistent-hash routing** pins each streaming session to one worker
  so its fixed-lag decoder stays sticky across requests.  Worker names
  (``w0`` … ``wN-1``) are the ring nodes: a respawned worker keeps its
  name and therefore its ring position, so recovery is deterministic.

Failure semantics: when a worker dies, its in-flight operations fail
over to siblings, the supervisor forks a replacement under the same name
(bounded by ``respawn_limit``), and its streaming sessions are
*replayed* — the gateway journals every accepted point per session and
feeds the journal back into the new owner before the next operation.
``OnlineLHMM`` decoding is deterministic, so a replayed session commits
exactly the path the lost one would have.  Once the respawn budget is
exhausted a worker's name leaves the ring; only ~1/N of sessions
re-route (the consistent-hash property, covered by a hypothesis test).

On top of the data plane sits a **control plane** (primitives in
:mod:`repro.serve.control`):

* a **supervision loop** probes every worker over IPC on a miss budget,
  SIGKILLs stalled-but-alive workers so the normal death path recovers
  them, respawns crashed workers with exponential backoff, and ejects a
  crash-looping worker's ring slot via a per-worker breaker instead of
  fork-bombing forever;
* a **queue-depth autoscaler** forks extra workers when the admission
  queue backs up and drains + retires them when load subsides, bounded
  by ``min_workers``/``max_workers``, every decision journaled;
* **zero-downtime rollout** (``POST /v1/admin/rollout`` or SIGHUP via
  the CLI): a new artifact generation is staged into fresh shared
  memory, canaried on a throwaway probe worker, committed, and the
  fleet is swapped one worker at a time — streaming sessions replay
  deterministically onto the new generation, in-flight requests finish
  on the old one, and a failed canary unlinks the staged segments with
  the old generation never disturbed;
* **live A/B traffic splitting** (``POST /v1/admin/ab``): a challenger
  generation is staged and canaried exactly like a rollout, then served
  by one dedicated worker receiving a deterministic hash-based fraction
  of ``/v1/match`` traffic (:mod:`repro.serve.ab`); per-generation
  counters ride ``/metrics``, and ``promote``/``abort`` finalise the
  test through the same stage→canary→swap machinery;
* **deadline propagation + load shedding**: a client ``deadline_ms``
  becomes an absolute monotonic deadline riding the IPC frames; expired
  work is shed at the admission-queue head (and at op start in the
  worker) with HTTP 504, while queue overflow answers 503 +
  ``Retry-After``.

The HTTP surface is the JSON protocol of :mod:`repro.serve.protocol`
(``/v1/match``, ``/v1/sessions``, ``/healthz``, ``/metrics``) plus an
optional ``region`` field that selects a shard; responses are
byte-identical to direct ``LHMM.match`` / ``OnlineLHMM`` calls — the
parity oracle runs against the gateway unchanged.  The hand-written
HTTP/1.1 reader bounds what it accepts from untrusted clients — request
line (414), header lines and header count (431), body size (413), and
the time to deliver one request (the connection is closed) — and
refuses a ``Transfer-Encoding`` body or a non-numeric
``Content-Length`` (400) instead of misparsing a pipelined stream.
"""

from __future__ import annotations

import asyncio
import atexit
import bisect
import hashlib
import itertools
import json
import os
import re
import signal
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.online import OnlineLHMM
from repro.errors import (
    ClusterUnavailable,
    DeadlineExceeded,
    InvalidTrajectoryInput,
    MatchError,
    ModelReloadFailed,
    ReproError,
    ServerOverloaded,
    UnknownRegion,
    WorkerCrash,
)
from repro.serve import ipc, protocol
from repro.serve.ab import ABState, canonical_key
from repro.serve.control import (
    AdmissionGate,
    AutoscalerPolicy,
    ControlJournal,
    CrashTracker,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import ProtocolError
from repro.serve.shards import DEFAULT_REGION, ShardRegistry
from repro.testing import faults


# =====================================================================
# consistent-hash ring
# =====================================================================
class ConsistentHashRing:
    """Deterministic consistent hashing with virtual nodes.

    Each node is planted at ``replicas`` pseudo-random points on a 64-bit
    ring (blake2b of ``"{node}#{i}"`` — stable across processes and
    Python runs, unlike ``hash()``); a key routes to the first node
    clockwise from its own hash.  Removing a node re-routes only the keys
    that landed on its points (~1/N of them); every other key keeps its
    owner — exactly the property session stickiness needs across worker
    fleet changes.
    """

    def __init__(self, nodes: tuple[str, ...] = (), replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._nodes: set[str] = set()
        self._points: list[tuple[int, str]] = []
        self._hashes: list[int] = []
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def _rebuild(self) -> None:
        self._points.sort()
        self._hashes = [h for h, _ in self._points]

    def add(self, node: str) -> None:
        """Plant ``node``'s virtual points (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        self._points.extend(
            (self._hash(f"{node}#{i}"), node) for i in range(self.replicas)
        )
        self._rebuild()

    def remove(self, node: str) -> None:
        """Remove ``node``; keys it owned re-route to their successors."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [(h, n) for h, n in self._points if n != node]
        self._rebuild()

    def route(self, key: str) -> str:
        """The node owning ``key``; raises when the ring is empty."""
        if not self._points:
            raise ClusterUnavailable("no workers available (empty routing ring)")
        pos = bisect.bisect_right(self._hashes, self._hash(key))
        if pos == len(self._points):
            pos = 0
        return self._points[pos][1]

    @property
    def nodes(self) -> set[str]:
        """The live node names."""
        return set(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


# =====================================================================
# configuration
# =====================================================================
@dataclass(slots=True)
class ClusterConfig:
    """Tunables of the cluster gateway and its worker fleet."""

    host: str = "127.0.0.1"
    port: int = 8080
    num_workers: int = 2
    default_lag: int = 4
    default_context_window: int = 12
    max_sessions: int = 256
    session_ttl_s: float = 300.0
    #: Concurrent worker operations the gateway runs at once; arrivals
    #: beyond this wait in the admission queue (see ``queue_limit``).
    max_inflight: int = 64
    #: Admission-queue waiters beyond ``max_inflight`` before arrivals
    #: are shed with 503 + ``Retry-After`` (``server_overloaded``).
    queue_limit: int = 128
    retry_after_s: float = 1.0
    op_timeout_s: float = 120.0
    max_body_bytes: int = 8 * 1024 * 1024
    #: Response-cache entries for ``/v1/match`` (0 disables).  Keys are
    #: the canonicalised (region, trajectory) payload, so a cache hit
    #: returns the byte-identical body a worker would compute.
    cache_size: int = 1024
    #: Worker respawns allowed across the fleet before a dead worker's
    #: name permanently leaves the ring.
    respawn_limit: int = 3
    ring_replicas: int = 64
    shutdown_timeout_s: float = 30.0
    # ---- control plane -------------------------------------------------
    #: Autoscaler floor/ceiling; ``None`` pins both to ``num_workers``
    #: (autoscaling effectively off, the pre-control-plane behaviour).
    min_workers: int | None = None
    max_workers: int | None = None
    #: Supervision tick (gate sweep, probe scheduling, autoscale check).
    control_interval_s: float = 0.25
    #: Health-probe cadence/timeout and how many consecutive unanswered
    #: probes mark an alive-but-unresponsive worker as stalled (SIGKILL).
    probe_interval_s: float = 5.0
    probe_timeout_s: float = 2.0
    probe_miss_budget: int = 3
    #: Per-worker crash-loop breaker: this many crashes inside the window
    #: ejects the worker's ring slot and degrades ``/healthz``.
    breaker_threshold: int = 5
    breaker_window_s: float = 30.0
    #: Respawn backoff: ``base * 2**(recent_crashes-1)`` capped at max.
    backoff_base_s: float = 0.1
    backoff_max_s: float = 5.0
    #: Autoscaler thresholds (see :class:`~repro.serve.control.AutoscalerPolicy`).
    scale_up_depth: int = 4
    scale_up_wait_s: float = 0.5
    scale_up_cooldown_s: float = 1.0
    scale_down_cooldown_s: float = 5.0
    scale_down_idle_ticks: int = 8
    #: How long a retiring/replaced worker may finish in-flight ops, and
    #: how long a shutdown waits for admitted requests to be answered.
    drain_timeout_s: float = 10.0
    #: Golden-corpus trajectories the rollout canary must match.
    canary_count: int = 5
    #: Control-journal JSONL path (falls back to ``$REPRO_CLUSTER_JOURNAL``;
    #: ``None`` keeps the journal in memory only).
    journal_path: str | None = None
    # ---- federation -----------------------------------------------------
    #: A :class:`repro.serve.federation.FederationConfig` joining this
    #: gateway to peer gateways on other hosts; ``None`` = standalone.
    federation: object | None = None
    extra_metrics: dict = field(default_factory=dict)


@dataclass(slots=True)
class _SessionRecord:
    """Gateway-side truth about one streaming session."""

    session_id: str
    region: str
    lag: int
    context_window: int
    worker_name: str
    generation: int
    journal: list[dict] = field(default_factory=list)
    last_touched: float = 0.0
    #: Federation fencing token: bumped each time a replica gateway
    #: adopts the session, so a superseded owner's ops are rejectable.
    fence: int = 0
    #: Highest client ``seq`` accepted (idempotent feed retries) and the
    #: state returned for it (replayed verbatim on a duplicate).
    last_seq: int = -1
    last_state: dict | None = None
    #: Whether the replica peer holds the full journal (federation).
    replica_synced: bool = False
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)


@dataclass(slots=True)
class _ABRecord:
    """One live A/B test in the cluster: staged shard + its worker.

    The challenger generation stays *staged* (never committed) for the
    whole test: it is served by one dedicated worker forked against a
    staged registry view, held outside the handles map and the ring so
    neither the supervisor, the autoscaler, nor session routing ever
    see it.  ``promote`` commits the shard and runs the normal fleet
    swap; ``abort`` unlinks it with the champion never disturbed.
    """

    region: str
    state: object  # ABState
    staged: object  # LoadedShard
    handle: "_WorkerHandle"


class UnknownSessionError(KeyError):
    """The session id does not exist (expired, closed, or never created)."""


class SessionLimitError(RuntimeError):
    """``max_sessions`` live sessions already exist (HTTP 429)."""


class SessionFenced(Exception):
    """A federated session op lost a fencing race (HTTP 409).

    Raised when this gateway's fence for a session turns out to be stale
    — a replica peer adopted the session while this gateway was
    partitioned or stopped.  The local record is already dropped by the
    time this propagates; the adopted copy is the only one that commits.
    """


class _HttpError(Exception):
    """Internal: carry status + payload up to the HTTP dispatcher."""

    def __init__(
        self, status: int, message: str, headers: dict | None = None, extra: dict | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}
        self.extra = extra or {}


class _WorkerOpError(Exception):
    """A structured error slot returned by a worker for a whole op."""

    def __init__(self, payload: dict) -> None:
        super().__init__(payload.get("message", "worker error"))
        self.code = payload.get("code", "internal_error")
        self.status = int(payload.get("status", 500))
        self.payload = payload


class _ResponseCache:
    """LRU cache of encoded ``/v1/match`` result slots."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[tuple, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> dict | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, value: dict) -> None:
        if self.capacity <= 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (a new generation was committed); keep stats."""
        self._entries.clear()

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
        }


# =====================================================================
# worker process
# =====================================================================
def _process_memory() -> dict:
    """This process's memory split (kB) from ``/proc`` (Linux).

    ``private_kb`` approximates USS — the pages this worker uniquely
    owns.  With artifacts in shared memory it stays near-constant as the
    fleet grows; that is the number the benchmark reports as proof the
    artifacts are loaded once, not per-process.
    """
    fields = {"rss_kb": 0, "private_kb": 0, "shared_kb": 0}
    wanted = {
        "Rss": "rss_kb",
        "Private_Clean": "private_kb",
        "Private_Dirty": "private_kb",
        "Shared_Clean": "shared_kb",
        "Shared_Dirty": "shared_kb",
    }
    try:
        text = Path("/proc/self/smaps_rollup").read_text()
    except OSError:  # pragma: no cover - non-Linux
        return fields
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        target = wanted.get(key.strip())
        if target is None:
            continue
        parts = rest.split()
        if parts and parts[0].isdigit():
            fields[target] += int(parts[0])
    return fields


def _error_payload(error: BaseException) -> dict:
    """Map an exception onto the wire ``{code, message, status}`` form."""
    if isinstance(error, ProtocolError):
        return {"code": "protocol_error", "message": str(error), "status": 400}
    if isinstance(error, UnknownSessionError):
        return {
            "code": "unknown_session",
            "message": f"unknown session {error.args[0]!r}",
            "status": 404,
        }
    if isinstance(error, ReproError):
        return {
            "code": error.code,
            "message": str(error),
            "status": error.http_status,
        }
    if isinstance(error, ValueError):
        return {"code": "protocol_error", "message": str(error), "status": 400}
    return {"code": "internal_error", "message": f"internal error: {error}", "status": 500}


class _WorkerRuntime:
    """Everything one worker process keeps between operations."""

    def __init__(self, registry: ShardRegistry, options: dict) -> None:
        self.options = options
        self.registry = registry
        self.matched_total = 0
        self._matchers = {}
        self._packs = {}
        #: Streaming decoders by ``(region, session_id)`` with the time
        #: each was last used.  The gateway owns session lifecycle
        #: (ids, admission, TTL); this map is only decoder state.
        self._decoders: dict[tuple[str, str], tuple[OnlineLHMM, float]] = {}
        # Attach every region up front: startup is the cheap moment to
        # pay mapping costs, and a worker that cannot attach must die
        # *before* it is offered traffic.
        for region in registry.regions:
            matcher, pack = registry.attach_matcher(region)
            self._matchers[region] = matcher
            self._packs[region] = pack

    def _matcher(self, region: str):
        try:
            return self._matchers[region]
        except KeyError:
            raise UnknownRegion(f"region {region!r} is not served here") from None

    def _decoder(self, message: dict) -> tuple[tuple[str, str], OnlineLHMM]:
        key = (message.get("region", DEFAULT_REGION), message["session_id"])
        entry = self._decoders.get(key)
        if entry is None:
            raise UnknownSessionError(key[1])
        return key, entry[0]

    # --------------------------------------------------------------- ops
    def handle(self, message: dict) -> dict:
        op = message.get("op")
        try:
            faults.fire("cluster.op", op=op, worker=self.options.get("name"))
            # Deadline propagation: the gateway stamps ops with the
            # client's absolute CLOCK_MONOTONIC deadline (system-wide on
            # Linux, so fork children share the clock).  Work whose
            # caller has already given up is shed here, before any
            # matching runs.
            deadline = message.get("deadline")
            if isinstance(deadline, (int, float)) and time.monotonic() >= float(deadline):
                raise DeadlineExceeded(
                    f"deadline expired before the {op!r} op could run"
                )
            handler = getattr(self, "_op_" + str(op).replace(".", "_"), None)
            if handler is None:
                raise ProtocolError(f"unknown ipc op {op!r}")
            result = handler(message)
            return {"id": message.get("id"), "ok": True, **result}
        except Exception as error:  # noqa: BLE001 - a worker must not die on input
            return {"id": message.get("id"), "ok": False, "error": _error_payload(error)}

    def _op_match(self, message: dict) -> dict:
        matcher = self._matcher(message.get("region", DEFAULT_REGION))
        raw = message.get("trajectories")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError("expected 'trajectories' (list of point lists)")
        trajectories = [
            protocol.decode_trajectory(item, trajectory_id=i, context=f"trajectories[{i}]")
            for i, item in enumerate(raw)
        ]
        for i, trajectory in enumerate(trajectories):
            matcher.validate_trajectory(trajectory, context=f"trajectories[{i}]")
        slots = matcher.match_many(trajectories, return_errors=True)
        results: list[dict] = []
        matched = degraded = failed = 0
        for slot in slots:
            if isinstance(slot, MatchError):
                failed += 1
                results.append(
                    {
                        "ok": False,
                        "error": {
                            **slot.to_payload(),
                            "status": slot.http_status,
                        },
                    }
                )
            else:
                matched += 1
                if getattr(slot, "provenance", "lhmm") != "lhmm":
                    degraded += 1
                results.append({"ok": True, "result": protocol.encode_match_result(slot)})
        self.matched_total += matched
        return {
            "results": results,
            "matched": matched,
            "degraded": degraded,
            "failed": failed,
        }

    def _op_session_open(self, message: dict) -> dict:
        """Build a fresh decoder, replacing any under the same id.

        The gateway decides when a session is (re)built and always
        replays its full journal after an open, so a stale decoder left
        here by an earlier owner round must never block the rebuild.
        """
        region = message.get("region", DEFAULT_REGION)
        matcher = self._matcher(region)
        lag = message.get("lag")
        context_window = message.get("context_window")
        decoder = OnlineLHMM(
            matcher,
            lag=self.options["default_lag"] if lag is None else int(lag),
            context_window=(
                self.options["default_context_window"]
                if context_window is None
                else int(context_window)
            ),
        )
        # Backstop against orphans (sessions that moved to another
        # worker or expired at the gateway): drop decoders idle for
        # four gateway TTLs.
        now = time.monotonic()
        idle_limit = 4.0 * self.options["session_ttl_s"]
        for key, (_, touched) in list(self._decoders.items()):
            if now - touched > idle_limit:
                del self._decoders[key]
        self._decoders[(region, message["session_id"])] = (decoder, now)
        return {
            "session_id": message["session_id"],
            "lag": decoder.lag,
            "context_window": decoder.context_window,
        }

    def _op_session_feed(self, message: dict) -> dict:
        points = protocol.decode_points(message.get("points"), "points")
        key, decoder = self._decoder(message)
        self._decoders[key] = (decoder, time.monotonic())
        for point in points:
            decoder.add_point(point)
        return {
            "state": {
                "committed": decoder.committed_path,
                "pending": decoder.pending_points(),
            }
        }

    def _op_session_close(self, message: dict) -> dict:
        key, decoder = self._decoder(message)
        del self._decoders[key]
        return {"final": {"path": decoder.finish()}}

    def _op_stats(self, message: dict) -> dict:
        return {
            "memory": _process_memory(),
            "live_decoders": len(self._decoders),
            "matched_total": self.matched_total,
        }

    def _op_ping(self, message: dict) -> dict:
        return {"pong": True}

    def _op_canary(self, message: dict) -> dict:
        """Golden-corpus smoke check of this worker's attached artifacts.

        Run by the rollout's throwaway probe worker, which is the only
        process attached to a *staged* generation: a non-empty problem
        list vetoes the rollout before any serving worker is touched.
        """
        from repro.testing.golden import canary_trajectories, run_canary

        region = message.get("region", DEFAULT_REGION)
        count = message.get("count", 5)
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ProtocolError("field 'count' must be a positive integer")
        matcher = self._matcher(region)
        shard = self.registry.shard(region)
        # The one shared canary-set definition (repro.testing.golden):
        # regenerating the corpus or re-cutting the dataset can never
        # desync this probe from the golden regression corpus.
        trajectories = canary_trajectories(shard.dataset, count)
        return {
            "problems": run_canary(matcher, trajectories),
            "checked": len(trajectories),
        }

    def _op_shutdown(self, message: dict) -> dict:
        # The gateway closes every session it commits before this op;
        # any decoder left is an orphan and dies with the process.
        return {}


def _worker_loop(sock: socket.socket, registry: ShardRegistry, options: dict) -> int:
    """The worker's request loop over an established socket; exit code."""
    try:
        runtime = _WorkerRuntime(registry, options)
        while True:
            message = ipc.recv_message(sock)
            if message is None:
                break
            ipc.send_message(sock, runtime.handle(message))
            if message.get("op") == "shutdown":
                break
    except (ipc.IpcError, OSError, BrokenPipeError):  # gateway went away
        return 1
    except Exception:  # pragma: no cover - startup failure (bad artifact)
        return 2
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass
    return 0


def _worker_main(
    sock: socket.socket,
    registry: ShardRegistry,
    options: dict,
    inherited_socks: tuple = (),
) -> None:
    """Entry point of one forked matcher worker (blocking loop)."""
    # Drop fork-inherited copies of the *gateway-side* IPC sockets — our
    # own and every sibling's.  Holding them would mean no worker ever
    # reads EOF after the gateway is SIGKILLed (each keeps the others'
    # write ends alive), leaving an orphan fleet pinning the janitor
    # pipe and therefore the shared segments.
    for stale in inherited_socks:
        try:
            stale.close()
        except OSError:  # pragma: no cover - already closed
            pass
    # The gateway's signals are not ours: a Ctrl+C against the CLI lands
    # on the whole process group, but workers must only exit on a
    # shutdown op (or gateway death = socket EOF) so drains stay orderly.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        signal.signal(signal.SIGHUP, signal.SIG_IGN)
    except (AttributeError, ValueError):  # pragma: no cover - non-POSIX
        pass
    exit_code = _worker_loop(sock, registry, options)
    # Skip interpreter teardown: a fork child sharing the gateway's
    # state must not run its atexit hooks (resource tracker, etc.).
    os._exit(exit_code)


# =====================================================================
# gateway-side worker handle
# =====================================================================
class _WorkerHandle:
    """One worker process as seen from the gateway's event loop."""

    def __init__(
        self,
        name: str,
        generation: int,
        process,
        sock: socket.socket,
    ) -> None:
        self.name = name
        self.generation = generation
        self.process = process
        #: Gateway-side socketpair end.
        self.sock = sock
        self.alive = True
        self.requests_total = 0
        self.inflight = 0
        #: Scale-down/rollout drain flag: no new work routes here.
        self.retiring = False
        #: Consecutive unanswered health probes (supervision loop).
        self.probe_misses = 0
        self.next_probe_at = time.monotonic()
        self.probe_task: asyncio.Task | None = None
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._writer: asyncio.StreamWriter | None = None
        self._write_lock: asyncio.Lock | None = None
        self._reader_task: asyncio.Task | None = None

    async def connect(self, on_down) -> None:
        """Wrap the socketpair end in asyncio streams; start the reader."""
        reader, writer = await asyncio.open_connection(sock=self.sock)
        self._writer = writer
        self._write_lock = asyncio.Lock()
        self._reader_task = asyncio.create_task(self._read_loop(reader, on_down))

    async def _read_loop(self, reader: asyncio.StreamReader, on_down) -> None:
        try:
            while True:
                message = await ipc.read_message(reader)
                if message is None:
                    break
                future = self._pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (ipc.IpcError, ConnectionResetError, OSError):
            pass
        finally:
            self.alive = False
            self.fail_pending(WorkerCrash(f"worker {self.name} connection lost"))
            await on_down(self)

    def fail_pending(self, error: Exception) -> None:
        for future in list(self._pending.values()):
            if not future.done():
                future.set_exception(error)
        self._pending.clear()

    async def call(self, op: dict, timeout: float) -> dict:
        """Send one op and await its response (raises on worker death)."""
        if not self.alive or self._writer is None:
            raise WorkerCrash(f"worker {self.name} is not available")
        message_id = next(self._ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[message_id] = future
        self.requests_total += 1
        self.inflight += 1
        try:
            async with self._write_lock:
                await ipc.write_message(self._writer, {**op, "id": message_id})
            response = await asyncio.wait_for(future, timeout)
        except (asyncio.TimeoutError, ConnectionResetError, BrokenPipeError) as error:
            self._pending.pop(message_id, None)
            raise WorkerCrash(
                f"worker {self.name} did not answer a {op.get('op')!r} op ({error!r})"
            ) from error
        finally:
            self.inflight -= 1
            self._pending.pop(message_id, None)
        if not response.get("ok", False):
            raise _WorkerOpError(response.get("error") or {})
        return response

    def reap(self, timeout: float = 5.0) -> None:
        """Blocking: join the process, escalating to terminate/kill."""
        process = self.process
        process.join(timeout)
        if process.is_alive():
            process.terminate()
            process.join(2.0)
        if process.is_alive():  # pragma: no cover - stuck in uninterruptible IO
            process.kill()
            process.join(2.0)

    def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
        if self._writer is not None:
            self._writer.close()


# =====================================================================
# the gateway
# =====================================================================
_ROUTES = (
    ("POST", re.compile(r"^/v1/sessions$"), "create_session"),
    ("POST", re.compile(r"^/v1/sessions/(?P<sid>[^/]+)/points$"), "feed_session"),
    ("DELETE", re.compile(r"^/v1/sessions/(?P<sid>[^/]+)$"), "close_session"),
    ("POST", re.compile(r"^/v1/match$"), "match"),
    ("POST", re.compile(r"^/v1/admin/rollout$"), "rollout"),
    ("POST", re.compile(r"^/v1/admin/ab$"), "ab_start"),
    ("POST", re.compile(r"^/v1/admin/ab/promote$"), "ab_promote"),
    ("POST", re.compile(r"^/v1/admin/ab/abort$"), "ab_abort"),
    ("GET", re.compile(r"^/healthz$"), "healthz"),
    ("GET", re.compile(r"^/metrics$"), "metrics"),
)


#: Counters behind a ``degraded`` ``/healthz`` verdict, always reported.
_DEGRADED_COUNTERS = (
    "match_degraded_total",
    "match_failed_total",
    "worker_respawns_total",
)


def _canonical_key(region: str, item) -> tuple:
    """Cache/singleflight key: region + canonical JSON of one trajectory."""
    return (region, json.dumps(item, sort_keys=True, separators=(",", ":")))


class ClusterServer:
    """The sharded serving cluster (gateway + worker fleet).

    Args:
        registry: A *published* :class:`ShardRegistry`.  The server owns
            it: shutdown unlinks the shared segments.
        config: Fleet/gateway tunables; ``port=0`` binds an ephemeral
            port (read :attr:`port` after :meth:`start`).

    Use as a context manager, or :meth:`start` / :meth:`shutdown`.  The
    event loop runs on a dedicated background thread; :meth:`start`
    forks the initial workers *before* that thread exists, which keeps
    the first fork single-threaded (respawns later fork from the loop
    thread — the child only ever runs :func:`_worker_main` and execs
    nothing, so that is safe).
    """

    def __init__(self, registry: ShardRegistry, config: ClusterConfig | None = None) -> None:
        self.registry = registry
        self.config = config or ClusterConfig()
        if self.config.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self._min_workers = self.config.min_workers or self.config.num_workers
        self._max_workers = self.config.max_workers or self.config.num_workers
        if not (1 <= self._min_workers <= self.config.num_workers <= self._max_workers):
            raise ValueError(
                f"need 1 <= min_workers ({self._min_workers}) <= num_workers "
                f"({self.config.num_workers}) <= max_workers ({self._max_workers})"
            )
        self.metrics = ServeMetrics()
        self._cache = _ResponseCache(self.config.cache_size)
        self._ring = ConsistentHashRing(replicas=self.config.ring_replicas)
        self._handles: dict[str, _WorkerHandle] = {}
        self._records: dict[str, _SessionRecord] = {}
        self._connections: set[asyncio.Task] = set()
        #: Requests between their head being read and their answer sent.
        self._requests_in_flight = 0
        self._inflight_keys: dict[tuple, asyncio.Future] = {}
        self._session_ids = itertools.count()
        self._respawns_used = 0
        self._draining = False
        self._started = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.Server | None = None
        self._bound: tuple[str, int] | None = None
        self._start_error: BaseException | None = None
        self._mp_context = None
        # ---- control plane ---------------------------------------------
        self._gate = AdmissionGate(self.config.max_inflight, self.config.queue_limit)
        self._journal = ControlJournal(
            self.config.journal_path or os.environ.get("REPRO_CLUSTER_JOURNAL") or None
        )
        self._crash_tracker = CrashTracker(
            threshold=self.config.breaker_threshold,
            window_s=self.config.breaker_window_s,
        )
        self._policy = AutoscalerPolicy(
            min_workers=self._min_workers,
            max_workers=self._max_workers,
            high_water_depth=self.config.scale_up_depth,
            high_water_wait_s=self.config.scale_up_wait_s,
            up_cooldown_s=self.config.scale_up_cooldown_s,
            down_cooldown_s=self.config.scale_down_cooldown_s,
            idle_ticks_needed=self.config.scale_down_idle_ticks,
        )
        self._worker_seq = itertools.count(self.config.num_workers)
        self._workers_target = self.config.num_workers
        self._control_task: asyncio.Task | None = None
        self._rollout_lock = asyncio.Lock()
        #: Live A/B tests, keyed by region (see :class:`_ABRecord`).
        self._ab: dict[str, _ABRecord] = {}
        # ---- federation -------------------------------------------------
        if self.config.federation is not None:
            from repro.serve.federation import FederationRuntime

            self._fed = FederationRuntime(self, self.config.federation)
        else:
            self._fed = None

    # ------------------------------------------------------------- lifecycle
    @property
    def host(self) -> str:
        return self._bound[0] if self._bound else self.config.host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral port)."""
        return self._bound[1] if self._bound else self.config.port

    @property
    def address(self) -> str:
        """``http://host:port`` of the running gateway."""
        return f"http://{self.host}:{self.port}"

    @property
    def min_workers(self) -> int:
        """The autoscaler's floor (defaults to ``num_workers``)."""
        return self._min_workers

    @property
    def max_workers(self) -> int:
        """The autoscaler's ceiling (defaults to ``num_workers``)."""
        return self._max_workers

    def _fork_worker(
        self,
        name: str,
        generation: int,
        registry: ShardRegistry | None = None,
        register: bool = True,
    ) -> _WorkerHandle:
        """Fork one worker; with ``register`` it joins the handles + ring.

        ``register=False`` keeps the worker private (rollout canary
        probes, and replacements that only join once they answer a ping).
        ``registry`` overrides the snapshot the child inherits (the
        canary probe forks against a staged view).
        """
        import multiprocessing

        if self._mp_context is None:
            self._mp_context = multiprocessing.get_context("fork")
        options = {
            "name": name,
            "default_lag": self.config.default_lag,
            "default_context_window": self.config.default_context_window,
            "session_ttl_s": self.config.session_ttl_s,
        }
        # The forked child inherits every gateway-side IPC fd open right
        # now — each sibling's socketpair end and its own parent end.  It
        # must close them all or gateway death never EOFs any worker's
        # socket (the fleet would keep itself alive, see ``_worker_main``).
        siblings = tuple(
            h.sock
            for h in (*self._handles.values(), *(r.handle for r in self._ab.values()))
        )
        parent_sock, child_sock = socket.socketpair()
        process = self._mp_context.Process(
            target=_worker_main,
            args=(
                child_sock,
                registry if registry is not None else self.registry,
                options,
                (parent_sock, *siblings),
            ),
            name=f"repro-cluster-{name}",
            daemon=True,
        )
        process.start()
        child_sock.close()
        parent_sock.setblocking(False)
        handle = _WorkerHandle(name, generation, process, parent_sock)
        if register:
            self._handles[name] = handle
            self._ring.add(name)
        return handle

    def _cleanup_at_exit(self) -> None:
        """atexit backstop: unlink segments if :meth:`shutdown` never ran.

        Idempotent (``ShardRegistry.close`` guards itself), so the normal
        shutdown path and this hook can both fire.  A SIGKILLed gateway
        runs neither — that hole is covered by the
        :class:`~repro.serve.shm.SegmentJanitor` forked at publish time.
        """
        try:
            self.registry.close(unlink=True)
        except Exception:  # noqa: BLE001 - interpreter is tearing down
            pass

    def start(self) -> "ClusterServer":
        """Fork the fleet, bind the gateway, serve on a background thread."""
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        atexit.register(self._cleanup_at_exit)
        for i in range(self.config.num_workers):
            self._fork_worker(f"w{i}", generation=1)
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop, args=(ready,), name="repro-cluster-gateway", daemon=True
        )
        self._thread.start()
        ready.wait(timeout=30.0)
        if self._start_error is not None:
            raise self._start_error
        if self._bound is None:
            raise RuntimeError("gateway failed to start within 30s")
        return self

    def _run_loop(self, ready: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._async_start())
        except BaseException as error:  # surface bind/connect failures
            self._start_error = error
            ready.set()
            loop.close()
            return
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    async def _async_start(self) -> None:
        for handle in self._handles.values():
            await handle.connect(self._on_worker_down)
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.config.host,
            self.config.port,
            limit=_MAX_LINE_BYTES,
        )
        self._bound = self._server.sockets[0].getsockname()[:2]
        if self._fed is not None:
            await self._fed.start()
        self._control_task = asyncio.create_task(self._control_loop())
        self._journal.record(
            "cluster_started",
            workers=self.config.num_workers,
            min_workers=self._min_workers,
            max_workers=self._max_workers,
        )

    def serve_forever(self) -> None:
        """Block the calling thread until :meth:`shutdown` (CLI mode)."""
        if self._thread is None:
            raise RuntimeError("call start() first")
        while self._thread.is_alive():
            self._thread.join(timeout=0.5)

    def shutdown(self, drain: bool = True) -> dict:
        """Graceful stop: 503 new work, close sessions, stop the fleet.

        Returns ``{"sessions": {id: path}}`` with the paths of sessions
        finalised during the drain.
        """
        if self._loop is None or self._thread is None or not self._thread.is_alive():
            self.registry.close(unlink=True)
            self._journal.close()
            atexit.unregister(self._cleanup_at_exit)
            return {"sessions": {}, "drained": drain}
        future = asyncio.run_coroutine_threadsafe(self._async_shutdown(drain), self._loop)
        try:
            summary = future.result(timeout=self.config.shutdown_timeout_s)
        except Exception:  # pragma: no cover - drain stuck; force down
            summary = {"sessions": {}, "drained": False}
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        for handle in self._handles.values():
            handle.reap()
        for record in self._ab.values():
            record.handle.reap()
        self.registry.close(unlink=True)
        self._journal.record("cluster_stopped")
        self._journal.close()
        atexit.unregister(self._cleanup_at_exit)
        return summary

    async def _async_shutdown(self, drain: bool) -> dict:
        self._draining = True
        if self._fed is not None:
            try:
                await self._fed.stop()
            except Exception:  # noqa: BLE001 - peers may already be gone
                pass
        if self._control_task is not None:
            self._control_task.cancel()
            await asyncio.gather(self._control_task, return_exceptions=True)
            self._control_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Admitted requests are answered (up to drain_timeout_s); then
        # idle keep-alive connections, which would otherwise outlive the
        # loop, are cancelled.
        deadline = time.monotonic() + self.config.drain_timeout_s
        while self._requests_in_flight and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        finished: dict[str, list] = {}
        if drain:
            for record in list(self._records.values()):
                try:
                    final = await self._session_op(record, "session.close", {})
                    finished[record.session_id] = final["final"]["path"]
                except Exception:  # noqa: BLE001 - best effort during drain
                    pass
        self._records.clear()
        ab_handles = [record.handle for record in self._ab.values()]
        handles = list(self._handles.values()) + ab_handles
        for handle in handles:
            if handle.alive:
                handle.retiring = True
                try:
                    await handle.call({"op": "shutdown"}, timeout=5.0)
                except Exception:  # noqa: BLE001
                    pass
            handle.close()
        # Let the cancelled reader loops finish before the loop stops.
        readers = [h._reader_task for h in handles if h._reader_task is not None]
        await asyncio.gather(*readers, return_exceptions=True)
        return {"sessions": finished, "drained": drain}

    def __enter__(self) -> "ClusterServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ----------------------------------------------------------- supervision
    async def _on_worker_down(self, handle: _WorkerHandle) -> None:
        """Reader-loop callback: a worker's socket went away.

        The full lifecycle decision lives here: a *retiring* worker's
        death is the expected end of a drain; otherwise the crash-loop
        breaker is consulted first (a flapping worker loses its ring slot
        for good), then the global respawn budget, and
        only then is a replacement forked — after an exponential backoff
        sized by the worker's recent crash count so a fast crash loop
        cannot saturate the gateway with forks.
        """
        if self._handles.get(handle.name) is not handle:
            return  # already swapped out (rollout) or retired
        if handle.retiring:
            self._handles.pop(handle.name, None)
            await asyncio.get_running_loop().run_in_executor(None, handle.reap)
            return
        if self._draining:
            return
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, handle.reap)
        self.metrics.increment("worker_deaths_total")
        self._journal.record(
            "worker_down", worker=handle.name, generation=handle.generation
        )
        if self._crash_tracker.record(handle.name):
            # Breaker open: eject the ring slot instead of cycling the
            # fork-crash loop forever; /healthz degrades until an
            # operator restarts the deployment.
            self._ring.remove(handle.name)
            self._handles.pop(handle.name, None)
            self.metrics.increment("breakers_open_total")
            self._journal.record(
                "breaker_open",
                worker=handle.name,
                crashes=self._crash_tracker.recent(handle.name),
                window_s=self.config.breaker_window_s,
            )
            return
        if self._respawns_used >= self.config.respawn_limit:
            # Budget exhausted: the name leaves the ring for good and its
            # sessions re-route (~1/N of all sessions move — consistent
            # hashing keeps the rest where they were).
            self._ring.remove(handle.name)
            self._handles.pop(handle.name, None)
            self._journal.record(
                "worker_ejected", worker=handle.name, reason="respawn_budget"
            )
            return
        self._respawns_used += 1
        recent = self._crash_tracker.recent(handle.name)
        backoff = min(
            self.config.backoff_max_s,
            self.config.backoff_base_s * (2 ** max(0, recent - 1)),
        )
        if backoff > 0:
            await asyncio.sleep(backoff)
        if self._draining or self._handles.get(handle.name) is not handle:
            return
        replacement = self._fork_worker(
            handle.name, handle.generation + 1, register=False
        )
        await replacement.connect(self._on_worker_down)
        self._handles[handle.name] = replacement
        self._ring.add(handle.name)  # no-op unless something removed it
        self.metrics.increment("worker_respawns_total")
        self._journal.record(
            "worker_respawn",
            worker=handle.name,
            generation=replacement.generation,
            backoff_s=round(backoff, 3),
        )

    def _alive_handles(self) -> list[_WorkerHandle]:
        return [h for h in self._handles.values() if h.alive]

    def _serving_handles(self) -> list[_WorkerHandle]:
        return [h for h in self._handles.values() if h.alive and not h.retiring]

    def _pick_match_worker(self) -> _WorkerHandle:
        serving = self._serving_handles()
        if not serving:
            raise ClusterUnavailable("no live matcher workers")
        return min(serving, key=lambda h: (h.inflight, h.name))

    # ----------------------------------------------------------- control loop
    async def _control_loop(self) -> None:
        """The supervision tick: shed, probe, autoscale — forever."""
        interval = self.config.control_interval_s
        while not self._draining:
            await asyncio.sleep(interval)
            if self._draining:
                break
            try:
                self._gate.sweep()
                now = time.monotonic()
                self._schedule_probes(now)
                self._sweep_sessions(now)
                await self._autoscale_tick(now)
                self.metrics.set_gauge("admission_queue_depth", self._gate.depth)
                self.metrics.set_gauge("admission_inflight", self._gate.inflight)
                self.metrics.set_gauge("workers_alive", len(self._alive_handles()))
                self.metrics.set_gauge("workers_target", self._workers_target)
            except asyncio.CancelledError:  # pragma: no cover - shutdown
                raise
            except Exception as error:  # noqa: BLE001 - the loop must survive
                self._journal.record("control_error", error=repr(error))

    def _sweep_sessions(self, now: float) -> None:
        """Drop every session record idle longer than ``session_ttl_s``.

        A record whose op is still running (its lock held) is in use,
        not idle.  Its worker-side decoder is left to the worker's idle
        backstop.
        """
        ttl = self.config.session_ttl_s
        expired = [
            sid
            for sid, record in self._records.items()
            if now - record.last_touched > ttl and not record.lock.locked()
        ]
        for sid in expired:
            del self._records[sid]
        if expired:
            self.metrics.increment("sessions_evicted_total", len(expired))

    def _schedule_probes(self, now: float) -> None:
        for handle in list(self._handles.values()):
            if not handle.alive or handle.retiring:
                continue
            if handle.probe_task is not None and not handle.probe_task.done():
                continue
            if now < handle.next_probe_at:
                continue
            handle.next_probe_at = now + self.config.probe_interval_s
            handle.probe_task = asyncio.create_task(self._probe_worker(handle))

    async def _probe_worker(self, handle: _WorkerHandle) -> None:
        """One health probe; escalates a stall (alive, unresponsive) to SIGKILL.

        Killing the stalled process turns "wedged" into "dead", and the
        normal :meth:`_on_worker_down` path — respawn with backoff,
        breaker, session replay — takes over.  One recovery path, not two.
        """
        try:
            await handle.call({"op": "ping"}, timeout=self.config.probe_timeout_s)
            handle.probe_misses = 0
            return
        except WorkerCrash:
            if not handle.alive:
                return  # a real death; the reader loop is handling it
        except _WorkerOpError:
            handle.probe_misses = 0  # it answered, however oddly
            return
        handle.probe_misses += 1
        self._journal.record(
            "probe_miss", worker=handle.name, misses=handle.probe_misses
        )
        if (
            handle.probe_misses >= self.config.probe_miss_budget
            and handle.process.is_alive()
            and not handle.retiring
        ):
            self.metrics.increment("worker_stalls_total")
            self._journal.record(
                "worker_stall", worker=handle.name, misses=handle.probe_misses
            )
            try:
                handle.process.kill()
            except Exception:  # noqa: BLE001 - racing its own exit
                pass

    async def _autoscale_tick(self, now: float) -> None:
        if self._rollout_lock.locked():
            return  # never resize the fleet mid-rollout
        serving = self._serving_handles()
        decision = self._policy.decide(
            now,
            workers=len(serving),
            depth=self._gate.depth,
            p95_wait_s=self._gate.wait_window.percentile(95.0),
            inflight=self._gate.inflight,
        )
        if decision == "up":
            await self._scale_up()
        elif decision == "down":
            await self._scale_down(serving)

    async def _scale_up(self) -> None:
        name = f"w{next(self._worker_seq)}"
        self._journal.record(
            "scale_up",
            worker=name,
            depth=self._gate.depth,
            p95_wait_s=round(self._gate.wait_window.percentile(95.0), 4),
        )
        handle = self._fork_worker(name, generation=1, register=False)
        try:
            await handle.connect(self._on_worker_down)
            await handle.call({"op": "ping"}, timeout=10.0)
        except (WorkerCrash, _WorkerOpError) as error:
            self._journal.record("scale_up_failed", worker=name, error=str(error))
            handle.close()
            await asyncio.get_running_loop().run_in_executor(None, handle.reap)
            return
        # Register only once it answers: the ring must never route to a
        # worker that cannot take the traffic yet.
        self._handles[name] = handle
        self._ring.add(name)
        self._workers_target += 1
        self.metrics.increment("scale_ups_total")

    async def _scale_down(self, serving: list[_WorkerHandle]) -> None:
        def _seq(handle: _WorkerHandle) -> int:
            try:
                return int(handle.name.lstrip("w"))
            except ValueError:  # pragma: no cover - non-standard name
                return -1

        victim = max(serving, key=_seq)
        victim.retiring = True
        self._ring.remove(victim.name)
        self._workers_target -= 1
        self._journal.record("scale_down", worker=victim.name)
        # Sessions the victim owned re-route (ring changed) and replay
        # deterministically on their new owners; in-flight ops finish.
        drain_deadline = time.monotonic() + self.config.drain_timeout_s
        while victim.inflight > 0 and time.monotonic() < drain_deadline:
            await asyncio.sleep(0.02)
        try:
            await victim.call({"op": "shutdown"}, timeout=5.0)
        except (WorkerCrash, _WorkerOpError):
            pass
        victim.close()
        await asyncio.get_running_loop().run_in_executor(None, victim.reap)
        if self._handles.get(victim.name) is victim:
            self._handles.pop(victim.name, None)
        self._crash_tracker.forget(victim.name)
        self.metrics.increment("scale_downs_total")
        self._journal.record("scale_down_done", worker=victim.name)

    # --------------------------------------------------------------- rollout
    async def _ignore_down(self, handle: _WorkerHandle) -> None:
        """on_down callback for throwaway probe workers: not supervised."""

    def rollout(self, region: str = DEFAULT_REGION, model: str | None = None) -> dict:
        """Thread-safe zero-downtime rollout (SIGHUP handler / tests).

        See :meth:`handle_rollout` for semantics; raises the same errors.
        """
        return self._run_on_loop(self._rollout_async(region, model))

    async def _stage_and_canary(
        self,
        region: str,
        model: str | None,
        weights: str | None = None,
        event: str = "rollout",
    ) -> tuple:
        """Stage a candidate generation and canary it on a probe worker.

        Shared by the rollout and A/B-start paths.  On success the
        candidate is left *staged* (caller commits or keeps serving it
        aside) and ``(staged_shard, canary_checked)`` returns; on any
        failure the staged segments are unlinked with the serving
        generation never touched, and the error propagates (wrapped in
        :class:`ModelReloadFailed` unless it already is one).
        """
        loop = asyncio.get_running_loop()
        # 1) Stage: load + validate the candidate into its own fresh
        # segment.  Artifact taxonomy errors propagate as-is (422/500
        # on the wire), anything else (a missing file) as
        # ModelReloadFailed; either way nothing was staged.
        try:
            staged = await loop.run_in_executor(
                None, self.registry.stage_model, region, model, weights
            )
        except BaseException as error:
            self.metrics.increment("rollout_failures_total")
            self._journal.record(
                f"{event}_rejected", region=region, error=str(error)
            )
            if isinstance(error, (ReproError, asyncio.CancelledError)):
                raise
            raise ModelReloadFailed(
                f"could not stage a candidate for region {region!r}: {error}"
            ) from error
        self._journal.record(
            f"{event}_staged",
            region=region,
            generation=staged.generation,
            segment=staged.pack.segment_name,
        )
        # 2) Canary: a throwaway probe worker forked against a staged
        # *view* of the registry smoke-checks the candidate.  No
        # serving worker is touched yet.
        try:
            view = self.registry.staged_view(region)
            probe = self._fork_worker(
                f"probe-{region}-g{staged.generation}",
                staged.generation,
                registry=view,
                register=False,
            )
            try:
                await probe.connect(self._ignore_down)
                result = await probe.call(
                    {
                        "op": "canary",
                        "region": region,
                        "count": self.config.canary_count,
                    },
                    timeout=self.config.op_timeout_s,
                )
            finally:
                try:
                    await probe.call({"op": "shutdown"}, timeout=5.0)
                except (WorkerCrash, _WorkerOpError):
                    pass
                probe.close()
                await loop.run_in_executor(None, probe.reap)
            problems = result.get("problems") or []
            if problems:
                raise ModelReloadFailed(
                    f"candidate generation {staged.generation} for region "
                    f"{region!r} failed the canary ({len(problems)} "
                    "problem(s)): " + "; ".join(problems[:3])
                )
        except BaseException as error:
            # Rollback: unlink the staged segments; the serving
            # generation was never touched.
            await loop.run_in_executor(None, self.registry.abort_staged, region)
            self.metrics.increment("rollout_failures_total")
            self._journal.record(
                f"{event}_rolled_back",
                region=region,
                generation=staged.generation,
                error=str(error),
            )
            if isinstance(error, (ModelReloadFailed, asyncio.CancelledError)):
                raise
            raise ModelReloadFailed(
                f"canary probe for region {region!r} generation "
                f"{staged.generation} failed: {error}"
            ) from error
        return staged, result.get("checked", 0)

    async def _swap_fleet(self, event: str = "rollout") -> tuple[int, int]:
        """Swap every serving worker onto the committed generation.

        One worker at a time: fork a replacement, let it answer a ping,
        put it in the old worker's ring slot, drain the old worker's
        in-flight ops, shut it down.  Returns ``(swapped, failed)``; a
        worker whose replacement cannot start keeps serving its old
        (still-mapped) generation and is counted as failed.
        """
        loop = asyncio.get_running_loop()
        swapped = failed_swaps = 0
        for name in sorted(self._handles):
            old = self._handles.get(name)
            if old is None or not old.alive or old.retiring:
                continue
            try:
                replacement = self._fork_worker(
                    name, old.generation + 1, register=False
                )
                await replacement.connect(self._on_worker_down)
                await replacement.call({"op": "ping"}, timeout=10.0)
            except (WorkerCrash, _WorkerOpError) as error:
                # The old worker keeps serving the old generation (its
                # mapping stays valid until retire() below — and even
                # that only unlinks the name, not live mappings).
                failed_swaps += 1
                self._journal.record(
                    f"{event}_swap_failed", worker=name, error=str(error)
                )
                continue
            self._handles[name] = replacement
            # Drain: let the old worker finish its in-flight ops; new
            # work is already routing to the replacement (same ring
            # slot, same name — sessions replay on generation drift).
            drain_deadline = time.monotonic() + self.config.drain_timeout_s
            while old.inflight > 0 and time.monotonic() < drain_deadline:
                await asyncio.sleep(0.02)
            try:
                await old.call({"op": "shutdown"}, timeout=5.0)
            except (WorkerCrash, _WorkerOpError):
                pass
            old.close()
            await loop.run_in_executor(None, old.reap)
            swapped += 1
            self._journal.record(
                f"{event}_swapped", worker=name, generation=replacement.generation
            )
        return swapped, failed_swaps

    async def _rollout_async(self, region: str, model: str | None = None) -> dict:
        if self._rollout_lock.locked():
            raise _HttpError(
                409,
                "a rollout is already in progress",
                extra={"code": "rollout_in_progress"},
            )
        if region in self._ab:
            raise _HttpError(
                409,
                f"an A/B test is live for region {region!r}; promote or "
                "abort it before rolling out",
                extra={"code": "ab_in_progress"},
            )
        async with self._rollout_lock:
            self._check_draining()
            self.registry.shard(region)  # 404 early on unknown regions
            loop = asyncio.get_running_loop()
            started = time.monotonic()
            self._journal.record(
                "rollout_start", region=region, model=model or "<configured>"
            )
            staged, checked = await self._stage_and_canary(region, model)
            # Commit, then swap the fleet one worker at a time.  New
            # forks (including respawns) now inherit the new generation.
            old_shard = self.registry.commit_staged(region)
            # Cached responses belong to the replaced generation now.
            self._cache.clear()
            self._journal.record(
                "rollout_committed", region=region, generation=staged.generation
            )
            swapped, failed_swaps = await self._swap_fleet()
            # Retire the replaced generation's segment.  Workers that
            # failed to swap keep their private mapping alive; the name
            # disappears so nothing new can attach.
            await loop.run_in_executor(None, self.registry.retire, old_shard)
            self.metrics.increment("rollouts_total")
            summary = {
                "region": region,
                "generation": staged.generation,
                "workers_swapped": swapped,
                "workers_failed": failed_swaps,
                "canary_checked": checked,
                "duration_s": round(time.monotonic() - started, 3),
            }
            self._journal.record("rollout_done", **summary)
            return summary

    # ------------------------------------------------------------ A/B testing
    def _run_on_loop(self, coro) -> dict:
        """Run a control-plane coroutine on the gateway loop (tests/CLI)."""
        if self._loop is None or self._thread is None or not self._thread.is_alive():
            coro.close()
            raise RuntimeError("cluster is not running")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def start_ab(
        self,
        region: str = DEFAULT_REGION,
        model: str | None = None,
        split: float = 0.1,
        weights: str | None = None,
    ) -> dict:
        """Thread-safe A/B start (tests / direct callers).

        See :meth:`handle_ab_start` for semantics; raises the same errors.
        """
        return self._run_on_loop(self._ab_start_async(region, model, split, weights))

    def promote_ab(self, region: str = DEFAULT_REGION) -> dict:
        """Thread-safe A/B promote; see :meth:`handle_ab_promote`."""
        return self._run_on_loop(self._ab_promote_async(region))

    def abort_ab(self, region: str = DEFAULT_REGION) -> dict:
        """Thread-safe A/B abort; see :meth:`handle_ab_abort`."""
        return self._run_on_loop(self._ab_abort_async(region))

    async def _on_ab_worker_down(self, handle: _WorkerHandle) -> None:
        """A challenger worker died: the champion absorbs its share.

        No respawn — a challenger that cannot stay up has failed its
        audition; the test stays live (counters keep their history) and
        routing falls back to the champion until promote/abort resolves.
        """
        if not handle.retiring:
            for record in self._ab.values():
                if record.handle is handle:
                    self.metrics.increment("ab_challenger_deaths_total")
                    self._journal.record(
                        "ab_challenger_down", region=record.region
                    )
                    break
        await asyncio.get_running_loop().run_in_executor(None, handle.reap)

    async def _retire_challenger(self, record: _ABRecord) -> None:
        """Drain + shut down one A/B test's dedicated challenger worker."""
        handle = record.handle
        handle.retiring = True
        if handle.alive:
            drain_deadline = time.monotonic() + self.config.drain_timeout_s
            while handle.inflight > 0 and time.monotonic() < drain_deadline:
                await asyncio.sleep(0.02)
            try:
                await handle.call({"op": "shutdown"}, timeout=5.0)
            except (WorkerCrash, _WorkerOpError):
                pass
        handle.close()
        await asyncio.get_running_loop().run_in_executor(None, handle.reap)

    async def _ab_start_async(
        self, region: str, model: str | None, split: float, weights: str | None
    ) -> dict:
        if self._rollout_lock.locked():
            raise _HttpError(
                409,
                "a rollout is already in progress",
                extra={"code": "rollout_in_progress"},
            )
        async with self._rollout_lock:
            self._check_draining()
            current = self.registry.shard(region)  # 404 early
            if region in self._ab:
                raise _HttpError(
                    409,
                    f"an A/B test is already live for region {region!r}; "
                    "promote or abort it first",
                    extra={"code": "ab_in_progress"},
                )
            try:
                state = ABState(
                    split=split,
                    champion_generation=current.generation,
                    challenger_generation=current.generation + 1,
                    challenger_model="",
                    challenger_weights=weights or current.spec.weights,
                )
            except ValueError as error:
                raise ProtocolError(str(error)) from error
            self._journal.record(
                "ab_start",
                region=region,
                model=model or "<configured>",
                split=state.split,
            )
            staged, checked = await self._stage_and_canary(
                region, model, weights=weights, event="ab"
            )
            state.challenger_model = staged.spec.model
            state.challenger_weights = staged.spec.weights
            # One dedicated worker serves the challenger's split: forked
            # against the staged view, never in the handles map or the
            # ring, so the supervisor/autoscaler/session routing cannot
            # see it and streaming sessions stay on the champion.
            loop = asyncio.get_running_loop()
            view = self.registry.staged_view(region)
            handle = self._fork_worker(
                f"ab-{region}-g{staged.generation}",
                staged.generation,
                registry=view,
                register=False,
            )
            try:
                await handle.connect(self._on_ab_worker_down)
                await handle.call({"op": "ping"}, timeout=10.0)
            except (WorkerCrash, _WorkerOpError) as error:
                handle.close()
                await loop.run_in_executor(None, handle.reap)
                await loop.run_in_executor(None, self.registry.abort_staged, region)
                self.metrics.increment("rollout_failures_total")
                self._journal.record(
                    "ab_rolled_back",
                    region=region,
                    generation=staged.generation,
                    error=str(error),
                )
                raise ModelReloadFailed(
                    f"challenger worker for region {region!r} generation "
                    f"{staged.generation} failed to start: {error}"
                ) from error
            self._ab[region] = _ABRecord(
                region=region, state=state, staged=staged, handle=handle
            )
            self.metrics.increment("ab_starts_total")
            summary = {
                "region": region,
                "split": state.split,
                "champion_generation": state.champion_generation,
                "challenger_generation": state.challenger_generation,
                "challenger_model": state.challenger_model,
                "challenger_weights": state.challenger_weights,
                "canary_checked": checked,
            }
            self._journal.record("ab_started", **summary)
            return summary

    async def _ab_promote_async(self, region: str) -> dict:
        if self._rollout_lock.locked():
            raise _HttpError(
                409,
                "a rollout is already in progress",
                extra={"code": "rollout_in_progress"},
            )
        async with self._rollout_lock:
            self._check_draining()
            record = self._ab.get(region)
            if record is None:
                raise _HttpError(
                    409,
                    f"no A/B test is live for region {region!r}",
                    extra={"code": "no_ab_test"},
                )
            loop = asyncio.get_running_loop()
            started = time.monotonic()
            # Commit first: from here every new fork — the fleet swap
            # below, respawns, scale-ups — attaches the challenger
            # generation.  The challenger worker keeps answering its
            # split until the swap completes, so requests admitted
            # mid-promote finish on whichever generation the split
            # assigned them and nothing is dropped.
            old_shard = self.registry.commit_staged(region)
            self._cache.clear()
            self._journal.record(
                "ab_committed", region=region, generation=record.staged.generation
            )
            swapped, failed_swaps = await self._swap_fleet(event="ab")
            await loop.run_in_executor(None, self.registry.retire, old_shard)
            await self._retire_challenger(record)
            self._ab.pop(region, None)
            self.metrics.increment("ab_promotions_total")
            self.metrics.increment("rollouts_total")
            summary = {
                "region": region,
                "generation": record.staged.generation,
                "workers_swapped": swapped,
                "workers_failed": failed_swaps,
                "duration_s": round(time.monotonic() - started, 3),
                "ab": record.state.snapshot(),
            }
            self._journal.record(
                "ab_promoted",
                region=region,
                generation=record.staged.generation,
                workers_swapped=swapped,
                workers_failed=failed_swaps,
            )
            return summary

    async def _ab_abort_async(self, region: str) -> dict:
        if self._rollout_lock.locked():
            raise _HttpError(
                409,
                "a rollout is already in progress",
                extra={"code": "rollout_in_progress"},
            )
        async with self._rollout_lock:
            record = self._ab.pop(region, None)
            if record is None:
                raise _HttpError(
                    409,
                    f"no A/B test is live for region {region!r}",
                    extra={"code": "no_ab_test"},
                )
            await self._retire_challenger(record)
            await asyncio.get_running_loop().run_in_executor(
                None, self.registry.abort_staged, region
            )
            self.metrics.increment("ab_aborts_total")
            self._journal.record(
                "ab_aborted", region=region, generation=record.staged.generation
            )
            return {
                "region": region,
                "generation": self.registry.shard(region).generation,
                "ab": record.state.snapshot(),
            }

    # ------------------------------------------------------------- admission
    def _check_draining(self) -> None:
        if self._draining:
            raise ClusterUnavailable("cluster is shutting down")

    async def _worker_call(self, handle: _WorkerHandle, op: dict) -> dict:
        return await handle.call(op, timeout=self.config.op_timeout_s)

    # --------------------------------------------------------------- /v1/match
    async def _match_on_worker(
        self, region: str, items: list, deadline: float | None = None
    ) -> dict:
        last_error: Exception | None = None
        op: dict = {"op": "match", "region": region, "trajectories": items}
        if deadline is not None:
            op["deadline"] = deadline
        for _ in range(2):  # one failover to a sibling on worker death
            handle = self._pick_match_worker()
            try:
                return await self._worker_call(handle, op)
            except WorkerCrash as error:
                last_error = error
                await asyncio.sleep(0)  # let the supervisor respawn/remove
        # Two workers died under the same request: tell the caller to
        # back off and retry (503) instead of surfacing a hard 500.
        raise ClusterUnavailable(
            f"match failed on crashing workers ({last_error})"
        ) from last_error

    async def handle_match(self, payload: dict, match: re.Match) -> tuple[int, dict]:
        """``POST /v1/match`` — admission-gated, cached, single-flighted.

        The admission gate bounds concurrency *and* queueing: beyond
        ``max_inflight`` running ops a request waits (FIFO) up to
        ``queue_limit`` deep, overflow answers 503 + ``Retry-After``,
        and a request whose ``deadline_ms`` expires while queued is shed
        with 504 before any worker touches it.
        """
        self._check_draining()
        deadline = protocol.decode_deadline_ms(payload)
        await self._gate.acquire(deadline)
        try:
            return await self._match_gated(payload, deadline)
        finally:
            self._gate.release()

    async def _match_gated(
        self, payload: dict, deadline: float | None
    ) -> tuple[int, dict]:
        region = payload.get("region", DEFAULT_REGION)
        if not isinstance(region, str):
            raise ProtocolError("field 'region' must be a string")
        if self._fed is not None and region not in self.registry.regions:
            # A federated peer may own this region: proxy, redirect, or
            # answer 503 when the owner is partitioned away.
            return await self._fed.handle_remote_match(region, payload, deadline)
        self.registry.shard(region)  # 404 early on unknown regions
        body = payload.get("trajectories")
        single = False
        if body is None:
            body = [payload.get("points")]
            single = True
        if not isinstance(body, list) or not body:
            raise ProtocolError(
                "expected 'trajectories' (list of point lists) or 'points'"
            )
        keys = [_canonical_key(region, item) for item in body]
        slots: list[dict | None] = [None] * len(body)
        waiters: list[tuple[int, asyncio.Future]] = []
        misses: list[tuple[int, tuple]] = []
        claimed: dict[tuple, asyncio.Future] = {}
        use_cache = self.config.cache_size > 0
        loop = asyncio.get_running_loop()
        # Live A/B: the deterministic key hash assigns each trajectory a
        # side *before* cache/singleflight — a challenger-assigned item
        # must reach the challenger generation, never a champion cache
        # entry, so the observed split over a known trace is exact.
        ab = self._ab.get(region)
        ab_started = time.perf_counter() if ab is not None else 0.0
        challenger_items: dict[int, object] = {}
        challenger_served: set[int] = set()
        challenger_task: asyncio.Task | None = None
        if ab is not None and ab.handle.alive:
            for i, item in enumerate(body):
                if ab.state.assign(canonical_key(item)):
                    challenger_items[i] = item
        if challenger_items:
            op: dict = {
                "op": "match",
                "region": region,
                "trajectories": list(challenger_items.values()),
            }
            if deadline is not None:
                op["deadline"] = deadline
            challenger_task = asyncio.create_task(
                ab.handle.call(op, timeout=self.config.op_timeout_s)
            )
        for i, key in enumerate(keys):
            if i in challenger_items:
                continue  # bypasses the champion cache and singleflight
            if use_cache:
                cached = self._cache.get(key)
                if cached is not None:
                    self.metrics.increment("cache_hits_total")
                    slots[i] = cached
                    continue
                self.metrics.increment("cache_misses_total")
            pending = self._inflight_keys.get(key)
            if pending is not None:
                waiters.append((i, pending))
                continue
            future = loop.create_future()
            self._inflight_keys[key] = future
            claimed[key] = future
            misses.append((i, key))
        if misses:
            try:
                response = await self._match_on_worker(
                    region, [body[i] for i, _ in misses], deadline
                )
            except Exception as error:
                for key, future in claimed.items():
                    self._inflight_keys.pop(key, None)
                    if not future.done():
                        future.set_exception(error)
                        future.exception()  # consume: waiters may be gone
                raise
            for (i, key), slot in zip(misses, response["results"]):
                slots[i] = slot
                future = claimed[key]
                self._inflight_keys.pop(key, None)
                if not future.done():
                    future.set_result(slot)
                if use_cache and slot.get("ok"):
                    self._cache.put(key, slot)
            for name, amount in (
                ("trajectories_matched", response.get("matched", 0)),
                ("match_degraded_total", response.get("degraded", 0)),
                ("match_failed_total", response.get("failed", 0)),
            ):
                if amount:
                    self.metrics.increment(name, amount)
        if challenger_task is not None:
            try:
                response = await challenger_task
                challenger_served.update(challenger_items)
            except (WorkerCrash, _WorkerOpError) as error:
                # The challenger died (or refused the op) mid-request:
                # the champion fleet absorbs its share so nothing drops;
                # the slots are accounted to the champion generation.
                self.metrics.increment("ab_failovers_total")
                self._journal.record(
                    "ab_failover", region=region, error=str(error)
                )
                response = await self._match_on_worker(
                    region, list(challenger_items.values()), deadline
                )
            for i, slot in zip(challenger_items, response["results"]):
                slots[i] = slot
            for name, amount in (
                ("trajectories_matched", response.get("matched", 0)),
                ("match_degraded_total", response.get("degraded", 0)),
                ("match_failed_total", response.get("failed", 0)),
            ):
                if amount:
                    self.metrics.increment(name, amount)
        for i, future in waiters:
            slots[i] = await asyncio.shield(future)
        if ab is not None:
            # Exactly one per-generation record per admitted trajectory:
            # the counters across both generations sum to the admitted
            # total by construction (chaos suite invariant).
            elapsed = time.perf_counter() - ab_started
            for i, slot in enumerate(slots):
                failed = not (slot or {}).get("ok", False)
                degraded = (
                    not failed
                    and slot["result"].get("provenance", "lhmm") != "lhmm"
                )
                ab.state.stats_for(i in challenger_served).record(
                    requests=1,
                    degraded=int(degraded),
                    failed=int(failed),
                    seconds=elapsed,
                )
        return self._encode_match_slots(slots, single)

    @staticmethod
    def _encode_match_slots(slots: list, single: bool) -> tuple[int, dict]:
        """Worker result slots → the HTTP response (shared with federation)."""
        encoded: list[dict] = []
        for slot in slots:
            assert slot is not None
            if slot.get("ok"):
                encoded.append(slot["result"])
            else:
                error = dict(slot["error"])
                error.pop("status", None)
                encoded.append({"error": error})
        if single:
            slot = slots[0]
            if not slot.get("ok"):
                error = slot["error"]
                raise _HttpError(
                    int(error.get("status", 500)),
                    error.get("message", "match failed"),
                    extra={"code": error.get("code", "match_failure")},
                )
            return 200, {"result": encoded[0]}
        return 200, {"results": encoded}

    # -------------------------------------------------------------- sessions
    def _session_record(self, session_id: str) -> _SessionRecord:
        record = self._records.get(session_id)
        now = time.monotonic()
        if record is not None and now - record.last_touched > self.config.session_ttl_s:
            self._records.pop(session_id, None)
            self.metrics.increment("sessions_evicted_total")
            record = None
        if record is None:
            raise UnknownSessionError(session_id)
        return record

    async def _session_op(self, record: _SessionRecord, op: str, extra: dict) -> dict:
        """Run one session op on the session's owner, replaying on handoff."""
        base = {
            "op": op,
            "region": record.region,
            "session_id": record.session_id,
        }
        async with record.lock:
            for attempt in range(2):
                name = self._ring.route(record.session_id)
                handle = self._handles.get(name)
                if handle is None or not handle.alive:
                    if attempt == 0:
                        await asyncio.sleep(0.05)  # give the supervisor a beat
                        continue
                    raise ClusterUnavailable(
                        f"no live worker for session {record.session_id}"
                    )
                try:
                    if name != record.worker_name or handle.generation != record.generation:
                        await self._replay(record, handle)
                    return await self._worker_call(handle, {**base, **extra})
                except WorkerCrash as error:
                    if attempt == 1:
                        raise ClusterUnavailable(
                            f"session {record.session_id} lost its worker twice "
                            f"({error})"
                        ) from error
                except _WorkerOpError as error:
                    # The worker lost the session (backstop TTL eviction,
                    # lost handoff): rebuild it from the journal once.
                    if error.code != "unknown_session" or attempt == 1:
                        raise
                    record.generation = -1  # force a replay next round
        raise ClusterUnavailable("session operation could not be placed")

    async def _replay(self, record: _SessionRecord, handle: _WorkerHandle) -> None:
        """Deterministically rebuild a session on its (new) owner."""
        await self._worker_call(
            handle,
            {
                "op": "session.open",
                "region": record.region,
                "session_id": record.session_id,
                "lag": record.lag,
                "context_window": record.context_window,
            },
        )
        if record.journal:
            await self._worker_call(
                handle,
                {
                    "op": "session.feed",
                    "region": record.region,
                    "session_id": record.session_id,
                    "points": record.journal,
                },
            )
        record.worker_name = handle.name
        record.generation = handle.generation
        self.metrics.increment("sessions_replayed_total")

    async def handle_create_session(self, payload: dict, match: re.Match) -> tuple[int, dict]:
        """``POST /v1/sessions`` — admit and place a streaming session."""
        self._check_draining()
        deadline = protocol.decode_deadline_ms(payload)
        await self._gate.acquire(deadline)
        try:
            return await self._create_session_gated(payload)
        finally:
            self._gate.release()

    async def _create_session_gated(self, payload: dict) -> tuple[int, dict]:
        region = payload.get("region", DEFAULT_REGION)
        if not isinstance(region, str):
            raise ProtocolError("field 'region' must be a string")
        if self._fed is not None and region not in self.registry.regions:
            # Sessions are sticky to the owning host: redirect to the
            # peer that serves this region (503 when partitioned away).
            raise self._fed.remote_session_error(region, "/v1/sessions")
        self.registry.shard(region)
        lag = payload.get("lag")
        context_window = payload.get("context_window")
        for name, value in (("lag", lag), ("context_window", context_window)):
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
                raise ProtocolError(f"field {name!r} must be an integer")
        if len(self._records) >= self.config.max_sessions:
            raise SessionLimitError(
                f"session limit reached ({self.config.max_sessions} live sessions)"
            )
        session_id = f"s{next(self._session_ids)}-{os.urandom(4).hex()}"
        name = self._ring.route(session_id)
        handle = self._handles.get(name)
        if handle is None or not handle.alive:
            raise ClusterUnavailable("no live worker to place the session on")
        try:
            opened = await self._worker_call(
                handle,
                {
                    "op": "session.open",
                    "region": region,
                    "session_id": session_id,
                    "lag": lag,
                    "context_window": context_window,
                },
            )
        except _WorkerOpError as error:
            # A bad session parameter (e.g. lag < 1) is a 400 like any
            # other malformed request, not a 422 about trajectory data.
            if error.code in ("protocol_error", InvalidTrajectoryInput.code):
                raise ProtocolError(str(error)) from error
            raise
        record = _SessionRecord(
            session_id=session_id,
            region=region,
            lag=opened["lag"],
            context_window=opened["context_window"],
            worker_name=name,
            generation=handle.generation,
            last_touched=time.monotonic(),
        )
        self._records[session_id] = record
        self.metrics.increment("sessions_created")
        if self._fed is not None:
            # Replicate-before-return (semi-sync): a reachable replica
            # acks the empty journal before the client sees the id; an
            # unreachable one is resynced on reconnect.
            await self._fed.replicate_open(record)
        return 201, {
            "session_id": session_id,
            "lag": opened["lag"],
            "context_window": opened["context_window"],
            "region": region,
            "worker": name,
        }

    async def _resolve_session(self, session_id: str, path: str) -> _SessionRecord:
        """Find a session record, consulting the federation on a miss.

        A locally unknown id may be a session another gateway owns (307
        to the live owner) or one whose owner died and whose journal this
        gateway replicates — in that case the federation *adopts* it: a
        fenced record is minted from the replica journal and stored, and
        the normal replay machinery rebuilds it on a local worker.
        """
        try:
            return self._session_record(session_id)
        except UnknownSessionError:
            if self._fed is None:
                raise
            record = self._fed.resolve_session(session_id, path)
            self._records[session_id] = record
            return record

    async def handle_feed_session(self, payload: dict, match: re.Match) -> tuple[int, dict]:
        """``POST /v1/sessions/{id}/points`` — journal + forward the feed.

        An optional integer ``seq`` makes feeds idempotent across
        failover retries: a duplicate of the last accepted ``seq``
        answers the cached state without re-feeding the decoder, so a
        client that resends after a timeout (or against the adopted
        replica) can never double-commit points.
        """
        self._check_draining()
        deadline = protocol.decode_deadline_ms(payload)
        await self._gate.acquire(deadline)
        try:
            sid = match.group("sid")
            record = await self._resolve_session(sid, f"/v1/sessions/{sid}/points")
            points = payload.get("points")
            if not isinstance(points, list) or not points:
                raise ProtocolError("points: expected a non-empty list of points")
            seq = payload.get("seq")
            if seq is not None and (isinstance(seq, bool) or not isinstance(seq, int)):
                raise ProtocolError("field 'seq' must be an integer")
            if seq is not None and seq <= record.last_seq and record.last_state is not None:
                self.metrics.increment("feed_duplicates_total")
                return 200, record.last_state
            extra: dict = {"points": points}
            if deadline is not None:
                extra["deadline"] = deadline
            reply = await self._session_op(record, "session.feed", extra)
            # Journal only after the worker accepted: a rejected feed (bad
            # payload, 4xx) must not poison a future replay.
            record.journal.extend(points)
            record.last_touched = time.monotonic()
            if seq is not None:
                record.last_seq = seq
            state = {**reply["state"], "points": len(record.journal)}
            record.last_state = state
            self.metrics.increment("points_fed", len(points))
            if self._fed is not None:
                # Semi-sync journal shipping; raises SessionFenced (409)
                # if the replica adopted the session while we were away.
                await self._fed.replicate_feed(record, points)
            return 200, state
        finally:
            self._gate.release()

    async def handle_close_session(self, payload: dict, match: re.Match) -> tuple[int, dict]:
        """``DELETE /v1/sessions/{id}`` — finalise and return the path.

        Under federation the close is the *commit point*: the replica
        peer must approve it (fence check) before the final path is
        computed, so after a partition heals exactly one side — the one
        holding the highest fence — ever commits the session.
        """
        await self._gate.acquire(None)
        try:
            sid = match.group("sid")
            record = await self._resolve_session(sid, f"/v1/sessions/{sid}")
            if self._fed is not None and not await self._fed.confirm_close(record):
                self._records.pop(record.session_id, None)
                raise SessionFenced(record.session_id)
            final = await self._session_op(record, "session.close", {})
            self._records.pop(record.session_id, None)
            self.metrics.increment("sessions_closed")
            if self._fed is not None:
                self._fed.drop_replica(record)
            return 200, {**final["final"], "points": len(record.journal)}
        finally:
            self._gate.release()

    # ----------------------------------------------------------------- admin
    async def handle_rollout(self, payload: dict, match: re.Match) -> tuple[int, dict]:
        """``POST /v1/admin/rollout`` — zero-downtime artifact swap.

        Body: ``{"region": ..., "model": ...}`` (both optional —
        defaults: the default region, its configured artifact path,
        re-read from disk).  Stages the candidate generation, canaries it
        on a probe worker, then swaps the fleet one worker at a time; a
        failed canary rolls back with the old generation never disturbed
        (500, ``model_reload_failed``).  A concurrent rollout answers
        409.
        """
        self._check_draining()
        region = payload.get("region", DEFAULT_REGION)
        model = payload.get("model")
        if not isinstance(region, str):
            raise ProtocolError("field 'region' must be a string")
        if model is not None and not isinstance(model, str):
            raise ProtocolError("field 'model' must be a string path")
        return 200, await self._rollout_async(region, model)

    @staticmethod
    def _ab_region(payload: dict) -> str:
        region = payload.get("region", DEFAULT_REGION)
        if not isinstance(region, str):
            raise ProtocolError("field 'region' must be a string")
        return region

    async def handle_ab_start(self, payload: dict, match: re.Match) -> tuple[int, dict]:
        """``POST /v1/admin/ab`` — load a challenger, start splitting.

        Body: ``{"region": ..., "model": ..., "split": 0.1, "weights":
        "raw"|"ema"}`` (all optional).  The challenger generation is
        staged, canaried on a probe worker, and then served by one
        dedicated worker that receives the deterministic ``split``
        fraction of ``/v1/match`` traffic for the region; streaming
        sessions stay on the champion.  Per-generation counters appear
        under ``"ab"`` on ``/metrics`` until ``promote``/``abort``
        resolves the test.  A concurrent rollout or live test answers
        409.
        """
        self._check_draining()
        region = self._ab_region(payload)
        model = payload.get("model")
        split = payload.get("split", 0.1)
        weights = payload.get("weights")
        if model is not None and not isinstance(model, str):
            raise ProtocolError("field 'model' must be a string path")
        if isinstance(split, bool) or not isinstance(split, (int, float)):
            raise ProtocolError("field 'split' must be a number in (0, 1]")
        if weights is not None and weights not in ("raw", "ema"):
            raise ProtocolError("field 'weights' must be 'raw' or 'ema'")
        return 200, await self._ab_start_async(region, model, float(split), weights)

    async def handle_ab_promote(self, payload: dict, match: re.Match) -> tuple[int, dict]:
        """``POST /v1/admin/ab/promote`` — challenger becomes sole server.

        Commits the challenger's staged generation and runs the normal
        zero-downtime fleet swap; requests admitted mid-promote finish
        on whichever generation the split assigned them.  Returns the
        final per-generation snapshot.
        """
        self._check_draining()
        return 200, await self._ab_promote_async(self._ab_region(payload))

    async def handle_ab_abort(self, payload: dict, match: re.Match) -> tuple[int, dict]:
        """``POST /v1/admin/ab/abort`` — drop the challenger untouched."""
        return 200, await self._ab_abort_async(self._ab_region(payload))

    # --------------------------------------------------------- observability
    async def handle_healthz(self, payload: dict, match: re.Match) -> tuple[int, dict]:
        """``GET /healthz`` — fleet liveness and shard inventory.

        ``status`` is ``"degraded"`` (not a lying ``"ok"``) while the
        fleet is short of workers or partitioned, and once any worker
        death, fallback-cascade match or failed match has happened —
        results are still served, but not at full fidelity.  The
        ``degraded`` block carries the counters behind that verdict.
        """
        alive = len(self._alive_handles())
        counters = self.metrics.snapshot()["counters"]
        degraded = {name: counters.get(name, 0) for name in _DEGRADED_COUNTERS}
        breakers = self._crash_tracker.open_breakers()
        fed_snapshot = self._fed.snapshot() if self._fed is not None else None
        if self._draining:
            status = "draining"
        elif alive == 0:
            status = "down"
        elif (
            alive < self._workers_target
            or breakers
            or counters.get("worker_deaths_total")
            or any(degraded.values())
            or (fed_snapshot is not None and fed_snapshot["partitioned"])
        ):
            status = "degraded"
        else:
            status = "ok"
        extra: dict = {}
        if fed_snapshot is not None:
            extra["federation"] = fed_snapshot
        return 200, {
            "status": status,
            "mode": "cluster",
            **extra,
            "protocol_version": protocol.PROTOCOL_VERSION,
            "regions": self.registry.regions,
            "generations": self.registry.generations(),
            "workers_alive": alive,
            "workers_total": self._workers_target,
            "min_workers": self._min_workers,
            "max_workers": self._max_workers,
            "breakers_open": breakers,
            "respawns_used": self._respawns_used,
            "respawn_limit": self.config.respawn_limit,
            "active_sessions": len(self._records),
            "inflight_ops": self._gate.inflight,
            "queue_depth": self._gate.depth,
            "ab_live": sorted(self._ab),
            "degraded": degraded,
        }

    async def handle_metrics(self, payload: dict, match: re.Match) -> tuple[int, dict]:
        """``GET /metrics`` — gateway counters + per-worker stats probe."""
        snapshot = self.metrics.snapshot()
        for name in (
            *_DEGRADED_COUNTERS,
            "trajectories_matched",
            "cache_hits_total",
            "cache_misses_total",
            "worker_deaths_total",
            "worker_stalls_total",
            "breakers_open_total",
            "sessions_replayed_total",
            "sessions_evicted_total",
            "scale_ups_total",
            "scale_downs_total",
            "rollouts_total",
            "rollout_failures_total",
            "ab_starts_total",
            "ab_promotions_total",
            "ab_aborts_total",
            "ab_challenger_deaths_total",
            "ab_failovers_total",
            "feed_duplicates_total",
        ):
            snapshot["counters"].setdefault(name, 0)
        if self._fed is not None:
            for name in (
                "fed_proxied_matches_total",
                "fed_redirects_total",
                "fed_partition_503_total",
                "fed_replications_total",
                "fed_replication_failures_total",
                "fed_resyncs_total",
                "fed_adoptions_total",
                "fed_fenced_total",
                "fed_fenced_hellos_total",
                "fed_peer_up_total",
                "fed_peer_down_total",
            ):
                snapshot["counters"].setdefault(name, 0)
            snapshot["federation"] = self._fed.snapshot()
        workers = []
        for name, handle in sorted(self._handles.items()):
            info: dict = {
                "name": name,
                "pid": handle.process.pid,
                "alive": handle.alive,
                "generation": handle.generation,
                "inflight": handle.inflight,
                "requests_total": handle.requests_total,
            }
            if handle.alive:
                try:
                    stats = await handle.call({"op": "stats"}, timeout=5.0)
                    info["memory"] = stats.get("memory", {})
                    info["live_decoders"] = stats.get("live_decoders", 0)
                    info["matched_total"] = stats.get("matched_total", 0)
                except (WorkerCrash, _WorkerOpError):  # racing a death
                    info["alive"] = False
            workers.append(info)
        snapshot["workers"] = workers
        snapshot["shards"] = self.registry.describe()
        snapshot["shared_artifact_bytes"] = self.registry.total_bytes()
        snapshot["cache"] = self._cache.stats()
        snapshot["sessions"] = {"active": len(self._records)}
        snapshot["cluster"] = {
            "workers_alive": len(self._alive_handles()),
            "workers_total": self._workers_target,
            "respawns_used": self._respawns_used,
            "respawn_limit": self.config.respawn_limit,
        }
        snapshot["admission"] = self._gate.snapshot()
        snapshot["autoscaler"] = {
            "min_workers": self._min_workers,
            "max_workers": self._max_workers,
            "target": self._workers_target,
            "interval_s": self.config.control_interval_s,
        }
        snapshot["control"] = {
            "breakers_open": self._crash_tracker.open_breakers(),
            "journal_tail": self._journal.tail(20),
        }
        snapshot["generations"] = self.registry.generations()
        if self._ab:
            snapshot["ab"] = {
                region: record.state.snapshot()
                for region, record in sorted(self._ab.items())
            }
        if self.config.extra_metrics:
            snapshot["extra"] = dict(self.config.extra_metrics)
        return 200, snapshot

    # ------------------------------------------------------------- http layer
    async def _dispatch(self, method: str, target: str, body: bytes) -> tuple[int, dict, dict]:
        started = time.perf_counter()
        endpoint = "unknown"
        status = 500
        headers: dict = {}
        try:
            for route_method, pattern, name in _ROUTES:
                if route_method != method:
                    continue
                matched = pattern.match(target.split("?", 1)[0])
                if matched is None:
                    continue
                endpoint = name
                payload = protocol.loads(body)
                if payload is None or not isinstance(payload, dict):
                    payload = {}
                handler = getattr(self, f"handle_{name}")
                status, response = await handler(payload, matched)
                break
            else:
                raise _HttpError(404, f"no route for {method} {target}")
        except ProtocolError as error:
            status, response = 400, {"error": str(error)}
        except InvalidTrajectoryInput as error:
            status, response = 422, {"error": str(error), "code": error.code}
        except UnknownSessionError as error:
            status, response = 404, {"error": f"unknown session {error.args[0]!r}"}
        except SessionLimitError as error:
            retry_after = self.config.retry_after_s
            headers["Retry-After"] = str(max(1, round(retry_after)))
            status, response = 429, {"error": str(error), "retry_after_s": retry_after}
        except SessionFenced as error:
            status, response = 409, {
                "error": f"session {error.args[0]} was adopted by a peer "
                "gateway (fencing); its commit happens there",
                "code": "session_fenced",
            }
        except _HttpError as error:
            status, response = error.status, {"error": str(error), **error.extra}
            headers.update(error.headers)
        except _WorkerOpError as error:
            status = error.status
            response = {"error": str(error), "code": error.code}
        except DeadlineExceeded as error:
            status, response = 504, {"error": str(error), "code": error.code}
        except (ClusterUnavailable, ServerOverloaded) as error:
            retry_after = self.config.retry_after_s
            headers["Retry-After"] = str(max(1, round(retry_after)))
            status, response = 503, {
                "error": str(error),
                "code": error.code,
                "retry_after_s": retry_after,
            }
        except ReproError as error:
            status = error.http_status
            response = {"error": str(error), "code": error.code}
        except Exception as error:  # noqa: BLE001 - the gateway must not die
            status, response = 500, {"error": f"internal error: {error}"}
        self.metrics.observe(endpoint, time.perf_counter() - started, status)
        return status, response, headers

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    async with asyncio.timeout(_READ_TIMEOUT_S):
                        head = await _read_request_head(reader)
                        if head is None:
                            break
                        method, target, version, headers = head
                        raw_length = headers.get("content-length", "0") or "0"
                        if not (raw_length.isascii() and raw_length.isdigit()):
                            raise _HttpError(400, "invalid Content-Length")
                        length = int(raw_length)
                        if length > self.config.max_body_bytes:
                            raise _HttpError(413, "request body too large")
                        body = await reader.readexactly(length) if length else b""
                except _HttpError as error:
                    writer.write(
                        _http_response(error.status, {"error": str(error)}, close=True)
                    )
                    await writer.drain()
                    break
                except TimeoutError:
                    # A silent client (or an idle keep-alive one) gives its
                    # task back; the client reconnects on its next request.
                    break
                close = (
                    headers.get("connection", "").lower() == "close"
                    or version.upper() == "HTTP/1.0"
                )
                self._requests_in_flight += 1
                try:
                    status, response, extra_headers = await self._dispatch(
                        method, target, body
                    )
                    writer.write(
                        _http_response(status, response, close=close, headers=extra_headers)
                    )
                    await writer.drain()
                finally:
                    self._requests_in_flight -= 1
                if close:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-request
        except asyncio.CancelledError:
            # Drain cancels idle keep-alive connections; finishing the
            # task normally keeps asyncio's stream teardown callbacks
            # (which re-read task.exception()) quiet.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass


#: HTTP reader limits (the stdlib ``http.server`` values): one request or
#: header line, and the header count, before the reader answers 414/431.
_MAX_LINE_BYTES = 64 * 1024
_MAX_HEADERS = 100
#: Seconds a connection may take to deliver one whole request (head and
#: body, idle keep-alive wait included) before the gateway closes it.
_READ_TIMEOUT_S = 30.0


async def _read_line(reader: asyncio.StreamReader, status: int, what: str) -> bytes:
    """``readline`` that turns asyncio's line-limit overrun into ``status``."""
    try:
        return await reader.readline()
    except ValueError:  # LimitOverrunError, re-raised by readline
        raise _HttpError(status, f"{what} longer than {_MAX_LINE_BYTES} bytes") from None


async def _read_request_head(
    reader: asyncio.StreamReader,
) -> tuple[str, str, str, dict[str, str]] | None:
    """Parse one request line + headers; ``None`` on a clean EOF.

    Raises :class:`_HttpError` for anything the reader refuses; the
    caller answers it and closes, because the stream position is no
    longer trustworthy.
    """
    request_line = await _read_line(reader, 414, "request line")
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _HttpError(400, "malformed request line")
    method, target, version = parts
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = await _read_line(reader, 431, "header line")
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    else:
        raise _HttpError(431, f"more than {_MAX_HEADERS} headers")
    if "transfer-encoding" in headers:
        # Chunked bodies are not implemented: reading on as if the
        # body were absent would parse chunk bytes as the next
        # pipelined request.
        raise _HttpError(
            400, "Transfer-Encoding is not supported; send Content-Length"
        )
    return method, target, version, headers


_REASONS = {
    200: "OK",
    201: "Created",
    307: "Temporary Redirect",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    413: "Payload Too Large",
    414: "URI Too Long",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _http_response(
    status: int, payload: dict, close: bool = False, headers: dict | None = None
) -> bytes:
    body = protocol.dumps(payload)
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
        "Server: repro-cluster/" + str(protocol.PROTOCOL_VERSION),
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
