"""repro.serve — run LHMM as a long-lived map-matching service.

The service keeps fitted matchers hot and serves the paper's two
deployment modes over HTTP/JSON:

* **streaming sessions** — points arrive one at a time and fixed-lag
  commits stream back (:mod:`repro.serve.sessions` over
  :class:`~repro.core.online.OnlineLHMM`);
* **batch matching** — whole trajectories through ``match_many``.

There is one server, :class:`~repro.serve.cluster.ClusterServer`: a
single-threaded asyncio gateway in front of N forked matcher workers
that attach every artifact from shared memory (:mod:`repro.serve.shm`,
:mod:`repro.serve.shards`).  Requests may carry a ``region`` field that
selects a shard.  Start one in-process::

    from repro.serve import (
        ClusterConfig, ClusterServer, MatchingClient, ShardRegistry, ShardSpec,
    )

    registry = ShardRegistry.publish(
        [ShardSpec(region="default", dataset="city.json.gz", model="model.npz")]
    )
    with ClusterServer(registry, ClusterConfig(port=0, num_workers=1)) as server:
        client = MatchingClient(server.host, server.port)
        results = client.match([sample.cellular])

or from the command line: ``python -m repro serve --dataset city.json.gz
--model model.npz``.  Protocol and tuning guidance live in
``docs/serving.md``.

The gateway is self-healing (:mod:`repro.serve.control`): a supervision
loop probes and respawns workers, an admission gate sheds overload with
503 + ``Retry-After``, a queue-depth autoscaler sizes the fleet between
``--min-workers`` and ``--max-workers``, and ``POST /v1/admin/rollout``
swaps in a new artifact generation with zero downtime.

A live **A/B test** (:mod:`repro.serve.ab`): ``POST /v1/admin/ab`` loads
a challenger generation aside the champion and routes a deterministic
hash-based fraction of match traffic to it, with per-generation counters
on ``/metrics`` and ``promote``/``abort`` endpoints to finalise.

Beyond one host, gateways **federate** (:mod:`repro.serve.federation`
over :mod:`repro.serve.transport`): each node owns a subset of regions,
advertises them over fenced TCP handshakes, proxies or 307-redirects
misrouted requests to the owner, and ships every streaming session's
point journal to one peer so a SIGKILLed gateway's sessions fail over
with a bit-identical committed path.  Workers can likewise dial the
gateway over TCP (``--transport tcp``) instead of inheriting a
socketpair, with generation-fenced check-ins so a stale worker never
serves after a respawn.
"""

from repro.serve.ab import (
    ABState,
    GenerationStats,
    canonical_key,
    routes_to_challenger,
    split_fraction,
)
from repro.serve.client import (
    MatchingClient,
    ServeClientError,
    ServeRedirect,
    ServerBusy,
    StreamingSession,
)
from repro.serve.cluster import (
    ClusterConfig,
    ClusterServer,
    ConsistentHashRing,
    SessionFenced,
)
from repro.serve.control import (
    AdmissionGate,
    AutoscalerPolicy,
    ControlJournal,
    CrashTracker,
)
from repro.serve.federation import FederationConfig, FederationRuntime, PeerSpec
from repro.serve.metrics import RollingWindow, ServeMetrics
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError
from repro.serve.sessions import SessionLimitError, SessionManager, UnknownSessionError
from repro.serve.shards import DEFAULT_REGION, ShardRegistry, ShardSpec
from repro.serve.shm import SegmentJanitor, SharedArrayPack
from repro.serve.transport import (
    FenceRegistry,
    FrameListener,
    PeerLink,
    TransportConfig,
)

__all__ = [
    "ABState",
    "AdmissionGate",
    "AutoscalerPolicy",
    "ClusterConfig",
    "ClusterServer",
    "ConsistentHashRing",
    "ControlJournal",
    "CrashTracker",
    "DEFAULT_REGION",
    "FederationConfig",
    "FederationRuntime",
    "FenceRegistry",
    "FrameListener",
    "GenerationStats",
    "MatchingClient",
    "PROTOCOL_VERSION",
    "PeerLink",
    "PeerSpec",
    "ProtocolError",
    "RollingWindow",
    "SegmentJanitor",
    "ServeClientError",
    "ServeMetrics",
    "ServeRedirect",
    "ServerBusy",
    "SessionFenced",
    "SessionLimitError",
    "SessionManager",
    "SharedArrayPack",
    "ShardRegistry",
    "ShardSpec",
    "StreamingSession",
    "TransportConfig",
    "UnknownSessionError",
    "canonical_key",
    "routes_to_challenger",
    "split_fraction",
]
