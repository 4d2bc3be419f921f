"""The region → artifact-set shard registry of the cluster tier.

One cluster deployment serves many cities: each *shard* is a region name
bound to a dataset (map + towers) and a trained model artifact
(:meth:`LHMM.save`'s validated ``.npz`` envelope), optionally with a
UBODT routing table.  The gateway loads and validates every artifact
exactly once, publishes all heavy numeric state into one shared-memory
segment per region (:class:`~repro.serve.shm.SharedArrayPack`), and
workers attach the segments read-only:

* model arrays — node embeddings, mined relation-graph counts, learner
  weights — straight from the envelope (so attached copies are
  bitwise-equal to the artifact contents by construction);
* the frozen road-network geometry tables and CSR adjacency
  (:meth:`RoadNetwork.shared_state_arrays`);
* the structured UBODT table, pre-sorted (:meth:`Ubodt.sorted_arrays`).

Workers are forked from the gateway, so they inherit the cheap Python
objects (segment dicts, grid index, tower list) copy-on-write and only
rebind the heavy arrays to the shared segment via the zero-copy attach
constructors (:meth:`RoadNetwork.adopt_shared_state`,
:meth:`LHMM.from_artifact_arrays`, :meth:`Ubodt.attach_sorted`).  The
result: N workers, one copy of every artifact.

**Generations** (zero-downtime rollout): a region's artifact set is
versioned.  :meth:`ShardRegistry.stage_model` publishes a *candidate*
generation into its own fresh segment next to the serving one;
:meth:`commit_staged` makes it the generation new worker forks will see,
returning the old shard so the control plane can :meth:`retire` it once
the last worker serving from it is gone.  :meth:`abort_staged` unlinks a
rejected candidate.  Old and new generations therefore coexist exactly
for the duration of a rolling swap, and a failure at any point leaves the
serving generation untouched.

Every published segment is also guarded by a
:class:`~repro.serve.shm.SegmentJanitor` — a separate process that
unlinks the segments if the whole fleet dies without running cleanup
(e.g. the gateway is SIGKILLed), so no deployment shape can leak
``/dev/shm`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ArtifactIncompatible, UnknownRegion
from repro.serve.shm import SegmentJanitor, SharedArrayPack

#: The region used when a request does not name one.
DEFAULT_REGION = "default"


@dataclass(slots=True)
class ShardSpec:
    """One region's artifact set (all paths; nothing is loaded yet)."""

    region: str
    dataset: str
    model: str
    router: str = "dijkstra"
    ubodt_delta_m: float = 3000.0
    ubodt_table: str | None = None
    #: Which artifact weight set workers attach: ``"raw"`` (the trained
    #: weights) or ``"ema"`` (the trainer's shadow set, when present).
    weights: str = "raw"

    def __post_init__(self) -> None:
        if not self.region or "/" in self.region:
            raise ValueError(f"invalid region name {self.region!r}")
        if self.router not in ("dijkstra", "ubodt"):
            raise ValueError(f"unknown router {self.router!r}")
        if self.weights not in ("raw", "ema"):
            raise ValueError(f"unknown weight set {self.weights!r}")


@dataclass(slots=True)
class LoadedShard:
    """A published shard: fork-inheritable dataset + shared arrays."""

    spec: ShardSpec
    dataset: object  # MatchingDataset (typed loosely to keep imports light)
    pack: SharedArrayPack
    config_dict: dict
    model_keys: list[str] = field(default_factory=list)
    #: Monotonic artifact generation of this region (bumped per rollout).
    generation: int = 1


def _model_arrays(pack: SharedArrayPack, keys: list[str]) -> dict[str, np.ndarray]:
    return {key[len("model."):]: pack[key] for key in keys}


class ShardRegistry:
    """Loads, publishes, and attaches per-region artifact sets.

    Build with :meth:`publish` in the gateway process *before* forking
    workers; each worker then calls :meth:`attach_matcher` per region.
    The registry owns the segments: :meth:`close` (gateway side, at
    shutdown) unlinks them.
    """

    def __init__(self, shards: dict[str, LoadedShard], janitor: SegmentJanitor | None = None) -> None:
        self._shards = shards
        self._staged: dict[str, LoadedShard] = {}
        self._janitor = janitor
        self._closed = False

    # ------------------------------------------------------------ publishing
    @classmethod
    def publish(cls, specs: list[ShardSpec], janitor: bool = True) -> "ShardRegistry":
        """Load every spec's artifacts and publish them to shared memory.

        Raises the artifact taxonomy errors (:class:`ArtifactCorrupt`,
        :class:`ArtifactIncompatible`, ``FileNotFoundError``) eagerly —
        a cluster must fail at startup, not on the first request, when an
        artifact is bad.  With ``janitor`` (the default) a
        :class:`~repro.serve.shm.SegmentJanitor` process guards the
        segments against an uncleanly-dying fleet.
        """
        if not specs:
            raise ValueError("a cluster needs at least one shard spec")
        shards: dict[str, LoadedShard] = {}
        try:
            for spec in specs:
                if spec.region in shards:
                    raise ValueError(f"duplicate region {spec.region!r}")
                shards[spec.region] = cls._load_shard(spec)
        except BaseException:
            # A failed startup must not strand the segments already
            # published for earlier specs — unlink them before re-raising.
            for shard in shards.values():
                shard.pack.unlink()
                shard.pack.close()
            raise
        guard = SegmentJanitor() if janitor else None
        registry = cls(shards, janitor=guard)
        if guard is not None:
            for shard in shards.values():
                guard.add(shard.pack.segment_name)
        return registry

    @classmethod
    def _load_shard(
        cls,
        spec: ShardSpec,
        dataset=None,
        reuse_pack: SharedArrayPack | None = None,
        generation: int = 1,
    ) -> LoadedShard:
        """Load one spec's artifacts into a freshly published pack.

        ``dataset``/``reuse_pack`` serve the rollout path: a new model
        generation for an already-served region reuses the loaded dataset
        object and copies the (immutable) ``net.*``/``ubodt.*`` arrays
        from the serving generation's segment instead of recomputing
        them — exact by construction, and cheap.
        """
        from repro.core.matcher import LHMM
        from repro.datasets import load_dataset
        from repro.network.ubodt import Ubodt
        from repro.nn.serialization import read_artifact

        if dataset is None:
            dataset = load_dataset(spec.dataset)
        artifact = read_artifact(spec.model, kind=LHMM.MODEL_KIND, allow_legacy=True)
        config_dict = (artifact.meta or {}).get("config")
        if not isinstance(config_dict, dict):
            raise ArtifactIncompatible(
                f"{spec.model}: artifact manifest carries no model "
                "configuration (cluster serving needs a manifest envelope)"
            )
        if spec.weights == "ema" and "ema.node_embeddings" not in artifact.arrays:
            raise ArtifactIncompatible(
                f"{spec.model}: artifact carries no EMA shadow weight set "
                "(available weights: raw only — was it written by an older "
                "build?)"
            )
        arrays: dict[str, np.ndarray] = {
            f"model.{key}": value for key, value in artifact.arrays.items()
        }
        model_keys = list(arrays)
        meta_extra: dict = {}
        if reuse_pack is not None:
            for key in reuse_pack.arrays:
                if key.startswith(("net.", "ubodt.")):
                    arrays[key] = reuse_pack[key]
            if "ubodt_delta_m" in reuse_pack.meta:
                meta_extra["ubodt_delta_m"] = reuse_pack.meta["ubodt_delta_m"]
        else:
            arrays.update(
                {
                    f"net.{key}": value
                    for key, value in dataset.network.shared_state_arrays().items()
                }
            )
            if spec.router == "ubodt":
                if spec.ubodt_table is not None:
                    table = Ubodt.load(spec.ubodt_table)
                else:
                    table = Ubodt.build(dataset.network, spec.ubodt_delta_m)
                arrays.update(
                    {f"ubodt.{k}": v for k, v in table.sorted_arrays().items()}
                )
                meta_extra["ubodt_delta_m"] = table.delta_m
        pack = SharedArrayPack.publish(arrays)
        pack.meta.update(meta_extra)
        return LoadedShard(
            spec=spec,
            dataset=dataset,
            pack=pack,
            config_dict=config_dict,
            model_keys=model_keys,
            generation=generation,
        )

    # ----------------------------------------------------------- generations
    def stage_model(
        self, region: str, model: str | None = None, weights: str | None = None
    ) -> LoadedShard:
        """Publish a candidate artifact generation for ``region``.

        Loads and validates the artifact at ``model`` (default: the
        region's configured path, re-read from disk), publishes it into a
        fresh segment, and parks it as the region's *staged* shard.
        ``weights`` selects the candidate's weight set (default: keep the
        region's current selection).  The serving generation is
        untouched; call :meth:`commit_staged` or :meth:`abort_staged` to
        resolve.  Raises the artifact taxonomy errors on a bad candidate
        — in which case nothing was staged.
        """
        current = self.shard(region)
        previous = self._staged.pop(region, None)
        if previous is not None:  # replaced before resolution: unlink it
            previous.pack.unlink()
            previous.pack.close()
            if self._janitor is not None:
                self._janitor.remove(previous.pack.segment_name)
        spec = ShardSpec(
            region=current.spec.region,
            dataset=current.spec.dataset,
            model=model if model is not None else current.spec.model,
            router=current.spec.router,
            ubodt_delta_m=current.spec.ubodt_delta_m,
            ubodt_table=current.spec.ubodt_table,
            weights=weights if weights is not None else current.spec.weights,
        )
        staged = self._load_shard(
            spec,
            dataset=current.dataset,
            reuse_pack=current.pack,
            generation=current.generation + 1,
        )
        self._staged[region] = staged
        if self._janitor is not None:
            self._janitor.add(staged.pack.segment_name)
        return staged

    def staged(self, region: str) -> LoadedShard | None:
        """The staged (uncommitted) shard for ``region``, if any."""
        return self._staged.get(region)

    def commit_staged(self, region: str) -> LoadedShard:
        """Make the staged generation the serving one; returns the old.

        New worker forks see the committed generation immediately.  The
        returned (previous) shard stays valid — workers forked before the
        commit still serve from it — until the caller :meth:`retire`\\ s
        it after the rolling swap completes.
        """
        staged = self._staged.pop(region, None)
        if staged is None:
            raise ValueError(f"region {region!r} has no staged generation")
        old = self._shards[region]
        self._shards[region] = staged
        return old

    def abort_staged(self, region: str) -> None:
        """Unlink and drop a rejected candidate generation (idempotent)."""
        staged = self._staged.pop(region, None)
        if staged is None:
            return
        staged.pack.unlink()
        staged.pack.close()
        if self._janitor is not None:
            self._janitor.remove(staged.pack.segment_name)

    def retire(self, shard: LoadedShard) -> None:
        """Unlink a replaced generation's segment (after its last worker)."""
        shard.pack.unlink()
        shard.pack.close()
        if self._janitor is not None:
            self._janitor.remove(shard.pack.segment_name)

    def staged_view(self, region: str) -> "ShardRegistry":
        """A registry view where ``region`` serves its staged generation.

        For the rollout canary: fork the probe worker against this view
        and it attaches the candidate segment while every other region —
        and every other worker — keeps serving the committed state.  The
        view does not own anything: never ``close`` it.
        """
        staged = self._staged.get(region)
        if staged is None:
            raise ValueError(f"region {region!r} has no staged generation")
        return ShardRegistry({**self._shards, region: staged}, janitor=None)

    def generations(self) -> dict[str, int]:
        """Serving artifact generation per region."""
        return {region: shard.generation for region, shard in self._shards.items()}

    # --------------------------------------------------------------- queries
    @property
    def regions(self) -> list[str]:
        """Served region names, in registration order."""
        return list(self._shards)

    def shard(self, region: str) -> LoadedShard:
        """The shard for ``region``; raises :class:`UnknownRegion`."""
        try:
            return self._shards[region]
        except KeyError:
            served = ", ".join(self._shards) or "<none>"
            raise UnknownRegion(
                f"region {region!r} is not served here (regions: {served})"
            ) from None

    def describe(self) -> dict:
        """Per-region segment facts for ``/metrics`` and ``/healthz``."""
        return {
            region: {
                "segment": shard.pack.segment_name,
                "bytes": shard.pack.nbytes,
                "arrays": len(shard.pack.meta["arrays"]),
                "router": shard.spec.router,
                "model": shard.spec.model,
                "weights": shard.spec.weights,
                "generation": shard.generation,
            }
            for region, shard in self._shards.items()
        }

    def total_bytes(self) -> int:
        """Published artifact bytes across all regions (one copy each)."""
        return sum(shard.pack.nbytes for shard in self._shards.values())

    # ----------------------------------------------------------- worker side
    def attach_matcher(self, region: str):
        """Build a region's matcher over the shared segment (worker side).

        Re-attaches the segment (getting this process its own read-only
        mapping, deregistered from its resource tracker) and constructs
        an :class:`LHMM` whose network tables, embeddings, weights, and
        optional UBODT all reference the shared buffers.  Results are
        byte-identical to a matcher loaded directly from the artifact:
        the attached arrays are bitwise-equal to the envelope contents.
        """
        from repro.core.config import LHMMConfig
        from repro.core.matcher import LHMM
        from repro.network.ubodt import Ubodt, UbodtRouter

        shard = self.shard(region)
        pack = SharedArrayPack.attach(shard.pack.meta)
        network = shard.dataset.network
        network.adopt_shared_state(
            {key[len("net."):]: pack[key] for key in pack.arrays if key.startswith("net.")}
        )
        try:
            config = LHMMConfig(**shard.config_dict)
            config.validate()
        except (TypeError, ValueError) as error:
            raise ArtifactIncompatible(
                f"{shard.spec.model}: stored configuration is not usable by "
                f"this build ({error})"
            ) from error
        matcher = LHMM.from_artifact_arrays(
            _model_arrays(pack, shard.model_keys),
            config,
            shard.dataset,
            origin=shard.spec.model,
            weights=shard.spec.weights,
        )
        if shard.spec.router == "ubodt":
            table = Ubodt.attach_sorted(
                pack.meta["ubodt_delta_m"],
                {
                    key[len("ubodt."):]: pack[key]
                    for key in pack.arrays
                    if key.startswith("ubodt.")
                },
            )
            matcher.use_router(UbodtRouter(network, table, fallback=shard.dataset.engine))
        return matcher, pack

    # ------------------------------------------------------------- lifecycle
    def close(self, unlink: bool = False) -> None:
        """Drop mappings; with ``unlink`` (owner/gateway) remove segments.

        Idempotent — the cluster's atexit backstop and an explicit
        shutdown may both call it.  Staged-but-unresolved generations are
        unlinked too (they can have no consumers).
        """
        if self._closed:
            return
        self._closed = True
        for region in list(self._staged):
            if unlink:
                self.abort_staged(region)
            else:
                staged = self._staged.pop(region)
                staged.pack.close()
        for shard in self._shards.values():
            if unlink and shard.pack.owner:
                shard.pack.unlink()
            shard.pack.close()
        if self._janitor is not None:
            self._janitor.quit()
            self._janitor = None
