"""The LHMM facade: ``fit`` on historical trajectories, ``match`` new ones.

``fit`` builds the multi-relational graph from the training split, trains
the Het-Graph encoder and both probability learners (§IV-B–D), and caches
the final node embeddings.  ``match`` runs the neuralised HMM path-finding
of §IV-E: learned candidate preparation, candidate-graph construction with
batched learned ``P_O``/``P_T`` scoring, Viterbi, and shortcut optimisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.cellular.trajectory import Trajectory, TrajectoryPoint
from repro.errors import (
    ArtifactIncompatible,
    InvalidTrajectoryInput,
    MatchError,
    MatchFailure,
    WorkerCrash,
)
from repro.testing import faults
from repro.core.candidates import CandidatePoolCache, learned_candidate_pool
from repro.core.checkpoint import CheckpointManager
from repro.core.config import LHMMConfig
from repro.core.features import (
    observation_feature_matrix,
    transition_feature_rows,
    transition_features,
)
from repro.core.het_encoder import HetGraphEncoder, MlpNodeEncoder
from repro.core.observation import ObservationLearner
from repro.core.registry import register_model
from repro.core.relation_graph import RelationGraph
from repro.core.training import LHMMTrainer, TrainingReport
from repro.core.transition import TransitionLearner
from repro.core.trellis import UNREACHABLE_SCORE, make_trellis
from repro.datasets.dataset import MatchingDataset, MatchingSample
from repro.geometry.cell_index import sorted_unique
from repro.nn import StateDictMismatch, Tensor, no_grad
from repro.nn.serialization import config_fingerprint, read_artifact, write_artifact
from repro.network.router import Router, route_block, route_pairs
from repro.network.shortest_path import Route, RouteBlock, stitch_segments
from repro.utils import derive_rng, ensure_rng


@dataclass(slots=True)
class MatchResult:
    """Output of one matching run.

    Attributes:
        path: The matched path as consecutive segment ids.
        matched_sequence: The decoded candidate per trajectory point.
        candidate_sets: Candidates per point, *including* any roads the
            shortcut pass inserted (the hitting-ratio metric counts them,
            matching how the paper credits STM+S with a higher HR).
        score: The Viterbi path score (Eq. 14).
        provenance: Which pipeline stage produced the result: ``"lhmm"``
            (the full learned matcher), or a degradation-cascade fallback
            — ``"heuristic_hmm"`` (classical HMM scoring) or
            ``"nearest_road"`` (per-point projection, no routing at all).
            Anything other than ``"lhmm"`` means the result is *degraded*:
            usable, but produced without the learned components.
    """

    path: list[int]
    matched_sequence: list[int]
    candidate_sets: list[list[int]]
    score: float
    provenance: str = "lhmm"

    @property
    def degraded(self) -> bool:
        """True when a fallback stage (not the learned matcher) answered."""
        return self.provenance != "lhmm"


#: Inference forwards run in blocks of at most this many rows ...
_BLOCK_ROWS = 512
#: ... each zero-padded to a multiple of this many rows.
_ROW_ALIGN = 8


def _rowwise_forward(forward, *rows: np.ndarray) -> np.ndarray:
    """One value per row from a row-wise inference forward, batch-invariantly.

    ``forward(*blocks)`` maps aligned row blocks of ``rows`` to a tensor of
    one value per row.  Rows go through in blocks of at most 512, each
    zero-padded to a multiple of 8 rows (the padding is dropped from the
    output).  Without the padding a row's float depends on how many rows
    share its call — BLAS takes other kernels for ragged row counts — so a
    road, candidate or transition would score differently in a per-step
    batch, alone, or in the streaming decoder.  Every row-wise inference
    forward (relevance, observation, transition fusion) goes through here;
    training does not.
    """
    n = rows[0].shape[0]
    values = np.empty(n, dtype=np.float64)
    with no_grad():
        for start in range(0, n, _BLOCK_ROWS):
            blocks = [r[start : start + _BLOCK_ROWS] for r in rows]
            size = blocks[0].shape[0]
            pad = -size % _ROW_ALIGN
            if pad:
                blocks = [
                    np.concatenate([b, np.zeros((pad, *b.shape[1:]))]) for b in blocks
                ]
            values[start : start + size] = forward(*blocks).numpy()[:size]
    return values


def _roads(routes: Iterable[Route | None]) -> set[int]:
    """Every road of the found ``routes``."""
    return {seg for route in routes if route is not None for seg in route.segments}


class _LHMMScorer:
    """Trellis scorer backed by the trained learners (batched, cached).

    Implements both the scalar :class:`~repro.core.trellis.TrellisScorer`
    hooks and the batched :class:`~repro.core.trellis.BatchTrellisScorer`
    extension the vectorized trellis drives, including its optional
    ``transition_pairs`` hook for the shortcut pass.  Every fusion forward
    is batch-invariant, so all paths return identical floats.

    ``routed`` holds every step's candidate product (prev-major), routed
    once before the trellis runs.  The batched pipeline passes one
    :class:`~repro.network.shortest_path.RouteBlock` over all steps in
    step order; the scorer then builds and scores all of the trajectory's
    ``P_T`` rows at once, and the per-step calls slice the result.  Pairs
    off those products (the shortcut pass's) are scored the same way, one
    block per ``transition_pairs`` call (:meth:`_score_block`).  The
    scalar pipeline passes ``{step: routes}`` and scores each step's
    routes one by one when the trellis asks.  Road relevance ``P(e|X)``
    lives in a dense per-trajectory array (0.5 by default) that is scored
    once for the in-scope roads of those routes and topped up for routes
    the shortcut pass adds later.
    """

    def __init__(
        self,
        matcher: "LHMM",
        points: list[TrajectoryPoint],
        candidate_sets: list[list[int]],
        po_maps: list[dict[int, float]],
        context: np.ndarray,
        routed: RouteBlock | dict[int, list[Route | None]],
        tower_embeddings: Tensor | None,
    ) -> None:
        self._matcher = matcher
        self._points = points
        self._positions = [p.position for p in points]
        # Straight-line distance of each step, indexed by step - 1.
        self._straight = [
            a.distance_to(b) for a, b in zip(self._positions, self._positions[1:])
        ]
        self._candidate_sets = candidate_sets
        self._po = po_maps
        self._context = context
        self._towers = tower_embeddings  # None when implicit P_T is ablated
        self._relevance: np.ndarray | None = None  # segment id -> P(e|X)
        self._checked: set[int] = set()  # segments already scope-checked
        self._pt_cache: dict[tuple[int, int, int], float] = {}
        self._steps_done: set[int] = set()
        # Scalar pipeline: step -> routes.  Batched: step -> P_T values.
        self._step_routes: dict[int, list[Route | None]] = {}
        self._step_probs: dict[int, np.ndarray] = {}
        if tower_embeddings is not None:
            self._relevance = np.full(matcher.network.segment_id_bound, 0.5)
        if isinstance(routed, RouteBlock):
            self._score_trip(routed)
        else:
            self._step_routes = routed
            if self._relevance is not None:
                self._score_relevance(
                    _roads(route for routes in routed.values() for route in routes)
                )

    def _score_trip(self, block: RouteBlock) -> None:
        """``P_T`` of every step's candidate product from one trip block."""
        sets = self._candidate_sets
        sizes = [len(sets[i - 1]) * len(sets[i]) for i in range(1, len(sets))]
        values = self._score_block(block, np.repeat(self._straight, sizes))
        bounds = np.cumsum([0, *sizes]).tolist()
        for i in range(1, len(sets)):
            self._step_probs[i] = values[bounds[i - 1] : bounds[i]]

    def _score_block(self, block: RouteBlock, straight: np.ndarray) -> np.ndarray:
        """``P_T`` per block entry, each with its step's ``straight`` distance.

        Relevance is topped up once for the block's roads, all rows are
        built by one ``transition_feature_rows`` call and scored by one
        fusion forward; the forward is batch-invariant, so each value
        equals the one a per-step or one-pair call would give.  Missing
        routes read :data:`UNREACHABLE_SCORE`.
        """
        matcher = self._matcher
        if self._relevance is not None:
            self._score_relevance(sorted_unique(block.segment_ids).tolist())
        rows, positions = transition_feature_rows(
            matcher.network, block, relevance=self._relevance, straight=straight
        )
        values = np.full(len(block), UNREACHABLE_SCORE)
        if rows.shape[0]:
            values[positions] = matcher._transition_probs(rows)
        return values

    # -------------------------------------------------------------- relevance
    def _score_relevance(self, segment_ids: Iterable[int]) -> None:
        """Score ``P(e|X)`` for the unchecked, in-scope roads among ``segment_ids``.

        A road is in scope when it lies within ``candidate_radius_m +
        RELEVANCE_MARGIN_M`` of some trajectory point; a route road outside
        it keeps the 0.5 default.  Roads checked before cost one set probe.
        """
        checked = self._checked
        fresh = {seg for seg in segment_ids if seg not in checked}
        if not fresh:
            return
        checked.update(fresh)
        matcher = self._matcher
        ids = sorted(fresh)
        in_scope = matcher.network.segments_within(
            ids,
            self._positions,
            matcher.config.candidate_radius_m + matcher.RELEVANCE_MARGIN_M,
        )
        scored = [seg for seg, keep in zip(ids, in_scope.tolist()) if keep]
        if scored:
            assert self._relevance is not None and self._towers is not None
            self._relevance[scored] = matcher._segment_relevance(self._towers, scored)

    # ------------------------------------------------------------ observation
    def observation(self, index: int, segment_id: int) -> float:
        cached = self._po[index].get(segment_id)
        if cached is not None:
            return cached
        # Score the new segment against the point's original pool so the
        # pool-relative rank features stay meaningful.
        pool = [seg for seg in self._po[index] if seg != segment_id]
        value = self._matcher._score_observations(
            self._points[index], [*pool, segment_id], self._context[index]
        )[-1]
        self._po[index][segment_id] = float(value)
        return float(value)

    def observation_batch(self, index: int, segment_ids: list[int]) -> np.ndarray:
        """Batched ``P_O`` over one point's candidates (same floats as scalar)."""
        return np.array(
            [self.observation(index, seg) for seg in segment_ids], dtype=np.float64
        )

    # ------------------------------------------------------------- transition
    def transition(self, index: int, prev_segment_id: int, segment_id: int) -> float:
        key = (index, prev_segment_id, segment_id)
        cached = self._pt_cache.get(key)
        if cached is not None:
            return cached
        if index not in self._steps_done:
            self._batch_step(index)
            self._steps_done.add(index)
            cached = self._pt_cache.get(key)
            if cached is not None:
                return cached
        return float(self.transition_pairs([key])[0])

    def _batch_step(self, index: int) -> None:
        """Score every candidate pair of one step in a single MLP call."""
        pairs = [
            (a, b)
            for a in self._candidate_sets[index - 1]
            for b in self._candidate_sets[index]
        ]
        values = self._step_probs.get(index)
        if values is not None:
            values = values.tolist()
        else:
            values = self._compute_transitions(index, pairs, self._step_routes[index])
        for pair, value in zip(pairs, values):
            self._pt_cache[(index, pair[0], pair[1])] = value

    def transition_batch(
        self, index: int, prev_segment_ids: list[int], segment_ids: list[int]
    ) -> np.ndarray:
        """Batched ``P_T`` matrix for one trellis step.

        Pairs are enumerated in the same (prev-major) product order the
        scalar path's :meth:`_batch_step` uses, so the stacked MLP input —
        and therefore every probability — is bit-identical to it.
        """
        pairs = [(a, b) for a in prev_segment_ids for b in segment_ids]
        original = (
            prev_segment_ids == self._candidate_sets[index - 1]
            and segment_ids == self._candidate_sets[index]
        )
        if original and index in self._step_probs:
            values = self._step_probs[index]
        elif original and index in self._step_routes:
            values = np.array(
                self._compute_transitions(index, pairs, self._step_routes[index]),
                dtype=np.float64,
            )
        else:
            values = self.transition_pairs([(index, a, b) for a, b in pairs])
        for pair, value in zip(pairs, values.tolist()):
            self._pt_cache[(index, pair[0], pair[1])] = value
        self._steps_done.add(index)
        return values.reshape(len(prev_segment_ids), len(segment_ids))

    def transition_pairs(self, keys: list[tuple[int, int, int]]) -> np.ndarray:
        """``P_T`` for arbitrary ``(step, prev, seg)`` keys, uncached ones at once.

        The shortcut pass asks for every pair its plan will read.  The
        batched pipeline routes the uncached keys into one block and scores
        it like the trip's products (:meth:`_score_block`); the scalar
        pipeline scores them step by step.  The floats equal one-pair
        :meth:`transition` calls because the fusion forward is
        batch-invariant.
        """
        cache = self._pt_cache
        fresh = [key for key in dict.fromkeys(keys) if key not in cache]
        if fresh and self._matcher.config.pipeline_impl == "batched":
            block = route_block(self._matcher.engine, [(a, b) for _, a, b in fresh])
            straight = np.array([self._straight[i - 1] for i, _, _ in fresh])
            cache.update(zip(fresh, self._score_block(block, straight).tolist()))
        elif fresh:
            by_step: dict[int, list[tuple[int, int]]] = {}
            for index, a, b in fresh:
                by_step.setdefault(index, []).append((a, b))
            for index, pairs in by_step.items():
                values = self._compute_transitions(index, pairs)
                cache.update(((index, a, b), v) for (a, b), v in zip(pairs, values))
        return np.array([cache[key] for key in keys], dtype=np.float64)

    def _compute_transitions(
        self,
        index: int,
        pairs: list[tuple[int, int]],
        routes: list[Route | None] | None = None,
    ) -> list[float]:
        """Scalar pipeline: ``P_T`` of one step's ``pairs``, route by route.

        Without ``routes`` the pairs are off the routed candidate products
        (shortcut insertions): they are routed with one batched query and
        their relevance is topped up first.
        """
        matcher = self._matcher
        if routes is None:
            routes = route_pairs(matcher.engine, pairs)
            if self._relevance is not None:
                self._score_relevance(_roads(routes))
        relevance = self._relevance
        values = [UNREACHABLE_SCORE] * len(pairs)
        rows: list[np.ndarray] = []
        row_positions = []
        for pos, route in enumerate(routes):
            if route is None:
                continue
            explicit = transition_features(
                matcher.network, route, self._points[index - 1], self._points[index]
            )
            if relevance is not None:
                implicit = float(np.mean([relevance[s] for s in route.segments]))
                rows.append(np.concatenate([[implicit], explicit]))
            else:
                rows.append(explicit)
            row_positions.append(pos)
        if rows:
            probs = matcher._transition_probs(np.stack(rows))
            for pos, prob in zip(row_positions, probs.tolist()):
                values[pos] = prob
        return values


def arch_name(config: LHMMConfig) -> str:
    """The registry name of the Table III variant ``config`` encodes.

    First-match over the ablation switches, so the name is a pure
    deterministic function of the config; construction always honours
    the full config dict — the name only routes to a factory.
    """
    if not config.use_graph_encoder:
        return "lhmm-e"
    if not config.heterogeneous:
        return "lhmm-h"
    if not config.use_implicit_observation:
        return "lhmm-o"
    if not config.use_implicit_transition:
        return "lhmm-t"
    if not config.use_shortcuts:
        return "lhmm-s"
    return "lhmm"


class LHMM:
    """Learning-enhanced HMM map matcher (the paper's model)."""

    def __init__(
        self,
        config: LHMMConfig | None = None,
        rng: int | np.random.Generator | None = 0,
    ) -> None:
        self.config = config or LHMMConfig()
        self.config.validate()
        self._rng = ensure_rng(rng)
        self.graph: RelationGraph | None = None
        self.encoder = None
        self.observation_learner: ObservationLearner | None = None
        self.transition_learner: TransitionLearner | None = None
        self.node_embeddings: np.ndarray | None = None
        self.network = None
        self.engine: Router | None = None
        self.report: TrainingReport | None = None
        self.last_parallel_stats: dict | None = None
        # EMA shadow weight set in artifact layout (node_embeddings +
        # obs.*/trans.*), captured from the trainer at fit time or from
        # the artifact at load time; None when the model carries none.
        self._ema_arrays: dict[str, np.ndarray] | None = None
        #: Which weight set this instance serves ("raw" or "ema").
        self.weights_variant: str = "raw"
        # Degradation cascade (docs/robustness.md): on internal failure,
        # fall back to heuristic HMM scoring, then nearest-road projection.
        self.degradation_enabled: bool = True
        self.degraded_counts: dict[str, int] = {}
        self.last_degraded_cause: BaseException | None = None
        self._fallback_hmm = None
        self._bounds: tuple[float, float, float, float] | None = None
        # Batched-pipeline candidate-pool cache (lazy; rebuilt when the
        # graph or the pool-shaping config fields change).
        self._pool_cache_obj: CandidatePoolCache | None = None
        self._pool_cache_key: tuple | None = None

    # -------------------------------------------------------------------- fit
    def fit(
        self,
        dataset: MatchingDataset,
        train_samples: list[MatchingSample] | None = None,
        checkpoint_dir: str | None = None,
        resume: bool = True,
        keep_checkpoints: int = 3,
    ) -> "LHMM":
        """Train on ``dataset`` (``train_samples`` overrides the train split).

        With ``checkpoint_dir``, training state is durably checkpointed
        after every epoch and — when ``resume`` is true — a killed run
        continues from the newest intact checkpoint, producing weights
        bit-identical to an uninterrupted run (``docs/robustness.md``).
        The checkpoints carry this config's fingerprint; resuming under a
        different configuration raises
        :class:`~repro.errors.ArtifactIncompatible`.
        """
        cfg = self.config
        samples = train_samples if train_samples is not None else dataset.train
        self.network = dataset.network
        self.engine = dataset.engine
        self.graph = RelationGraph(dataset.network, dataset.towers).build(samples)

        model_rng = derive_rng(self._rng, "model")
        if cfg.use_graph_encoder:
            self.encoder = HetGraphEncoder(
                self.graph,
                dim=cfg.embedding_dim,
                num_layers=cfg.het_layers,
                heterogeneous=cfg.heterogeneous,
                rng=model_rng,
            )
        else:
            self.encoder = MlpNodeEncoder(self.graph, dim=cfg.embedding_dim, rng=model_rng)
        self.observation_learner = ObservationLearner(
            dim=cfg.embedding_dim,
            hidden=cfg.mlp_hidden,
            use_implicit=cfg.use_implicit_observation,
            num_explicit=cfg.observation_feature_count,
            rng=model_rng,
        )
        self.transition_learner = TransitionLearner(
            dim=cfg.embedding_dim,
            hidden=cfg.mlp_hidden,
            use_implicit=cfg.use_implicit_transition,
            rng=model_rng,
        )
        trainer = LHMMTrainer(
            cfg,
            self.graph,
            self.encoder,
            self.observation_learner,
            self.transition_learner,
            self.engine,
            rng=derive_rng(self._rng, "training"),
        )
        checkpoint = None
        if checkpoint_dir is not None:
            import dataclasses

            checkpoint = CheckpointManager(
                checkpoint_dir,
                keep=keep_checkpoints,
                config_fingerprint=config_fingerprint(dataclasses.asdict(cfg)),
            )
        self.report = trainer.train(samples, checkpoint=checkpoint, resume=resume)
        self.node_embeddings = trainer.node_embeddings
        self._ema_arrays = trainer.ema_artifact_arrays()
        self.encoder.eval()
        self.observation_learner.eval()
        self.transition_learner.eval()
        return self

    def _require_fit(self) -> None:
        if self.node_embeddings is None or self.graph is None:
            raise MatchFailure("call fit() before matching")

    # ------------------------------------------------------------- validation
    #: How far outside the map's bounding box a point may sit before it is
    #: rejected as out-of-bounds (covers towers ringing the served area).
    BOUNDS_MARGIN_M = 10_000.0

    #: How far beyond ``candidate_radius_m`` of some trajectory point a
    #: transition route's road may lie and still get a learned ``P(e|X)``
    #: (farther roads read 0.5).
    RELEVANCE_MARGIN_M = 1500.0

    def validate_trajectory(
        self, trajectory: Trajectory, context: str = "trajectory"
    ) -> None:
        """Reject degenerate input with a field-level, structured error.

        Raises :class:`InvalidTrajectoryInput` (HTTP 422 at the serving
        layer) for empty trajectories, non-finite coordinates, and points
        far outside the served map.  Tower ids absent from the relation
        graph are *not* an error — matching normalises them to the nearest
        known tower.
        """
        if len(trajectory) == 0:
            raise InvalidTrajectoryInput(f"{context}: trajectory is empty")
        if self._bounds is None and self.network is not None:
            self._bounds = self.network.bounding_box()
        min_x, min_y, max_x, max_y = self._bounds or (
            -math.inf, -math.inf, math.inf, math.inf
        )
        margin = self.BOUNDS_MARGIN_M
        for i, point in enumerate(trajectory.points):
            x, y, t = point.position.x, point.position.y, point.timestamp
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(t)):
                raise InvalidTrajectoryInput(
                    f"{context}.points[{i}]: non-finite coordinate "
                    f"(x={x!r}, y={y!r}, t={t!r})"
                )
            if not (
                min_x - margin <= x <= max_x + margin
                and min_y - margin <= y <= max_y + margin
            ):
                raise InvalidTrajectoryInput(
                    f"{context}.points[{i}]: position ({x:.0f}, {y:.0f}) lies "
                    f"more than {margin:.0f}m outside the served map bounds "
                    f"({min_x:.0f}, {min_y:.0f})..({max_x:.0f}, {max_y:.0f})"
                )

    # ------------------------------------------------------------- inference
    def _tower_node_for(self, point: TrajectoryPoint) -> int:
        assert self.graph is not None
        if point.tower_id is not None and point.tower_id in self.graph.towers.towers:
            return self.graph.tower_node(point.tower_id)
        nearest = self.graph.towers.nearest(point.position, count=1)
        return self.graph.tower_node(nearest[0])

    def _score_observations(
        self,
        point: TrajectoryPoint,
        segment_ids: list[int],
        context_vector: np.ndarray,
    ) -> np.ndarray:
        """Learned ``P_O`` for one point over ``segment_ids``."""
        assert self.graph is not None
        explicit = observation_feature_matrix(
            self.graph, point, segment_ids, include_ranks=self.config.use_rank_features
        )
        return self._observation_probs(
            explicit,
            self.graph.segment_nodes(segment_ids),
            np.repeat(context_vector[np.newaxis, :], len(segment_ids), axis=0),
        )

    def _observation_probs(
        self, explicit: np.ndarray, node_idx: np.ndarray, context_rows: np.ndarray
    ) -> np.ndarray:
        """``P_O`` (Eq. 7 + 8) per row: road node, context row, explicit row."""
        assert self.observation_learner is not None
        assert self.node_embeddings is not None
        learner = self.observation_learner
        if not learner.use_implicit:
            return _rowwise_forward(lambda x: learner.fuse(None, x), explicit)

        def forward(x: np.ndarray, roads: np.ndarray, context: np.ndarray) -> Tensor:
            implicit = learner.implicit_logits(Tensor(roads), Tensor(context))
            return learner.fuse(implicit.sigmoid(), x)

        roads = np.take(self.node_embeddings, node_idx, axis=0)
        return _rowwise_forward(forward, explicit, roads, context_rows)

    def _transition_probs(self, rows: np.ndarray) -> np.ndarray:
        """``P_T`` (Eq. 12) per stacked transition feature row."""
        assert self.transition_learner is not None
        fusion = self.transition_learner.fusion_mlp
        return _rowwise_forward(
            lambda x: fusion(Tensor(x)).reshape(x.shape[0]).sigmoid(), rows
        )

    def _segment_relevance(
        self, tower_embeddings: Tensor, segment_ids: list[int]
    ) -> np.ndarray:
        """``P(e | X)`` (Eq. 10) for the given road segments, aligned.

        Batch-invariant (:func:`_rowwise_forward`): a segment scores the
        same whether scored up front, topped up alone, or by the streaming
        decoder.
        """
        assert self.graph is not None and self.transition_learner is not None
        assert self.node_embeddings is not None
        if not segment_ids:
            return np.empty(0, dtype=np.float64)
        learner = self.transition_learner
        return _rowwise_forward(
            lambda x: learner.road_relevance_logits(Tensor(x), tower_embeddings).sigmoid(),
            self.node_embeddings[self.graph.segment_nodes(segment_ids)],
        )

    def _tower_nodes_for(self, points: list[TrajectoryPoint]) -> np.ndarray:
        """Graph node index of the interacting tower, per trajectory point."""
        return np.array([self._tower_node_for(p) for p in points])

    def _pool_cache(self) -> CandidatePoolCache:
        """The per-tower candidate-pool cache for the batched pipeline."""
        assert self.graph is not None
        cfg = self.config
        key = (
            id(self.graph),
            self.graph.mining_version,
            cfg.candidate_radius_m,
            cfg.candidate_pool,
            cfg.extend_pool_with_cooccurrence,
        )
        if self._pool_cache_obj is None or self._pool_cache_key != key:
            self._pool_cache_obj = CandidatePoolCache(
                self.graph,
                cfg.candidate_radius_m,
                cfg.candidate_pool,
                include_cooccurrence=cfg.extend_pool_with_cooccurrence,
            )
            self._pool_cache_key = key
        return self._pool_cache_obj

    def _prepare_candidates_batched(
        self, points: list[TrajectoryPoint], context: np.ndarray
    ) -> tuple[list[list[int]], list[dict[int, float]]]:
        """Whole-trajectory candidate preparation: one fused pass.

        Candidate pools come from the per-tower cache (cold misses resolved
        through the stacked spatial kernel), explicit features from the
        ragged-stacked builder, and the implicit correlation + fusion MLPs
        run over all (point, candidate) pairs at once — context rows
        repeated per candidate instead of one forward per point.  The
        forward is batch-invariant, so every candidate scores exactly as
        the per-point :meth:`_score_observations` scores it.
        """
        assert self.graph is not None
        cfg = self.config
        pools, explicit, counts, node_idx = self._pool_cache().pools_features(
            points, include_ranks=cfg.use_rank_features
        )
        scores = self._observation_probs(
            explicit, node_idx, np.repeat(context, counts, axis=0)
        )
        candidate_sets: list[list[int]] = []
        po_maps: list[dict[int, float]] = []
        offset = 0
        for pool in pools:
            m = len(pool)
            pool_scores = scores[offset : offset + m]
            order = np.argsort(-pool_scores)
            candidate_sets.append([pool[int(j)] for j in order[: cfg.candidate_k]])
            po_maps.append(
                {seg: float(s) for seg, s in zip(pool, pool_scores)}
            )
            offset += m
        return candidate_sets, po_maps

    def prepare_candidates(
        self, trajectory: Trajectory, tower_nodes: np.ndarray | None = None
    ) -> tuple[list[list[int]], list[dict[int, float]], np.ndarray]:
        """Step 1 of §IV-E: learned top-k candidates per point.

        Returns ``(candidate_sets, po_maps, context)`` where ``po_maps``
        holds the learned observation probability of every pool road (kept
        so shortcut insertion can score off-candidate roads cheaply).
        ``tower_nodes`` (from :meth:`_tower_nodes_for`) can be passed in to
        avoid recomputing the per-point tower lookup.
        """
        self._require_fit()
        assert self.graph is not None and self.observation_learner is not None
        points = trajectory.points
        if tower_nodes is None:
            tower_nodes = self._tower_nodes_for(points)
        with no_grad():
            x = Tensor(self.node_embeddings[tower_nodes])  # type: ignore[index]
            context = self.observation_learner.context(x).numpy()
        candidate_sets, po_maps = self._candidate_layers(points, context)
        return candidate_sets, po_maps, context

    def _candidate_layers(
        self, points: list[TrajectoryPoint], context: np.ndarray
    ) -> tuple[list[list[int]], list[dict[int, float]]]:
        """Top-k candidates and pool ``P_O`` maps for ``points``.

        ``context[i]`` is point ``i``'s attention context row.  The batched
        pipeline scores all points in one pass
        (:meth:`_prepare_candidates_batched`), the scalar one point by
        point; both give the same floats.  Whole-trajectory matching and
        the streaming decoder (one point at a time) share this stage.
        """
        cfg = self.config
        if cfg.pipeline_impl == "batched":
            return self._prepare_candidates_batched(points, context)
        candidate_sets = []
        po_maps = []
        for point, context_row in zip(points, context):
            pool = learned_candidate_pool(
                self.graph,
                point,
                cfg.candidate_radius_m,
                cfg.candidate_pool,
                include_cooccurrence=cfg.extend_pool_with_cooccurrence,
            )
            scores = self._score_observations(point, pool, context_row)
            order = np.argsort(-scores)
            candidate_sets.append([pool[int(j)] for j in order[: cfg.candidate_k]])
            po_maps.append({seg: float(s) for seg, s in zip(pool, scores)})
        return candidate_sets, po_maps

    def match(self, trajectory: Trajectory) -> MatchResult:
        """Map-match one cellular trajectory (Algorithms 1 + 2).

        Runs the degradation cascade: the full learned matcher first; on
        an *internal* failure (never on bad input) the heuristic-HMM
        fallback, then nearest-road projection.  Degraded results are
        tagged via :attr:`MatchResult.provenance` and counted in
        :attr:`degraded_counts`; set :attr:`degradation_enabled` to
        ``False`` to re-raise instead (e.g. in parity tests).
        """
        self._require_fit()
        self.validate_trajectory(trajectory)
        faults.fire("match", trajectory_id=trajectory.trajectory_id)
        try:
            faults.fire("match.learned", trajectory_id=trajectory.trajectory_id)
            return self._match_learned(trajectory)
        except InvalidTrajectoryInput:
            raise
        except Exception as error:  # noqa: BLE001 - cascade boundary
            if not self.degradation_enabled:
                raise
            self.last_degraded_cause = error
        try:
            faults.fire("match.heuristic", trajectory_id=trajectory.trajectory_id)
            result = self._match_heuristic(trajectory)
        except Exception:  # noqa: BLE001 - fall through to last resort
            result = self._match_nearest(trajectory)
        self.degraded_counts[result.provenance] = (
            self.degraded_counts.get(result.provenance, 0) + 1
        )
        return result

    def _match_learned(self, trajectory: Trajectory) -> MatchResult:
        """The full learned pipeline (§IV-E), no fallbacks."""
        assert self.transition_learner is not None
        points = trajectory.points
        tower_nodes = self._tower_nodes_for(points)
        candidate_sets, po_maps, context = self.prepare_candidates(
            trajectory, tower_nodes
        )
        if len(points) == 1:
            best = max(po_maps[0], key=po_maps[0].get)  # type: ignore[arg-type]
            return MatchResult([best], [best], [list(candidate_sets[0])], po_maps[0][best])

        # Route every step's candidate product first: the scorer reads road
        # relevance only through these routes (Eq. 11), so it scores P(e|X)
        # once, for exactly the roads they touch.  The batched pipeline
        # routes the whole trajectory into one block, prev-major per step
        # and in step order.
        products = [
            [(a, b) for a in candidate_sets[i - 1] for b in candidate_sets[i]]
            for i in range(1, len(points))
        ]
        routed: RouteBlock | dict[int, list[Route | None]]
        if self.config.pipeline_impl == "batched":
            routed = route_block(
                self.engine, [pair for pairs in products for pair in pairs]
            )
        else:
            routed = {
                i: route_pairs(self.engine, pairs)
                for i, pairs in enumerate(products, start=1)
            }
        towers = None
        if self.transition_learner.use_implicit:
            towers = Tensor(self.node_embeddings[tower_nodes])  # type: ignore[index]
        scorer = _LHMMScorer(
            self, points, candidate_sets, po_maps, context, routed, towers
        )
        trellis = make_trellis(
            candidate_sets,
            scorer,
            self.network,
            self.engine,
            points,
            impl=self.config.trellis_impl,
        )
        shortcut_k = self.config.shortcut_k if self.config.use_shortcuts else 0
        sequence = trellis.run(shortcut_k=shortcut_k)
        path = stitch_segments(sequence, self.engine)
        return MatchResult(
            path=path,
            matched_sequence=sequence,
            # The trellis's sets include shortcut-inserted candidates.
            candidate_sets=[list(c) for c in trellis.candidate_sets],
            score=trellis.best_score,
        )

    # ------------------------------------------------------------ degradation
    def _match_heuristic(self, trajectory: Trajectory) -> MatchResult:
        """Cascade stage 2: classical HMM scoring over the same trellis.

        Always available — needs only the road network and a router, none
        of the learned components (the Zero-Shot CTMM argument: a
        heuristic HMM can score where learned models cannot).
        """
        from types import SimpleNamespace

        from repro.baselines.hmm_heuristic import HeuristicHmmMatcher

        if self._fallback_hmm is None:
            shim = SimpleNamespace(network=self.network, engine=self.engine)
            self._fallback_hmm = HeuristicHmmMatcher(shim)
        baseline = self._fallback_hmm.match(trajectory)
        return MatchResult(
            path=list(baseline.path),
            matched_sequence=list(baseline.matched_sequence),
            candidate_sets=[list(c) for c in baseline.candidate_sets],
            score=0.0,
            provenance="heuristic_hmm",
        )

    def _match_nearest(self, trajectory: Trajectory) -> MatchResult:
        """Cascade stage 3 (last resort): per-point nearest-road projection.

        Uses no routing at all, so it survives even a broken routing
        backend; the "path" is the deduplicated projection sequence.
        """
        sequence: list[int] = []
        for i, point in enumerate(trajectory.points):
            nearest = self.network.nearest_segments(point.position, count=1)
            if not nearest:
                raise InvalidTrajectoryInput(
                    f"trajectory.points[{i}]: no road within "
                    f"{self.BOUNDS_MARGIN_M:.0f}m of ({point.position.x:.0f}, "
                    f"{point.position.y:.0f})"
                )
            sequence.append(nearest[0])
        path = [sequence[0]]
        for segment in sequence[1:]:
            if segment != path[-1]:
                path.append(segment)
        return MatchResult(
            path=path,
            matched_sequence=sequence,
            candidate_sets=[[s] for s in sequence],
            score=0.0,
            provenance="nearest_road",
        )

    def use_router(self, router: Router) -> "LHMM":
        """Route all matching through ``router`` (e.g. a ``UbodtRouter``).

        Every downstream consumer — the trellis, the learned scorer, and
        path stitching — goes through :attr:`engine`, so swapping it swaps
        the routing backend everywhere at once.  Returns ``self``.
        """
        self.engine = router
        return self

    def match_many(
        self,
        trajectories: list[Trajectory],
        workers: int = 1,
        chunk_size: int | None = None,
        return_errors: bool = False,
    ) -> list[MatchResult]:
        """Match a batch of trajectories, optionally across processes.

        With ``workers > 1`` the batch is dispatched in chunks to a process
        pool (forked workers share this fitted matcher read-only); results
        come back in input order and are identical to the serial path,
        trajectory for trajectory.  Falls back to serial matching when the
        platform cannot fork, the batch is trivially small, or the forked
        pool crashes (completed-or-not, every trajectory is re-answered
        serially — the facade never loses a batch to a dead worker).

        With ``return_errors=True``, trajectories that fail to match come
        back as :class:`~repro.errors.MatchError` slots in their input
        positions instead of raising — one poison trajectory cannot void
        the rest of the batch.
        """
        if workers > 1 and len(trajectories) > 1:
            from repro.core.parallel import fork_match_many

            try:
                results = fork_match_many(
                    self, trajectories, workers, chunk_size, return_errors=return_errors
                )
            except WorkerCrash:
                results = None  # pool died: re-answer the batch serially
            if results is not None:
                return results
        if not return_errors:
            return [self.match(t) for t in trajectories]
        slots: list = []
        for index, trajectory in enumerate(trajectories):
            try:
                slots.append(self.match(trajectory))
            except Exception as error:  # noqa: BLE001 - slotted, not raised
                slots.append(MatchError.from_exception(error, index=index))
        return slots

    # ------------------------------------------------------------ persistence
    #: Envelope kind tag of serialised LHMM models.
    MODEL_KIND = "lhmm-model"

    def save(self, path) -> None:
        """Persist a fitted matcher as a validated ``.npz`` artifact.

        Stores the cached node embeddings, both learners' weights, the
        mined relation-graph counts (needed for explicit features and
        candidate pools), and the configuration.  The road network and
        towers are *not* stored — :meth:`load` takes the dataset they live
        in, matching how a deployment would keep the (large, static) map
        separate from the (small, trained) model.

        A model fitted by this build also carries its EMA shadow weight
        set as a parallel ``ema.*`` array family (same layout: embeddings
        plus learner weights; the mined graph counts are shared), and the
        manifest meta records the architecture name (``arch``, resolved
        through :mod:`repro.core.registry` at load time) and the weight
        sets present (``weights``).

        The archive is a versioned envelope (``repro.nn.serialization``):
        every array is checksummed in an embedded manifest, the write is
        atomic, and the bytes are deterministic — saving the same fitted
        matcher twice yields identical files.
        """
        import dataclasses

        self._require_fit()
        assert self.graph is not None
        payload: dict[str, np.ndarray] = {"node_embeddings": self.node_embeddings}
        payload.update(
            {f"graph.{k}": v for k, v in self.graph.mining_state().items()}
        )
        payload.update(
            {f"obs.{k}": v for k, v in self.observation_learner.state_dict().items()}
        )
        payload.update(
            {f"trans.{k}": v for k, v in self.transition_learner.state_dict().items()}
        )
        weight_sets = ["raw"]
        if self._ema_arrays:
            payload.update({f"ema.{k}": v for k, v in self._ema_arrays.items()})
            weight_sets.append("ema")
        write_artifact(
            path,
            payload,
            kind=self.MODEL_KIND,
            meta={
                "config": dataclasses.asdict(self.config),
                "arch": arch_name(self.config),
                "weights": weight_sets,
            },
        )

    @classmethod
    def load(cls, path, dataset: MatchingDataset, weights: str = "raw") -> "LHMM":
        """Restore a matcher saved by :meth:`save` onto ``dataset``'s map.

        Construction is dispatched through the architecture registry
        (:func:`repro.core.registry.make_model`) keyed by the manifest's
        ``arch`` name — no class is ever unpickled and no architecture is
        hardcoded here.  ``weights`` selects the weight set: ``"raw"``
        (the default) or ``"ema"`` for the trainer's EMA shadow set.

        Raises:
            FileNotFoundError: no file at ``path``.
            ArtifactCorrupt: the archive is damaged (truncated, flipped
                byte, checksum/shape/dtype disagreement).
            ArtifactIncompatible: intact but unusable here — wrong
                artifact kind, unsupported format version, unknown
                architecture name, a model trained for a different
                map/configuration than ``dataset`` provides, or
                ``weights="ema"`` against an artifact with no EMA set.

        Legacy archives written by older builds (bare ``np.savez`` with a
        ``config_json`` array) still load, behind a ``UserWarning``.
        """
        import json

        from repro.core.registry import make_model

        artifact = read_artifact(path, kind=cls.MODEL_KIND, allow_legacy=True)
        arrays = artifact.arrays
        if artifact.manifest is not None:
            meta = dict(artifact.meta)
            if not isinstance(meta.get("config"), dict):
                raise ArtifactIncompatible(
                    f"{path}: artifact manifest carries no model configuration"
                )
        else:  # legacy bare .npz: config travels as a uint8 JSON array
            if "config_json" not in arrays:
                raise ArtifactIncompatible(
                    f"{path}: archive has neither a manifest nor a legacy "
                    "config_json entry — not an LHMM model"
                )
            meta = {
                "config": json.loads(
                    bytes(arrays["config_json"].tobytes()).decode()
                )
            }
        try:
            matcher = make_model(meta.get("arch", "lhmm"), **meta)
        except ArtifactIncompatible as error:
            raise ArtifactIncompatible(f"{path}: {error}") from error
        matcher.attach_dataset(dataset)
        matcher.load_state_dict(arrays, origin=str(path), weights=weights)
        return matcher

    def attach_dataset(self, dataset: MatchingDataset) -> "LHMM":
        """Bind the (large, static) map this model serves.

        Wires the road network, the routing engine, and an un-mined
        relation-graph shell from ``dataset`` — the half of a fitted
        matcher that is *not* stored in artifacts.  Call it between
        :func:`~repro.core.registry.make_model` and
        :meth:`load_state_dict`.  Returns ``self``.
        """
        self.network = dataset.network
        self.engine = dataset.engine
        self.graph = RelationGraph(dataset.network, dataset.towers)
        return self

    def load_state_dict(
        self, arrays, origin: str = "state", weights: str = "raw"
    ) -> "LHMM":
        """Load artifact arrays into an attached matcher.

        ``arrays`` is the envelope's array mapping (mined graph counts,
        embeddings, learner weights, optional ``ema.*`` shadow set).
        ``weights`` picks which weight set becomes the serving one:
        ``"raw"`` or ``"ema"`` — the mined graph counts are shared
        between sets.  Arrays are adopted by reference (read-only views
        are fine: inference never writes parameters), so processes
        attaching a shared-memory publication share one copy of the
        trained state.  ``origin`` only labels error messages.

        Raises :class:`~repro.errors.ArtifactIncompatible` when the
        arrays do not fit this config or the attached map, or when
        ``weights="ema"`` is requested from an artifact carrying no EMA
        set.  Returns ``self``.
        """
        if weights not in ("raw", "ema"):
            raise ValueError(f"weights must be 'raw' or 'ema', got {weights!r}")
        if self.graph is None or self.network is None:
            raise MatchFailure("call attach_dataset() before load_state_dict()")
        config = self.config
        prefix = "" if weights == "raw" else "ema."
        if weights == "ema" and "ema.node_embeddings" not in arrays:
            raise ArtifactIncompatible(
                f"{origin}: artifact carries no EMA shadow weight set "
                "(available weights: raw only — was it written by an older "
                "build?)"
            )
        try:
            self.graph.load_mining_state(
                {
                    "co_counts": arrays["graph.co_counts"],
                    "sq_counts": arrays["graph.sq_counts"],
                }
            )
            self.node_embeddings = arrays[f"{prefix}node_embeddings"]
            self.observation_learner = ObservationLearner(
                dim=config.embedding_dim,
                hidden=config.mlp_hidden,
                use_implicit=config.use_implicit_observation,
                num_explicit=config.observation_feature_count,
            )
            self.observation_learner.load_state_dict(
                {
                    k[len(prefix) + len("obs.") :]: arrays[k]
                    for k in arrays
                    if k.startswith(f"{prefix}obs.")
                }
            )
            self.transition_learner = TransitionLearner(
                dim=config.embedding_dim,
                hidden=config.mlp_hidden,
                use_implicit=config.use_implicit_transition,
            )
            self.transition_learner.load_state_dict(
                {
                    k[len(prefix) + len("trans.") :]: arrays[k]
                    for k in arrays
                    if k.startswith(f"{prefix}trans.")
                }
            )
        except (StateDictMismatch, KeyError, ValueError) as error:
            raise ArtifactIncompatible(
                f"{origin}: model does not fit this build or map "
                f"({type(error).__name__}: {error}); was it trained on a "
                "different dataset or package version?"
            ) from error
        ema = {
            k[len("ema.") :]: arrays[k] for k in arrays if k.startswith("ema.")
        }
        self._ema_arrays = ema or None
        self.weights_variant = weights
        self.observation_learner.eval()
        self.transition_learner.eval()
        return self

    @classmethod
    def from_artifact_arrays(
        cls,
        arrays,
        config: "LHMMConfig",
        dataset: MatchingDataset,
        origin: str = "artifact",
        weights: str = "raw",
    ) -> "LHMM":
        """Construct a fitted matcher directly from envelope arrays.

        The :meth:`attach_dataset` + :meth:`load_state_dict` pair for
        callers that already hold a validated config object and the
        artifact's arrays — in particular workers attaching a
        shared-memory publication of the model
        (:mod:`repro.serve.shards`) — so they can build a matcher without
        re-reading or copying the archive.
        """
        matcher = cls(config)
        matcher.attach_dataset(dataset)
        matcher.load_state_dict(arrays, origin=origin, weights=weights)
        return matcher


def _builtin_lhmm_factory(config=None, **_extra) -> LHMM:
    """Registry factory for the built-in LHMM family.

    ``config`` is the manifest's stored configuration dict; every Table
    III variant is encoded entirely by its ablation switches in there,
    so all family names share this one factory (the name only routes —
    the config is authoritative).  Extra manifest keys are ignored so
    manifests can grow fields without breaking older builds.
    """
    if not isinstance(config, dict):
        raise ArtifactIncompatible(
            "manifest meta carries no 'config' mapping for the lhmm family"
        )
    try:
        cfg = LHMMConfig(**config)
        cfg.validate()
    except (TypeError, ValueError) as error:
        raise ArtifactIncompatible(
            f"stored configuration is not usable by this build ({error})"
        ) from error
    return LHMM(cfg)


for _arch in ("lhmm", "lhmm-e", "lhmm-h", "lhmm-o", "lhmm-t", "lhmm-s"):
    register_model(_arch)(_builtin_lhmm_factory)
del _arch
