"""Training loops for the learned probabilities (§IV-D, "Training Process").

The paper trains each learner in two stages:

* **Observation** — (1) classification pre-training of the implicit
  point–road correlation: for each point, the co-occurring ground-truth road
  is the positive class against under-sampled surrounding negatives
  (cross-entropy with label smoothing); the Het-Graph encoder trains
  end-to-end through this stage.  (2) Fine-tuning of the fusion MLP on
  binary on-path labels with the implicit score frozen.
* **Transition** — (1) classification of roads as belonging/not belonging to
  the trajectory (binary cross-entropy) on top of the *frozen* embeddings;
  (2) fine-tuning of the fusion MLP to predict the ratio of traveled roads
  in sampled moving paths.

Durability (``docs/robustness.md``): the four stages run under a single
epoch-cursor driver.  With a :class:`~repro.core.checkpoint.CheckpointManager`
attached, the driver persists per-stage state after every epoch — stage
and epoch cursors, all module weights, optimizer slots, the RNG state,
the loss history, and any per-stage training data — so a killed run
resumed from its checkpoint directory produces a final model
*bit-identical* to an uninterrupted one.  A divergence guard around every
gradient step (non-finite loss, non-finite/exploding gradient norm)
rolls training back to the last good checkpoint with a reduced learning
rate, bounded by ``LHMMConfig.max_rollbacks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.candidates import CandidatePoolCache
from repro.core.checkpoint import CheckpointManager
from repro.core.config import LHMMConfig
from repro.core.features import observation_feature_matrix, transition_features
from repro.core.observation import ObservationLearner
from repro.core.relation_graph import RelationGraph
from repro.core.transition import TransitionLearner
from repro.datasets.dataset import MatchingSample
from repro.errors import TrainingDiverged
from repro.nn import Adam, Module, Tensor, no_grad
from repro.nn.functional import stack
from repro.nn.loss import binary_cross_entropy_with_logits, cross_entropy_with_label_smoothing
from repro.network.shortest_path import ShortestPathEngine
from repro.testing import faults
from repro.utils import ensure_rng


@dataclass(slots=True)
class TrainingReport:
    """Loss trajectories of the four training stages."""

    observation_pretrain: list[float] = field(default_factory=list)
    observation_finetune: list[float] = field(default_factory=list)
    transition_pretrain: list[float] = field(default_factory=list)
    transition_finetune: list[float] = field(default_factory=list)


def _point_positive_roads(
    graph: RelationGraph, sample: MatchingSample
) -> list[tuple[int, int]]:
    """``(point_index, positive_segment)`` pairs for one sample.

    The positive of a point is the truth-path road closest to its tower —
    the same criterion used to mine co-occurrence edges.
    """
    pairs: list[tuple[int, int]] = []
    if not sample.truth_path:
        return pairs
    truth_segments = [graph.network.segments[s] for s in sample.truth_path]
    for i, point in enumerate(sample.cellular.points):
        best = min(
            range(len(truth_segments)),
            key=lambda j: truth_segments[j].distance_to(point.position),
        )
        pairs.append((i, sample.truth_path[best]))
    return pairs


@dataclass(slots=True)
class _StageRuntime:
    """Live per-stage state: the optimizer and checkpoint-persisted data."""

    optimizer: Adam
    data: dict[str, np.ndarray]


@dataclass(slots=True)
class _StageSpec:
    """One training stage under the epoch-cursor driver.

    ``prepare`` builds the optimizer (RNG-free; ``None`` skips the
    stage), ``collect`` gathers per-stage training data (may consume
    RNG; ``None`` skips the stage), ``epoch`` runs one epoch and returns
    its step losses, ``finish`` runs once when the stage completes.
    """

    name: str
    report_field: str
    epochs: int
    prepare: Callable[[], Adam | None]
    collect: Callable[[], dict[str, np.ndarray] | None]
    epoch: Callable[[_StageRuntime, int], list[float]]
    finish: Callable[[], None] | None = None


class LHMMTrainer:
    """Runs the four-stage training procedure and caches final embeddings."""

    def __init__(
        self,
        config: LHMMConfig,
        graph: RelationGraph,
        encoder: Module,
        observation: ObservationLearner,
        transition: TransitionLearner,
        engine: ShortestPathEngine,
        rng: int | np.random.Generator | None = 0,
    ) -> None:
        self.config = config
        self.graph = graph
        self.encoder = encoder
        self.observation = observation
        self.transition = transition
        self.engine = engine
        self._rng = ensure_rng(rng)
        self.node_embeddings: np.ndarray | None = None
        # EMA shadow weight set: one float64 shadow per trainable
        # parameter, nudged toward the raw weights after every optimizer
        # step.  Consumes no RNG (raw training is unchanged by it) and
        # travels in every checkpoint (``ema.*``), so resume, rollback,
        # and the retention sweep all keep it bit-identical.
        self._ema: dict[str, np.ndarray] = {
            name: param.data.copy() for name, param in self._tracked_parameters()
        }
        # Candidate pools are repeatedly needed for the same points across
        # epochs and stages; memoise them per tower position, with and
        # without the co-occurrence extension.
        self._learned_pools = CandidatePoolCache(
            graph,
            config.candidate_radius_m,
            config.candidate_pool,
            include_cooccurrence=config.extend_pool_with_cooccurrence,
        )
        self._spatial_pools = CandidatePoolCache(
            graph,
            config.candidate_radius_m,
            config.candidate_pool,
            include_cooccurrence=False,
        )
        # Divergence-rollback bookkeeping (persisted in checkpoints).
        self._rollbacks = 0
        self._lr_scale = 1.0

    # ----------------------------------------------------------------- driver
    def train(
        self,
        samples: list[MatchingSample],
        checkpoint: CheckpointManager | None = None,
        resume: bool = True,
    ) -> TrainingReport:
        """Run all stages on ``samples``; returns the loss report.

        With ``checkpoint`` attached, state is persisted after every
        epoch and — when ``resume`` is true and the directory holds a
        usable checkpoint — training continues mid-stage from it instead
        of starting over.  A resumed run is bit-identical to an
        uninterrupted one: the RNG state travels in the checkpoint.
        """
        samples = [s for s in samples if len(s.cellular) >= 2 and s.truth_path]
        if not samples:
            raise ValueError("no usable training samples")
        report = TrainingReport()
        specs = self._stage_specs(samples)
        stage_idx, epoch_idx = 0, 0
        runtime: _StageRuntime | None = None
        resumed = False
        if checkpoint is not None and resume:
            loaded = checkpoint.load_latest()
            if loaded is not None:
                stage_idx, epoch_idx, runtime = self._restore(
                    loaded[0], loaded[1], specs, report
                )
                resumed = True
        if checkpoint is not None and not resumed:
            # An epoch-0 anchor so the very first epoch has a rollback target.
            checkpoint.save(
                self._snapshot_arrays(None), self._snapshot_meta(0, 0, None, report)
            )
        while stage_idx < len(specs):
            spec = specs[stage_idx]
            if runtime is None:
                optimizer = spec.prepare()
                data = spec.collect() if optimizer is not None else None
                if optimizer is None or data is None:
                    # Nothing to train in this stage (ablated learner or
                    # no usable data): its report list stays empty.
                    if spec.finish is not None:
                        spec.finish()
                    stage_idx += 1
                    epoch_idx = 0
                    continue
                if self._lr_scale != 1.0:
                    optimizer.lr *= self._lr_scale
                runtime = _StageRuntime(optimizer=optimizer, data=data)
            if epoch_idx >= spec.epochs:
                if spec.finish is not None:
                    spec.finish()
                stage_idx += 1
                epoch_idx = 0
                runtime = None
                continue
            faults.fire("train.epoch", stage=spec.name, epoch=epoch_idx)
            try:
                losses = spec.epoch(runtime, epoch_idx)
            except TrainingDiverged as error:
                stage_idx, epoch_idx, runtime = self._roll_back(
                    checkpoint, specs, report, error
                )
                continue
            getattr(report, spec.report_field).extend(losses)
            epoch_idx += 1
            if checkpoint is not None:
                checkpoint.save(
                    self._snapshot_arrays(runtime),
                    self._snapshot_meta(stage_idx, epoch_idx, runtime, report),
                )
        return report

    def _roll_back(
        self,
        checkpoint: CheckpointManager | None,
        specs: list[_StageSpec],
        report: TrainingReport,
        error: TrainingDiverged,
    ) -> tuple[int, int, _StageRuntime | None]:
        """Restore the last good checkpoint with a reduced learning rate."""
        if checkpoint is None:
            raise TrainingDiverged(
                f"{error} (no checkpoint directory attached — cannot roll back)"
            ) from error
        if self._rollbacks >= self.config.max_rollbacks:
            raise TrainingDiverged(
                f"{error}; rollback budget exhausted "
                f"({self.config.max_rollbacks} rollbacks)"
            ) from error
        loaded = checkpoint.load_latest()
        if loaded is None:
            raise TrainingDiverged(
                f"{error} (no checkpoint on disk to roll back to)"
            ) from error
        stage_idx, epoch_idx, runtime = self._restore(
            loaded[0], loaded[1], specs, report
        )
        self._rollbacks += 1
        self._lr_scale *= self.config.rollback_lr_factor
        if runtime is not None:
            runtime.optimizer.lr *= self.config.rollback_lr_factor
        return stage_idx, epoch_idx, runtime

    # --------------------------------------------------------------- snapshot
    def _snapshot_arrays(self, runtime: _StageRuntime | None) -> dict[str, np.ndarray]:
        arrays: dict[str, np.ndarray] = {}
        for prefix, module in (
            ("weights.encoder", self.encoder),
            ("weights.obs", self.observation),
            ("weights.trans", self.transition),
        ):
            for key, value in module.state_dict().items():
                arrays[f"{prefix}.{key}"] = value
        if self.node_embeddings is not None:
            arrays["embeddings"] = self.node_embeddings
        for key, value in self._ema.items():
            arrays[f"ema.{key}"] = value
        if runtime is not None:
            for key, value in runtime.optimizer.state_dict().items():
                arrays[f"opt.{key}"] = value
            for key, value in runtime.data.items():
                arrays[f"data.{key}"] = value
        return arrays

    def _snapshot_meta(
        self,
        stage_idx: int,
        epoch_idx: int,
        runtime: _StageRuntime | None,
        report: TrainingReport,
    ) -> dict:
        return {
            "stage": stage_idx,
            "epochs_done": epoch_idx,
            "has_runtime": runtime is not None,
            "rollbacks": self._rollbacks,
            "lr_scale": self._lr_scale,
            "rng_state": self._rng.bit_generator.state,
            "report": {
                "observation_pretrain": report.observation_pretrain,
                "observation_finetune": report.observation_finetune,
                "transition_pretrain": report.transition_pretrain,
                "transition_finetune": report.transition_finetune,
            },
        }

    def _restore(
        self,
        arrays: dict[str, np.ndarray],
        meta: dict,
        specs: list[_StageSpec],
        report: TrainingReport,
    ) -> tuple[int, int, _StageRuntime | None]:
        """Load checkpoint state into the trainer; returns the cursor."""
        for prefix, module in (
            ("weights.encoder.", self.encoder),
            ("weights.obs.", self.observation),
            ("weights.trans.", self.transition),
        ):
            module.load_state_dict(
                {
                    key[len(prefix):]: value
                    for key, value in arrays.items()
                    if key.startswith(prefix)
                }
            )
        self.node_embeddings = (
            arrays["embeddings"].copy() if "embeddings" in arrays else None
        )
        self._ema = {
            key[len("ema."):]: value.copy()
            for key, value in arrays.items()
            if key.startswith("ema.")
        }
        if not self._ema:  # legacy checkpoint without a shadow set
            self._ema = {
                name: param.data.copy() for name, param in self._tracked_parameters()
            }
        self._rng.bit_generator.state = meta["rng_state"]
        self._rollbacks = int(meta.get("rollbacks", 0))
        self._lr_scale = float(meta.get("lr_scale", 1.0))
        saved = meta.get("report", {})
        for field_name in (
            "observation_pretrain",
            "observation_finetune",
            "transition_pretrain",
            "transition_finetune",
        ):
            target = getattr(report, field_name)
            target.clear()
            target.extend(float(x) for x in saved.get(field_name, []))
        stage_idx = int(meta["stage"])
        epoch_idx = int(meta["epochs_done"])
        runtime: _StageRuntime | None = None
        if meta.get("has_runtime"):
            optimizer = specs[stage_idx].prepare()
            if optimizer is None:  # pragma: no cover - checkpoint/config skew
                raise TrainingDiverged(
                    f"checkpoint resumes stage {specs[stage_idx].name!r} which "
                    "this configuration skips"
                )
            optimizer.load_state_dict(
                {
                    key[len("opt."):]: value
                    for key, value in arrays.items()
                    if key.startswith("opt.")
                }
            )
            data = {
                key[len("data."):]: value.copy()
                for key, value in arrays.items()
                if key.startswith("data.")
            }
            runtime = _StageRuntime(optimizer=optimizer, data=data)
        return stage_idx, epoch_idx, runtime

    # ------------------------------------------------------------ stage specs
    def _stage_specs(self, samples: list[MatchingSample]) -> list[_StageSpec]:
        cfg = self.config
        return [
            _StageSpec(
                name="observation_pretrain",
                report_field="observation_pretrain",
                epochs=cfg.epochs,
                prepare=self._prepare_observation_pretrain,
                collect=lambda: {"order": np.arange(len(samples))},
                epoch=lambda rt, e: self._observation_pretrain_epoch(rt, samples, e),
                finish=self._freeze_embeddings,
            ),
            _StageSpec(
                name="observation_finetune",
                report_field="observation_finetune",
                epochs=max(1, cfg.epochs),
                prepare=lambda: Adam(
                    self.observation.fusion_mlp.parameters(),
                    lr=cfg.learning_rate,
                    weight_decay=cfg.weight_decay,
                ),
                collect=lambda: self._collect_stage_data(
                    self._collect_observation_fusion_data, samples, "labels"
                ),
                epoch=lambda rt, e: self._fusion_epoch(
                    rt,
                    self.observation.fusion_mlp,
                    "labels",
                    cfg.label_smoothing,
                    "observation_finetune",
                    e,
                ),
            ),
            _StageSpec(
                name="transition_pretrain",
                report_field="transition_pretrain",
                epochs=cfg.epochs,
                prepare=self._prepare_transition_pretrain,
                collect=lambda: {"order": np.arange(len(samples))},
                epoch=lambda rt, e: self._transition_pretrain_epoch(rt, samples, e),
            ),
            _StageSpec(
                name="transition_finetune",
                report_field="transition_finetune",
                epochs=max(1, cfg.epochs),
                prepare=lambda: Adam(
                    self.transition.fusion_mlp.parameters(),
                    lr=cfg.learning_rate,
                    weight_decay=cfg.weight_decay,
                ),
                collect=lambda: self._collect_stage_data(
                    self._collect_transition_fusion_data, samples, "targets"
                ),
                epoch=lambda rt, e: self._fusion_epoch(
                    rt,
                    self.transition.fusion_mlp,
                    "targets",
                    0.0,
                    "transition_finetune",
                    e,
                ),
            ),
        ]

    def _prepare_observation_pretrain(self) -> Adam:
        params = self.encoder.parameters() + list(
            self.observation.context_attention.parameters()
        ) + list(self.observation.correlation_mlp.parameters())
        # Note: this stage runs even under the LHMM-O ablation — it is the
        # representation-learning task that trains the encoder, which the
        # transition learner still depends on.  LHMM-O only removes the
        # implicit score from the fusion input (Eq. 8).
        return Adam(
            params, lr=self.config.learning_rate, weight_decay=self.config.weight_decay
        )

    def _prepare_transition_pretrain(self) -> Adam | None:
        if not self.transition.use_implicit:
            return None
        params = list(self.transition.road_attention.parameters()) + list(
            self.transition.relevance_mlp.parameters()
        )
        return Adam(
            params, lr=self.config.learning_rate, weight_decay=self.config.weight_decay
        )

    def _collect_stage_data(
        self, collector, samples: list[MatchingSample], label_key: str
    ) -> dict[str, np.ndarray] | None:
        features, labels = collector(samples)
        if features is None:
            return None
        return {"features": features, label_key: np.asarray(labels)}

    # ------------------------------------------------------- divergence guard
    def _guarded_step(
        self, optimizer: Adam, loss: Tensor, stage: str, epoch: int, step: int
    ) -> float:
        """Backward + step with NaN/inf and gradient-norm detection.

        Raises :class:`~repro.errors.TrainingDiverged` on a non-finite
        loss, a non-finite gradient norm, or a norm beyond
        ``LHMMConfig.divergence_grad_norm`` — the driver rolls back to
        the last good checkpoint with a reduced learning rate.
        """
        value = loss.item()
        faults.fire("train.step", stage=stage, epoch=epoch, step=step)
        if not math.isfinite(value):
            raise TrainingDiverged(
                f"non-finite loss {value!r} at stage {stage!r} epoch {epoch} "
                f"step {step}"
            )
        optimizer.zero_grad()
        loss.backward()
        total = 0.0
        for param in optimizer.parameters:
            if param.grad is not None:
                total += float((param.grad**2).sum())
        norm = math.sqrt(total) if math.isfinite(total) else float("inf")
        limit = self.config.divergence_grad_norm
        if not math.isfinite(norm) or (limit > 0 and norm > limit):
            raise TrainingDiverged(
                f"gradient norm {norm!r} at stage {stage!r} epoch {epoch} "
                f"step {step} (limit {limit})"
            )
        optimizer.step()
        self._ema_update()
        return value

    # ----------------------------------------------------- EMA shadow weights
    def _tracked_parameters(self):
        """``(dotted_name, Parameter)`` pairs across all three modules."""
        for prefix, module in (
            ("encoder", self.encoder),
            ("obs", self.observation),
            ("trans", self.transition),
        ):
            for name, param in module.named_parameters():
                yield f"{prefix}.{name}", param

    def _ema_update(self) -> None:
        """Nudge every shadow toward its raw weight after a step.

        The update is ``shadow += (1 - decay) * (weight - shadow)``: for
        a parameter the step did not change (frozen, or in another
        stage's optimizer) the difference is exactly zero, so the shadow
        of an untouched weight is bitwise-stable — the invariant the EMA
        determinism tests pin.
        """
        decay = self.config.ema_decay
        for name, param in self._tracked_parameters():
            shadow = self._ema[name]
            shadow += (1.0 - decay) * (param.data - shadow)

    def ema_state(self) -> dict[str, np.ndarray]:
        """Copy of the shadow set keyed ``encoder.*``/``obs.*``/``trans.*``."""
        return {name: value.copy() for name, value in self._ema.items()}

    def ema_node_embeddings(self) -> np.ndarray:
        """Encoder output under the EMA encoder weights.

        Swaps the shadow encoder weights in, runs one forward pass, and
        swaps the raw weights back.  :meth:`Module.load_state_dict`
        round-trips float64 arrays bitwise, so the raw weights are
        untouched by the excursion.
        """
        raw = self.encoder.state_dict()
        self.encoder.load_state_dict(
            {
                key[len("encoder."):]: value
                for key, value in self._ema.items()
                if key.startswith("encoder.")
            }
        )
        try:
            with no_grad():
                embeddings = self.encoder().numpy().copy()
        finally:
            self.encoder.load_state_dict(raw)
        return embeddings

    def ema_artifact_arrays(self) -> dict[str, np.ndarray]:
        """The EMA weight set in artifact layout.

        Mirrors what :meth:`LHMM.save` stores for the raw set:
        ``node_embeddings`` (the encoder forward under EMA weights — the
        encoder itself is never reconstructed at load time) plus the
        ``obs.*``/``trans.*`` learner weights.
        """
        arrays = {"node_embeddings": self.ema_node_embeddings()}
        for key, value in self._ema.items():
            if key.startswith(("obs.", "trans.")):
                arrays[key] = value.copy()
        return arrays

    def _freeze_embeddings(self) -> None:
        """Cache encoder output; later stages and inference reuse it."""
        with no_grad():
            self.node_embeddings = self.encoder().numpy().copy()

    def _embeddings_tensor(self) -> Tensor:
        if self.node_embeddings is None:
            raise RuntimeError("embeddings not frozen yet")
        return Tensor(self.node_embeddings)

    def _point_pool(self, sample: MatchingSample, point_index: int) -> list[int]:
        """Learned candidate pool (``learned_candidate_pool``) of one point."""
        return self._learned_pools.pools([sample.cellular.points[point_index]])[0]

    def _spatial_pool(self, sample: MatchingSample, point_index: int) -> list[int]:
        """Distance-ordered pool (no co-occurrence extension) of one point.

        Stage-1 negatives must come from the spatial vicinity only:
        extending them with the tower's co-occurring roads would label the
        co-occurrence signal itself as negative and wash it out.
        """
        return self._spatial_pools.pools([sample.cellular.points[point_index]])[0]

    # -------------------------------------------------- stage 1: obs pretrain
    def _sample_negatives(
        self, sample: MatchingSample, point_index: int, exclude: set[int], count: int
    ) -> list[int]:
        pool = self._spatial_pool(sample, point_index)
        negatives = [seg for seg in pool if seg not in exclude]
        if len(negatives) > count:
            picks = self._rng.choice(len(negatives), size=count, replace=False)
            negatives = [negatives[int(p)] for p in picks]
        return negatives

    def _observation_pretrain_epoch(
        self, runtime: _StageRuntime, samples: list[MatchingSample], epoch: int
    ) -> list[float]:
        # The order array lives in the stage runtime (and checkpoints):
        # each epoch shuffles it *in place*, so epoch k sees the
        # composition of k shuffles, exactly as the original loop did.
        order = runtime.data["order"]
        self._rng.shuffle(order)
        losses: list[float] = []
        step = 0
        for start in range(0, len(order), self.config.batch_size):
            batch = [samples[int(i)] for i in order[start : start + self.config.batch_size]]
            loss = self._observation_pretrain_loss(batch)
            if loss is None:
                continue
            losses.append(
                self._guarded_step(
                    runtime.optimizer, loss, "observation_pretrain", epoch, step
                )
            )
            step += 1
        return losses

    def _observation_pretrain_loss(self, batch: list[MatchingSample]) -> Tensor | None:
        h = self.encoder()
        per_point_losses: list[Tensor] = []
        for sample in batch:
            towers = [p.tower_id for p in sample.cellular.points]
            if any(t is None for t in towers):
                continue
            tower_nodes = self.graph.tower_nodes(towers)  # type: ignore[arg-type]
            x = h[tower_nodes]
            context = self.observation.context(x)
            truth_set = set(sample.truth_path)
            for point_index, positive in _point_positive_roads(self.graph, sample):
                negatives = self._sample_negatives(
                    sample, point_index, truth_set, self.config.negatives_per_positive
                )
                if not negatives:
                    continue
                roads = [positive, *negatives]
                road_embeddings = h[self.graph.segment_nodes(roads)]
                logits = self.observation.implicit_logits(
                    road_embeddings, context[point_index]
                )
                loss = cross_entropy_with_label_smoothing(
                    logits.reshape(1, len(roads)),
                    np.array([0]),
                    self.config.label_smoothing,
                )
                per_point_losses.append(loss)
        if not per_point_losses:
            return None
        return stack(per_point_losses).mean()

    # ------------------------------------------- stages 2+4: fusion fine-tune
    def _fusion_epoch(
        self,
        runtime: _StageRuntime,
        fusion_mlp: Module,
        label_key: str,
        smoothing: float,
        stage: str,
        epoch: int,
    ) -> list[float]:
        features = runtime.data["features"]
        labels = runtime.data[label_key]
        n = features.shape[0]
        batch = max(64, self.config.batch_size * 16)
        order = self._rng.permutation(n)
        losses: list[float] = []
        for step, start in enumerate(range(0, n, batch)):
            idx = order[start : start + batch]
            logits = fusion_mlp(Tensor(features[idx]))
            loss = binary_cross_entropy_with_logits(
                logits.reshape(len(idx)), labels[idx], smoothing
            )
            losses.append(
                self._guarded_step(runtime.optimizer, loss, stage, epoch, step)
            )
        return losses

    def _collect_observation_fusion_data(
        self, samples: list[MatchingSample]
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        h = self._embeddings_tensor()
        rows: list[np.ndarray] = []
        labels: list[float] = []
        with no_grad():
            for sample in samples:
                towers = [p.tower_id for p in sample.cellular.points]
                if any(t is None for t in towers):
                    continue
                x = h[self.graph.tower_nodes(towers)]  # type: ignore[arg-type]
                context = self.observation.context(x).numpy()
                truth_set = set(sample.truth_path)
                for i, point in enumerate(sample.cellular.points):
                    pool = self._point_pool(sample, i)
                    if not pool:
                        continue
                    # Features over the FULL pool (rank features must see the
                    # same pool they will see at inference), then
                    # under-sample negatives to keep labels balanced.
                    explicit = observation_feature_matrix(
                        self.graph,
                        point,
                        pool,
                        include_ranks=self.config.use_rank_features,
                    )
                    pos_idx = [j for j, seg in enumerate(pool) if seg in truth_set]
                    neg_idx = [j for j, seg in enumerate(pool) if seg not in truth_set]
                    keep = min(len(neg_idx), max(1, 3 * max(1, len(pos_idx))))
                    if keep < len(neg_idx):
                        picks = self._rng.choice(len(neg_idx), size=keep, replace=False)
                        neg_idx = [neg_idx[int(p)] for p in picks]
                    chosen = pos_idx + neg_idx
                    if not chosen:
                        continue
                    explicit = explicit[chosen]
                    if self.observation.use_implicit:
                        roads = [pool[j] for j in chosen]
                        embeddings = h[self.graph.segment_nodes(roads)]
                        implicit = (
                            self.observation.implicit_logits(
                                embeddings, Tensor(context[i])
                            )
                            .sigmoid()
                            .numpy()
                            .reshape(-1, 1)
                        )
                        rows.append(np.concatenate([implicit, explicit], axis=1))
                    else:
                        rows.append(explicit)
                    labels.extend([1.0] * len(pos_idx) + [0.0] * len(neg_idx))
        if not rows:
            return None, None
        return np.concatenate(rows, axis=0), np.asarray(labels)

    # ------------------------------------------------ stage 3: trans pretrain
    def _transition_pretrain_epoch(
        self, runtime: _StageRuntime, samples: list[MatchingSample], epoch: int
    ) -> list[float]:
        h = self._embeddings_tensor()
        order = runtime.data["order"]
        self._rng.shuffle(order)
        losses: list[float] = []
        step = 0
        for start in range(0, len(order), self.config.batch_size):
            batch = [samples[int(i)] for i in order[start : start + self.config.batch_size]]
            loss = self._transition_pretrain_loss(batch, h)
            if loss is None:
                continue
            losses.append(
                self._guarded_step(
                    runtime.optimizer, loss, "transition_pretrain", epoch, step
                )
            )
            step += 1
        return losses

    def _transition_pretrain_loss(
        self, batch: list[MatchingSample], h: Tensor
    ) -> Tensor | None:
        per_sample: list[Tensor] = []
        for sample in batch:
            towers = [p.tower_id for p in sample.cellular.points]
            if any(t is None for t in towers):
                continue
            x = h[self.graph.tower_nodes(towers)]  # type: ignore[arg-type]
            truth = list(dict.fromkeys(sample.truth_path))
            if not truth:
                continue
            max_pos = 24
            if len(truth) > max_pos:
                picks = self._rng.choice(len(truth), size=max_pos, replace=False)
                truth = [truth[int(p)] for p in picks]
            negatives = self._off_path_roads(sample, set(sample.truth_path), len(truth))
            roads = truth + negatives
            labels = np.array([1.0] * len(truth) + [0.0] * len(negatives))
            embeddings = h[self.graph.segment_nodes(roads)]
            logits = self.transition.road_relevance_logits(embeddings, x)
            per_sample.append(
                binary_cross_entropy_with_logits(logits, labels, self.config.label_smoothing)
            )
        if not per_sample:
            return None
        return stack(per_sample).mean()

    def _off_path_roads(
        self, sample: MatchingSample, truth_set: set[int], count: int
    ) -> list[int]:
        """Roads near the trajectory but not on the truth path."""
        negatives: list[int] = []
        seen: set[int] = set()
        for i in range(len(sample.cellular)):
            for seg in self._point_pool(sample, i)[:20]:
                if seg not in truth_set and seg not in seen:
                    seen.add(seg)
                    negatives.append(seg)
        if len(negatives) > count:
            picks = self._rng.choice(len(negatives), size=count, replace=False)
            negatives = [negatives[int(p)] for p in picks]
        return negatives

    # ------------------------------------------------ stage 4: trans finetune
    def _collect_transition_fusion_data(
        self, samples: list[MatchingSample]
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        h = self._embeddings_tensor()
        rows: list[np.ndarray] = []
        targets: list[float] = []
        transitions_per_pair = 4
        with no_grad():
            for sample in samples:
                towers = [p.tower_id for p in sample.cellular.points]
                if any(t is None for t in towers) or len(sample.cellular) < 2:
                    continue
                x = h[self.graph.tower_nodes(towers)]  # type: ignore[arg-type]
                relevance = self._road_relevance_lookup(sample, x, h)
                truth_set = set(sample.truth_path)
                points = sample.cellular.points
                for i in range(1, len(points)):
                    pairs = self._sample_transition_pairs(
                        sample, i, transitions_per_pair
                    )
                    for from_seg, to_seg in pairs:
                        route = self.engine.route(from_seg, to_seg)
                        if route is None:
                            continue
                        on_path = sum(1 for s in route.segments if s in truth_set)
                        target = on_path / route.num_segments
                        explicit = transition_features(
                            self.graph.network, route, points[i - 1], points[i]
                        )
                        if self.transition.use_implicit:
                            implicit = float(
                                np.mean([relevance.get(s, 0.5) for s in route.segments])
                            )
                            rows.append(np.concatenate([[implicit], explicit]))
                        else:
                            rows.append(explicit)
                        targets.append(target)
        if not rows:
            return None, None
        return np.stack(rows), np.asarray(targets)

    def _road_relevance_lookup(
        self, sample: MatchingSample, x: Tensor, h: Tensor
    ) -> dict[int, float]:
        """Per-road relevance probabilities for roads near this sample."""
        if not self.transition.use_implicit:
            return {}
        roads: list[int] = []
        seen: set[int] = set()
        for i in range(len(sample.cellular)):
            for seg in self._point_pool(sample, i)[:40]:
                if seg not in seen:
                    seen.add(seg)
                    roads.append(seg)
        for seg in sample.truth_path:
            if seg not in seen:
                seen.add(seg)
                roads.append(seg)
        if not roads:
            return {}
        embeddings = h[self.graph.segment_nodes(roads)]
        probs = self.transition.road_relevance_logits(embeddings, x).sigmoid().numpy()
        return dict(zip(roads, probs.tolist()))

    def _sample_transition_pairs(
        self, sample: MatchingSample, i: int, count: int
    ) -> list[tuple[int, int]]:
        """Candidate transitions for the step into point ``i``.

        Mixes the true transition (closest truth roads of both points) with
        random pool pairs so targets span the full [0, 1] range.
        """
        prev_pool = self._point_pool(sample, i - 1)[:20]
        next_pool = self._point_pool(sample, i)[:20]
        if not prev_pool or not next_pool:
            return []
        pairs: list[tuple[int, int]] = []
        truth_set = set(sample.truth_path)
        prev_truth = [s for s in prev_pool if s in truth_set]
        next_truth = [s for s in next_pool if s in truth_set]
        if prev_truth and next_truth:
            pairs.append((prev_truth[0], next_truth[0]))
        while len(pairs) < count:
            pairs.append(
                (
                    prev_pool[int(self._rng.integers(0, len(prev_pool)))],
                    next_pool[int(self._rng.integers(0, len(next_pool)))],
                )
            )
        return pairs
