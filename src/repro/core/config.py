"""LHMM hyper-parameters and ablation switches."""

from __future__ import annotations

from dataclasses import dataclass, replace

PIPELINE_IMPLS = ("scalar", "batched")


@dataclass(slots=True)
class LHMMConfig:
    """Configuration of the LHMM matcher.

    The defaults follow §V-A2 where feasible, scaled to the synthetic
    cities: the paper uses embedding dimension 128 and k=30 candidates on a
    ~90k-segment network; our cities are ~50x smaller, so the defaults are
    proportionally reduced while every knob stays sweepable (Figs. 8–10).

    Model:
        embedding_dim: Width of node embeddings and latent vectors.
        het_layers: Message-passing iterations ``q`` (paper: 2).
        mlp_hidden: Hidden width of the learner MLPs.

    Candidates / path-finding:
        candidate_k: Candidate roads per point (paper: 30).
        candidate_pool: Size of the spatially pre-filtered pool the learned
            observation probability re-ranks.
        candidate_radius_m: Spatial pre-filter radius around each sample.
        shortcut_k: Number of shortcut predecessors ``K`` (paper: 1).
        trellis_impl: Forward-pass backend — ``"vectorized"`` (batched
            numpy max-plus kernel, the default) or ``"reference"`` (the
            dict-based oracle).  Both decode identical sequences; the
            differential suite (``tests/test_trellis_parity.py``) pins it.
            Batch matching only: :class:`~repro.core.online.OnlineLHMM`
            never reads it and always runs the vectorized layer kernel.
        pipeline_impl: Candidate/feature pipeline backend — ``"batched"``
            (stacked candidate retrieval, fused observation forward, and
            vectorised transition rows; the default) or ``"scalar"`` (the
            original per-point loops).  Both produce bit-identical matches;
            ``docs/performance.md`` documents the layout and invariants.
            Streaming reads it only to pick the candidate-pool source (the
            per-tower pool cache or the scalar builder, which yield the
            same pool); its transition rows are always stacked.

    Training:
        epochs: Passes over the training trajectories per stage.
        batch_size: Trajectories per gradient step.
        learning_rate / weight_decay / label_smoothing: Adam settings
            (paper: 1e-3 / 1e-4 / 0.1).
        negatives_per_positive: Negative roads sampled per positive in the
            observation classification stage (under-sampling balance).
        ema_decay: Decay of the EMA shadow weight set the trainer
            maintains alongside the raw weights (``shadow += (1 - decay)
            * (weight - shadow)`` after every optimiser step).  Must be
            in (0, 1); the shadow set is checkpointed and saved into
            artifacts as a parallel weight set selectable at serve time
            (``--weights ema``).

    Divergence handling (``docs/robustness.md``):
        max_rollbacks: How many times a diverged run may roll back to its
            last good checkpoint before :class:`~repro.errors.TrainingDiverged`
            propagates to the caller.
        rollback_lr_factor: Learning-rate multiplier applied on every
            rollback (must be in (0, 1]).
        divergence_grad_norm: Gradient-norm ceiling per step; a step whose
            global L2 gradient norm exceeds it (or is non-finite) counts
            as divergence.  ``0`` disables the magnitude check — the
            NaN/inf checks always stay on.

    Ablations (Table III):
        use_graph_encoder: ``False`` gives LHMM-E (plain MLP embedding).
        heterogeneous: ``False`` gives LHMM-H (relation-blind GCN).
        use_implicit_observation: ``False`` gives LHMM-O.
        use_implicit_transition: ``False`` gives LHMM-T.
        use_shortcuts: ``False`` gives LHMM-S.
    """

    embedding_dim: int = 48
    het_layers: int = 2
    mlp_hidden: int = 48

    candidate_k: int = 12
    candidate_pool: int = 120
    candidate_radius_m: float = 2500.0
    shortcut_k: int = 1
    trellis_impl: str = "vectorized"
    pipeline_impl: str = "batched"

    epochs: int = 6
    batch_size: int = 8
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    label_smoothing: float = 0.1
    negatives_per_positive: int = 8
    ema_decay: float = 0.999

    max_rollbacks: int = 2
    rollback_lr_factor: float = 0.5
    divergence_grad_norm: float = 1e6

    use_graph_encoder: bool = True
    heterogeneous: bool = True
    use_implicit_observation: bool = True
    use_implicit_transition: bool = True
    use_shortcuts: bool = True

    # Design choices of THIS reproduction (ablated by the extension bench,
    # not part of the paper's Table III):
    # - extend_pool_with_cooccurrence: add the tower's historically
    #   co-occurring roads to the spatial candidate pool;
    # - use_rank_features: include pool-relative rank columns in D_O.
    extend_pool_with_cooccurrence: bool = True
    use_rank_features: bool = True

    @property
    def observation_feature_count(self) -> int:
        """Width of the explicit observation feature vector ``D_O``."""
        from repro.core.features import (
            NUM_BASE_OBSERVATION_FEATURES,
            NUM_OBSERVATION_FEATURES,
        )

        return (
            NUM_OBSERVATION_FEATURES
            if self.use_rank_features
            else NUM_BASE_OBSERVATION_FEATURES
        )

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range parameters."""
        if self.embedding_dim < 2 or self.mlp_hidden < 2:
            raise ValueError("model widths must be >= 2")
        if self.het_layers < 1:
            raise ValueError("het_layers must be >= 1")
        if self.candidate_k < 1 or self.candidate_pool < self.candidate_k:
            raise ValueError("need candidate_pool >= candidate_k >= 1")
        if self.shortcut_k < 0:
            raise ValueError("shortcut_k must be >= 0")
        from repro.core.trellis import TRELLIS_IMPLS

        if self.trellis_impl not in TRELLIS_IMPLS:
            raise ValueError(
                f"trellis_impl must be one of {list(TRELLIS_IMPLS)}, "
                f"got {self.trellis_impl!r}"
            )
        if self.pipeline_impl not in PIPELINE_IMPLS:
            raise ValueError(
                f"pipeline_impl must be one of {list(PIPELINE_IMPLS)}, "
                f"got {self.pipeline_impl!r}"
            )
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("invalid training settings")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        if not 0.0 < self.ema_decay < 1.0:
            raise ValueError("ema_decay must be in (0, 1)")
        if self.max_rollbacks < 0:
            raise ValueError("max_rollbacks must be >= 0")
        if not 0.0 < self.rollback_lr_factor <= 1.0:
            raise ValueError("rollback_lr_factor must be in (0, 1]")
        if self.divergence_grad_norm < 0:
            raise ValueError("divergence_grad_norm must be >= 0 (0 disables)")

    def ablated(self, variant: str) -> "LHMMConfig":
        """The Table III variant named ``variant``.

        ``"LHMM"`` returns an unchanged copy; ``"LHMM-E"``, ``"LHMM-H"``,
        ``"LHMM-O"``, ``"LHMM-T"``, ``"LHMM-S"`` flip the matching switch.
        """
        variants = {
            "LHMM": {},
            "LHMM-E": {"use_graph_encoder": False},
            "LHMM-H": {"heterogeneous": False},
            "LHMM-O": {"use_implicit_observation": False},
            "LHMM-T": {"use_implicit_transition": False},
            "LHMM-S": {"use_shortcuts": False},
        }
        if variant not in variants:
            raise ValueError(f"unknown variant {variant!r}; choose from {sorted(variants)}")
        return replace(self, **variants[variant])
