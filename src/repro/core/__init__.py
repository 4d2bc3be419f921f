"""LHMM — the paper's contribution: a learning-enhanced HMM for CTMM.

Public entry points:

* :class:`LHMM` — the full matcher: ``fit(dataset)`` then ``match(trajectory)``.
* :class:`LHMMConfig` — hyper-parameters and ablation switches
  (``LHMM-E/H/O/T/S`` from Table III map to config fields).
* :func:`make_model` / :func:`registered_models` — the named-architecture
  factory registry (:mod:`repro.core.registry`): serve, train, and the
  CLI reconstruct models purely from a manifest's ``meta`` (architecture
  name + config dict), never from pickled classes.
* :class:`RelationGraph` — the multi-relational tower/road graph (§IV-B).
* :class:`HetGraphEncoder` — relational message-passing encoder (Eq. 4–5).
* :class:`ObservationLearner` / :class:`TransitionLearner` — learned
  probabilities (§IV-C / §IV-D).
* :class:`Trellis` / :class:`VectorizedTrellis` — candidate-graph Viterbi
  with shortcut optimisation (Algorithms 1 and 2), reusable by baseline
  HMMs (STM+S).  :func:`make_trellis` selects the backend
  (``trellis_impl`` in the configs); the reference is kept as the oracle
  the differential tests compare the vectorized kernel against.
"""

from repro.core.checkpoint import CheckpointManager
from repro.core.config import LHMMConfig
from repro.core.relation_graph import RelationGraph
from repro.core.het_encoder import HetGraphEncoder, MlpNodeEncoder
from repro.core.observation import ObservationLearner
from repro.core.transition import TransitionLearner
from repro.core.trellis import (
    BatchTrellisScorer,
    Trellis,
    TrellisScorer,
    VectorizedTrellis,
    make_trellis,
)
from repro.core.matcher import LHMM, arch_name
from repro.core.online import OnlineLHMM
from repro.core.registry import make_model, register_model, registered_models

__all__ = [
    "LHMM",
    "OnlineLHMM",
    "arch_name",
    "make_model",
    "register_model",
    "registered_models",
    "CheckpointManager",
    "LHMMConfig",
    "RelationGraph",
    "HetGraphEncoder",
    "MlpNodeEncoder",
    "ObservationLearner",
    "TransitionLearner",
    "Trellis",
    "TrellisScorer",
    "BatchTrellisScorer",
    "VectorizedTrellis",
    "make_trellis",
]
