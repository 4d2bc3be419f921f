"""repro — reproduction of LHMM (ICDE 2023): learning-enhanced HMM map
matching for cellular trajectories.

Quickstart::

    from repro import make_city_dataset, LHMM, evaluate_matcher

    dataset = make_city_dataset("hangzhou", num_trajectories=200, rng=0)
    matcher = LHMM(rng=0).fit(dataset)
    result = matcher.match(dataset.test[0].cellular)
    print(result.path)

See :mod:`repro.core` for the model, :mod:`repro.baselines` for the ten
comparison methods, :mod:`repro.datasets` for synthetic city generation, and
:mod:`repro.eval` for the paper's metrics.
"""

from repro.core import LHMM, LHMMConfig
from repro.datasets import MatchingDataset, compute_statistics, make_city_dataset, preset_config
from repro.errors import (
    InvalidTrajectoryInput,
    MatchError,
    MatchFailure,
    ReproError,
    RoutingFailure,
    WorkerCrash,
)
from repro.eval import evaluate_matcher

__version__ = "0.1.0"

__all__ = [
    "LHMM",
    "LHMMConfig",
    "ReproError",
    "InvalidTrajectoryInput",
    "MatchFailure",
    "RoutingFailure",
    "WorkerCrash",
    "MatchError",
    "MatchingDataset",
    "make_city_dataset",
    "preset_config",
    "compute_statistics",
    "evaluate_matcher",
    "__version__",
]
