"""Shared test fixtures: small, deterministic substrates.

Session-scoped fixtures keep the suite fast: the tiny city, dataset, and a
trained LHMM are each built once.  Tests that mutate state must build their
own instances.
"""

from __future__ import annotations

import os

import pytest

from repro.cellular import (
    SimulationConfig,
    TowerPlacementConfig,
    VehicleSimulator,
    place_towers,
)
from repro.core import LHMM, LHMMConfig
from repro.datasets import DatasetConfig, make_city_dataset, save_dataset
from repro.network import CityConfig, ShortestPathEngine, generate_city_network
from repro.serve import ClusterConfig, ClusterServer, ShardRegistry, ShardSpec
from repro.serve.shm import SharedArrayPack, leaked_segments
from repro.testing import faults


#: Every shared-memory segment this test process has published, in order.
#: ``leaked_segments()`` lists the whole host's segments — a second test
#: run's too — so leak assertions look only at these (:class:`OwnSegments`).
_PUBLISHED_SEGMENTS: list[str] = []


@pytest.fixture(scope="session", autouse=True)
def _record_published_segments():
    """Record the name of each segment ``SharedArrayPack.publish`` creates."""
    publish = SharedArrayPack.publish.__func__

    def recording_publish(cls, arrays, name=None):
        pack = publish(cls, arrays, name)
        _PUBLISHED_SEGMENTS.append(pack.meta["segment"])
        return pack

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SharedArrayPack, "publish", classmethod(recording_publish))
        yield


class OwnSegments:
    """The segments this test process publishes from construction on.

    :meth:`leaked` lists those still in ``/dev/shm``; segments of other
    processes on the host never appear in it.
    """

    def __init__(self) -> None:
        self._start = len(_PUBLISHED_SEGMENTS)

    def leaked(self) -> list[str]:
        ours = set(_PUBLISHED_SEGMENTS[self._start:])
        return [name for name in leaked_segments() if name in ours]


TINY_CITY = CityConfig(
    grid_rows=10,
    grid_cols=10,
    block_size_m=250.0,
    density_gradient=0.5,
    removal_prob=0.08,
    one_way_prob=0.05,
)

TINY_SIMULATION = SimulationConfig(
    min_trip_m=900.0,
    max_trip_m=2200.0,
    cellular_interval_mean_s=35.0,
    cellular_interval_sigma_s=10.0,
    cellular_interval_max_s=90.0,
    gps_interval_s=12.0,
)

TINY_TOWERS = TowerPlacementConfig(base_spacing_m=350.0, spacing_gradient=1.0)


def tiny_lhmm_config() -> LHMMConfig:
    """A configuration small enough to train inside a unit test."""
    return LHMMConfig(
        embedding_dim=12,
        het_layers=1,
        mlp_hidden=12,
        candidate_k=10,
        candidate_pool=50,
        candidate_radius_m=1600.0,
        epochs=2,
        batch_size=4,
        negatives_per_positive=3,
    )


@pytest.fixture(scope="session")
def tiny_network():
    """A ~200-node synthetic city network."""
    return generate_city_network(TINY_CITY, rng=7)


@pytest.fixture(scope="session")
def tiny_towers(tiny_network):
    """Towers deployed over the tiny network."""
    return place_towers(tiny_network, TINY_TOWERS, rng=7)


@pytest.fixture(scope="session")
def tiny_engine(tiny_network):
    """A routing engine over the tiny network."""
    return ShortestPathEngine(tiny_network)


@pytest.fixture(scope="session")
def tiny_simulator(tiny_network, tiny_towers):
    """A vehicle simulator over the tiny city."""
    return VehicleSimulator(tiny_network, tiny_towers, TINY_SIMULATION, rng=7)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A complete small dataset with oracle ground truth (fast)."""
    config = DatasetConfig(
        name="tiny",
        city=TINY_CITY,
        towers=TINY_TOWERS,
        simulation=TINY_SIMULATION,
        num_trajectories=40,
        groundtruth="oracle",
    )
    return make_city_dataset(config, rng=7)


@pytest.fixture(scope="session")
def gps_dataset():
    """A small dataset with the paper's GPS-HMM ground-truth pipeline."""
    config = DatasetConfig(
        name="tiny-gps",
        city=TINY_CITY,
        towers=TINY_TOWERS,
        simulation=TINY_SIMULATION,
        num_trajectories=15,
        groundtruth="gps_hmm",
    )
    return make_city_dataset(config, rng=9)


@pytest.fixture(scope="session")
def trained_lhmm(tiny_dataset):
    """An LHMM fitted on the tiny dataset (shared, read-only)."""
    return LHMM(tiny_lhmm_config(), rng=3).fit(tiny_dataset)


@pytest.fixture(scope="session")
def served_paths(tmp_path_factory, tiny_dataset, trained_lhmm):
    """``(dataset path, model path)``: the tiny dataset + LHMM on disk."""
    root = tmp_path_factory.mktemp("served")
    dataset_path = root / "tiny.json.gz"
    model_path = root / "model.npz"
    save_dataset(tiny_dataset, dataset_path)
    trained_lhmm.save(model_path)
    return str(dataset_path), str(model_path)


def start_gateway(served_paths, fault_spec: str | None = None, **overrides):
    """Boot a one-region gateway over the tiny artifacts.

    One worker, no response cache and a lag of 3 unless ``overrides``
    say otherwise.  ``fault_spec`` (the ``REPRO_FAULTS`` grammar) is
    armed only while the fleet forks, so it reaches the first workers
    but never a respawn or a rollout probe.
    """
    dataset_path, model_path = served_paths
    registry = ShardRegistry.publish(
        [ShardSpec(region="default", dataset=dataset_path, model=model_path)]
    )
    config = ClusterConfig(
        **{"port": 0, "num_workers": 1, "cache_size": 0, "default_lag": 3, **overrides}
    )
    saved = os.environ.pop(faults.ENV_VAR, None)
    if fault_spec is not None:
        os.environ[faults.ENV_VAR] = fault_spec
    try:
        return ClusterServer(registry, config).start()
    finally:
        os.environ.pop(faults.ENV_VAR, None)
        if saved is not None:
            os.environ[faults.ENV_VAR] = saved


@pytest.fixture(scope="module")
def gateway(served_paths):
    """A module-scoped gateway (see :func:`start_gateway`)."""
    own = OwnSegments()
    server = start_gateway(served_paths)
    yield server
    server.shutdown()
    assert own.leaked() == []


@pytest.fixture()
def boot_gateway(served_paths):
    """Factory for per-test gateways, all shut down after the test."""
    servers = []

    def boot(fault_spec: str | None = None, **overrides):
        server = start_gateway(served_paths, fault_spec, **overrides)
        servers.append(server)
        return server

    yield boot
    for server in servers:
        server.shutdown()
