"""Tests for repro.core.training internals."""

import numpy as np
import pytest

from repro.core import LHMM, HetGraphEncoder, ObservationLearner, RelationGraph, TransitionLearner
from repro.core.training import LHMMTrainer, _point_positive_roads
from tests.conftest import tiny_lhmm_config


@pytest.fixture(scope="module")
def trainer_setup(tiny_dataset):
    config = tiny_lhmm_config()
    graph = RelationGraph(tiny_dataset.network, tiny_dataset.towers).build(
        tiny_dataset.train
    )
    encoder = HetGraphEncoder(
        graph, dim=config.embedding_dim, num_layers=config.het_layers, rng=0
    )
    observation = ObservationLearner(
        dim=config.embedding_dim, hidden=config.mlp_hidden, rng=0
    )
    transition = TransitionLearner(
        dim=config.embedding_dim, hidden=config.mlp_hidden, rng=0
    )
    trainer = LHMMTrainer(
        config, graph, encoder, observation, transition, tiny_dataset.engine, rng=0
    )
    return trainer, graph


class TestPositives:
    def test_one_positive_per_point(self, trainer_setup, tiny_dataset):
        _, graph = trainer_setup
        sample = tiny_dataset.train[0]
        pairs = _point_positive_roads(graph, sample)
        assert len(pairs) == len(sample.cellular)
        indices = [i for i, _ in pairs]
        assert indices == list(range(len(sample.cellular)))

    def test_positives_come_from_truth_path(self, trainer_setup, tiny_dataset):
        _, graph = trainer_setup
        sample = tiny_dataset.train[0]
        truth = set(sample.truth_path)
        for _, positive in _point_positive_roads(graph, sample):
            assert positive in truth

    def test_empty_truth_gives_no_pairs(self, trainer_setup, tiny_dataset):
        trainer, graph = trainer_setup
        import dataclasses

        sample = dataclasses.replace(tiny_dataset.train[0], truth_path=[])
        assert _point_positive_roads(graph, sample) == []


class TestSampling:
    def test_negatives_exclude_truth(self, trainer_setup, tiny_dataset):
        trainer, _ = trainer_setup
        sample = tiny_dataset.train[0]
        truth = set(sample.truth_path)
        negatives = trainer._sample_negatives(sample, 0, truth, 5)
        assert len(negatives) <= 5
        assert not truth.intersection(negatives)

    def test_pool_cache_reused(self, trainer_setup, tiny_dataset, monkeypatch):
        trainer, _ = trainer_setup
        sample = tiny_dataset.train[1]
        first = trainer._point_pool(sample, 0)
        network = type(trainer.graph.network)
        monkeypatch.setattr(
            network, "segments_near_many", lambda *a, **k: pytest.fail("pool not cached")
        )
        assert trainer._point_pool(sample, 0) == first

    def test_transition_pairs_include_truth_transition(self, trainer_setup, tiny_dataset):
        trainer, _ = trainer_setup
        sample = tiny_dataset.train[0]
        pairs = trainer._sample_transition_pairs(sample, 1, 4)
        assert len(pairs) == 4
        truth = set(sample.truth_path)
        has_truth_pair = any(a in truth and b in truth for a, b in pairs)
        # The true transition is seeded whenever pools contain truth roads.
        if any(seg in truth for seg in trainer._point_pool(sample, 0)[:20]) and any(
            seg in truth for seg in trainer._point_pool(sample, 1)[:20]
        ):
            assert has_truth_pair


class TestStages:
    def test_train_requires_samples(self, trainer_setup):
        trainer, _ = trainer_setup
        with pytest.raises(ValueError):
            trainer.train([])

    def test_embeddings_frozen_after_stage_one(self, tiny_dataset):
        matcher = LHMM(tiny_lhmm_config(), rng=5).fit(tiny_dataset)
        assert matcher.node_embeddings is not None

    def test_fusion_data_consistency(self, trainer_setup, tiny_dataset):
        trainer, _ = trainer_setup
        trainer._freeze_embeddings()
        features, labels = trainer._collect_observation_fusion_data(
            tiny_dataset.train[:3]
        )
        assert features is not None
        assert features.shape[0] == labels.shape[0]
        # implicit prob + 4 explicit features
        assert features.shape[1] == 5
        assert set(np.unique(labels)) <= {0.0, 1.0}

    def test_transition_fusion_targets_are_ratios(self, trainer_setup, tiny_dataset):
        trainer, _ = trainer_setup
        trainer._freeze_embeddings()
        features, targets = trainer._collect_transition_fusion_data(
            tiny_dataset.train[:3]
        )
        assert features is not None
        assert np.all(targets >= 0.0) and np.all(targets <= 1.0)
        # implicit + 3 explicit transition features
        assert features.shape[1] == 4


class TestEMAShadowWeights:
    """Determinism invariants of the trainer's EMA shadow weight set."""

    def test_shadow_of_frozen_weights_equals_weights_exactly(self, trainer_setup):
        """For parameters the optimizer never moved, the shadow must stay
        *bitwise* equal to the raw weight — ``(1 - d) * (w - s)`` is exactly
        zero when ``w == s`` — no matter how many updates run."""
        trainer, _ = trainer_setup
        for _ in range(50):
            trainer._ema_update()
        params = dict(trainer._tracked_parameters())
        shadows = trainer.ema_state()
        assert set(shadows) == set(params)
        for name, param in params.items():
            assert shadows[name].tobytes() == param.data.tobytes(), name

    def test_shadow_diverges_from_moving_weights(self, tiny_dataset):
        """After a real fit, the shadow is a genuine second weight set."""
        matcher = LHMM(tiny_lhmm_config(), rng=5).fit(tiny_dataset)
        ema = matcher._ema_arrays
        assert ema is not None
        assert set(ema) == {
            "node_embeddings",
            *(k for k in ema if k.startswith(("obs.", "trans."))),
        }
        assert not np.array_equal(ema["node_embeddings"], matcher.node_embeddings)

    def test_ema_consumes_no_rng(self, tiny_dataset):
        """The raw weights are invariant under the decay setting: the EMA
        update reads the RNG stream exactly zero times."""
        config_a = tiny_lhmm_config()
        config_b = tiny_lhmm_config()
        config_b.ema_decay = 0.5
        a = LHMM(config_a, rng=5).fit(tiny_dataset)
        b = LHMM(config_b, rng=5).fit(tiny_dataset)
        assert a.node_embeddings.tobytes() == b.node_embeddings.tobytes()
        # ... while the shadow set itself does honour the decay.
        assert (
            a._ema_arrays["node_embeddings"].tobytes()
            != b._ema_arrays["node_embeddings"].tobytes()
        )

    @pytest.mark.parametrize("decay", [0.0, 1.0, -0.1, 1.5])
    def test_ema_decay_is_validated(self, decay):
        config = tiny_lhmm_config()
        config.ema_decay = decay
        with pytest.raises(ValueError, match="ema_decay"):
            config.validate()
