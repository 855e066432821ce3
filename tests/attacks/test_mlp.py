"""Profiled MLP attack: reproducible training and key recovery."""

import numpy as np
import pytest

from repro.attacks.mlp import (
    MlpConfig,
    MlpModel,
    mlp_classify,
    mlp_expected_hd,
    train_mlp_profile,
)
from repro.attacks.models import expand_last_round_key
from repro.errors import AttackError
from repro.pipeline import CampaignSpec, MlpAttackConsumer
from repro.power.acquisition import AcquisitionCampaign


def _unprotected():
    return CampaignSpec(target="unprotected").build_device(np.random.default_rng(0))


def _rank(model, trace_set):
    """Rank of the true round-10 key byte after the MLP attack."""
    consumer = MlpAttackConsumer(model, trace_set.key)
    consumer.consume(trace_set)
    return consumer.result()["true_byte_rank"]


@pytest.fixture(scope="module")
def profiled_model():
    """The full-size profile: 4,000 clone traces, default config."""
    clone = AcquisitionCampaign(_unprotected(), seed=41).collect(4000)
    true_byte = int(expand_last_round_key(clone.key)[0])
    return train_mlp_profile(clone.traces, clone.ciphertexts, true_byte)


class TestConfigValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(AttackError):
            MlpConfig(hidden_sizes=())
        with pytest.raises(AttackError):
            MlpConfig(hidden_sizes=(0,))

    def test_rejects_bad_schedule(self):
        with pytest.raises(AttackError):
            MlpConfig(epochs=0)
        with pytest.raises(AttackError):
            MlpConfig(batch_size=0)
        with pytest.raises(AttackError):
            MlpConfig(learning_rate=0.0)
        with pytest.raises(AttackError):
            MlpConfig(l2=-0.1)


class TestTrainingDeterminism:
    def _profile(self):
        ts = AcquisitionCampaign(_unprotected(), seed=9).collect(
            256
        )
        true_byte = int(expand_last_round_key(ts.key)[0])
        return train_mlp_profile(ts.traces, ts.ciphertexts, true_byte)

    def test_same_seed_bit_identical_weights(self):
        a, b = self._profile(), self._profile()
        assert len(a.weights) == len(b.weights) == 2
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            np.testing.assert_array_equal(ba, bb)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.std, b.std)
        assert a.final_loss == b.final_loss


class TestTrainingValidation:
    def test_needs_enough_traces(self, rng):
        with pytest.raises(AttackError):
            train_mlp_profile(
                rng.normal(size=(16, 8)),
                rng.integers(0, 256, size=(16, 16), dtype=np.uint8),
                0,
            )

    def test_rejects_bad_key_byte(self, rng):
        with pytest.raises(AttackError):
            train_mlp_profile(
                rng.normal(size=(64, 8)),
                rng.integers(0, 256, size=(64, 16), dtype=np.uint8),
                256,
            )


class TestClassifier:
    def test_log_probs_normalized(self, profiled_model, unprotected_traceset):
        few = unprotected_traceset.subset(np.arange(32))
        log_probs = mlp_classify(profiled_model, few.traces)
        assert log_probs.shape == (32, 9)
        np.testing.assert_allclose(
            np.exp(log_probs).sum(axis=1), np.ones(32), rtol=1e-9
        )

    def test_expected_hd_in_range(self, profiled_model, unprotected_traceset):
        few = unprotected_traceset.subset(np.arange(32))
        ehd = mlp_expected_hd(profiled_model, few.traces)
        assert ehd.shape == (32,)
        assert (ehd >= 0).all() and (ehd <= 8).all()

    def test_rejects_wrong_sample_count(self, profiled_model):
        with pytest.raises(AttackError):
            mlp_classify(profiled_model, np.zeros((4, 3)))
        with pytest.raises(AttackError):
            mlp_classify(profiled_model, np.zeros(16))


class TestKeyRecovery:
    def test_recovers_byte_with_2k_attack_traces(
        self, profiled_model, unprotected_traceset
    ):
        ts = unprotected_traceset.subset(np.arange(2000))
        assert _rank(profiled_model, ts) == 0

    def test_close_at_1k_attack_traces(
        self, profiled_model, unprotected_traceset
    ):
        ts = unprotected_traceset.subset(np.arange(1000))
        assert _rank(profiled_model, ts) <= 8

    def test_byte_index_defaults_to_model(self, profiled_model):
        assert isinstance(profiled_model, MlpModel)
        assert profiled_model.byte_index == 0
