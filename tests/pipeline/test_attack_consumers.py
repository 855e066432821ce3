"""Attack-zoo streaming consumers: checkpoint contract, engine worker
invariance.

Every consumer in ``repro.pipeline.attack_consumers`` must satisfy the
engine's consumer contract: ``restore(snapshot())`` then continuing is
bit-identical, and results cannot depend on the worker count or on a
checkpoint/resume boundary.
"""

import numpy as np
import pytest

from repro.attacks.models import expand_last_round_key
from repro.attacks.mlp import train_mlp_profile
from repro.errors import AttackError, CheckpointError
from repro.obs import Observability
from repro.pipeline import (
    CampaignSpec,
    DisclosureConsumer,
    LatticeCpaConsumer,
    MiaStreamConsumer,
    MlpAttackConsumer,
    StreamingCampaign,
    SuccessRateConsumer,
)
from repro.attacks.incremental import IncrementalCpa
from repro.pipeline.attack_consumers import _replica_keep_mask
from repro.rftc import cached_plan
from tests.attacks.test_incremental import _reference_chunk_summary

ZOO = ("mlp", "lattice", "mia", "success_rate", "disclosure")


@pytest.fixture(scope="module")
def mlp_model(unprotected_traceset):
    ts = unprotected_traceset
    true_byte = int(expand_last_round_key(ts.key)[0])
    return train_mlp_profile(ts.traces[:1000], ts.ciphertexts[:1000], true_byte)


@pytest.fixture
def zoo(unprotected_traceset, mlp_model):
    """Factories building a fresh consumer of each kind (same config)."""
    key = unprotected_traceset.key
    reference = float(unprotected_traceset.completion_times_ns.max())
    return {
        "mlp": lambda: MlpAttackConsumer(mlp_model, key),
        "lattice": lambda: LatticeCpaConsumer(key, reference),
        "mia": lambda: MiaStreamConsumer(key),
        "success_rate": lambda: SuccessRateConsumer(key, seed=5),
        "disclosure": lambda: DisclosureConsumer(key),
    }


#: Each kind's snapshot keys once it has folded a chunk.  A checkpoint
#: stores exactly these, so a changed set breaks resuming old checkpoints.
_CPA_KEYS = {
    "cpa_byte_index", "cpa_n_traces", "cpa_sum_p", "cpa_sum_p2",
    "cpa_sum_pt", "cpa_sum_t", "cpa_sum_t2",
}
_CURVE_KEYS = {"true_byte", "trace_counts", "ranks"}
SNAPSHOT_KEYS = {
    "mlp": _CPA_KEYS | _CURVE_KEYS,
    "lattice": _CPA_KEYS | _CURVE_KEYS | {"reference_ns"},
    "mia": {
        "true_byte", "n_traces", "bin_lo", "bin_hi", "n_bins",
        "sample_stride", "hist",
    },
    "success_rate": {
        "true_byte", "n_replicas", "keep_fraction", "seed", "n_traces",
        "trace_counts", "successes",
    } | {
        f"r{replica}_{k[4:]}" for replica in range(8) for k in _CPA_KEYS
    },
    "disclosure": _CPA_KEYS | _CURVE_KEYS,
}


def _chunks(trace_set, n_chunks=4, size=150):
    return [
        trace_set.subset(np.arange(i * size, (i + 1) * size))
        for i in range(n_chunks)
    ]


def _assert_states_equal(state_a, state_b):
    assert set(state_a) == set(state_b)
    for field in state_a:
        a, b = state_a[field], state_b[field]
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert np.asarray(a).dtype == np.asarray(b).dtype
        np.testing.assert_array_equal(a, b)


class TestCheckpointContract:
    @pytest.mark.parametrize("kind", ZOO)
    def test_mid_stream_roundtrip_bit_identical(
        self, kind, zoo, unprotected_traceset
    ):
        chunks = _chunks(unprotected_traceset)
        reference = zoo[kind]()
        for chunk in chunks:
            reference.consume(chunk)

        half = zoo[kind]()
        for chunk in chunks[:2]:
            half.consume(chunk)
        moved = zoo[kind]()
        moved.restore(half.snapshot())
        for chunk in chunks[2:]:
            moved.consume(chunk)

        _assert_states_equal(reference.snapshot(), moved.snapshot())
        assert reference.result() == moved.result()

    @pytest.mark.parametrize("kind", ZOO)
    def test_restore_rejects_other_key(self, kind, zoo, unprotected_traceset):
        populated = zoo[kind]()
        populated.consume(_chunks(unprotected_traceset)[0])
        state = dict(populated.snapshot())
        state["true_byte"] = (int(state["true_byte"]) + 1) % 256
        with pytest.raises(CheckpointError):
            zoo[kind]().restore(state)

    @pytest.mark.parametrize("kind", ZOO)
    def test_result_requires_traces(self, kind, zoo):
        with pytest.raises(AttackError):
            zoo[kind]().result()

    @pytest.mark.parametrize("kind", ZOO)
    def test_snapshot_key_set(self, kind, zoo, unprotected_traceset):
        populated = zoo[kind]()
        populated.consume(_chunks(unprotected_traceset)[0])
        assert set(populated.snapshot()) == SNAPSHOT_KEYS[kind]

    def test_lattice_restore_rejects_other_reference(
        self, zoo, unprotected_traceset
    ):
        populated = zoo["lattice"]()
        populated.consume(_chunks(unprotected_traceset)[0])
        state = populated.snapshot()
        other = LatticeCpaConsumer(
            unprotected_traceset.key, state["reference_ns"] + 8.0
        )
        with pytest.raises(CheckpointError, match="reference"):
            other.restore(state)

    def test_mia_restore_rejects_other_binning(self, zoo, unprotected_traceset):
        populated = zoo["mia"]()
        populated.consume(_chunks(unprotected_traceset)[0])
        state = dict(populated.snapshot(), n_bins=32)
        other = MiaStreamConsumer(unprotected_traceset.key)
        with pytest.raises(CheckpointError, match="n_bins"):
            other.restore(state)

    def test_success_rate_restore_rejects_other_seed(
        self, zoo, unprotected_traceset
    ):
        populated = zoo["success_rate"]()
        populated.consume(_chunks(unprotected_traceset)[0])
        other = SuccessRateConsumer(unprotected_traceset.key, seed=6)
        with pytest.raises(CheckpointError):
            other.restore(populated.snapshot())


class TestConstruction:
    def test_lattice_rejects_bad_reference(self, key):
        with pytest.raises(AttackError):
            LatticeCpaConsumer(key, float("nan"))
        with pytest.raises(AttackError):
            LatticeCpaConsumer(key, -1.0)

    def test_success_rate_rejects_bad_config(self, key):
        with pytest.raises(AttackError):
            SuccessRateConsumer(key, n_replicas=0)


class TestReplicaThinning:
    def test_mask_is_chunk_boundary_invariant(self):
        whole = _replica_keep_mask(np.arange(1000), 3, 17, 0.5)
        split = np.concatenate(
            [
                _replica_keep_mask(np.arange(0, 400), 3, 17, 0.5),
                _replica_keep_mask(np.arange(400, 1000), 3, 17, 0.5),
            ]
        )
        np.testing.assert_array_equal(whole, split)

    def test_replicas_see_different_subsets(self):
        indices = np.arange(2000)
        a = _replica_keep_mask(indices, 0, 17, 0.5)
        b = _replica_keep_mask(indices, 1, 17, 0.5)
        assert not np.array_equal(a, b)

    def test_keep_fraction_one_keeps_all(self):
        assert _replica_keep_mask(np.arange(100), 0, 0, 1.0).all()

    def test_keep_fraction_is_respected(self):
        mask = _replica_keep_mask(np.arange(20000), 2, 9, 0.25)
        assert abs(mask.mean() - 0.25) < 0.02


class TestSuccessRateCurve:
    def test_curve_on_unprotected(self, unprotected_traceset):
        consumer = SuccessRateConsumer(unprotected_traceset.key, seed=5)
        for chunk in _chunks(unprotected_traceset, n_chunks=5, size=500):
            consumer.consume(chunk)
        result = consumer.result()
        assert result["trace_counts"] == [500, 1000, 1500, 2000, 2500]
        rates = result["success_rates"]
        assert rates[-1] >= 0.75
        assert result["final_success_rate"] == rates[-1]
        assert result["traces_to_disclosure"] is not None
        for low, rate, high in zip(
            result["wilson_low"], rates, result["wilson_high"]
        ):
            assert 0.0 <= low <= rate <= high <= 1.0


class _ReferenceCpa(IncrementalCpa):
    """A replica folding through the per-row prediction chunk summary."""

    chunk_summary = _reference_chunk_summary


def _reference_success_rate(key):
    consumer = SuccessRateConsumer(key, seed=5)
    consumer._replicas = [
        _ReferenceCpa(consumer.byte_index)
        for _ in range(consumer.n_replicas)
    ]
    return consumer


class TestSuccessRateTableFold:
    """A climbing success curve, pinned bit for bit to per-row folds."""

    def _chunks(self, trace_set):
        return _chunks(trace_set, n_chunks=10, size=250)

    def test_curve_and_state_match_reference(self, unprotected_traceset):
        key = unprotected_traceset.key
        chunks = self._chunks(unprotected_traceset)
        table = SuccessRateConsumer(key, seed=5)
        reference = _reference_success_rate(key)
        for chunk in chunks:
            table.consume(chunk)
            reference.consume(chunk)
            _assert_states_equal(table.snapshot(), reference.snapshot())
        result = table.result()
        assert result == reference.result()
        assert max(result["success_rates"]) >= 0.75
        assert min(result["success_rates"]) < 0.75

    def test_resumed_curve_matches_reference(self, unprotected_traceset):
        key = unprotected_traceset.key
        chunks = self._chunks(unprotected_traceset)
        reference = _reference_success_rate(key)
        for chunk in chunks:
            reference.consume(chunk)
        half = SuccessRateConsumer(key, seed=5)
        for chunk in chunks[:4]:
            half.consume(chunk)
        resumed = SuccessRateConsumer(key, seed=5)
        resumed.restore(half.snapshot())
        for chunk in chunks[4:]:
            resumed.consume(chunk)
        _assert_states_equal(resumed.snapshot(), reference.snapshot())
        assert resumed.result() == reference.result()


class TestEngineIntegration:
    def _run(self, spec, consumer, workers, n=400, chunk=100, seed=11):
        StreamingCampaign(
            spec, chunk_size=chunk, workers=workers, seed=seed
        ).run(n, [consumer])
        return consumer.result()

    @pytest.mark.parametrize("kind", ZOO)
    def test_worker_count_invariance(self, kind, zoo):
        spec = CampaignSpec(target="unprotected")
        results = [
            self._run(spec, zoo[kind](), workers) for workers in (1, 2, 4)
        ]
        assert results[0] == results[1] == results[2]

    def test_lattice_worker_invariance_on_rftc(self):
        spec = CampaignSpec(
            target="rftc", m_outputs=2, p_configs=8, plan_seed=5
        )
        plan = cached_plan(2, 8, 5, True)
        reference = float(np.max(plan.all_completion_times_ns()))
        results = [
            self._run(
                spec, LatticeCpaConsumer(spec.key, reference), workers
            )
            for workers in (1, 2, 4)
        ]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("kind", ("mlp", "lattice", "disclosure"))
    def test_engine_checkpoint_resume_bit_identical(self, kind, zoo, tmp_path):
        spec = CampaignSpec(target="unprotected")
        uninterrupted = self._run(spec, zoo[kind](), workers=1)

        checkpoint = tmp_path / "cell.ckpt"
        consumer = zoo[kind]()

        class Stop(Exception):
            pass

        def interrupt(update):
            if update.done_traces >= 200:
                raise Stop

        with pytest.raises(Stop):
            StreamingCampaign(spec, chunk_size=100, seed=11).run(
                400,
                [consumer],
                checkpoint=checkpoint,
                progress=interrupt,
            )
        assert checkpoint.is_file()
        resumed = zoo[kind]()
        StreamingCampaign.resume(
            store=None, checkpoint=checkpoint, consumers=[resumed]
        )
        assert resumed.result() == uninterrupted

    @pytest.mark.parametrize("kind", ZOO)
    def test_metrics_emitted(self, kind, zoo, unprotected_traceset):
        obs = Observability.create()
        consumer = zoo[kind]()
        consumer.set_metrics(obs.metrics)
        chunk = _chunks(unprotected_traceset)[0]
        consumer.consume(chunk)
        assert (
            obs.metrics.counter_value(
                "attack_traces_total", attack=consumer.name
            )
            == chunk.n_traces
        )
        if kind == "success_rate":
            gauge = obs.metrics.gauge_value(
                "attack_success_rate", attack=consumer.name
            )
            assert gauge is not None and 0.0 <= gauge <= 1.0
        elif kind != "mia":
            rank = obs.metrics.gauge_value(
                "attack_true_byte_rank", attack=consumer.name
            )
            assert rank is not None and 0 <= rank < 256
