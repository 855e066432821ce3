"""Checkpoint layer: snapshot/restore round-trips and on-disk format."""

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigurationError
from repro.pipeline import (
    CampaignCheckpoint,
    CampaignSpec,
    CompletionTimeConsumer,
    CpaBankConsumer,
    CpaStreamConsumer,
    StreamingCampaign,
    TvlaStreamConsumer,
)
from repro.pipeline.checkpoint import spec_from_dict, spec_to_dict

FIXED_PT = bytes(range(16))


def _fold_some(consumer, spec=None, n=200, chunk=50, seed=11):
    spec = spec or CampaignSpec(target="unprotected")
    StreamingCampaign(spec, chunk_size=chunk, seed=seed).run(n, [consumer])
    return consumer


class TestConsumerSnapshotRoundTrip:
    """restore(snapshot()) then continuing must be bit-identical."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CpaStreamConsumer(byte_index=0),
            lambda: CpaBankConsumer(byte_indices=(0, 5)),
            lambda: CompletionTimeConsumer(),
        ],
        ids=["cpa", "cpa_bank", "completion"],
    )
    def test_mid_campaign_roundtrip(self, make, tmp_path):
        from repro.store import ChunkedTraceStore

        spec = CampaignSpec(target="unprotected")
        # Reference: all 4 chunks folded without interruption.
        reference = _fold_some(make(), spec=spec)
        # Interrupted twin: fold 2 chunks, serialize, restore into a
        # fresh consumer, fold the remaining 2 chunks from a store of
        # the same campaign.
        half = make()
        StreamingCampaign(spec, chunk_size=50, seed=11).run(100, [half])
        moved = make()
        moved.restore(half.snapshot())
        StreamingCampaign(spec, chunk_size=50, seed=11).run(
            200, store=tmp_path / "s"
        )
        store = ChunkedTraceStore.open(tmp_path / "s")
        for index in (2, 3):
            moved.consume(store.chunk(index))
        state_a, state_b = reference.snapshot(), moved.snapshot()
        assert set(state_a) == set(state_b)
        for field in state_a:
            np.testing.assert_array_equal(state_a[field], state_b[field])

    def test_tvla_roundtrip(self):
        spec = CampaignSpec(target="unprotected", fixed_plaintext=FIXED_PT)
        ref = TvlaStreamConsumer()
        _fold_some(ref, spec=spec, n=400, chunk=100, seed=3)
        clone = TvlaStreamConsumer()
        clone.restore(ref.snapshot())
        np.testing.assert_array_equal(
            ref.result().t_values, clone.result().t_values
        )

    def test_restore_validates_identity(self):
        with pytest.raises(CheckpointError):
            CpaStreamConsumer(byte_index=1).restore(
                _fold_some(CpaStreamConsumer(byte_index=0)).snapshot()
            )
        with pytest.raises(CheckpointError):
            CompletionTimeConsumer(resolution_ns=0.5).restore(
                CompletionTimeConsumer(resolution_ns=0.01).snapshot()
            )
        with pytest.raises(CheckpointError):
            CpaBankConsumer(byte_indices=(0,)).restore(
                CpaBankConsumer(byte_indices=(0, 1)).snapshot()
            )


class TestSpecRoundTrip:
    def test_all_fields_survive(self):
        spec = CampaignSpec(
            target="rftc",
            m_outputs=2,
            p_configs=16,
            key=bytes(range(16)),
            noise_std=0.125,
            plan_seed=77,
            fixed_plaintext=FIXED_PT,
        )
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_malformed_fields_rejected(self):
        fields = spec_to_dict(CampaignSpec(target="unprotected"))
        del fields["key"]
        with pytest.raises(CheckpointError):
            spec_from_dict(fields)
        with pytest.raises(CheckpointError):
            spec_from_dict({"target": "unprotected", "key": "zz"})


class TestCheckpointFile:
    def _capture(self, chunks_done=2):
        spec = CampaignSpec(target="unprotected")
        consumer = _fold_some(CpaStreamConsumer(0), spec=spec)
        return CampaignCheckpoint.capture(
            spec, seed=11, chunk_size=50, n_traces=200,
            chunks_done=chunks_done, consumers=[consumer],
        )

    def test_save_load_roundtrip(self, tmp_path):
        ckpt = self._capture()
        path = ckpt.save(tmp_path / "c.npz")
        loaded = CampaignCheckpoint.load(path)
        assert loaded.seed == 11 and loaded.chunks_done == 2
        assert loaded.spec() == ckpt.spec()
        assert set(loaded.consumer_states) == {"cpa[0]"}
        for field, value in ckpt.consumer_states["cpa[0]"].items():
            np.testing.assert_array_equal(
                loaded.consumer_states["cpa[0]"][field], value
            )

    def test_save_is_atomic(self, tmp_path):
        path = tmp_path / "c.npz"
        self._capture(chunks_done=1).save(path)
        before = path.read_bytes()
        self._capture(chunks_done=2).save(path)
        assert CampaignCheckpoint.load(path).chunks_done == 2
        assert not (tmp_path / "c.npz.tmp").exists()
        assert path.read_bytes() != before

    def test_load_rejects_damage(self, tmp_path):
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.load(tmp_path / "nope.npz")
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"not a zip at all")
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.load(garbage)
        # an .npz without the meta entry is not a checkpoint
        plain = tmp_path / "plain.npz"
        np.savez(plain, x=np.arange(3))
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.load(plain)

    def test_restore_consumers_name_mismatch(self):
        ckpt = self._capture()
        with pytest.raises(CheckpointError):
            ckpt.restore_consumers([CompletionTimeConsumer()])
        with pytest.raises(CheckpointError):
            ckpt.restore_consumers([])

    def test_capture_rejects_duplicates_and_unsnapshotable(self):
        spec = CampaignSpec(target="unprotected")

        class Opaque:
            name = "opaque"

        with pytest.raises(ConfigurationError):
            CampaignCheckpoint.capture(
                spec, 0, 50, 100, 0,
                [CpaStreamConsumer(0), CpaStreamConsumer(0)],
            )
        with pytest.raises(ConfigurationError):
            CampaignCheckpoint.capture(spec, 0, 50, 100, 0, [Opaque()])
