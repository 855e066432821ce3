"""Checkpoint layer: snapshot/restore round-trips and on-disk format."""

import zipfile

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigurationError
from repro.pipeline import (
    CampaignCheckpoint,
    CampaignSpec,
    CompletionTimeConsumer,
    CpaBankConsumer,
    CpaStreamConsumer,
    LatticeCpaConsumer,
    MiaStreamConsumer,
    MlpAttackConsumer,
    StreamingCampaign,
    SuccessRateConsumer,
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
            lambda: CpaBankConsumer(),
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
            CpaStreamConsumer(byte_index=4).restore(
                _fold_some(CpaStreamConsumer(byte_index=0)).snapshot()
            )
        with pytest.raises(CheckpointError, match="resolution"):
            CompletionTimeConsumer().restore(
                dict(CompletionTimeConsumer().snapshot(), resolution_ns=0.5)
            )
        with pytest.raises(CheckpointError):
            CpaBankConsumer().restore(
                dict(CpaBankConsumer().snapshot(), byte_indices=[0, 1])
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


class TestLoadedArrays:
    def test_load_holds_one_copy_of_the_arrays(self, tmp_path, traced_peak):
        # Large arrays: an int32 array the size of the MIA joint
        # histogram and a 16-byte bank's cross-sum.  Copying each array
        # np.load returned peaked at the total plus the largest array
        # (~1.5x here).
        rng = np.random.default_rng(0)
        states = {
            "mia": {"counts": rng.integers(
                0, 9, size=(64, 256, 9, 16), dtype=np.int32
            )},
            "cpa_bank": {"sum_pt": rng.normal(size=(4096, 256))},
        }
        path = CampaignCheckpoint(
            seed=0, chunk_size=100, n_traces=200, chunks_done=1,
            spec_fields=spec_to_dict(CampaignSpec(target="unprotected")),
            consumer_states=states,
        ).save(tmp_path / "c.npz")
        array_bytes = sum(
            array.nbytes for state in states.values()
            for array in state.values()
        )
        loaded, peak = traced_peak(lambda: CampaignCheckpoint.load(path))
        assert peak <= 1.2 * array_bytes
        for name, state in states.items():
            for field, array in state.items():
                assert np.array_equal(
                    loaded.consumer_states[name][field], array
                )

    def test_resuming_twice_from_one_loaded_checkpoint(self, tmp_path):
        # load() hands out the arrays np.load read, so each restore()
        # must copy what it keeps: a consumer folding into a snapshot
        # array would change the second resume and the checkpoint.
        spec = CampaignSpec(target="unprotected")

        def consumers():
            return [
                MiaStreamConsumer(spec.key),
                SuccessRateConsumer(spec.key, n_replicas=4, seed=5),
                CpaBankConsumer(),
            ]

        class Stop(Exception):
            pass

        def interrupt(update):
            if update.done_traces >= 200:
                raise Stop

        path = tmp_path / "zoo.ckpt"
        with pytest.raises(Stop):
            StreamingCampaign(spec, chunk_size=100, seed=11).run(
                400, consumers(), checkpoint=path, progress=interrupt
            )
        ckpt = CampaignCheckpoint.load(path)
        saved = {
            name: {field: np.copy(value) for field, value in state.items()
                   if isinstance(value, np.ndarray)}
            for name, state in ckpt.consumer_states.items()
        }
        assert saved["mia"] and saved["success_rate"] and saved["cpa_bank"]

        runs = []
        for _ in range(2):
            resumed = consumers()
            StreamingCampaign.resume(
                store=None, checkpoint=ckpt, consumers=resumed
            )
            runs.append(resumed)

        (mia1, rate1, bank1), (mia2, rate2, bank2) = runs
        assert mia1.result() == mia2.result()
        assert rate1.result() == rate2.result()
        assert mia1.result()["n_traces"] == 400
        for one, two in zip(
            bank1.result().byte_results, bank2.result().byte_results
        ):
            assert np.array_equal(one.peak_corr, two.peak_corr)
        for name, fields in saved.items():
            for field, value in fields.items():
                after = ckpt.consumer_states[name][field]
                assert after.dtype == value.dtype
                assert np.array_equal(after, value)


class TestZooCheckpointSize:
    def test_one_zoo_chunk_saves_a_one_mib_mia_state(self, tmp_path):
        # The attack-zoo stack after one 1000-trace RFTC(2,8) chunk.  The
        # MIA state is its ciphertext-byte histogram, 256 x 64 x 16
        # int32; the 4-D joint histogram it replaced made the checkpoint
        # ~14.3 MB, ~9.4 MB of it MIA.
        from repro.attacks import train_mlp_profile
        from repro.attacks.models import expand_last_round_key
        from repro.rftc import cached_plan
        from repro.power.acquisition import AcquisitionCampaign

        spec = CampaignSpec(target="rftc", m_outputs=2, p_configs=8)
        clone = spec.build_device(np.random.default_rng(2))
        profile = AcquisitionCampaign(clone, seed=2).collect(500)
        model = train_mlp_profile(
            profile.traces, profile.ciphertexts,
            int(expand_last_round_key(spec.key)[0]),
        )
        plan = cached_plan(spec.m_outputs, spec.p_configs, spec.plan_seed, True)
        consumers = [
            CompletionTimeConsumer(),
            LatticeCpaConsumer(
                spec.key, float(np.max(plan.all_completion_times_ns()))
            ),
            MiaStreamConsumer(spec.key),
            SuccessRateConsumer(spec.key, n_replicas=8, seed=3),
            MlpAttackConsumer(model, spec.key),
        ]
        StreamingCampaign(spec, chunk_size=1000, seed=3).run(1000, consumers)
        path = CampaignCheckpoint.capture(
            spec, 3, 1000, 1000, 1, consumers
        ).save(tmp_path / "zoo.npz")

        with np.load(path) as saved:
            hist = saved["mia::hist"]
            assert "mia::counts" not in saved.files
        assert hist.dtype == np.int32
        assert hist.shape == (256, 64, 16)
        assert hist.nbytes == 1 << 20
        assert path.stat().st_size < 7_000_000


def _written_by_savez(path, entries):
    """What ``np.savez`` wrote for ``entries``, the writer ``save`` used
    before it wrote each member from the array's own buffer."""
    np.savez(path, **entries)
    return path.read_bytes()


def _members(path):
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


class TestSaveWritesFromTheArrayBuffers:
    def _checkpoint(self, states):
        return CampaignCheckpoint(
            seed=0, chunk_size=100, n_traces=200, chunks_done=1,
            spec_fields=spec_to_dict(CampaignSpec(target="unprotected")),
            consumer_states=states,
        )

    def test_members_equal_savez_for_every_layout_and_dtype(self, tmp_path):
        rng = np.random.default_rng(1)
        wide = rng.normal(size=(6, 10))
        states = {
            "layouts": {
                "c_order": rng.normal(size=(5, 7)),
                "f_order": np.asfortranarray(rng.normal(size=(5, 7))),
                "strided": wide[:, ::2],
                "empty": np.zeros((0, 4)),
                "empty_f": np.zeros((3, 0, 2), order="F"),
            },
            "dtypes": {
                "int32": rng.integers(-9, 9, size=(4, 3, 2), dtype=np.int32),
                "bool": rng.random(13) > 0.5,
                "zero_d": np.array(2.5),
            },
        }
        assert states["layouts"]["f_order"].flags.f_contiguous
        assert not states["layouts"]["strided"].flags.c_contiguous
        path = self._checkpoint(states).save(tmp_path / "c.npz")

        with np.load(path) as saved:
            meta = saved["__meta__"]
        assert meta.ndim == 0 and meta.dtype.kind == "U"
        entries = {
            f"{name}::{field}": array
            for name, state in states.items()
            for field, array in state.items()
        }
        entries["__meta__"] = meta
        expected = tmp_path / "savez.npz"
        expected_bytes = _written_by_savez(expected, entries)
        written = _members(path)
        assert list(written) == [f"{name}.npy" for name in entries]
        assert written == _members(expected)
        # The zip entries and directory are savez's too: the whole file
        # is byte-equal, so the format is unchanged.
        assert path.read_bytes() == expected_bytes

    def test_saving_an_8_mib_array_copies_none_of_it(
        self, tmp_path, traced_peak
    ):
        # np.savez copied each array through tobytes() before writing it:
        # a transient of the array's full size.
        big = np.random.default_rng(2).normal(size=(1024, 1024))
        ckpt = self._checkpoint({"cpa_bank": {"sum_pt": big}})
        path, peak = traced_peak(lambda: ckpt.save(tmp_path / "c.npz"))
        assert big.nbytes == 8 << 20
        assert peak < 1 << 20
        with np.load(path) as saved:
            assert np.array_equal(saved["cpa_bank::sum_pt"], big)

    def test_a_savez_checkpoint_resumes_bit_identically(self, tmp_path):
        spec = CampaignSpec(target="unprotected")

        def consumers():
            return [
                MiaStreamConsumer(spec.key),
                SuccessRateConsumer(spec.key, n_replicas=4, seed=5),
                CpaBankConsumer(),
            ]

        class Stop(Exception):
            pass

        def interrupt(update):
            if update.done_traces >= 200:
                raise Stop

        whole = consumers()
        StreamingCampaign(spec, chunk_size=100, seed=11).run(400, whole)

        path = tmp_path / "zoo.ckpt"
        with pytest.raises(Stop):
            StreamingCampaign(spec, chunk_size=100, seed=11).run(
                400, consumers(), checkpoint=path, progress=interrupt
            )
        # Rewrite the checkpoint as np.savez wrote it before.
        with np.load(path) as saved:
            entries = {name: saved[name] for name in saved.files}
        old = tmp_path / "old.npz"
        assert _written_by_savez(old, entries) == path.read_bytes()

        resumed = consumers()
        StreamingCampaign.resume(
            store=None, checkpoint=old, consumers=resumed,
            checkpoint_path=tmp_path / "new.ckpt",
        )
        for one, two in zip(whole, resumed):
            assert repr(one.result()) == repr(two.result())
            state_a, state_b = one.snapshot(), two.snapshot()
            for field in state_a:
                np.testing.assert_array_equal(state_a[field], state_b[field])
