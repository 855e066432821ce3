"""Acquisition campaigns and trace sets."""

import numpy as np
import pytest

from repro.baselines import UnprotectedClock
from repro.errors import AcquisitionError, ConfigurationError
from repro.power.acquisition import (
    AcquisitionCampaign,
    ProtectedAesDevice,
    TraceSet,
)
from repro.power.scope import Oscilloscope
from repro.power.synth import TraceSynthesizer

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


@pytest.fixture
def device():
    return ProtectedAesDevice(KEY, UnprotectedClock())


class TestDevice:
    def test_ciphertexts_are_aes(self, device, rng):
        from repro.crypto.aes import AES

        pts = rng.integers(0, 256, size=(5, 16), dtype=np.uint8)
        ts = device.run(pts, rng)
        cipher = AES(KEY)
        for i in range(5):
            assert bytes(ts.ciphertexts[i]) == cipher.encrypt(pts[i].tobytes())

    def test_trace_shape(self, device, rng):
        pts = rng.integers(0, 256, size=(7, 16), dtype=np.uint8)
        ts = device.run(pts, rng)
        assert ts.traces.shape == (7, 256)
        assert ts.n_traces == 7
        assert ts.n_samples == 256

    def test_sample_rate_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtectedAesDevice(
                KEY,
                UnprotectedClock(),
                synthesizer=TraceSynthesizer(sample_rate_msps=250.0),
                scope=Oscilloscope(sample_rate_msps=500.0),
            )

    def test_bad_plaintext_shape(self, device, rng):
        with pytest.raises(AcquisitionError):
            device.run(rng.integers(0, 256, size=(3, 15), dtype=np.uint8), rng)

    def test_completion_times_constant_for_unprotected(self, device, rng):
        pts = rng.integers(0, 256, size=(4, 16), dtype=np.uint8)
        ts = device.run(pts, rng)
        assert np.unique(ts.completion_times_ns).size == 1


class TestCampaign:
    def test_collect(self, device):
        ts = AcquisitionCampaign(device, seed=3).collect(10)
        assert ts.n_traces == 10
        assert ts.key == KEY

    def test_reproducible_with_seed(self, device):
        a = AcquisitionCampaign(device, seed=3).collect(5)
        b = AcquisitionCampaign(device, seed=3).collect(5)
        np.testing.assert_array_equal(a.traces, b.traces)
        np.testing.assert_array_equal(a.plaintexts, b.plaintexts)

    def test_fixed_vs_random_interleaved(self, device):
        pt = bytes(range(16))
        fixed, rnd = AcquisitionCampaign(device, seed=1).collect_fixed_vs_random(20, pt)
        assert fixed.n_traces == rnd.n_traces == 20
        assert (fixed.plaintexts == np.frombuffer(pt, dtype=np.uint8)).all()
        # The random group is overwhelmingly unlikely to contain the fixed PT.
        assert not (rnd.plaintexts == np.frombuffer(pt, dtype=np.uint8)).all(axis=1).any()

    def test_bad_inputs(self, device):
        campaign = AcquisitionCampaign(device)
        with pytest.raises(ConfigurationError):
            campaign.collect(0)
        with pytest.raises(AcquisitionError):
            campaign.collect_fixed_vs_random(5, b"short")


class TestTraceSet:
    def _make(self, device):
        return AcquisitionCampaign(device, seed=2).collect(8)

    def test_subset(self, device):
        ts = self._make(device)
        sub = ts.subset(np.array([1, 3, 5]))
        assert sub.n_traces == 3
        np.testing.assert_array_equal(sub.traces, ts.traces[[1, 3, 5]])
        np.testing.assert_array_equal(sub.plaintexts, ts.plaintexts[[1, 3, 5]])

    def test_save_load_roundtrip(self, device, tmp_path):
        ts = self._make(device)
        path = tmp_path / "campaign.npz"
        ts.save(path)
        loaded = TraceSet.load(path)
        np.testing.assert_array_equal(loaded.traces, ts.traces)
        np.testing.assert_array_equal(loaded.ciphertexts, ts.ciphertexts)
        assert loaded.key == ts.key
        assert loaded.sample_period_ns == ts.sample_period_ns

    def test_save_preserves_metadata(self, device, tmp_path):
        ts = self._make(device)
        ts.metadata["note"] = "bench run 7"
        ts.metadata["stalls"] = np.array([1.5, 2.5])
        path = tmp_path / "campaign.npz"
        ts.save(path)
        loaded = TraceSet.load(path)
        assert loaded.metadata["note"] == "bench run 7"
        assert loaded.metadata["stalls"] == [1.5, 2.5]  # arrays JSON-ify to lists
        assert loaded.metadata["countermeasure"] == ts.metadata["countermeasure"]

    def test_load_pre_metadata_archive(self, device, tmp_path):
        """Archives saved before the metadata fix still load (empty dict)."""
        ts = self._make(device)
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path,
            traces=ts.traces,
            plaintexts=ts.plaintexts,
            ciphertexts=ts.ciphertexts,
            key=np.frombuffer(ts.key, dtype=np.uint8),
            completion_times_ns=ts.completion_times_ns,
            sample_period_ns=np.array(ts.sample_period_ns),
        )
        loaded = TraceSet.load(path)
        assert loaded.metadata == {}
        np.testing.assert_array_equal(loaded.traces, ts.traces)

    def test_load_missing_keys_is_clear_error(self, device, tmp_path):
        ts = self._make(device)
        path = tmp_path / "broken.npz"
        np.savez_compressed(path, traces=ts.traces)
        with pytest.raises(AcquisitionError, match="missing keys"):
            TraceSet.load(path)

    def test_load_non_archive_rejected(self, tmp_path, rng):
        npy = tmp_path / "bare.npy"
        np.save(npy, rng.normal(size=(3, 4)))
        with pytest.raises(AcquisitionError):
            TraceSet.load(npy)
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"not a zip at all")
        with pytest.raises(AcquisitionError):
            TraceSet.load(garbage)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(AcquisitionError):
            TraceSet.load(tmp_path / "nope.npz")

    def test_load_releases_file_handle(self, device, tmp_path):
        ts = self._make(device)
        path = tmp_path / "campaign.npz"
        ts.save(path)
        TraceSet.load(path)
        # The context-managed load must leave the file unlocked/removable.
        path.unlink()
        assert not path.exists()

    def test_validation(self, device):
        ts = self._make(device)
        with pytest.raises(ConfigurationError):
            TraceSet(
                traces=ts.traces,
                plaintexts=ts.plaintexts[:4],
                ciphertexts=ts.ciphertexts,
                key=ts.key,
                completion_times_ns=ts.completion_times_ns,
                sample_period_ns=4.0,
            )
