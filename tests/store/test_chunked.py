"""Chunked trace store: manifest, append/iterate/memmap, round trips."""

import json

import numpy as np
import pytest

from repro.errors import AcquisitionError, ConfigurationError
from repro.power.acquisition import AcquisitionCampaign, TraceSet, sanitize_metadata
from repro.store import MANIFEST_NAME, ChunkedTraceStore


def write_store(trace_set, path, chunk_size):
    """Re-chunk an in-memory set into a new store at ``path``.

    Array-valued metadata (per-trace schedules) rides along in each
    chunk's sidecar; only scalar provenance goes in the manifest.
    """
    scalar_meta = {
        k: v for k, v in trace_set.metadata.items()
        if not isinstance(v, np.ndarray)
    }
    store = ChunkedTraceStore.create(
        path,
        key=trace_set.key,
        sample_period_ns=trace_set.sample_period_ns,
        metadata=sanitize_metadata(scalar_meta),
    )
    for start in range(0, trace_set.n_traces, chunk_size):
        stop = min(start + chunk_size, trace_set.n_traces)
        store.append(trace_set.subset(np.arange(start, stop)))
    return store


def read_all(store):
    """Every chunk of ``store`` concatenated into one TraceSet."""
    chunks = list(store.iter_chunks())
    return TraceSet(
        traces=np.concatenate([c.traces for c in chunks]),
        plaintexts=np.concatenate([c.plaintexts for c in chunks]),
        ciphertexts=np.concatenate([c.ciphertexts for c in chunks]),
        key=store.key,
        completion_times_ns=np.concatenate(
            [c.completion_times_ns for c in chunks]
        ),
        sample_period_ns=store.sample_period_ns,
        metadata=store.metadata,
    )


@pytest.fixture(scope="module")
def trace_set(unprotected_traceset):
    return unprotected_traceset.subset(np.arange(64))


@pytest.fixture
def store(tmp_path, trace_set):
    return write_store(trace_set, tmp_path / "store", chunk_size=20)


class TestLifecycle:
    def test_create_then_open(self, tmp_path, key):
        ChunkedTraceStore.create(tmp_path / "s", key=key, sample_period_ns=4.0)
        store = ChunkedTraceStore.open(tmp_path / "s")
        assert store.key == key
        assert store.n_chunks == 0
        assert store.n_traces == 0
        assert store.n_samples is None

    def test_create_refuses_existing_store(self, tmp_path, key):
        ChunkedTraceStore.create(tmp_path / "s", key=key, sample_period_ns=4.0)
        with pytest.raises(AcquisitionError):
            ChunkedTraceStore.create(tmp_path / "s", key=key, sample_period_ns=4.0)

    def test_create_validates_inputs(self, tmp_path, key):
        with pytest.raises(ConfigurationError):
            ChunkedTraceStore.create(tmp_path / "a", key=b"short", sample_period_ns=4.0)
        with pytest.raises(ConfigurationError):
            ChunkedTraceStore.create(tmp_path / "b", key=key, sample_period_ns=0.0)

    def test_open_missing_store(self, tmp_path):
        with pytest.raises(AcquisitionError):
            ChunkedTraceStore.open(tmp_path / "nowhere")

    def test_open_corrupt_manifest(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(AcquisitionError):
            ChunkedTraceStore.open(tmp_path)

    def test_open_incomplete_manifest(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"version": 1}))
        with pytest.raises(AcquisitionError):
            ChunkedTraceStore.open(tmp_path)

    def test_open_future_version_rejected(self, tmp_path, key):
        ChunkedTraceStore.create(tmp_path, key=key, sample_period_ns=4.0)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["version"] = 99
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(AcquisitionError):
            ChunkedTraceStore.open(tmp_path)

    def test_pre_v3_manifest_opens(self, tmp_path, trace_set):
        store = write_store(trace_set, tmp_path / "old", chunk_size=30)
        manifest_path = store.path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 2
        del manifest["dtype"]
        manifest_path.write_text(json.dumps(manifest))
        reopened = ChunkedTraceStore.open(store.path)
        assert reopened.dtype is None
        np.testing.assert_array_equal(
            read_all(reopened).traces, trace_set.traces
        )

    def test_open_refuses_removed_compressed_encoding(self, tmp_path, key):
        # Stores written with the former per-field zlib encoding hold
        # .npz chunk fields; opening one must fail, never misread it.
        ChunkedTraceStore.create(tmp_path, key=key, sample_period_ns=4.0)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["compression"] = "zstd-npz"
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(AcquisitionError, match="no longer readable"):
            ChunkedTraceStore.open(tmp_path)


class TestAppend:
    def test_append_indexes_chunks(self, store):
        assert store.n_chunks == 4  # 64 traces in chunks of 20
        assert store.chunk_sizes() == [20, 20, 20, 4]
        assert store.n_traces == 64

    def test_append_rejects_wrong_key(self, store, trace_set):
        bad = TraceSet(
            traces=trace_set.traces,
            plaintexts=trace_set.plaintexts,
            ciphertexts=trace_set.ciphertexts,
            key=bytes(16),
            completion_times_ns=trace_set.completion_times_ns,
            sample_period_ns=trace_set.sample_period_ns,
        )
        with pytest.raises(AcquisitionError):
            store.append(bad)

    def test_append_rejects_wrong_sample_period(self, store, trace_set):
        bad = TraceSet(
            traces=trace_set.traces,
            plaintexts=trace_set.plaintexts,
            ciphertexts=trace_set.ciphertexts,
            key=trace_set.key,
            completion_times_ns=trace_set.completion_times_ns,
            sample_period_ns=trace_set.sample_period_ns * 2,
        )
        with pytest.raises(AcquisitionError):
            store.append(bad)

    def test_append_rejects_wrong_sample_count(self, store, trace_set):
        bad = TraceSet(
            traces=trace_set.traces[:, :100],
            plaintexts=trace_set.plaintexts,
            ciphertexts=trace_set.ciphertexts,
            key=trace_set.key,
            completion_times_ns=trace_set.completion_times_ns,
            sample_period_ns=trace_set.sample_period_ns,
        )
        with pytest.raises(AcquisitionError):
            store.append(bad)

    def test_dtype_pinned_by_first_append(self, tmp_path, trace_set):
        store = ChunkedTraceStore.create(
            tmp_path / "pin",
            key=trace_set.key,
            sample_period_ns=trace_set.sample_period_ns,
        )
        assert store.dtype is None
        first = trace_set.subset(np.arange(20))
        store.append(first)
        assert store.dtype == "float64"
        narrowed = first.subset(np.arange(20))
        narrowed.traces = narrowed.traces.astype(np.float32)
        with pytest.raises(AcquisitionError, match="pinned"):
            store.append(narrowed)


class TestReading:
    def test_round_trip_exact(self, store, trace_set):
        loaded = read_all(store)
        np.testing.assert_array_equal(loaded.traces, trace_set.traces)
        np.testing.assert_array_equal(loaded.plaintexts, trace_set.plaintexts)
        np.testing.assert_array_equal(loaded.ciphertexts, trace_set.ciphertexts)
        np.testing.assert_array_equal(
            loaded.completion_times_ns, trace_set.completion_times_ns
        )
        assert loaded.key == trace_set.key
        assert loaded.sample_period_ns == trace_set.sample_period_ns

    def test_iter_chunks_in_order(self, store, trace_set):
        start = 0
        for chunk in store.iter_chunks():
            n = chunk.n_traces
            np.testing.assert_array_equal(
                chunk.traces, trace_set.traces[start : start + n]
            )
            start += n
        assert start == trace_set.n_traces

    def test_memmap_chunk(self, store, trace_set):
        chunk = store.chunk(0, mmap=True)
        assert isinstance(chunk.traces, np.memmap)
        np.testing.assert_array_equal(np.asarray(chunk.traces), trace_set.traces[:20])

    def test_chunk_index_out_of_range(self, store):
        with pytest.raises(AcquisitionError):
            store.chunk(99)

    def test_missing_chunk_file_detected(self, tmp_path, store):
        (store.path / "chunk-00001.traces.npy").unlink()
        reopened = ChunkedTraceStore.open(store.path)
        with pytest.raises(AcquisitionError):
            reopened.chunk(1)


class TestMetadata:
    def test_array_metadata_round_trips_via_sidecar(self, tmp_path, key):
        store = ChunkedTraceStore.create(tmp_path / "s", key=key, sample_period_ns=4.0)
        rng = np.random.default_rng(0)
        taps = rng.integers(0, 4, size=(8, 11))
        chunk = TraceSet(
            traces=rng.normal(size=(8, 32)),
            plaintexts=rng.integers(0, 256, (8, 16), dtype=np.uint8),
            ciphertexts=rng.integers(0, 256, (8, 16), dtype=np.uint8),
            key=key,
            completion_times_ns=np.full(8, 229.0),
            sample_period_ns=4.0,
            metadata={"countermeasure": "test", "taps": taps},
        )
        store.append(chunk)
        loaded = ChunkedTraceStore.open(store.path).chunk(0)
        assert loaded.metadata["countermeasure"] == "test"
        np.testing.assert_array_equal(loaded.metadata["taps"], taps)
        # The manifest itself stays array-free.
        manifest = json.loads((store.path / MANIFEST_NAME).read_text())
        assert "taps" not in manifest["chunks"][0]["metadata"]

    def test_store_metadata_preserved(self, tmp_path, key):
        store = ChunkedTraceStore.create(
            tmp_path / "s", key=key, sample_period_ns=4.0, metadata={"target": "x"}
        )
        assert ChunkedTraceStore.open(store.path).metadata == {"target": "x"}


class TestBridge:
    def test_real_campaign_chunks_carry_schedule_metadata(self, tmp_path):
        from repro.pipeline import CampaignSpec

        device = CampaignSpec(
            target="rftc", m_outputs=1, p_configs=4, plan_seed=3
        ).build_device(np.random.default_rng(4))
        ts = AcquisitionCampaign(device, seed=1).collect(12)
        store = write_store(ts, tmp_path / "s", chunk_size=6)
        chunk = store.chunk(0)
        assert "countermeasure" in store.metadata or "countermeasure" in chunk.metadata
