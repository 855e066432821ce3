"""Store writes in the acquiring process, commits in the parent.

Whichever process acquires a chunk writes and hashes its files; the
parent commits the manifest entries in chunk order.  These tests pin
what that split must not change: the files are the bytes ``np.save``
wrote and their recorded checksums hash them, a run paused with workers
ahead of the commits leaves no uncommitted file behind (and touches no
file it did not write), and a degraded run's store is identical to a
clean one's.
"""

import json
import time

import numpy as np
import pytest

from repro.errors import AcquisitionError
from repro.pipeline import (
    CampaignSpec,
    CompletionTimeConsumer,
    StreamingCampaign,
)
from repro.power.acquisition import TraceSet
from repro.store import MANIFEST_NAME, ChunkedTraceStore, write_chunk_files
from repro.store.chunked import _sha256
from repro.testing.faults import FaultPlan

SPEC = CampaignSpec(target="rftc", m_outputs=1, p_configs=8)
CHUNK = 50
N_TRACES = 8 * CHUNK
SEED = 17


class _Pause(Exception):
    pass


def _manifest_files(path):
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    return [(c["stem"], c["files"]) for c in manifest["chunks"]]


def _pause_after(chunk_index, linger_s=0.0):
    """A progress callback that stops the run once ``chunk_index`` is folded.

    Lingering on chunk 0 gives the workers time to run ahead of the
    parent, so uncommitted chunk files exist when the pause lands.
    """

    def progress(update):
        if update.chunk_index == 0:
            time.sleep(linger_s)
        if update.chunk_index == chunk_index:
            raise _Pause

    return progress


def test_paused_run_leaves_no_uncommitted_files_and_resumes_identically(
    tmp_path,
):
    StreamingCampaign(SPEC, chunk_size=CHUNK, workers=2, seed=SEED).run(
        N_TRACES, [CompletionTimeConsumer()], store=tmp_path / "ref"
    )
    store_path, ckpt = tmp_path / "s", tmp_path / "campaign.ckpt"
    with pytest.raises(_Pause):
        StreamingCampaign(SPEC, chunk_size=CHUNK, workers=2, seed=SEED).run(
            N_TRACES, [CompletionTimeConsumer()], store=store_path,
            checkpoint=ckpt, progress=_pause_after(1, linger_s=0.5),
        )
    paused = ChunkedTraceStore.open(store_path, quarantine=False)
    assert paused.n_chunks == 2
    outcome = paused.verify()
    assert outcome.ok and outcome.orphaned == []
    assert not list(store_path.glob("*.tmp"))
    assert not (store_path / "quarantine").exists()

    resumed = StreamingCampaign.resume(
        store_path, ckpt, [CompletionTimeConsumer()], workers=2
    )
    assert resumed.resumed_from_chunk == 2
    assert _manifest_files(store_path) == _manifest_files(tmp_path / "ref")
    assert ChunkedTraceStore.open(store_path, quarantine=False).verify().ok


def test_cleanup_spares_files_the_run_did_not_write(tmp_path, key):
    """A store opened with ``quarantine=False`` may hold a user's files."""
    spec = CampaignSpec(target="unprotected", key=key)
    store = ChunkedTraceStore.create(tmp_path / "s", key=key, sample_period_ns=4.0)
    user_files = [
        store.path / "chunk-00005.notes.txt",
        store.path / "chunk-99999.traces.npy",
    ]
    for file in user_files:
        file.write_bytes(b"mine")
    store = ChunkedTraceStore.open(store.path, quarantine=False)
    with pytest.raises(_Pause):
        StreamingCampaign(spec, chunk_size=CHUNK, workers=2, seed=SEED).run(
            N_TRACES, store=store, progress=_pause_after(1, linger_s=0.5)
        )
    for file in user_files:
        assert file.read_bytes() == b"mine"
    leftovers = {f.name for f in store.path.glob("chunk-*")} - {
        f.name for f in user_files
    }
    assert {name.split(".")[0] for name in leftovers} == {
        "chunk-00000", "chunk-00001",
    }


def test_degraded_run_writes_the_same_store(tmp_path):
    """The inline fallback rewrites the stems the dead pool had assigned."""
    StreamingCampaign(SPEC, chunk_size=CHUNK, workers=1, seed=SEED).run(
        N_TRACES, store=tmp_path / "ref"
    )
    report = StreamingCampaign(
        SPEC, chunk_size=CHUNK, workers=2, seed=SEED,
        faults=FaultPlan.parse("pool@3"),
    ).run(N_TRACES, store=tmp_path / "s")
    assert report.degraded
    assert _manifest_files(tmp_path / "s") == _manifest_files(tmp_path / "ref")
    outcome = ChunkedTraceStore.open(tmp_path / "s", quarantine=False).verify()
    assert outcome.ok and outcome.orphaned == []


def _chunk(key):
    rng = np.random.default_rng(0)
    return TraceSet(
        traces=rng.normal(size=(4, 8)),
        plaintexts=rng.integers(0, 256, size=(4, 16), dtype=np.uint8),
        ciphertexts=rng.integers(0, 256, size=(4, 16), dtype=np.uint8),
        completion_times_ns=np.arange(4, dtype=np.int64),
        key=key,
        sample_period_ns=1.0,
        metadata={"set_indices": rng.integers(0, 8, size=(4, 10))},
    )


@pytest.mark.parametrize("compression", ["none", "zstd-npz"])
def test_files_are_the_bytes_numpy_saves(tmp_path, key, compression):
    """Hashing as written must not change a byte of what np.save wrote."""
    chunk = _chunk(key)
    written = write_chunk_files(tmp_path, 0, chunk, compression)
    reference = tmp_path / "reference"
    for suffix, array in (
        ("traces", chunk.traces),
        ("plaintexts", chunk.plaintexts),
        ("ciphertexts", chunk.ciphertexts),
        ("times", chunk.completion_times_ns),
    ):
        with open(reference, "wb") as handle:
            if compression == "zstd-npz":
                np.savez_compressed(handle, data=array)
            else:
                np.save(handle, array)
        ext = "npz" if compression == "zstd-npz" else "npy"
        name = f"chunk-00000.{suffix}.{ext}"
        assert (tmp_path / name).read_bytes() == reference.read_bytes()
        assert written.files[name] == _sha256(reference)
    with open(reference, "wb") as handle:
        np.savez_compressed(handle, set_indices=chunk.metadata["set_indices"])
    assert (tmp_path / "chunk-00000.meta.npz").read_bytes() == reference.read_bytes()


def test_commit_refuses_files_written_for_another_index(tmp_path, key):
    chunk = _chunk(key)
    store = ChunkedTraceStore.create(tmp_path / "s", key=key, sample_period_ns=1.0)
    written = write_chunk_files(store.path, 1, chunk)
    with pytest.raises(AcquisitionError, match="written as chunk 1"):
        store.append(chunk, written)
    assert store.n_chunks == 0
