"""Disk exhaustion must never corrupt a ChunkedTraceStore.

An append that dies — injected ``ENOSPC``, short write, or a breached
disk budget — must leave the store exactly as it was: loadable, ``verify``
clean, the failed chunk simply absent, and the next append working.
"""

import errno

import numpy as np
import pytest

from repro.errors import StorageExhaustedError
from repro.obs import Observability
from repro.power.acquisition import TraceSet
from repro.store.chunked import ChunkedTraceStore
from repro.testing.faults import FaultPlan

KEY = bytes(range(16))


def _chunk(n=8, samples=16, seed=0):
    rng = np.random.default_rng(seed)
    return TraceSet(
        traces=rng.normal(size=(n, samples)).astype(np.float32),
        plaintexts=rng.integers(0, 256, size=(n, 16), dtype=np.uint8),
        ciphertexts=rng.integers(0, 256, size=(n, 16), dtype=np.uint8),
        completion_times_ns=rng.integers(1, 100, size=n).astype(np.int64),
        key=KEY,
        sample_period_ns=1.0,
        metadata={"chunk_index": seed},
    )


def _store(tmp_path, **kwargs):
    return ChunkedTraceStore.create(
        tmp_path / "store", key=KEY, sample_period_ns=1.0, **kwargs
    )


class TestInjectedEnospc:
    def test_raises_typed_error_and_cleans_up(self, tmp_path):
        store = _store(tmp_path)
        store.append(_chunk(seed=0))
        store.faults = FaultPlan.parse("enospc@1")
        with pytest.raises(StorageExhaustedError) as err:
            store.append(_chunk(seed=1))
        assert err.value.__cause__.errno == errno.ENOSPC
        # The traces file of chunk 1 was already renamed into place when
        # the plaintexts write died; it must have been deleted again.
        names = {p.name for p in store.path.iterdir()}
        assert not any(n.startswith("chunk-00001") for n in names)

    def test_store_reopens_and_verifies_clean(self, tmp_path):
        store = _store(tmp_path)
        store.append(_chunk(seed=0))
        store.faults = FaultPlan.parse("enospc@1")
        with pytest.raises(StorageExhaustedError):
            store.append(_chunk(seed=1))
        reopened = ChunkedTraceStore.open(store.path)
        assert reopened.n_chunks == 1
        outcome = reopened.verify()
        assert outcome.ok
        assert outcome.missing == [] and outcome.orphaned == []

    def test_append_works_again_after_failure(self, tmp_path):
        store = _store(tmp_path)
        store.faults = FaultPlan.parse("enospc@0")
        with pytest.raises(StorageExhaustedError):
            store.append(_chunk(seed=0))
        store.faults = None
        index = store.append(_chunk(seed=0))
        assert index == 0
        np.testing.assert_array_equal(
            store.chunk(0).traces, _chunk(seed=0).traces
        )

    def test_failure_metric_reason(self, tmp_path):
        obs = Observability.create()
        store = _store(tmp_path)
        store.metrics = obs.metrics
        store.faults = FaultPlan.parse("enospc@0")
        with pytest.raises(StorageExhaustedError):
            store.append(_chunk(seed=0))
        assert (
            obs.metrics.counter_value(
                "store_append_failures_total", reason="enospc"
            )
            == 1
        )


class TestDiskBudget:
    def test_preflight_rejects_before_any_io(self, tmp_path):
        store = _store(tmp_path)
        store.append(_chunk(seed=0))
        files_before = sorted(p.name for p in store.path.iterdir())
        store.disk_budget_bytes = 1
        with pytest.raises(StorageExhaustedError, match="disk budget"):
            store.append(_chunk(seed=1))
        assert sorted(p.name for p in store.path.iterdir()) == files_before

    def test_budget_allows_appends_under_it(self, tmp_path):
        store = _store(tmp_path)
        store.disk_budget_bytes = 10 * 1024 * 1024
        store.append(_chunk(seed=0))
        assert store.n_chunks == 1

    def test_budget_metric_reason(self, tmp_path):
        obs = Observability.create()
        store = _store(tmp_path)
        store.metrics = obs.metrics
        store.disk_budget_bytes = 1
        with pytest.raises(StorageExhaustedError):
            store.append(_chunk(seed=0))
        assert (
            obs.metrics.counter_value(
                "store_append_failures_total", reason="budget"
            )
            == 1
        )


class TestAtomicWrites:
    def test_no_tmp_files_survive_a_clean_append(self, tmp_path):
        store = _store(tmp_path)
        store.append(_chunk(seed=0))
        assert not list(store.path.glob("*.tmp"))

    def test_interrupted_tmp_is_quarantined_on_open(self, tmp_path):
        store = _store(tmp_path)
        store.append(_chunk(seed=0))
        # Simulate a crash between tmp write and rename.
        stray = store.path / "chunk-00001.traces.npy.tmp"
        stray.write_bytes(b"partial")
        reopened = ChunkedTraceStore.open(store.path)
        assert stray.name in reopened.quarantined_files
        assert reopened.verify().ok

    def test_error_is_acquisition_family(self, tmp_path):
        from repro.errors import AcquisitionError

        store = _store(tmp_path)
        store.disk_budget_bytes = 1
        with pytest.raises(AcquisitionError):
            store.append(_chunk(seed=0))


def _assert_failed_cleanly(store_path, n_committed, n_chunks):
    """Committed chunks verify clean; no file of a later chunk remains."""
    store = ChunkedTraceStore.open(store_path, quarantine=False)
    assert store.n_chunks == n_committed
    outcome = store.verify()
    assert outcome.ok and outcome.orphaned == []
    assert not list(store_path.glob("*.tmp"))
    for index in range(n_committed, n_chunks):
        assert not list(store_path.glob(f"chunk-{index:05d}*"))


class TestEngineIntegration:
    """The same failure, cleanup and count whichever process wrote the chunk."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_campaign_fails_cleanly_on_enospc(self, tmp_path, workers):
        from repro.pipeline import CampaignSpec, StreamingCampaign

        obs = Observability.create()
        spec = CampaignSpec(target="unprotected", noise_std=2.0)
        engine = StreamingCampaign(
            spec, chunk_size=50, seed=3, workers=workers, obs=obs,
            faults=FaultPlan.parse("enospc@2"),
        )
        with pytest.raises(StorageExhaustedError):
            engine.run(200, store=str(tmp_path / "campaign"))
        _assert_failed_cleanly(tmp_path / "campaign", 2, 4)
        assert (
            obs.metrics.counter_value(
                "store_append_failures_total", reason="enospc"
            )
            == 1
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_campaign_store_budget_plumbed(self, tmp_path, workers):
        from repro.pipeline import CampaignSpec, StreamingCampaign

        obs = Observability.create()
        spec = CampaignSpec(target="unprotected", noise_std=2.0)
        engine = StreamingCampaign(
            spec, chunk_size=50, seed=3, workers=workers, obs=obs,
            store_budget_bytes=1,
        )
        with pytest.raises(StorageExhaustedError, match="disk budget"):
            engine.run(200, store=str(tmp_path / "campaign"))
        _assert_failed_cleanly(tmp_path / "campaign", 0, 4)
        assert (
            obs.metrics.counter_value(
                "store_append_failures_total", reason="budget"
            )
            == 1
        )
