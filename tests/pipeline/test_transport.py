"""The chunk transport moves bytes, never science.

The engine ships pooled chunks through shared memory when the host has
it and through the pickle pipe otherwise; the tests force the pickle
path by patching ``shm_available``.  Campaign results must be
bit-identical across {pickle, shm} transports and any worker count,
shared-memory segments must never outlive the campaign (normal exit,
worker death, chunk timeout, a failed publish), and the engine's
teardown — SIGKILL and reap its own workers, then sweep — starts no
thread.
"""

import itertools
import multiprocessing
import os
import pickle
import threading

import numpy as np
import pytest

from repro.attacks import IncrementalCpaBank
from repro.obs import Observability
from repro.pipeline import CampaignSpec, CpaStreamConsumer, StreamingCampaign
from repro.pipeline import engine as engine_module
from repro.pipeline import shm as shm_transport
from repro.power import TraceSet
from repro.testing.faults import FaultPlan

TRACES = 1600
CHUNK = 400
N_CHUNKS = TRACES // CHUNK

requires_shm = pytest.mark.skipif(
    not shm_transport.shm_available(),
    reason="POSIX shared memory unavailable on this host",
)


def _run(workers=2, faults=None, obs=None, timeout=None):
    spec = CampaignSpec(target="unprotected", noise_std=2.0)
    engine = StreamingCampaign(
        spec,
        chunk_size=CHUNK,
        workers=workers,
        seed=9,
        faults=faults,
        obs=obs,
        chunk_timeout_s=timeout,
    )
    return engine.run(TRACES, consumers=[CpaStreamConsumer(byte_index=0)])


def _ring_segments():
    """Names of RFTC ring segments currently present in /dev/shm."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return set()
    return {n for n in os.listdir(shm_dir) if n.startswith("rftc-shm-")}


def _force_pickle(monkeypatch):
    monkeypatch.setattr(shm_transport, "shm_available", lambda: False)


def test_results_identical_across_transports_and_worker_counts(monkeypatch):
    baseline = _run(workers=1)
    assert baseline.transport == "inline"
    transports = ["pickle"]
    if shm_transport.shm_available():
        transports.append("shm-ring")
    for transport in transports:
        with monkeypatch.context() as patch:
            if transport == "pickle":
                _force_pickle(patch)
            for workers in (2, 4):
                report = _run(workers=workers)
                assert report.transport == transport
                np.testing.assert_array_equal(
                    report.results["cpa[0]"].peak_corr,
                    baseline.results["cpa[0]"].peak_corr,
                )


@requires_shm
def test_shm_transport_reported_counted_and_swept():
    before = _ring_segments()
    obs = Observability.create()
    report = _run(workers=2, obs=obs)
    assert report.transport == "shm-ring"
    assert obs.metrics.counter_value("campaign_shm_chunks_total") == N_CHUNKS
    assert _ring_segments() <= before


@requires_shm
def test_summaries_ride_in_the_ring_slot_not_the_pipe():
    """A published chunk's summaries come back equal from the slot, a
    strided array among them, while the handle the result pipe carries
    stays a few kB next to a 4 MB full-key CPA summary."""
    rng = np.random.default_rng(4)
    chunk = TraceSet(
        traces=rng.normal(size=(CHUNK, 256)).astype(np.float32),
        plaintexts=rng.integers(0, 256, (CHUNK, 16), dtype=np.uint8),
        ciphertexts=rng.integers(0, 256, (CHUNK, 16), dtype=np.uint8),
        key=bytes(16),
        completion_times_ns=rng.uniform(size=CHUNK),
        sample_period_ns=1.0,
        metadata={"chunk_index": 0},
    )
    summary = IncrementalCpaBank().chunk_summary(
        chunk.traces, chunk.ciphertexts
    )
    assert not summary.sum_pt.flags.c_contiguous  # a GEMM column slice
    assert summary.sum_pt.nbytes > 4_000_000
    ring = shm_transport.ChunkTransportRing(multiprocessing.get_context(), 1)
    publisher = ring.publisher(0)
    try:
        handle = publisher.publish(chunk, [summary, ("tag", 7)])
        assert len(pickle.dumps(handle)) < 8192
        received, (shipped, extra) = ring.receive(handle, key=chunk.key)
    finally:
        ring.unlink_all()
    np.testing.assert_array_equal(received.traces, chunk.traces)
    assert extra == ("tag", 7)
    for name in ("sum_t", "sum_t2", "sum_p", "sum_p2", "sum_pt"):
        np.testing.assert_array_equal(
            getattr(shipped, name), getattr(summary, name)
        )
    assert shipped.n_traces == summary.n_traces


def test_auto_transport_falls_back_to_pickle(monkeypatch):
    _force_pickle(monkeypatch)
    report = _run(workers=2)
    assert report.transport == "pickle"


@requires_shm
def test_pool_death_under_shm_degrades_bit_identical_and_sweeps():
    baseline = _run(workers=1)
    before_segments = _ring_segments()
    before_threads = set(threading.enumerate())
    report = _run(workers=2, faults=FaultPlan(pool_breaks=(1,)))
    assert report.degraded
    assert report.transport == "shm-ring"
    np.testing.assert_array_equal(
        report.results["cpa[0]"].peak_corr,
        baseline.results["cpa[0]"].peak_corr,
    )
    # Every ring segment retired despite the mid-campaign worker loss.
    assert _ring_segments() <= before_segments
    assert set(threading.enumerate()) == before_threads


@pytest.mark.parametrize(
    "transport",
    ["pickle", pytest.param("shm-ring", marks=requires_shm)],
)
@pytest.mark.parametrize(
    "faults", [None, "pool@1"], ids=["healthy", "degraded"]
)
def test_the_engine_starts_no_thread(monkeypatch, transport, faults):
    """Workers are processes the engine kills and reaps itself: no
    thread runs beside the fold, healthy or degraded."""
    if transport == "pickle":
        _force_pickle(monkeypatch)
    before = set(threading.enumerate())
    seen = []
    spec = CampaignSpec(target="unprotected", noise_std=2.0)
    report = StreamingCampaign(
        spec, chunk_size=CHUNK, workers=2, seed=9,
        faults=FaultPlan.parse(faults) if faults else None,
    ).run(TRACES, progress=lambda _: seen.append(set(threading.enumerate())))
    assert report.transport == transport
    assert report.degraded == (faults is not None)
    assert len(seen) == N_CHUNKS
    assert all(threads == before for threads in seen)
    assert set(threading.enumerate()) == before


@requires_shm
@pytest.mark.parametrize("failing_chunk", [0, 1, 3])
def test_midrun_shm_alloc_failure_finishes_inline_bit_identical(
    failing_chunk,
):
    """A chunk that cannot be published takes the dead-pool path: the
    chunks before it arrive through the ring, it and every later chunk
    are acquired inline."""
    baseline = _run(workers=1)
    before = _ring_segments()
    obs = Observability.create()
    report = _run(
        workers=2,
        faults=FaultPlan.parse(f"shm-alloc-fail@{failing_chunk}"),
        obs=obs,
    )
    assert report.degraded
    assert report.degraded_chunks == N_CHUNKS - failing_chunk
    assert "DEGRADED to inline" in report.summary()
    assert obs.metrics.counter_value("campaign_pool_failures_total") == 1
    np.testing.assert_array_equal(
        report.results["cpa[0]"].peak_corr,
        baseline.results["cpa[0]"].peak_corr,
    )
    assert _ring_segments() <= before


def test_startup_ring_failure_uses_pickle_without_degrading(monkeypatch):
    baseline = _run(workers=1)

    def _explode(*args, **kwargs):
        raise OSError(28, "injected: no space on /dev/shm at startup")

    monkeypatch.setattr(shm_transport, "shm_available", lambda: True)
    monkeypatch.setattr(shm_transport, "ChunkTransportRing", _explode)
    report = _run(workers=2)
    assert report.transport == "pickle"
    assert not report.degraded
    np.testing.assert_array_equal(
        report.results["cpa[0]"].peak_corr,
        baseline.results["cpa[0]"].peak_corr,
    )


def test_healthy_run_reports_no_transport_degradation():
    report = _run(workers=2)
    assert not report.degraded
    assert "DEGRADED" not in report.summary()


@requires_shm
def test_leak_scan_and_sweep_roundtrip():
    from multiprocessing import shared_memory

    name = "rftc-shm-test-leak-scan"
    segment = shared_memory.SharedMemory(name=name, create=True, size=64)
    segment.close()
    try:
        assert name in shm_transport.leaked_segments()
        swept = shm_transport.sweep_prefix("rftc-shm-test-")
        assert name in swept
        assert name not in shm_transport.leaked_segments()
    finally:
        # In case the sweep failed, do not leak out of the test.
        try:
            leftover = shared_memory.SharedMemory(name=name)
            leftover.close()
            leftover.unlink()
        except FileNotFoundError:
            pass


@requires_shm
def test_sweep_unlinks_empty_unmappable_segment():
    """A SIGKILL between shm_open and ftruncate leaves a 0-byte segment,
    which cannot be mapped; the sweep must unlink it, not crash."""
    name = "rftc-shm-test-empty-segment"
    path = os.path.join("/dev/shm", name)
    os.close(os.open(path, os.O_CREAT | os.O_RDWR, 0o600))
    try:
        assert os.path.getsize(path) == 0
        swept = shm_transport.sweep_prefix("rftc-shm-test-")
        assert name in swept
        assert name not in shm_transport.leaked_segments()
    finally:
        # In case the sweep failed, do not leak out of the test.
        if os.path.exists(path):
            os.unlink(path)


@requires_shm
def test_stale_empty_segment_under_ring_name_is_reclaimed(monkeypatch):
    """A 0-byte segment already holding a ring's names (a SIGKILLed
    campaign whose PID came round again) must neither fail the campaign
    nor outlive its sweep."""
    baseline = _run(workers=1)
    ring_index = 10**6
    monkeypatch.setattr(
        shm_transport, "_RING_COUNTER", itertools.count(ring_index)
    )
    prefix = f"{shm_transport.SEGMENT_PREFIX}{os.getpid()}-{ring_index}"
    planted = {
        shm_transport.ring_segment_name(prefix, worker, slot)
        for worker in range(2)
        for slot in range(shm_transport.RING_SLOTS)
    }
    for name in planted:
        os.close(os.open(os.path.join("/dev/shm", name), os.O_CREAT, 0o600))
    try:
        report = _run(workers=2)
        assert report.transport == "shm-ring"
        np.testing.assert_array_equal(
            report.results["cpa[0]"].peak_corr,
            baseline.results["cpa[0]"].peak_corr,
        )
        assert not planted & _ring_segments()
    finally:
        for name in planted & _ring_segments():
            os.unlink(os.path.join("/dev/shm", name))


@requires_shm
def test_sigkilled_campaign_tree_leak_is_swept(tmp_path):
    """Tree-wide SIGKILL is the one true leak path; sweep reclaims it."""
    import signal
    import subprocess
    import sys
    import time

    script = (
        "from repro.pipeline import CampaignSpec, StreamingCampaign\n"
        "spec = CampaignSpec(target='unprotected', noise_std=2.0)\n"
        "engine = StreamingCampaign(spec, chunk_size=200, workers=2,\n"
        "                           seed=5)\n"
        "engine.run(200000)\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    before = _ring_segments()
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        env=env,
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if _ring_segments() - before:
                break
            if proc.poll() is not None:
                pytest.fail("campaign subprocess exited before mapping shm")
            time.sleep(0.05)
        else:
            pytest.fail("campaign subprocess never mapped ring segments")
        # Kill the whole tree at once: parent, workers, and the
        # resource tracker all die before anyone can unlink.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - kill failed
            proc.kill()
            proc.wait()
    leaked = set(shm_transport.leaked_segments()) - before
    assert leaked, "tree-wide SIGKILL should have orphaned ring segments"
    swept = shm_transport.sweep_prefix()
    assert leaked <= set(swept)
    assert set(shm_transport.leaked_segments()) <= before


@requires_shm
def test_chunk_timeout_under_shm_degrades_bit_identical_and_sweeps():
    baseline = _run(workers=1)
    before = _ring_segments()
    # A timeout far below one chunk's acquisition cost: the first
    # pool collect expires, the engine abandons the pool and limps
    # home inline — same bytes, swept ring.
    report = _run(workers=2, timeout=1e-3)
    assert report.degraded
    np.testing.assert_array_equal(
        report.results["cpa[0]"].peak_corr,
        baseline.results["cpa[0]"].peak_corr,
    )
    assert _ring_segments() <= before
