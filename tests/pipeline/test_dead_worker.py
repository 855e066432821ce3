"""A dead or wedged worker degrades the run instead of hanging it.

The engine's workers are never respawned, and the parent waits on a
worker's exit together with its pipe, so with ``chunk_timeout_s=None`` a
worker that dies degrades the run at once.  Here every engine worker
(``campaign-worker-<w>``) is SIGKILLed from the progress callback right
after chunk 0 is folded, on both transports.  The run must finish,
report ``degraded``, give results equal to a 1-worker run, and leave no
shared-memory segment behind.

In the first case every chunk from 1 on is held with ``hang@K``: the
worker that takes it blocks until it is killed, so the worker that owns
chunk 1 still holds it when the kill lands (a chunk is surely lost).
Inline acquisition never hangs, so the degraded run acquires those
chunks itself.  In the second the workers are idle when killed: each
waits on the parent, blocked on its ring slot or mid-send of a chunk
larger than the pipe buffer, and the run must degrade within 3 s.
"""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.pipeline import (
    CampaignSpec,
    CompletionTimeConsumer,
    CpaStreamConsumer,
    StreamingCampaign,
)
from repro.pipeline import shm as shm_transport
from repro.testing.faults import FaultPlan

N_TRACES = 300
CHUNK = 50
SEED = 31
DEADLINE_S = 60.0
SPEC = CampaignSpec(target="unprotected")

#: Every pool worker that takes a chunk after chunk 0 blocks until killed.
HELD_CHUNKS = FaultPlan(hangs=tuple(range(1, N_TRACES // CHUNK)))


def _consumers():
    return [CpaStreamConsumer(byte_index=0), CompletionTimeConsumer()]


@pytest.fixture(scope="module")
def reference():
    """The fault-free 1-worker run every faulted run must equal."""
    return StreamingCampaign(SPEC, chunk_size=CHUNK, seed=SEED).run(
        N_TRACES, _consumers()
    )


def _assert_same_results(report, reference):
    np.testing.assert_array_equal(
        report.results["cpa[0]"].peak_corr,
        reference.results["cpa[0]"].peak_corr,
    )
    assert report.results["completion"].counts == (
        reference.results["completion"].counts
    )


def _run_within_deadline(engine, progress=None, n_traces=N_TRACES):
    """Run ``engine`` on a thread; fail if it is still running at the deadline."""
    outcome = {}

    def run():
        try:
            outcome["report"] = engine.run(
                n_traces, _consumers(), progress=progress
            )
        except BaseException as exc:  # pragma: no cover - reported below
            outcome["error"] = exc

    runner = threading.Thread(target=run, name="campaign", daemon=True)
    runner.start()
    runner.join(DEADLINE_S)
    assert not runner.is_alive(), f"campaign still running after {DEADLINE_S} s"
    assert "error" not in outcome, outcome.get("error")
    report = outcome["report"]
    assert shm_transport.leaked_segments(
        f"{shm_transport.SEGMENT_PREFIX}{os.getpid()}-"
    ) == []
    return report


class _KillWorkersAfterChunk0:
    """Progress callback: after chunk 0, wait ``settle_s``, then SIGKILL
    every engine worker, recording the pids and when they were killed."""

    def __init__(self, settle_s=0.0):
        self.settle_s = settle_s
        self.pids = []
        self.at = None

    def __call__(self, update):
        if update.chunk_index != 0 or self.at is not None:
            return
        time.sleep(self.settle_s)
        self.at = time.perf_counter()
        for proc in multiprocessing.active_children():
            if proc.name.startswith("campaign-worker-"):
                os.kill(proc.pid, signal.SIGKILL)
                self.pids.append(proc.pid)


TRANSPORTS = [
    "pickle",
    pytest.param(
        "shm",
        marks=pytest.mark.skipif(
            not shm_transport.shm_available(),
            reason="POSIX shared memory unavailable",
        ),
    ),
]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_killed_worker_degrades_instead_of_hanging(
    transport, reference, monkeypatch
):
    if transport == "pickle":
        monkeypatch.setattr(shm_transport, "shm_available", lambda: False)
    kill = _KillWorkersAfterChunk0()
    report = _run_within_deadline(
        StreamingCampaign(
            SPEC, chunk_size=CHUNK, seed=SEED, workers=2,
            faults=HELD_CHUNKS, chunk_timeout_s=None,
        ),
        progress=kill,
    )
    assert len(kill.pids) == 2, "the callback did not kill both workers"
    assert report.degraded and report.degraded_chunks >= 1
    assert report.transport == ("shm-ring" if transport == "shm" else "pickle")
    _assert_same_results(report, reference)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_idle_killed_workers_degrade_within_3_s(transport, monkeypatch):
    """Twelve chunks over 2 workers: while the parent sleeps after chunk
    0, each worker fills its ring (two slots) or the pipe (a 50-trace
    chunk pickles to ~107 kB) and blocks waiting on the parent.  Killed
    there, the run still finishes inline, bit-identical."""
    if transport == "pickle":
        monkeypatch.setattr(shm_transport, "shm_available", lambda: False)
    n_traces = 12 * CHUNK
    reference = StreamingCampaign(SPEC, chunk_size=CHUNK, seed=SEED).run(
        n_traces, _consumers()
    )
    kill = _KillWorkersAfterChunk0(settle_s=0.5)
    report = _run_within_deadline(
        StreamingCampaign(SPEC, chunk_size=CHUNK, seed=SEED, workers=2),
        progress=kill,
        n_traces=n_traces,
    )
    elapsed = time.perf_counter() - kill.at
    assert len(kill.pids) == 2, "the callback did not kill both workers"
    assert report.degraded and report.degraded_chunks >= 1
    assert report.transport == ("shm-ring" if transport == "shm" else "pickle")
    _assert_same_results(report, reference)
    assert elapsed < 3.0, f"degraded run took {elapsed:.1f} s after the kill"


def test_hang_never_blocks_inline_acquisition(reference):
    report = _run_within_deadline(
        StreamingCampaign(
            SPEC, chunk_size=CHUNK, seed=SEED, faults=FaultPlan.parse("hang@1"),
        )
    )
    assert not report.degraded
    _assert_same_results(report, reference)


def test_wedged_worker_times_out_and_degrades(reference):
    report = _run_within_deadline(
        StreamingCampaign(
            SPEC, chunk_size=CHUNK, seed=SEED, workers=2,
            faults=FaultPlan.parse("hang@1"), chunk_timeout_s=1.0,
        )
    )
    assert report.degraded
    assert "DEGRADED" in report.summary()
    _assert_same_results(report, reference)
