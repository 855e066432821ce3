"""A dead or wedged pool worker degrades the run instead of hanging it.

``multiprocessing.Pool`` replaces a worker that dies, but the task the
worker held is lost: with ``chunk_timeout_s=None`` an unbounded wait on
its result never returns.  Here every ``ForkPoolWorker`` is SIGKILLed
from the progress callback right after chunk 0 is folded, on both
transports.  The run must finish well inside 60 s, report ``degraded``,
give results equal to a 1-worker run, and leave no shared-memory segment
behind.

Every chunk from 1 on is held with ``hang@K``: the pool worker that
takes it blocks until it is killed, so whichever worker holds chunk 1
still holds it when the kill lands (a chunk is surely lost), and no
worker is writing a result when it dies.  Inline acquisition never
hangs, so the degraded run acquires those chunks itself.
"""

import multiprocessing
import os
import signal
import threading

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


def _run_within_deadline(engine, progress=None):
    """Run ``engine`` on a thread; fail if it is still running at the deadline."""
    outcome = {}

    def run():
        try:
            outcome["report"] = engine.run(
                N_TRACES, _consumers(), progress=progress
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


def _kill_workers_after_chunk_0(killed):
    def progress(update):
        if update.chunk_index != 0 or killed:
            return
        for proc in multiprocessing.active_children():
            if proc.name.startswith("ForkPoolWorker"):
                os.kill(proc.pid, signal.SIGKILL)
                killed.append(proc.pid)

    return progress


@pytest.mark.parametrize(
    "transport",
    [
        "pickle",
        pytest.param(
            "shm",
            marks=pytest.mark.skipif(
                not shm_transport.shm_available(),
                reason="POSIX shared memory unavailable",
            ),
        ),
    ],
)
def test_killed_worker_degrades_instead_of_hanging(
    transport, reference, monkeypatch
):
    if transport == "pickle":
        monkeypatch.setattr(shm_transport, "shm_available", lambda: False)
    killed = []
    report = _run_within_deadline(
        StreamingCampaign(
            SPEC, chunk_size=CHUNK, seed=SEED, workers=2,
            faults=HELD_CHUNKS, chunk_timeout_s=None,
        ),
        progress=_kill_workers_after_chunk_0(killed),
    )
    assert killed, "the progress callback never killed a worker"
    assert report.degraded and report.degraded_chunks >= 1
    assert report.transport == ("shm-ring" if transport == "shm" else "pickle")
    _assert_same_results(report, reference)


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
