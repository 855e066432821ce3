"""A pool worker killed mid-campaign degrades the run instead of hanging it.

``multiprocessing.Pool`` replaces a worker that dies, but the task the
worker held is lost: with ``chunk_timeout_s=None`` an unbounded wait on
its result never returns.  Here every ``ForkPoolWorker`` is SIGKILLed
from the progress callback right after chunk 0 is folded, on both
transports.  The run must finish well inside 60 s, report ``degraded``,
give results equal to a 1-worker run, and leave no shared-memory segment
behind.

Chunk 1 fails its first three attempts and sits in retry backoff for
2.1 s in all, so whichever worker holds it still holds it when the kill
lands, seconds before it could finish: a chunk is surely lost.  Every
later chunk fails once and backs off 0.3 s, so no worker is writing a
result when it dies.  Retried chunks are bit-identical to clean ones.
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
    RetryPolicy,
    StreamingCampaign,
)
from repro.pipeline import shm as shm_transport
from repro.testing.faults import FaultPlan

N_TRACES = 300
CHUNK = 50
SEED = 31
DEADLINE_S = 60.0

#: Chunk 1 fails three times and backs off 0.3 + 0.6 + 1.2 s; chunks
#: 2.. fail once and back off 0.3 s.
SLOW_RETRY = RetryPolicy(max_attempts=4, backoff_base_s=0.3, jitter_fraction=0.0)
SLOW_CHUNKS = FaultPlan(
    worker_errors=((1, 3),) + tuple((i, 1) for i in range(2, N_TRACES // CHUNK))
)


def _consumers():
    return [CpaStreamConsumer(byte_index=0), CompletionTimeConsumer()]


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
def test_killed_worker_degrades_instead_of_hanging(transport, monkeypatch):
    if transport == "pickle":
        monkeypatch.setattr(shm_transport, "shm_available", lambda: False)
    spec = CampaignSpec(target="unprotected")
    reference = StreamingCampaign(spec, chunk_size=CHUNK, seed=SEED).run(
        N_TRACES, _consumers()
    )

    killed = []
    outcome = {}

    def run():
        try:
            outcome["report"] = StreamingCampaign(
                spec, chunk_size=CHUNK, seed=SEED, workers=2,
                retry=SLOW_RETRY, faults=SLOW_CHUNKS,
                chunk_timeout_s=None,
            ).run(
                N_TRACES, _consumers(),
                progress=_kill_workers_after_chunk_0(killed),
            )
        except BaseException as exc:  # pragma: no cover - reported below
            outcome["error"] = exc

    runner = threading.Thread(target=run, name="campaign", daemon=True)
    runner.start()
    runner.join(DEADLINE_S)
    assert not runner.is_alive(), f"campaign still running after {DEADLINE_S} s"
    assert "error" not in outcome, outcome.get("error")
    report = outcome["report"]

    assert killed, "the progress callback never killed a worker"
    assert report.degraded and report.degraded_chunks >= 1
    assert report.transport == ("shm-ring" if transport == "shm" else "pickle")
    np.testing.assert_array_equal(
        report.results["cpa[0]"].peak_corr,
        reference.results["cpa[0]"].peak_corr,
    )
    assert report.results["completion"].counts == (
        reference.results["completion"].counts
    )
    assert shm_transport.leaked_segments(
        f"{shm_transport.SEGMENT_PREFIX}{os.getpid()}-"
    ) == []
