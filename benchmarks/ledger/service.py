"""The service-openloop workload: many tiny campaigns through the daemon.

The daemon runs as ``python -m repro.cli serve`` (the ``repro-rftc
serve`` entry point) in a subprocess, driven over HTTP by one client
thread holding one connection at a time:

1. open loop: jobs sent on a fixed schedule at :data:`SERVICE_RATE`,
   each timed from when it was *due*, so a stall shows up as latency of
   the jobs behind it (and as generator lag);
2. bursts: jobs sent back to back, each burst timed until its backlog
   drains; the rate is the median over the bursts;
3. resubmission of identical specs, which must all be cache hits.
"""

from __future__ import annotations

import dataclasses
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.ledger.common import (
    ROOT,
    Outcome,
    Scale,
    child_env,
    digest,
    fresh_dir,
    median,
    percentile,
)
from benchmarks.ledger.spans import SpanRecorder

#: Offered open-loop rate in jobs/s: half the daemon's drain capacity of
#: 52 jobs/s measured on the reference machine when it was fast; at ~70%
#: a few percent of outside contention moved the median latency by a
#: third between runs.  The shared host's capacity varies between 21 and
#: 41 jobs/s (see ``baseline.json``), and every job still finishes.
SERVICE_RATE = 26.0
WORKER_BUDGET = 2
TENANTS = ("alice", "bob", "carol", "dave")
JOB_TRACES = 200
JOB_CHUNK = 100
#: Every 4th job checkpoints after each chunk and persists its traces.
PERSIST_EVERY = 4
#: The burst phase is split into this many bursts, each drained before
#: the next; the drain rate is their median.  One 200-job burst spread
#: 15-19% from run to run on the reference machine, because a stall of
#: the shared host lands whole on a single burst.
BURSTS = 5
READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 120.0
TERMINAL = ("done", "failed", "cancelled")


def job_spec():
    from repro.pipeline import CampaignSpec

    return CampaignSpec(target="rftc", m_outputs=1, p_configs=16)


class Daemon:
    """One ``serve`` subprocess on an ephemeral port with its own state."""

    def __init__(self, data_dir: Path):
        self.data_dir = fresh_dir(data_dir)
        self.proc: Optional[subprocess.Popen] = None
        self.client = None

    def start(self) -> float:
        """Start the daemon; returns seconds until ``/healthz/ready``."""
        from repro.service.client import ServiceClient

        started = time.perf_counter()
        self._log = open(self.data_dir / "daemon.log", "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--data-dir", str(self.data_dir / "state"),
                "--worker-budget", str(WORKER_BUDGET),
                "--port", "0",
            ],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"http://([^:\s]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not announce its port: {line!r}")
        self.client = ServiceClient(match.group(1), int(match.group(2)))
        while not self.client.ready():
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited before it was ready")
            if time.perf_counter() - started > READY_TIMEOUT_S:
                self.stop()
                raise RuntimeError("daemon never became ready")
            time.sleep(0.002)
        return time.perf_counter() - started

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()
        self.proc = None


@dataclasses.dataclass(frozen=True)
class Job:
    tenant: str
    seed: int
    persist: bool


def plan_jobs(seed: int, phase: str, count: int) -> List[Job]:
    """The seed-derived job stream of one phase."""
    rng = random.Random(f"service-openloop:{seed}:{phase}")
    return [
        Job(
            tenant=rng.choice(TENANTS),
            seed=rng.randrange(2**31),
            persist=(i % PERSIST_EVERY == PERSIST_EVERY - 1),
        )
        for i in range(count)
    ]


def _submit(client, spec, job: Job, recorder: SpanRecorder) -> dict:
    with recorder.span("service.submit"):
        return client.submit(
            spec, JOB_TRACES, chunk_size=JOB_CHUNK, seed=job.seed,
            tenant=job.tenant, durable=job.persist, store=job.persist,
        )


def _drain(client, ids: List[str]) -> Dict[str, dict]:
    """Wait until every job in ``ids`` is terminal; returns their docs.

    Polls one job at a time (the newest still pending) so the waiting
    client adds almost no load to the daemon it is measuring, then
    confirms with one listing.
    """
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    pending = list(ids)
    docs: Dict[str, dict] = {}
    wanted = set(ids)
    while pending:
        if time.monotonic() > deadline:
            raise RuntimeError(f"{len(pending)} jobs still pending")
        if client.status(pending[-1])["state"] not in TERMINAL:
            time.sleep(0.1)
            continue
        for doc in client.list_jobs():
            if doc["job_id"] in wanted and doc["state"] in TERMINAL:
                docs[doc["job_id"]] = doc
        pending = [job_id for job_id in pending if job_id not in docs]
    return docs


def measure(daemon: Daemon, seed: int, scale: Scale,
            recorder: SpanRecorder) -> Outcome:
    from repro.errors import ServiceError

    client = daemon.client
    spec = job_spec()
    open_jobs = plan_jobs(seed, "open", round(SERVICE_RATE * scale.service_open_s))
    burst_jobs = plan_jobs(seed, "burst", scale.service_burst_jobs)
    refused = 0
    submit_s: List[float] = []
    sent: List[tuple] = []  # (job id, job) of every accepted submission

    def send(job: Job) -> Optional[str]:
        nonlocal refused
        t0 = time.time()
        try:
            doc = _submit(client, spec, job, recorder)
        except (ServiceError, OSError):
            refused += 1
            return None
        submit_s.append(time.time() - t0)
        sent.append((doc["job_id"], job))
        return doc["job_id"]

    started = time.perf_counter()

    # Phase 1: open loop on a fixed schedule.
    lag_s: List[float] = []
    due_at: Dict[str, float] = {}
    first_due = time.time() + 0.05
    for i, job in enumerate(open_jobs):
        due = first_due + i / SERVICE_RATE
        delay = due - time.time()
        if delay > 0:
            time.sleep(delay)
        lag_s.append(time.time() - due)
        job_id = send(job)
        if job_id is not None:
            due_at[job_id] = due
    open_ids = list(due_at)
    open_docs = _drain(client, open_ids)

    # Phase 2: bursts, each timed from its first send to its last finish.
    burst_ids: List[str] = []
    burst_docs: Dict[str, dict] = {}
    burst_rates: List[float] = []
    cuts = [round(b * len(burst_jobs) / BURSTS) for b in range(BURSTS + 1)]
    for lo, hi in zip(cuts, cuts[1:]):
        burst_started = time.time()
        ids = [job_id for job_id in map(send, burst_jobs[lo:hi])
               if job_id is not None]
        docs = _drain(client, ids)
        drained = max(d["finished_at"] for d in docs.values()) - burst_started
        burst_rates.append(len(ids) / drained)
        burst_ids += ids
        burst_docs.update(docs)
    burst_jobs_per_s = median(burst_rates)

    # Phase 3: identical resubmissions of jobs that ran without a store
    # (store jobs always run: the cache holds payloads, not traces).
    reusable = [(job_id, job) for job_id, job in sent if not job.persist]
    reusable = reusable[: scale.service_resubmits]
    hit_s: List[float] = []
    resubmitted: List[tuple] = []
    for original, job in reusable:
        t0 = time.perf_counter()
        with recorder.span("service.resubmit"):
            doc = client.submit(
                spec, JOB_TRACES, chunk_size=JOB_CHUNK, seed=job.seed,
                tenant=job.tenant,
            )
        hit_s.append(time.perf_counter() - t0)
        resubmitted.append((original, doc))
    wall = time.perf_counter() - started

    docs = {**open_docs, **burst_docs}
    not_done = [job_id for job_id, doc in docs.items() if doc["state"] != "done"]
    results = {job_id: client.result(job_id) for job_id in docs
               if docs[job_id]["state"] == "done"}
    missed = [
        doc["job_id"] for original, doc in resubmitted
        if not (doc["cached"] and doc["state"] == "done"
                and client.result(doc["job_id"]) == results.get(original))
    ]
    latency = [docs[j]["finished_at"] - due_at[j] for j in open_ids]
    queue = [docs[j]["started_at"] - docs[j]["submitted_at"] for j in open_ids]
    run = [docs[j]["finished_at"] - docs[j]["started_at"] for j in open_ids]
    layers = {
        "service.latency_p50_s": percentile(latency, 0.5),
        "service.latency_p95_s": percentile(latency, 0.95),
        "service.latency_p99_s": percentile(latency, 0.99),
        "service.latency_samples": float(len(latency)),
        "service.burst_jobs_per_s": burst_jobs_per_s,
        "service.cache_hit_p50_s": median(hit_s),
        "service.generator_lag_max_s": max(lag_s),
        "service.refused": float(refused),
        "service.submit_p50_s": percentile(submit_s, 0.5),
        "service.submit_p99_s": percentile(submit_s, 0.99),
        "service.queue_p50_s": percentile(queue, 0.5),
        "service.queue_p99_s": percentile(queue, 0.99),
        "service.run_p50_s": percentile(run, 0.5),
        "service.run_p99_s": percentile(run, 0.99),
    }
    return Outcome(
        wall_s=wall,
        traces_per_s=JOB_TRACES * burst_jobs_per_s,
        attempted=len(open_jobs) + len(burst_jobs) + len(reusable),
        failed=refused + len(not_done) + len(missed),
        gates={
            "every job done": not not_done and refused == 0,
            "every resubmission a cache hit with the same result": not missed,
        },
        digest=digest([results[j] for j in open_ids + burst_ids if j in results]),
        layers=layers,
    )
