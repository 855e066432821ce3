"""Chaos soak: flood the campaign service while injecting system faults.

Every fault class from ``repro.testing.faults`` hits a live deployment
in one run — disk exhaustion inside store jobs (``enospc@k``), a torn
journal tail across a daemon restart, shared-memory allocation failure
mid-campaign (``shm-alloc-fail@k``), a slow-loris client, and a stalled
HTTP front-end under active waiters — and the harness then audits the
wreckage:

* **zero stuck jobs** — every submitted job reaches a terminal state;
* **zero leaked segments** — ``/dev/shm`` holds no ``rftc-shm-*`` ring
  the run created;
* **zero quota drift** — per-tenant store accounting equals the bytes
  actually persisted, with ENOSPC-failed jobs charging nothing;
* **bit-identical results** — every job that succeeded under chaos
  returns exactly the payload a fault-free reference service computed.

Modes::

    python benchmarks/soak_service_chaos.py            # full soak
    python benchmarks/soak_service_chaos.py --quick    # CI budget
    python benchmarks/soak_service_chaos.py --out SOAK_chaos.json
"""

import argparse
import json
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.errors import ServiceError
from repro.pipeline import CampaignSpec, CpaStreamConsumer, StreamingCampaign
from repro.pipeline import shm as shm_transport
from repro.service import CampaignService, JobStore
from repro.service.client import ServiceClient
from repro.service.server import CampaignServer
from repro.testing.faults import FaultPlan, tear_journal_tail

SCHEMA = "rftc-soak-chaos/1"
TENANTS = ("alice", "bob", "carol")
TERMINAL = ("done", "failed", "cancelled")


class SoakFailure(RuntimeError):
    pass


def check(condition, message):
    if not condition:
        raise SoakFailure(message)


def small_spec():
    return CampaignSpec(target="rftc", m_outputs=1, p_configs=16, plan_seed=7)


def job_plan(job):
    """Deterministic fault targeting: every third store job hits ENOSPC."""
    if job.store and job.requested_seed % 3 == 0:
        return FaultPlan.parse("enospc@1")
    return None


def is_enospc_target(seed, store):
    return store and seed % 3 == 0


def reference_results(n_jobs, n_traces, chunk_size, data_dir):
    """Fault-free ground truth: (tenant, seed) -> result payload."""
    service = CampaignService(data_dir, worker_budget=2)
    service.start()
    try:
        jobs = {}
        for i in range(n_jobs):
            tenant = TENANTS[i % len(TENANTS)]
            store = i % 2 == 1
            if is_enospc_target(i, store):
                continue  # chaos will fail these; no ground truth needed
            job = service.submit(
                small_spec(), n_traces, chunk_size=chunk_size, seed=i,
                tenant=tenant, store=store,
            )
            jobs[(tenant, i)] = job.job_id
        check(service.join(timeout=600), "reference drain timed out")
        return {
            key: service.result(job_id) for key, job_id in jobs.items()
        }
    finally:
        service.shutdown()


def submit_with_shed_retry(client, n_traces, chunk_size, seed, tenant, store,
                           stats):
    """Submit, honouring 503 + Retry-After like a well-behaved client."""
    for _attempt in range(50):
        try:
            return client.submit(
                small_spec(), n_traces, chunk_size=chunk_size, seed=seed,
                tenant=tenant, store=store,
            )
        except ServiceError as exc:
            if "503" not in str(exc):
                raise
            stats["sheds_seen"] += 1
            time.sleep(0.1)
    raise SoakFailure("service never drained below the shed bound")


def slow_loris_phase(host, port, stats):
    """A stalled request must be cut off with 408, not hold a slot."""
    with socket.create_connection((host, port), timeout=30.0) as sock:
        sock.sendall(
            b"POST /v1/jobs HTTP/1.1\r\nHost: soak\r\nContent-Length: 64\r\n\r\n"
        )
        response = sock.recv(65536)
    check(response.startswith(b"HTTP/1.1 408 "),
          f"slow-loris got {response[:40]!r}, wanted 408")
    stats["slow_client_408"] = True


def stalled_server_phase(service, server, host, port, client, job_id, stats):
    """Kill and restart the HTTP front-end under an active waiter."""
    server.stop()
    outcome = {}

    def _wait():
        try:
            outcome["doc"] = client.wait(job_id, timeout=120.0, jitter_seed=1)
        except Exception as exc:  # noqa: BLE001 - audited below
            outcome["error"] = exc

    waiter = threading.Thread(target=_wait)
    waiter.start()
    time.sleep(0.5)  # the waiter is polling a dead port now
    restarted = CampaignServer(
        service, host=host, port=port, read_timeout_s=0.5
    )
    restarted.start()
    waiter.join(timeout=120.0)
    check(not waiter.is_alive(), "waiter wedged across the server restart")
    check("error" not in outcome,
          f"wait failed across restart: {outcome.get('error')}")
    check(outcome["doc"]["state"] in TERMINAL,
          f"job {job_id} not terminal after restart")
    stats["stalled_server_survived"] = True
    return restarted


def chaos_service_phase(n_jobs, n_traces, chunk_size, data_dir, stats,
                        reference):
    service = CampaignService(
        data_dir, worker_budget=2, shed_queue_depth=max(4, n_jobs // 4),
        job_faults=job_plan,
    )
    service.start()
    server = CampaignServer(service, read_timeout_s=0.5)
    host, port = server.start()
    client = ServiceClient(host, port)
    submitted = []  # (tenant, seed, store, job_id)
    try:
        for i in range(n_jobs):
            tenant = TENANTS[i % len(TENANTS)]
            store = i % 2 == 1
            doc = submit_with_shed_retry(
                client, n_traces, chunk_size, i, tenant, store, stats
            )
            submitted.append((tenant, i, store, doc["job_id"]))

        slow_loris_phase(host, port, stats)
        server = stalled_server_phase(
            service, server, host, port, client, submitted[-1][3], stats
        )

        check(service.join(timeout=600), "chaos drain timed out")
        check(client.ready(), "service still shedding after the drain")

        # -- audit -----------------------------------------------------
        expected_bytes = dict.fromkeys(TENANTS, 0)
        for tenant, seed, store, job_id in submitted:
            doc = service.status(job_id)
            check(doc["state"] in TERMINAL,
                  f"job {job_id} stuck in state {doc['state']}")
            if is_enospc_target(seed, store):
                stats["enospc_failed_jobs"] += 1
                check(doc["state"] == "failed",
                      f"ENOSPC job {job_id} ended {doc['state']}, not failed")
                check("out of disk" in (doc["error"] or ""),
                      f"ENOSPC job {job_id} failed for the wrong reason: "
                      f"{doc['error']!r}")
                check(doc["store_bytes"] == 0,
                      f"failed job {job_id} still charges "
                      f"{doc['store_bytes']} bytes")
                partial = Path(data_dir) / "stores" / tenant / job_id
                check(not partial.exists(),
                      f"failed job {job_id} left a partial store behind")
            else:
                check(doc["state"] == "done",
                      f"job {job_id} ended {doc['state']}, not done")
                expected_bytes[tenant] += doc["store_bytes"]
                result = service.result(job_id)
                check(result == reference[(tenant, seed)],
                      f"job {job_id} result drifted from the fault-free "
                      f"reference")
                stats["bit_identical_results"] += 1
        for tenant in TENANTS:
            usage = service.store_usage(tenant)
            check(usage == expected_bytes[tenant],
                  f"tenant {tenant} quota drift: charged {usage}, "
                  f"persisted {expected_bytes[tenant]}")
        stats["quota_drift_bytes"] = 0
    finally:
        server.stop()
        service.shutdown()
    return submitted


def torn_journal_phase(data_dir, submitted, stats):
    """Tear the journal tail, restart, and demand full recovery."""
    journal = Path(data_dir) / "jobs.jsonl"
    tear_journal_tail(journal, keep_fraction=0.5)
    probe = JobStore(journal)
    check(probe.torn_line is not None, "journal tear was not detected")
    probe.close()
    stats["journal_torn_repaired"] = True

    # The torn final record was one job's terminal update; recovery must
    # requeue and re-run it, then compaction shrinks the journal.
    service = CampaignService(data_dir, worker_budget=2, job_faults=job_plan,
                              compact_journal=True)
    service.start()
    try:
        check(service.join(timeout=600), "post-tear drain timed out")
        for _tenant, _seed, _store, job_id in submitted:
            state = service.status(job_id)["state"]
            check(state in TERMINAL,
                  f"job {job_id} stuck in {state} after journal tear")
        compacted = service.metrics.counter_value(
            "service_journal_compactions_total"
        )
        check(compacted == 1, "restart did not compact the journal")
        stats["post_tear_stuck_jobs"] = 0
    finally:
        service.shutdown()


def shm_chaos_phase(n_traces, chunk_size, stats):
    """Mid-run shm allocation failure must finish inline bit-identically."""
    if not shm_transport.shm_available():
        stats["shm_degraded_bit_identical"] = "skipped (no /dev/shm)"
        return
    spec = CampaignSpec(target="unprotected", noise_std=2.0)

    def run(**kwargs):
        engine = StreamingCampaign(
            spec, chunk_size=chunk_size, seed=11, **kwargs
        )
        return engine.run(
            n_traces, consumers=[CpaStreamConsumer(byte_index=0)]
        )

    baseline = run(workers=1)
    report = run(workers=2, faults=FaultPlan.parse("shm-alloc-fail@1"))
    check(report.degraded, "shm fault did not degrade the run to inline")
    check(
        np.array_equal(
            report.results["cpa[0]"].peak_corr,
            baseline.results["cpa[0]"].peak_corr,
        ),
        "degraded run changed the science",
    )
    stats["shm_degraded_bit_identical"] = True


def run_soak(n_jobs, n_traces, chunk_size):
    stats = {
        "sheds_seen": 0,
        "enospc_failed_jobs": 0,
        "bit_identical_results": 0,
        "slow_client_408": False,
        "stalled_server_survived": False,
        "journal_torn_repaired": False,
        "post_tear_stuck_jobs": None,
        "quota_drift_bytes": None,
        "shm_degraded_bit_identical": False,
        "leaked_segments": None,
    }
    segments_before = set(shm_transport.leaked_segments())
    with tempfile.TemporaryDirectory(prefix="rftc-soak-ref-") as ref_dir, \
            tempfile.TemporaryDirectory(prefix="rftc-soak-chaos-") as chaos_dir:
        print(f"reference: {n_jobs} fault-free jobs ...")
        reference = reference_results(n_jobs, n_traces, chunk_size, ref_dir)
        print(f"chaos: {n_jobs} jobs with injected system faults ...")
        submitted = chaos_service_phase(
            n_jobs, n_traces, chunk_size, chaos_dir, stats, reference
        )
        print("chaos: tearing the journal tail across a restart ...")
        torn_journal_phase(chaos_dir, submitted, stats)
    print("chaos: shared-memory allocation failure mid-campaign ...")
    shm_chaos_phase(max(800, 4 * chunk_size), min(chunk_size * 5, 400), stats)

    leaked = sorted(set(shm_transport.leaked_segments()) - segments_before)
    stats["leaked_segments"] = leaked
    check(not leaked, f"leaked /dev/shm segments: {leaked}")
    check(stats["enospc_failed_jobs"] > 0, "no job exercised the ENOSPC path")
    check(stats["bit_identical_results"] > 0, "no surviving job was audited")
    return stats


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Campaign-service chaos soak (system faults)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI budget: 12 jobs instead of 48",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="campaigns per phase (default 48, quick 12)",
    )
    parser.add_argument(
        "--traces", type=int, default=40,
        help="traces per campaign (default 40; two chunks)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=20,
        help="engine chunk size (default 20)",
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON report here"
    )
    args = parser.parse_args(argv)
    n_jobs = args.jobs if args.jobs else (12 if args.quick else 48)
    started = time.perf_counter()
    try:
        stats = run_soak(n_jobs, args.traces, args.chunk_size)
    except SoakFailure as exc:
        print(f"SOAK FAILED: {exc}", file=sys.stderr)
        return 1
    report = {
        "schema": SCHEMA,
        "n_jobs": n_jobs,
        "traces_per_job": args.traces,
        "chunk_size": args.chunk_size,
        "wall_seconds": time.perf_counter() - started,
        "stats": stats,
    }
    print(
        f"soak clean in {report['wall_seconds']:.1f} s: "
        f"{stats['enospc_failed_jobs']} ENOSPC failures contained, "
        f"{stats['bit_identical_results']} results bit-identical, "
        f"{stats['sheds_seen']} sheds honoured, zero stuck jobs, "
        f"zero leaked segments, zero quota drift"
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
