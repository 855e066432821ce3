"""Service jobs run in long-lived job processes that die with the daemon.

``CampaignService.start`` forks ``worker_budget`` job processes; each
runs one job at a time.  These tests pin what that must not change and
what it must add:

* a SIGKILLed ``serve`` daemon leaves no job process behind;
* a job process SIGKILLed mid-job is replaced at once: a durable job
  resumes from its checkpoint on the new process (bit-identically), any
  other job ends ``failed``, and the service keeps serving;
* cancelling a running job crosses to its process and ends ``cancelled``;
* payloads are byte-identical to a direct ``StreamingCampaign.run`` at
  every worker budget.
"""

import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.pipeline import CampaignSpec, StreamingCampaign
from repro.service import CampaignService, tenant_seed
from repro.service.client import ServiceClient
from repro.service.execution import job_consumers, serialize_report
from tests.service.test_serve_cli import _env

GRACE_S = 3.0
#: A job that cannot finish while a test holds it: 1000 chunks.
HELD_TRACES = 100_000
CHUNK = 100

needs_linux = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs Linux /proc"
)


def small_spec(**overrides):
    fields = dict(target="rftc", m_outputs=1, p_configs=16, plan_seed=7)
    fields.update(overrides)
    return CampaignSpec(**fields)


def direct_payload(spec, n_traces, chunk_size, effective_seed):
    report = StreamingCampaign(
        spec, chunk_size=chunk_size, workers=1, seed=effective_seed
    ).run(n_traces, consumers=job_consumers(spec))
    return serialize_report(report)


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _children(pid):
    """PIDs of the live children of ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry))
    return found


def _wait_until(predicate, what, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.005)


def _process_of(service, job_id):
    """The job process now running ``job_id``."""
    with service._cond:
        return next(p for p in service._processes if p.job_id == job_id)


@needs_linux
def test_killed_daemon_leaves_no_job_process(tmp_path):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--data-dir", str(tmp_path / "svc"),
            "--port", "0", "--worker-budget", "2",
        ],
        cwd=tmp_path, env=_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    children = []
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        banner = proc.stdout.readline() if ready else ""
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        assert match, f"no listen banner in {banner!r}"
        client = ServiceClient(match.group(1), int(match.group(2)))
        job = client.submit(small_spec(), HELD_TRACES, chunk_size=CHUNK)
        _wait_until(
            lambda: client.status(job["job_id"])["state"] == "running",
            "the job never started",
        )
        children = _children(proc.pid)
        assert len(children) == 2, children
    finally:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + GRACE_S
    while True:
        alive = [pid for pid in children if _running(pid)]
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for pid in alive:  # do not leak them into the rest of the suite
        os.kill(pid, signal.SIGKILL)
    assert alive == [], f"job processes {alive} outlived their daemon"


def test_job_process_killed_mid_job_is_replaced(tmp_path):
    """Policy: a durable job resumes from its checkpoint on the new
    process, once; any other job ends ``failed``."""
    spec = small_spec()
    n_traces, chunk = 20_000, 500
    with CampaignService(tmp_path / "svc", worker_budget=2) as service:
        doomed = service.submit(spec, HELD_TRACES, chunk_size=CHUNK, seed=1)
        durable = service.submit(
            spec, n_traces, chunk_size=chunk, seed=2, durable=True
        )
        checkpoint = service.checkpoint_dir / f"{durable.job_id}.ckpt"
        _wait_until(checkpoint.is_file, "the durable job never checkpointed")
        for job in (doomed, durable):
            os.kill(_process_of(service, job.job_id).process.pid,
                    signal.SIGKILL)

        assert service.wait(doomed.job_id, timeout=60.0)
        assert doomed.state == "failed"
        assert "job process died" in doomed.error
        assert service.wait(durable.job_id, timeout=60.0)
        assert durable.state == "done" and durable.resumed
        assert service.result(durable.job_id) == direct_payload(
            spec, n_traces, chunk, tenant_seed("default", 2)
        )

        after = service.submit(spec, 400, chunk_size=CHUNK, seed=3)
        assert service.join(timeout=60.0)
        assert after.state == "done"
        assert all(p.process.is_alive() for p in service._processes)


def test_cancelling_a_running_job_ends_it_cancelled(tmp_path):
    with CampaignService(tmp_path / "svc", worker_budget=1) as service:
        held = service.submit(small_spec(), HELD_TRACES, chunk_size=CHUNK)
        _wait_until(lambda: held.state == "running", "never dispatched")
        service.cancel(held.job_id)
        assert service.wait(held.job_id, timeout=60.0)
        assert held.state == "cancelled"
        assert "cancelled" in held.error
        # The same process takes the next job; the cancel does not leak.
        after = service.submit(small_spec(), 400, chunk_size=CHUNK, seed=1)
        assert service.wait(after.job_id, timeout=60.0)
        assert after.state == "done"


@pytest.mark.parametrize("worker_budget", [1, 2, 4])
def test_payloads_byte_identical_to_a_direct_run(tmp_path, worker_budget):
    jobs = [
        (small_spec(), "alice", 3, False),
        (small_spec(), "bob", 3, True),
        (small_spec(p_configs=8), "alice", 11, False),
        (CampaignSpec(target="unprotected", fixed_plaintext=bytes(16)),
         "carol", 5, True),
    ]
    n_traces, chunk = 600, 200
    with CampaignService(
        tmp_path / "svc", worker_budget=worker_budget
    ) as service:
        submitted = [
            service.submit(
                spec, n_traces, chunk_size=chunk, seed=seed, tenant=tenant,
                durable=persist, store=persist,
            )
            for spec, tenant, seed, persist in jobs
        ]
        assert service.join(timeout=120.0)
        for (spec, tenant, seed, _persist), job in zip(jobs, submitted):
            assert job.state == "done", job.error
            got = json.dumps(service.result(job.job_id), sort_keys=True)
            want = json.dumps(
                direct_payload(
                    spec, n_traces, chunk, tenant_seed(tenant, seed)
                ),
                sort_keys=True,
            )
            assert got == want
