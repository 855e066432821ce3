"""Overload protection: body caps, slow clients, load shedding, readiness.

The daemon must shed abusive or excess load with precise status codes —
413 for oversized bodies, 408 for slow-loris reads, 503 + ``Retry-After``
at the admission gate — while liveness stays green and reads keep
working, and it must drain back to acceptance the moment pressure stops.
"""

import http.client
import json
import re
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.pipeline import CampaignSpec
from repro.service import CampaignService
from repro.service.client import ServiceClient
from repro.service.server import CampaignServer
from repro.pipeline.spec import spec_to_dict
from tests.service.test_serve_cli import _env

N_TRACES = 40
CHUNK = 20
#: A job that cannot finish while a test holds it: 5000 chunks.
HELD_TRACES = 100_000


def small_spec(**overrides):
    fields = dict(target="rftc", m_outputs=1, p_configs=16, plan_seed=7)
    fields.update(overrides)
    return CampaignSpec(**fields)


def submit_body(n_traces=N_TRACES, seed=0):
    return json.dumps(
        {
            "spec": spec_to_dict(small_spec()),
            "n_traces": n_traces,
            "chunk_size": CHUNK,
            "seed": seed,
        }
    ).encode("utf-8")


def raw_request(host, port, method, path, body=None, pad_to=None):
    """One request via http.client; returns (status, headers, body)."""
    if pad_to is not None:
        body = body + b" " * (pad_to - len(body))
    headers = {"Content-Type": "application/json"} if body else {}
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


@pytest.fixture()
def service(tmp_path):
    svc = CampaignService(tmp_path / "svc", worker_budget=1)
    svc.start()
    yield svc
    svc.shutdown()


class TestBodyCap:
    def test_oversized_body_is_413_with_limit_in_message(self, service):
        server = CampaignServer(service, max_body_bytes=2048)
        host, port = server.start()
        try:
            status, _headers, body = raw_request(
                host, port, "POST", "/v1/jobs", submit_body(), pad_to=4096
            )
            assert status == 413
            doc = json.loads(body)
            assert "2048" in doc["error"]
            # An in-cap request on a fresh connection still works.
            status, _headers, _body = raw_request(
                host, port, "POST", "/v1/jobs", submit_body()
            )
            assert status == 201
            assert service.join(timeout=60)
        finally:
            server.stop()

    def test_default_cap_is_one_mebibyte_in_the_real_daemon(self, tmp_path):
        """The stock `repro-rftc serve` daemon caps bodies at 1 MiB."""
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--data-dir", str(tmp_path / "svc"),
                "--port", "0", "--worker-budget", "1",
            ],
            cwd=tmp_path,
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no listen banner in {banner!r}"
            host, port = match.group(1), int(match.group(2))
            client = ServiceClient(host, port)
            deadline = time.monotonic() + 10.0
            while not client.healthy():
                assert time.monotonic() < deadline, "daemon never healthy"
                time.sleep(0.05)
            # The cap is enforced off the declared Content-Length, so
            # the 413 arrives before any body byte is accepted —
            # exactly what protects the daemon from a 10 GiB upload.
            with socket.create_connection((host, port), timeout=30.0) as sock:
                sock.sendall(
                    b"POST /v1/jobs HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {1024 * 1024 + 1}\r\n\r\n".encode()
                )
                response = sock.recv(65536)
            assert response.startswith(b"HTTP/1.1 413 ")
            assert b"1048576" in response
            # The daemon survives the abuse.
            assert client.healthy()
        finally:
            proc.terminate()
            proc.communicate(timeout=30)


class TestSlowLoris:
    def test_stalled_request_times_out_with_408(self, service):
        server = CampaignServer(service, read_timeout_s=0.3)
        host, port = server.start()
        try:
            with socket.create_connection((host, port), timeout=10.0) as sock:
                # Send the head, never the promised body.
                sock.sendall(
                    b"POST /v1/jobs HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Content-Length: 100\r\n"
                    b"\r\n"
                )
                response = sock.recv(65536)
                assert response.startswith(b"HTTP/1.1 408 ")
                # One request per connection: the server closed it.
                assert sock.recv(65536) == b""
            # Well-behaved clients are unaffected.
            assert ServiceClient(host, port).healthy()
        finally:
            server.stop()


class TestLoadShedding:
    def test_admission_sheds_503_with_retry_after_then_drains(self, tmp_path):
        service = CampaignService(
            tmp_path / "svc", worker_budget=1, shed_queue_depth=1
        )
        service.start()
        server = CampaignServer(service)
        host, port = server.start()
        client = ServiceClient(host, port)
        try:
            # Fill the single job process, then the queue up to the
            # bound.  The running job's budget is far beyond what it can
            # acquire during the test, so it is still running when the
            # third submission arrives.
            running = client.submit(small_spec(), HELD_TRACES,
                                    chunk_size=CHUNK, seed=1)
            deadline = time.monotonic() + 30.0
            while client.status(running["job_id"])["state"] != "running":
                assert time.monotonic() < deadline, "never dispatched"
                time.sleep(0.01)
            queued = client.submit(small_spec(), 4000, chunk_size=CHUNK,
                                   seed=2)
            status, headers, body = raw_request(
                host, port, "POST", "/v1/jobs", submit_body(seed=3)
            )
            assert status == 503
            assert int(headers["Retry-After"]) >= 1
            doc = json.loads(body)
            assert "overloaded" in doc["error"]
            assert "queue_depth" in doc["error"]

            # Liveness green, readiness red, reads still served.
            assert client.healthy()
            assert not client.ready()
            ready_status, ready_headers, _body = raw_request(
                host, port, "GET", "/healthz/ready"
            )
            assert ready_status == 503 and "Retry-After" in ready_headers
            assert client.status(running["job_id"])["state"] == "running"
            assert client.counter_value("service_shed_total") >= 1

            # Pressure stops -> the gate reopens, no hysteresis.  The
            # running job stops at its next chunk boundary.
            client.cancel(queued["job_id"])
            client.cancel(running["job_id"])
            assert service.join(timeout=60)
            assert client.status(queued["job_id"])["state"] == "cancelled"
            assert client.status(running["job_id"])["state"] == "cancelled"
            assert client.ready()
            accepted = client.submit(small_spec(), N_TRACES,
                                     chunk_size=CHUNK, seed=4)
            assert client.wait(accepted["job_id"], timeout=60)["state"] == \
                "done"
        finally:
            server.stop()
            service.shutdown()

    def test_journal_backlog_is_a_distinct_shed_reason(self, tmp_path):
        service = CampaignService(
            tmp_path / "svc", worker_budget=1, shed_journal_records=2
        )
        service.start()
        try:
            service.submit(small_spec(), N_TRACES, chunk_size=CHUNK)
            assert service.join(timeout=60)
            state = service.overload_state()
            assert state["shedding"]
            assert state["reasons"] == ["journal_backlog"]
            # Compaction relieves journal pressure: 4 records -> 1.
            service.store.compact()
            assert not service.overload_state()["shedding"]
        finally:
            service.shutdown()

    def test_healthz_live_is_an_alias_of_healthz(self, service):
        server = CampaignServer(service)
        host, port = server.start()
        try:
            for path in ("/healthz", "/healthz/live"):
                status, _headers, body = raw_request(host, port, "GET", path)
                assert (status, body) == (200, b"ok\n")
        finally:
            server.stop()


class _FlakyClient(ServiceClient):
    """Stub client: N failing polls, then a terminal status."""

    def __init__(self, failures, jitter_seed=0):
        super().__init__("127.0.0.1", 1, timeout=1.0)
        self._failures = failures
        self._jitter_seed = jitter_seed

    def status(self, job_id):
        if self._failures > 0:
            self._failures -= 1
            raise ServiceError("HTTP 503: replaying journal")
        return {"state": "done", "job_id": job_id}


class TestClientWait:
    def _sleeps(self, monkeypatch, jitter_seed, job_id="job-00000001"):
        recorded = []
        monkeypatch.setattr(time, "sleep", recorded.append)
        client = _FlakyClient(failures=5)
        doc = client.wait(job_id, timeout=30.0, jitter_seed=jitter_seed)
        assert doc["state"] == "done"
        return recorded

    def test_backoff_is_deterministic_per_seed(self, monkeypatch):
        first = self._sleeps(monkeypatch, jitter_seed=7)
        second = self._sleeps(monkeypatch, jitter_seed=7)
        assert first == second
        assert len(first) == 5
        assert self._sleeps(monkeypatch, jitter_seed=8) != first

    def test_backoff_grows_but_caps(self, monkeypatch):
        recorded = []
        monkeypatch.setattr(time, "sleep", recorded.append)
        client = _FlakyClient(failures=20)
        client.wait("job-00000001", timeout=1e9)
        # Jitter is 0.5x-1.0x the nominal interval, so every sleep
        # stays under the 1 s cap and the later ones exceed the first.
        assert all(s <= 1.0 for s in recorded)
        assert max(recorded[10:]) > recorded[0]

    def test_connection_refused_is_retried_until_deadline(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        client = ServiceClient("127.0.0.1", free_port, timeout=0.5)
        started = time.monotonic()
        with pytest.raises(ServiceError, match="timed out"):
            client.wait("job-00000001", timeout=1.0)
        assert time.monotonic() - started >= 0.9

    def test_wait_survives_a_daemon_restart(self, tmp_path):
        service = CampaignService(tmp_path / "svc", worker_budget=1)
        service.start()
        server = CampaignServer(service)
        host, port = server.start()
        client = ServiceClient(host, port)
        try:
            job = client.submit(small_spec(), 4000, chunk_size=CHUNK, seed=1)
            server.stop()  # the HTTP front-end dies; the service lives

            outcome = {}

            def _wait():
                outcome["doc"] = client.wait(
                    job["job_id"], timeout=120.0, jitter_seed=3
                )

            waiter = threading.Thread(target=_wait)
            waiter.start()
            time.sleep(0.5)  # the client is now polling a dead port
            service.cancel(job["job_id"])
            restarted = CampaignServer(service, host=host, port=port)
            restarted.start()
            try:
                waiter.join(timeout=120.0)
                assert not waiter.is_alive()
                # Either terminal state proves the point: the wait
                # outlived the dead-port window and finished against
                # the restarted front-end.
                assert outcome["doc"]["state"] in ("cancelled", "done")
            finally:
                restarted.stop()
        finally:
            service.shutdown()
