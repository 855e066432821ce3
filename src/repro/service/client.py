"""Stdlib HTTP client for the campaign service daemon.

Used by the test suite, the load-test harness
(``benchmarks/bench_service_load.py``) and any script that wants to
drive a ``repro-rftc serve`` daemon without hand-rolling requests.  One
``http.client`` connection per request, mirroring the server's
``Connection: close`` discipline.

Errors map back to the service's exception family: 404 raises
:class:`~repro.errors.UnknownJobError`, 429 raises
:class:`~repro.errors.QuotaExceededError`, anything else non-2xx raises
:class:`~repro.errors.ServiceError` with the server's message.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import List, Optional

from repro.errors import QuotaExceededError, ServiceError, UnknownJobError
from repro.pipeline.spec import CampaignSpec, spec_to_dict


class ServiceClient:
    """Talk to one campaign service daemon at ``host:port``.

    ``token`` is the tenant's bearer token for a daemon started with
    per-tenant authentication (``repro-rftc serve --auth``); leave it
    ``None`` against an unauthenticated daemon.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        token: Optional[str] = None,
    ):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.token = token

    # -- plumbing ------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
    ) -> "tuple[int, str]":
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if self.token is not None:
                headers["Authorization"] = f"Bearer {self.token}"
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, response.read().decode("utf-8")
        finally:
            conn.close()

    def _json(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        status, text = self._request(method, path, body)
        if 200 <= status < 300:
            return json.loads(text)
        try:
            message = json.loads(text).get("error", text.strip())
        except json.JSONDecodeError:
            message = text.strip()
        if status == 404:
            raise UnknownJobError(message)
        if status == 429:
            raise QuotaExceededError(message)
        raise ServiceError(f"HTTP {status}: {message}")

    # -- API -----------------------------------------------------------

    def healthy(self) -> bool:
        """Liveness: the daemon's event loop answers ``/healthz``."""
        try:
            status, text = self._request("GET", "/healthz")
        except OSError:
            return False
        return status == 200 and text.strip() == "ok"

    def ready(self) -> bool:
        """Readiness: live *and* not shedding load (``/healthz/ready``)."""
        try:
            status, _text = self._request("GET", "/healthz/ready")
        except OSError:
            return False
        return status == 200

    def submit(
        self,
        spec: CampaignSpec,
        n_traces: int,
        chunk_size: int = 1000,
        seed: int = 0,
        tenant: Optional[str] = None,
        priority: int = 0,
        durable: bool = False,
        store: bool = False,
    ) -> dict:
        """Submit a campaign; returns the job document (see ``job_id``).

        ``tenant=None`` lets the server pick: the bearer token's tenant
        on an authenticated daemon, ``"default"`` otherwise.
        """
        body = {
            "spec": spec_to_dict(spec),
            "n_traces": int(n_traces),
            "chunk_size": int(chunk_size),
            "seed": int(seed),
            "priority": int(priority),
            "durable": bool(durable),
            "store": bool(store),
        }
        if tenant is not None:
            body["tenant"] = tenant
        return self._json("POST", "/v1/jobs", body)

    def status(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._json("POST", f"/v1/jobs/{job_id}/cancel")

    def release_store(self, job_id: str) -> dict:
        """Delete a finished job's persisted traces, freeing quota bytes."""
        return self._json("DELETE", f"/v1/jobs/{job_id}/store")

    def list_jobs(self, tenant: Optional[str] = None) -> List[dict]:
        path = "/v1/jobs" + (f"?tenant={tenant}" if tenant else "")
        return self._json("GET", path)["jobs"]

    def metrics_text(self) -> str:
        status, text = self._request("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"HTTP {status} from /metrics")
        return text

    def counter_value(self, name: str) -> float:
        """Sum a counter's series from the Prometheus page (labels folded)."""
        total, seen = 0.0, False
        for line in self.metrics_text().splitlines():
            if line.startswith("#"):
                continue
            metric, _, value = line.rpartition(" ")
            if metric == name or metric.startswith(name + "{"):
                total += float(value)
                seen = True
        if not seen:
            raise ServiceError(f"no counter {name!r} on /metrics")
        return total

    def wait(
        self,
        job_id: str,
        timeout: float = 60.0,
        jitter_seed: int = 0,
    ) -> dict:
        """Poll until ``job_id`` is terminal; returns the final status doc.

        The poll interval starts at 0.05 s and backs off exponentially
        (×1.5 per poll, capped at 1 s) with deterministic jitter drawn from ``jitter_seed`` — a fleet
        of waiting clients spreads out instead of polling in lockstep,
        and two runs with the same seed poll on the same schedule.

        A connection refused/reset (the daemon restarting, e.g. in the
        chaos soak's stalled-server phase) is retried until
        ``timeout`` rather than propagating — only the deadline ends
        the wait.
        """
        deadline = time.monotonic() + timeout
        rng = random.Random(f"wait:{jitter_seed}:{job_id}")
        interval = 0.05
        while True:
            try:
                doc = self.status(job_id)
            except (UnknownJobError, QuotaExceededError):
                raise
            except (ServiceError, OSError) as exc:
                # ServiceError from a non-2xx during restart recovery
                # (e.g. 503 while the journal replays) is retryable too.
                if time.monotonic() >= deadline:
                    raise ServiceError(
                        f"timed out after {timeout} s waiting for "
                        f"{job_id}: {exc}"
                    ) from exc
            else:
                if doc["state"] in ("done", "failed", "cancelled"):
                    return doc
                if time.monotonic() >= deadline:
                    raise ServiceError(
                        f"timed out after {timeout} s waiting for {job_id} "
                        f"(state {doc['state']})"
                    )
            # 0.5x-1.0x jitter: never sleeps longer than the nominal
            # interval, so the deadline check stays timely.
            time.sleep(interval * (0.5 + 0.5 * rng.random()))
            interval = min(interval * 1.5, 1.0)
