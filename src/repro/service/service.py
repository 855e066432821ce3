"""The campaign service facade: admission, journaling, caching, metrics.

:class:`CampaignService` glues the pieces together behind one small API
(`submit` / `status` / `result` / `cancel` / `list_jobs`):

* admission control — tenant validation, ``max_queued`` and store-quota
  enforcement (:class:`~repro.errors.QuotaExceededError` on breach);
* the result-cache fast path — an identical ``(spec, n_traces,
  chunk_size, effective seed)`` submission completes instantly from the
  :class:`~repro.service.cache.ResultCache`, never touching the engine;
* durability — every transition lands in the
  :class:`~repro.service.jobs.JobStore` journal, and a restarted service
  replays it to rebuild a warm cache and revive interrupted jobs
  (durable ones resume from their campaign checkpoint);
* observability — ``service_*`` metrics in a
  :class:`~repro.obs.MetricsRegistry` (see ``docs/observability.md``).

Locking: one :class:`threading.Condition` (whose lock is reentrant) is
shared with the :class:`~repro.service.scheduler.Scheduler`; every piece
of mutable state — job store, cache, charges, queues — is guarded by it,
so scheduler callbacks can touch service structures without a second
lock or ordering hazards.
"""

from __future__ import annotations

import shutil
import threading
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import (
    ConfigurationError,
    QuotaExceededError,
    ServiceError,
    UnknownJobError,
)
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.spec import CampaignSpec, spec_to_dict
from repro.service.cache import ResultCache, cache_key
from repro.service.execution import run_job
from repro.service.jobs import (
    CANCELLED,
    DONE,
    QUEUED,
    RUNNING,
    CampaignJob,
    JobStore,
    interrupted_jobs,
    next_job_id,
    now,
)
from repro.service.scheduler import Scheduler
from repro.service.tenancy import (
    DEFAULT_TENANT,
    TenantPolicy,
    tenant_seed,
    validate_tenant,
)

#: Buckets for service latency histograms: queue waits and campaign runs
#: span milliseconds (cache hits, tiny campaigns) to minutes.
SERVICE_SECONDS_BUCKETS = (
    0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 120.0, 300.0,
)


class CampaignService:
    """Multi-tenant campaign execution behind a durable job API.

    Parameters
    ----------
    data_dir:
        Root of the service's durable state: ``jobs.jsonl`` (the
        journal), ``checkpoints/`` (durable jobs' resume points), and
        ``stores/<tenant>/<job_id>/`` (persisted traces).
    worker_budget:
        Campaigns run concurrently (each single-process inside its
        worker thread).
    policies:
        Per-tenant :class:`TenantPolicy`; unknown tenants get defaults.
    cache_entries:
        Result-cache capacity (FIFO eviction).
    metrics:
        Optional shared :class:`MetricsRegistry`; a private one is
        created when omitted.
    shed_queue_depth:
        Global load-shedding bound: when this many jobs are queued
        (across all tenants), :meth:`overload_state` reports shedding
        and the HTTP front-end answers submissions ``503`` +
        ``Retry-After`` until the backlog drains.  ``None`` (default)
        never sheds on queue depth.
    shed_journal_records:
        Load-shedding bound on journal backlog (records replayed +
        appended); ``None`` never sheds on it.  Distinct from the
        per-tenant ``max_queued`` quota (a ``429``): shedding is the
        *service* protecting itself, quotas are tenants' fair shares.
    compact_journal:
        Compact the journal to one record per job right after recovery
        (also reachable via ``repro-rftc serve --compact-journal``).
    job_faults:
        Optional callable ``job -> Optional[FaultPlan]`` consulted at
        dispatch; the chaos harness injects deterministic system faults
        into chosen jobs through it.  ``None`` (default) injects nothing.
    """

    def __init__(
        self,
        data_dir: Union[str, Path],
        worker_budget: int = 2,
        policies: Optional[Dict[str, TenantPolicy]] = None,
        cache_entries: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
        shed_queue_depth: Optional[int] = None,
        shed_journal_records: Optional[int] = None,
        compact_journal: bool = False,
        job_faults=None,
    ):
        if shed_queue_depth is not None and shed_queue_depth < 1:
            raise ConfigurationError("shed_queue_depth must be >= 1")
        if shed_journal_records is not None and shed_journal_records < 1:
            raise ConfigurationError("shed_journal_records must be >= 1")
        self.shed_queue_depth = shed_queue_depth
        self.shed_journal_records = shed_journal_records
        self.job_faults = job_faults
        self.data_dir = Path(data_dir)
        self.checkpoint_dir = self.data_dir / "checkpoints"
        self.store_dir = self.data_dir / "stores"
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._cond = threading.Condition()
        self.store = JobStore(self.data_dir / "jobs.jsonl")
        self.cache = ResultCache(max_entries=cache_entries)
        self.scheduler = Scheduler(
            runner=self._run,
            worker_budget=worker_budget,
            cond=self._cond,
            policies=dict(policies or {}),
            on_dispatch=self._on_dispatch,
            on_finalize=self._on_finalize,
        )
        self._submit_seq = self.store.max_seq("submit_seq") + 1
        #: job_ids in the order their terminal state was assigned.
        self.completion_order: List[str] = []
        self._declare_metrics()
        self._recover()
        if compact_journal:
            saved = self.store.compact()
            self.metrics.inc("service_journal_compactions_total")
            self.metrics.inc("service_journal_compacted_lines_total", saved)
            self._update_gauges()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "CampaignService":
        self.scheduler.start()
        return self

    def shutdown(self, wait: bool = True) -> None:
        self.scheduler.shutdown(wait=wait)
        self.store.close()

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until every accepted job reached a terminal state."""
        return self.scheduler.drain(timeout=timeout)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> bool:
        """Block until ``job_id`` is terminal; False on timeout."""
        job = self._job(job_id)
        with self._cond:
            return self._cond.wait_for(lambda: job.finished, timeout=timeout)

    # -- the API -------------------------------------------------------

    def submit(
        self,
        spec: CampaignSpec,
        n_traces: int,
        chunk_size: int = 1000,
        seed: int = 0,
        tenant: str = DEFAULT_TENANT,
        priority: int = 0,
        durable: bool = False,
        store: bool = False,
    ) -> CampaignJob:
        """Admit one campaign; returns its (journaled) job record.

        The effective master seed is ``tenant_seed(tenant, seed)`` — the
        same campaign submitted by two tenants draws disjoint randomness
        and disjoint cache entries.  A cache hit (identical spec digest,
        trace budget, chunk size, and effective seed) completes the job
        synchronously with the cached payload; ``store=True`` jobs
        always run, since the cache holds payloads, not trace stores.
        """
        if not isinstance(spec, CampaignSpec):
            raise ConfigurationError("submit needs a CampaignSpec")
        validate_tenant(tenant)
        effective_seed = tenant_seed(tenant, seed)
        key = cache_key(spec, n_traces, chunk_size, effective_seed)
        with self._cond:
            policy = self.scheduler.policies.get(tenant, TenantPolicy())
            self._enforce_quotas(tenant, policy, store)
            job = CampaignJob(
                job_id=next_job_id(self._submit_seq),
                tenant=tenant,
                spec_fields=spec_to_dict(spec),
                n_traces=int(n_traces),
                chunk_size=int(chunk_size),
                seed=effective_seed,
                requested_seed=int(seed),
                cache_key=key,
                priority=int(priority),
                durable=bool(durable),
                store=bool(store),
                submit_seq=self._submit_seq,
                submitted_at=now(),
            )
            self._submit_seq += 1
            self.store.add(job)
            self.metrics.inc("service_jobs_submitted_total", tenant=tenant)
            cached_payload = None if store else self.cache.get(key)
            if cached_payload is not None:
                self.metrics.inc("service_cache_hits_total")
                job.cached = True
                self.scheduler.finalize_now(job, cached_payload, DONE)
            else:
                self.metrics.inc("service_cache_misses_total")
                self.scheduler.submit(job)
            self._update_gauges()
        return job

    def status(self, job_id: str) -> dict:
        """The job's current document (without the result payload)."""
        with self._cond:
            return self._job(job_id).to_dict(include_result=False)

    def result(self, job_id: str) -> dict:
        """The result payload of a ``done`` job.

        Raises :class:`ServiceError` while the job is still pending and
        when it ended ``failed``/``cancelled`` (the error text is in the
        message — and in :meth:`status`).
        """
        with self._cond:
            job = self._job(job_id)
            if job.state == DONE and job.result is not None:
                return dict(job.result)
            if job.finished:
                raise ServiceError(
                    f"job {job_id} ended {job.state}"
                    + (f": {job.error}" if job.error else "")
                )
            raise ServiceError(f"job {job_id} is {job.state}; no result yet")

    def cancel(self, job_id: str) -> str:
        """Cancel a job; returns its state after the request.

        Queued jobs finalize as ``cancelled`` immediately.  Running jobs
        get their cancel flag set and stop at the next chunk boundary.
        Terminal jobs are left untouched (idempotent).
        """
        with self._cond:
            job = self._job(job_id)
            if job.finished:
                return job.state
            if self.scheduler.cancel_queued(job_id):
                self.scheduler.finalize_now(
                    job, None, CANCELLED, "cancelled while queued"
                )
                return job.state
            job.cancel_event.set()
            return job.state

    def list_jobs(self, tenant: Optional[str] = None) -> List[dict]:
        """Job documents in submission order, optionally one tenant's."""
        with self._cond:
            return [
                job.to_dict(include_result=False)
                for job in self.store.jobs()
                if tenant is None or job.tenant == tenant
            ]

    def metrics_page(self) -> str:
        """The Prometheus text page, snapshotted under the lock."""
        with self._cond:
            return self.metrics.snapshot().to_prometheus()

    def record_http_request(self, endpoint: str, status: int) -> None:
        """Count one HTTP request (under the lock — the registry isn't)."""
        with self._cond:
            self.metrics.inc(
                "service_http_requests_total", endpoint=endpoint, status=status
            )

    def overload_state(self) -> dict:
        """The admission gate's view: is the service shedding, and why.

        Shedding starts when the *global* queued-job count reaches
        ``shed_queue_depth`` or the journal backlog reaches
        ``shed_journal_records``, and stops the moment both drop back
        under their bounds — there is no hysteresis, so the service
        drains to acceptance as soon as pressure stops.
        ``retry_after_s`` is a deterministic backlog-proportional hint
        (queued jobs per budgeted worker) for the ``Retry-After`` header.
        """
        with self._cond:
            queued = self.scheduler.queued_count()
            records = self.store.record_count
            reasons = []
            if (
                self.shed_queue_depth is not None
                and queued >= self.shed_queue_depth
            ):
                reasons.append("queue_depth")
            if (
                self.shed_journal_records is not None
                and records >= self.shed_journal_records
            ):
                reasons.append("journal_backlog")
            self.metrics.set_gauge(
                "service_overloaded", 1 if reasons else 0
            )
            return {
                "shedding": bool(reasons),
                "reasons": reasons,
                "queued": queued,
                "journal_records": records,
                "retry_after_s": 1 + queued // self.scheduler.worker_budget,
            }

    def record_shed(self, reason: str) -> None:
        """Count one load-shed 503 (under the lock)."""
        with self._cond:
            self.metrics.inc("service_shed_total", reason=reason)

    def store_usage(self, tenant: str) -> int:
        """Bytes of persisted trace stores currently charged to ``tenant``.

        Takes the (reentrant) service lock, so the quota check and the
        gauge updates call it with the lock already held.
        """
        with self._cond:
            return sum(
                job.store_bytes
                for job in self.store.jobs()
                if job.tenant == tenant
            )

    def release_store(self, job_id: str) -> dict:
        """Delete a finished job's persisted traces and free its quota.

        Quota accounting sums ``store_bytes`` from the journal, so
        pruning ``stores/`` by hand frees disk but never quota — this is
        the journaled release path: it removes
        ``stores/<tenant>/<job_id>`` and journals ``store_bytes=0``, so
        the freed bytes survive a restart.  Idempotent; refuses while
        the job is still queued or running.  Returns the updated job
        document.
        """
        with self._cond:
            job = self._job(job_id)
            if not job.finished:
                raise ServiceError(
                    f"job {job_id} is {job.state}; cancel it before "
                    "releasing its store"
                )
            store_path = self.store_dir / job.tenant / job.job_id
            if store_path.exists():
                shutil.rmtree(store_path)
            if job.store_bytes:
                self.store.update(job, store_bytes=0)
                self.metrics.set_gauge(
                    "service_store_bytes",
                    self.store_usage(job.tenant),
                    tenant=job.tenant,
                )
            return job.to_dict(include_result=False)

    # -- internals -----------------------------------------------------

    def _job(self, job_id: str) -> CampaignJob:
        job = self.store.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return job

    def _enforce_quotas(
        self, tenant: str, policy: TenantPolicy, store: bool
    ) -> None:
        if policy.max_queued is not None:
            active = sum(
                1
                for job in self.store.jobs()
                if job.tenant == tenant and job.state in (QUEUED, RUNNING)
            )
            if active >= policy.max_queued:
                self.metrics.inc(
                    "service_quota_rejections_total", reason="max_queued"
                )
                raise QuotaExceededError(
                    f"tenant {tenant!r} has {active} active jobs "
                    f"(max_queued={policy.max_queued})"
                )
        if store and policy.store_quota_bytes is not None:
            used = self.store_usage(tenant)
            if used >= policy.store_quota_bytes:
                self.metrics.inc(
                    "service_quota_rejections_total", reason="store_quota"
                )
                raise QuotaExceededError(
                    f"tenant {tenant!r} store use {used} B is at its "
                    f"quota ({policy.store_quota_bytes} B)"
                )

    def _run(self, job: CampaignJob, resume: bool) -> dict:
        """Scheduler runner: executes on a worker thread, no lock held."""
        faults = self.job_faults(job) if self.job_faults is not None else None
        return run_job(
            job,
            checkpoint_dir=self.checkpoint_dir,
            store_dir=self.store_dir,
            resume=resume,
            faults=faults,
        )

    def _on_dispatch(self, job: CampaignJob) -> None:
        """Scheduler callback (under the shared lock): job started."""
        started = now()
        self.store.update(
            job,
            state=RUNNING,
            dispatch_seq=job.dispatch_seq,
            started_at=started,
        )
        queue_s = started - job.submitted_at
        self.metrics.observe(
            "service_job_queue_seconds", queue_s,
            buckets=SERVICE_SECONDS_BUCKETS,
        )
        self._update_gauges()

    def _on_finalize(
        self,
        job: CampaignJob,
        payload: Optional[dict],
        state: str,
        error: Optional[str],
    ) -> None:
        """Scheduler callback (under the shared lock): job terminal."""
        finished = now()
        self.store.update(
            job,
            state=state,
            completion_seq=job.completion_seq,
            finished_at=finished,
            error=error,
            result=payload,
            store_bytes=job.store_bytes,
            cached=job.cached,
            resumed=job.resumed,
        )
        self.completion_order.append(job.job_id)
        self.metrics.inc(
            "service_jobs_completed_total", state=state, tenant=job.tenant
        )
        if job.started_at is not None:
            self.metrics.observe(
                "service_job_run_seconds", finished - job.started_at,
                buckets=SERVICE_SECONDS_BUCKETS,
            )
        if state == DONE and payload is not None and not job.cached:
            evicted = self.cache.put(job.cache_key, payload)
            if evicted:
                self.metrics.inc("service_cache_evictions_total", evicted)
        if job.store_bytes:
            self.metrics.set_gauge(
                "service_store_bytes",
                self.store_usage(job.tenant),
                tenant=job.tenant,
            )
        self._update_gauges()

    def _update_gauges(self) -> None:
        states: Dict[str, int] = {}
        for job in self.store.jobs():
            states[job.state] = states.get(job.state, 0) + 1
        self.metrics.set_gauge("service_queue_depth", states.get(QUEUED, 0))
        self.metrics.set_gauge("service_jobs_running", states.get(RUNNING, 0))
        self.metrics.set_gauge(
            "service_journal_records", self.store.record_count
        )

    def _declare_metrics(self) -> None:
        """Pre-declare service histograms so /metrics shows them at boot.

        An idle daemon then exports empty ``service_job_*_seconds``
        series (rendered as ``p50=–`` by ``repro.obs.render``) instead
        of omitting them until the first job runs.
        """
        self.metrics.ensure_histogram(
            "service_job_queue_seconds", buckets=SERVICE_SECONDS_BUCKETS
        )
        self.metrics.ensure_histogram(
            "service_job_run_seconds", buckets=SERVICE_SECONDS_BUCKETS
        )

    # -- crash recovery ------------------------------------------------

    def _recover(self) -> None:
        """Rebuild volatile state from the journal after a restart.

        The cache is re-warmed by replaying completed jobs' payload
        *puts* in their original completion order (cache hits didn't
        put, so they are skipped) — FIFO eviction makes the rebuilt
        cache identical to the pre-crash one.  Jobs the journal left
        ``queued`` or ``running`` are re-queued; durable ones that were
        running resume from their campaign checkpoint bit-identically.
        """
        self.scheduler.restore_sequences(
            self.store.max_seq("dispatch_seq") + 1,
            self.store.max_seq("completion_seq") + 1,
        )
        done = sorted(
            (
                job
                for job in self.store.jobs()
                if job.state == DONE
                and job.result is not None
                and not job.cached
            ),
            key=lambda job: (
                job.completion_seq if job.completion_seq is not None else -1
            ),
        )
        for job in done:
            self.cache.put(job.cache_key, job.result)
        for job, action in interrupted_jobs(self.store):
            self.store.update(
                job, state=QUEUED, requeues=job.requeues + 1,
                resumed=action == "resume",
            )
            self.metrics.inc("service_jobs_requeued_total", action=action)
            self.scheduler.submit(job, resume=action == "resume")
        if self.store.torn_line is not None:
            self.metrics.inc("service_journal_torn_lines_total")
        self._update_gauges()
