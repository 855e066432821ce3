"""Deterministic fair-share scheduler over one shared worker budget.

Many queued campaigns, few workers: the scheduler decides *which* job
runs next.  Its invariant — the one the determinism tests pin down — is
that the dispatch sequence and the completion order are a pure function
of the submitted job set and the tenant policies, **never** of the
worker budget or thread timing.  Three mechanisms make that true:

* **Charging at dispatch.**  A tenant is charged a job's work units
  (its trace budget, divided by the tenant's fair share) the moment the
  job is *dispatched*, not when it finishes.  Charges therefore depend
  only on the dispatch history, so each pick depends only on prior
  picks — thread completion timing never reaches the decision.
* **Logical aging.**  A queued job's priority grows with the number of
  dispatches that have happened since it was enqueued (one step per
  :attr:`Scheduler.aging_dispatches`), so low-priority work cannot starve under a
  stream of high-priority submissions.  The clock is the dispatch
  counter — never wall time.
* **Finalization in dispatch order.**  Jobs may *finish* out of order
  (a short job dispatched later completes first), but their results are
  buffered and the finalize callback runs strictly in dispatch order —
  mirroring how the engine folds chunks in index order — so completion
  sequence numbers are deterministic for any worker budget.  A lane
  is free again at raw completion, so this buffering never costs
  throughput.

The scheduler is pure mechanism: it owns no journal, no metrics, and no
cache.  The service facade supplies ``on_dispatch``/``on_finalize``
callbacks (invoked under the shared lock) and does the bookkeeping.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, JobCancelledError
from repro.service.jobs import CampaignJob
from repro.service.tenancy import TenantPolicy

#: What a finalize callback receives: the job, the result payload (or
#: ``None``), the terminal state name, and the error text (or ``None``).
FinalizeCallback = Callable[[CampaignJob, Optional[dict], str, Optional[str]], None]
DispatchCallback = Callable[[CampaignJob], None]
RunnerFn = Callable[[CampaignJob, bool], dict]


class Scheduler:
    """Multiplex campaigns over ``worker_budget`` lanes, fairly.

    Parameters
    ----------
    runner:
        ``runner(job, resume) -> payload``, called on a lane thread
        without the lock (the service's runner hands the job to a job
        process and waits for it).
        :class:`JobCancelledError` finalizes the job as ``cancelled``;
        any other exception finalizes it as ``failed``.
    worker_budget:
        Concurrent campaign executions.
    cond:
        The shared :class:`threading.Condition` guarding all scheduler
        *and* service state — one lock, so the callbacks can touch
        service structures without ordering hazards.
    policies:
        Per-tenant :class:`TenantPolicy`; unknown tenants get defaults.
    """

    #: Queued jobs gain one priority step per this many dispatches.
    aging_dispatches = 4

    def __init__(
        self,
        runner: RunnerFn,
        worker_budget: int = 2,
        cond: Optional[threading.Condition] = None,
        policies: Optional[Dict[str, TenantPolicy]] = None,
        on_dispatch: Optional[DispatchCallback] = None,
        on_finalize: Optional[FinalizeCallback] = None,
    ):
        if worker_budget < 1:
            raise ConfigurationError("worker_budget must be >= 1")
        self.runner = runner
        self.worker_budget = int(worker_budget)
        self.cond = cond if cond is not None else threading.Condition()
        self.policies = dict(policies or {})
        self.on_dispatch = on_dispatch
        self.on_finalize = on_finalize

        #: tenant -> queued (job, resume) entries, in enqueue order.
        self._ready: Dict[str, List[Tuple[CampaignJob, bool]]] = {}
        #: job_id -> dispatch counter value when the job was enqueued.
        self._enqueued_at: Dict[str, int] = {}
        #: tenant -> work units charged at dispatch (traces / share).
        self._charges: Dict[str, float] = {}
        self._dispatch_seq = 0
        self._completion_seq = 0
        #: dispatch_seq -> (job, payload, state, error) awaiting in-order
        #: finalization.
        self._pending_finalize: Dict[
            int, Tuple[CampaignJob, Optional[dict], str, Optional[str]]
        ] = {}
        self._next_finalize = 0
        self._in_flight = 0
        self._stop = False
        self._lanes: List[threading.Thread] = []

    # -- policy views --------------------------------------------------

    def policy(self, tenant: str) -> TenantPolicy:
        return self.policies.get(tenant, TenantPolicy())

    def queued_count(self) -> int:
        """Jobs queued across all tenants."""
        with self.cond:
            return sum(len(entries) for entries in self._ready.values())

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Start ``worker_budget`` lanes: each runs one job at a time."""
        if self._lanes:
            raise ConfigurationError("scheduler already started")
        self._lanes = [
            threading.Thread(
                target=self._lane, name=f"campaign-lane-{i}", daemon=True
            )
            for i in range(self.worker_budget)
        ]
        for lane in self._lanes:
            lane.start()

    def submit(self, job: CampaignJob, resume: bool = False) -> None:
        """Enqueue ``job``; the dispatcher picks it up when fair."""
        with self.cond:
            if self._stop:
                raise ConfigurationError("scheduler is shut down")
            self._ready.setdefault(job.tenant, []).append((job, resume))
            self._enqueued_at[job.job_id] = self._dispatch_seq
            self.cond.notify_all()

    def cancel_queued(self, job_id: str) -> bool:
        """Drop ``job_id`` from the ready queue; False if not queued."""
        with self.cond:
            for tenant, entries in self._ready.items():
                for i, (job, _resume) in enumerate(entries):
                    if job.job_id == job_id:
                        del entries[i]
                        self._enqueued_at.pop(job_id, None)
                        return True
        return False

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no work is queued, running, or pending finalize."""
        with self.cond:
            return self.cond.wait_for(
                lambda: not self._has_work(), timeout=timeout
            )

    def shutdown(self) -> None:
        """Stop dispatching and wait for the running jobs to end."""
        with self.cond:
            self._stop = True
            self.cond.notify_all()
        for lane in self._lanes:
            lane.join()

    def _has_work(self) -> bool:
        return (
            any(self._ready.values())
            or self._in_flight > 0
            or bool(self._pending_finalize)
        )

    # -- the pick ------------------------------------------------------

    def _pick_locked(self) -> Optional[Tuple[CampaignJob, bool]]:
        """Choose the next (job, resume) to dispatch; None if queue empty.

        Tenant first: the one with the least charged work — charges are
        already share-normalized at dispatch time — with the name as the
        stable tie-break.  Then within the tenant: the
        highest aged priority, earliest submission on ties.  Both keys
        read only dispatch-history state, so the pick sequence is
        deterministic for any worker budget.
        """
        candidates = sorted(
            (tenant for tenant, entries in self._ready.items() if entries),
            key=lambda t: (self._charges.get(t, 0.0), t),
        )
        if not candidates:
            return None
        tenant = candidates[0]
        entries = self._ready[tenant]

        def effective(entry: Tuple[CampaignJob, bool]) -> Tuple[int, int]:
            job = entry[0]
            age = self._dispatch_seq - self._enqueued_at.get(
                job.job_id, self._dispatch_seq
            )
            return (
                -(job.priority + age // self.aging_dispatches),
                job.submit_seq,
            )

        best = min(range(len(entries)), key=lambda i: effective(entries[i]))
        return entries.pop(best)

    def restore_sequences(self, dispatch_seq: int, completion_seq: int) -> None:
        """Continue sequence numbering after a journal replay.

        Must be called before :meth:`start`; the finalize cursor tracks
        the dispatch counter because a freshly-restored scheduler has
        nothing in flight.
        """
        with self.cond:
            if self._lanes or self._in_flight:
                raise ConfigurationError(
                    "cannot restore sequences on a running scheduler"
                )
            self._dispatch_seq = int(dispatch_seq)
            self._next_finalize = int(dispatch_seq)
            self._completion_seq = int(completion_seq)

    def finalize_now(
        self,
        job: CampaignJob,
        payload: Optional[dict],
        state: str,
        error: Optional[str] = None,
    ) -> None:
        """Finalize a job that never dispatches (e.g. a cache hit).

        Assigns the next completion sequence number synchronously, so a
        cache-served job is ordered by *when it was submitted* relative
        to other finalizations — it does not wait behind running work.
        """
        with self.cond:
            job.completion_seq = self._completion_seq
            self._completion_seq += 1
            if self.on_finalize is not None:
                self.on_finalize(job, payload, state, error)
            self.cond.notify_all()

    # -- dispatch + finalize -------------------------------------------

    def _lane(self) -> None:
        """Pick, run, complete; repeat until shutdown.

        A lane picks only while it is free, under the lock, so at most
        ``worker_budget`` jobs run and each pick reads only dispatch
        history, as in a single dispatcher.
        """
        while True:
            with self.cond:
                self.cond.wait_for(
                    lambda: self._stop or any(self._ready.values())
                )
                if self._stop:
                    return
                job, resume = self._pick_locked()
                seq = self._dispatch_seq
                self._dispatch_seq += 1
                self._enqueued_at.pop(job.job_id, None)
                self._charges[job.tenant] = (
                    self._charges.get(job.tenant, 0.0)
                    + job.n_traces / self.policy(job.tenant).share
                )
                self._in_flight += 1
                job.dispatch_seq = seq
                if self.on_dispatch is not None:
                    self.on_dispatch(job)
            payload: Optional[dict] = None
            error: Optional[str] = None
            try:
                payload = self.runner(job, resume)
                state = "done"
            except JobCancelledError as exc:
                state, error = "cancelled", str(exc)
            except Exception as exc:  # noqa: BLE001 - job failure is data
                state, error = "failed", f"{type(exc).__name__}: {exc}"
            self._complete(seq, job, payload, state, error)

    def _complete(
        self,
        seq: int,
        job: CampaignJob,
        payload: Optional[dict],
        state: str,
        error: Optional[str],
    ) -> None:
        with self.cond:
            # The lane is free again at once; finalize strictly in
            # dispatch order (buffered, like the engine's chunk folding)
            # so completion sequence numbers are timing-independent.
            self._in_flight -= 1
            self._pending_finalize[seq] = (job, payload, state, error)
            while self._next_finalize in self._pending_finalize:
                fin_job, fin_payload, fin_state, fin_error = (
                    self._pending_finalize.pop(self._next_finalize)
                )
                fin_job.completion_seq = self._completion_seq
                self._completion_seq += 1
                self._next_finalize += 1
                if self.on_finalize is not None:
                    self.on_finalize(fin_job, fin_payload, fin_state, fin_error)
            self.cond.notify_all()
