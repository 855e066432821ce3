"""Scheduler determinism: order is policy, never thread timing.

The headline test pins the subsystem invariant: the dispatch sequence,
the completion order, and every per-job result are identical for any
worker budget — the scheduler's decisions read only dispatch history,
and finalization is buffered into dispatch order exactly like the
engine folds chunks.
"""

import time

import pytest

from repro.errors import ConfigurationError, JobCancelledError
from repro.service import CampaignJob, Scheduler, TenantPolicy
from repro.service.jobs import next_job_id

SPEC_FIELDS = {
    "target": "rftc",
    "m_outputs": 1,
    "p_configs": 16,
    "plan_seed": 7,
}


def make_job(n, tenant="alice", n_traces=100, priority=0):
    return CampaignJob(
        job_id=next_job_id(n),
        tenant=tenant,
        spec_fields=SPEC_FIELDS,
        n_traces=n_traces,
        chunk_size=50,
        seed=123,
        requested_seed=42,
        cache_key=f"key-{n}",
        priority=priority,
        submit_seq=n,
    )


def jittery_runner(job, resume):
    """Deterministic payload, *non*-deterministic wall time: raw
    completion timing varies run to run, which is exactly what the
    in-order finalization must hide."""
    time.sleep((int(job.job_id[-2:]) % 4) * 0.003)
    return {"job_id": job.job_id, "work": job.n_traces * 2}


def run_set(jobs, worker_budget, policies=None):
    """Run ``jobs`` to completion; return (dispatch order, finalize log)."""
    dispatched, finalized = [], []
    scheduler = Scheduler(
        jittery_runner,
        worker_budget=worker_budget,
        policies=policies,
        on_dispatch=lambda job: dispatched.append(job.job_id),
        on_finalize=lambda job, payload, state, error: finalized.append(
            (job.job_id, job.completion_seq, state, payload)
        ),
    )
    for job in jobs:
        scheduler.submit(job)
    scheduler.start()
    assert scheduler.drain(timeout=60.0)
    scheduler.shutdown()
    return dispatched, finalized


class TestDeterminism:
    def test_order_and_results_invariant_across_worker_budgets(self):
        """Satellite contract: same job set + tenant quotas => identical
        completion order and per-job results at 1, 2, and 4 workers."""
        policies = {
            "alice": TenantPolicy(share=1.0),
            "bob": TenantPolicy(share=2.0),
        }

        def job_set():
            jobs = []
            for n in range(12):
                jobs.append(
                    make_job(
                        n,
                        tenant="alice" if n % 3 else "bob",
                        n_traces=50 + 25 * (n % 4),
                        priority=n % 2,
                    )
                )
            return jobs

        baseline = run_set(job_set(), worker_budget=1, policies=policies)
        for budget in (2, 4):
            assert run_set(job_set(), budget, policies) == baseline

    def test_finalize_order_follows_dispatch_not_raw_completion(self):
        """A short job dispatched second must not finalize first."""
        finalized = []
        release = {"a-slow": 0.05, "b-fast": 0.0}

        def runner(job, resume):
            time.sleep(release[job.tenant])
            return {"job_id": job.job_id}

        # "a-slow" wins the zero-charge name tie-break, so the slow job
        # holds dispatch seq 0 while the fast one overtakes it in wall
        # time.
        scheduler = Scheduler(
            runner,
            worker_budget=2,
            on_finalize=lambda job, payload, state, error: finalized.append(
                job.job_id
            ),
        )
        slow = make_job(0, tenant="a-slow")
        fast = make_job(1, tenant="b-fast")
        scheduler.submit(slow)
        scheduler.submit(fast)
        scheduler.start()
        assert scheduler.drain(timeout=30.0)
        scheduler.shutdown()
        assert finalized == [slow.job_id, fast.job_id]
        assert slow.completion_seq == 0 and fast.completion_seq == 1


class TestFairShare:
    def test_charges_follow_shares(self):
        """A share-2 tenant is dispatched work twice as fast: with equal
        per-job trace budgets the pick sequence interleaves 2:1."""
        policies = {
            "alice": TenantPolicy(share=1.0),
            "bob": TenantPolicy(share=2.0),
        }
        jobs = [make_job(n, tenant="alice") for n in range(0, 4)]
        jobs += [make_job(n, tenant="bob") for n in range(4, 8)]
        dispatched, _ = run_set(jobs, worker_budget=1, policies=policies)
        tenants = ["alice" if j in {job.job_id for job in jobs[:4]} else "bob"
                   for j in dispatched]
        assert tenants == ["alice", "bob", "bob", "alice",
                           "bob", "bob", "alice", "alice"]


class TestAging:
    def test_old_low_priority_job_overtakes_newer_high_priority(self):
        """Aging is measured in *dispatches elapsed since enqueue*: a
        priority-0 job enqueued twenty dispatches before a wall of
        priority-4 jobs has aged five steps (one per four dispatches),
        so its effective priority 5 runs it first."""
        dispatched = []
        scheduler = Scheduler(
            lambda job, resume: {},
            worker_budget=1,
            on_dispatch=lambda job: dispatched.append(job.job_id),
        )
        low = make_job(0, priority=0)
        scheduler.submit(low)  # enqueued at dispatch counter 0
        # Twenty dispatches elapse (journal-replay path) before the
        # high-priority submissions arrive: five aging steps of four.
        scheduler.restore_sequences(20, 0)
        highs = [make_job(n, priority=4) for n in range(1, 6)]
        for job in highs:
            scheduler.submit(job)
        scheduler.start()
        assert scheduler.drain(timeout=30.0)
        scheduler.shutdown()
        assert dispatched[0] == low.job_id

    def test_equal_age_keeps_priority_order(self):
        """Jobs enqueued at the same dispatch counter age together, so
        raw priority decides and submission order breaks ties."""
        dispatched = []
        scheduler = Scheduler(
            lambda job, resume: {},
            worker_budget=1,
            on_dispatch=lambda job: dispatched.append(job.job_id),
        )
        low = make_job(0, priority=0)
        highs = [make_job(n, priority=5) for n in range(1, 4)]
        scheduler.submit(low)
        for job in highs:
            scheduler.submit(job)
        scheduler.start()
        assert scheduler.drain(timeout=30.0)
        scheduler.shutdown()
        assert dispatched == [j.job_id for j in highs] + [low.job_id]


class TestLifecycle:
    def test_failures_and_cancels_reach_terminal_states(self):
        outcomes = {}

        def runner(job, resume):
            if job.tenant == "boom":
                raise ValueError("synthetic failure")
            if job.cancel_event.is_set():
                raise JobCancelledError("cancelled by test")
            return {"ok": True}

        scheduler = Scheduler(
            runner,
            worker_budget=1,
            on_finalize=lambda job, payload, state, error: outcomes.update(
                {job.job_id: (state, error)}
            ),
        )
        failing = make_job(0, tenant="boom")
        cancelled = make_job(1)
        cancelled.cancel_event.set()
        ok = make_job(2)
        for job in (failing, cancelled, ok):
            scheduler.submit(job)
        scheduler.start()
        assert scheduler.drain(timeout=30.0)
        scheduler.shutdown()
        assert outcomes[failing.job_id][0] == "failed"
        assert "ValueError" in outcomes[failing.job_id][1]
        assert outcomes[cancelled.job_id][0] == "cancelled"
        assert outcomes[ok.job_id] == ("done", None)

    def test_cancel_queued_and_finalize_now(self):
        scheduler = Scheduler(lambda job, resume: {}, worker_budget=1)
        job = make_job(0)
        scheduler.submit(job)
        assert scheduler.queued_count() == 1
        assert scheduler.cancel_queued(job.job_id)
        assert scheduler.queued_count() == 0
        assert not scheduler.cancel_queued("ghost")

        scheduler.finalize_now(job, None, "cancelled", "cancelled before run")
        other = make_job(1)
        scheduler.finalize_now(other, {"cached": True}, "done")
        assert (job.completion_seq, other.completion_seq) == (0, 1)
        scheduler.shutdown()

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            Scheduler(lambda job, resume: {}, worker_budget=0)

    def test_restore_sequences_refused_once_started(self):
        scheduler = Scheduler(lambda job, resume: {}, worker_budget=1)
        scheduler.restore_sequences(7, 5)
        scheduler.start()
        with pytest.raises(ConfigurationError):
            scheduler.restore_sequences(0, 0)
        scheduler.shutdown()
