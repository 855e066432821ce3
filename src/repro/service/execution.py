"""Running one job through the streaming engine, deterministically.

This module is the bridge between a :class:`~repro.service.jobs.CampaignJob`
and :class:`~repro.pipeline.StreamingCampaign`.  Two properties matter:

* **Bit-identity.**  ``run_job`` configures the engine exactly as a direct
  run would — same spec, same effective seed, same chunk size — so the
  service's result payload equals ``serialize_report`` of a caller's own
  ``StreamingCampaign.run`` with the tenant-namespaced seed (asserted by
  ``tests/service/test_server.py``).
* **Determinism of the payload.**  The serialized result carries *no
  timings and no worker/host facts*: it is a pure function of ``(spec,
  seed, n_traces, chunk_size)``, which is what makes it safe to serve
  from the :class:`~repro.service.cache.ResultCache` and to compare
  across runs.  Wall-clock accounting lives on the job record instead.

Each job runs in one of the service's long-lived job processes
(:class:`JobProcess`): forked once, one BLAS thread each, so concurrent
jobs share no GIL.  The job crosses the process's pipe as its fields;
the payload or the error comes back with the job's ``store_bytes``.

Cancellation is cooperative: a cancel crosses the same pipe, and the
engine's per-chunk progress callback finds it there and raises
:class:`JobCancelledError`, which the scheduler finalizes as
``cancelled`` rather than ``failed``.
"""

from __future__ import annotations

import multiprocessing
import pickle
import shutil
import signal
from pathlib import Path
from typing import Callable, List, Optional

from repro.errors import JobCancelledError, ServiceError, StorageExhaustedError
from repro.pipeline import (
    CompletionTimeConsumer,
    CpaStreamConsumer,
    PipelineReport,
    StreamingCampaign,
    TraceConsumer,
    TvlaStreamConsumer,
)
from repro.pipeline.spec import CampaignSpec
from repro.service.jobs import CampaignJob
from repro.utils.blas import set_blas_threads
from repro.utils.lifetime import die_with_parent

#: Version tag of the result payload layout.
RESULT_SCHEMA = "rftc-service-result/1"


def job_consumers(spec: CampaignSpec) -> List[TraceConsumer]:
    """The analysis stack the service runs for ``spec``.

    Every job gets completion-time statistics (the paper's Fig. 3
    metric); fixed-plaintext specs run TVLA over the interleaved rows,
    the rest run streaming CPA on key byte 0.
    """
    consumers: List[TraceConsumer] = [CompletionTimeConsumer()]
    if spec.fixed_plaintext is not None:
        consumers.append(TvlaStreamConsumer())
    else:
        consumers.append(CpaStreamConsumer(0))
    return consumers


def serialize_report(report: PipelineReport) -> dict:
    """The deterministic result payload for one finished campaign.

    Only seed-derived analysis outcomes are included — never timings,
    worker counts, retry counts, or store paths — so the payload is
    cache-safe and bit-comparable across hosts and runs.
    """
    from repro.attacks.models import expand_last_round_key

    spec = report.spec
    payload = {
        "schema": RESULT_SCHEMA,
        "spec_digest": spec.spec_digest(),
        "target": spec.label(),
        "n_traces": report.n_traces,
        "n_chunks": report.n_chunks,
        "chunk_size": report.chunk_size,
        "seed": report.seed,
        "mode": "tvla" if spec.fixed_plaintext is not None else "cpa",
    }
    completion = report.results["completion"]
    payload["completion"] = {
        "n_encryptions": completion.n_encryptions,
        "distinct_times": completion.distinct_times,
        "min_ns": completion.min_ns,
        "max_ns": completion.max_ns,
        "max_identical": completion.max_identical,
    }
    if payload["mode"] == "cpa":
        cpa = report.results["cpa[0]"]
        true_byte = int(expand_last_round_key(spec.key)[cpa.byte_index])
        payload["cpa"] = {
            "byte_index": cpa.byte_index,
            "best_guess": int(cpa.best_guess),
            "true_byte_rank": cpa.rank_of(true_byte),
            "peak_corr": [float(c) for c in cpa.peak_corr],
        }
    else:
        tvla = report.results["tvla"]
        payload["tvla"] = {
            "max_abs_t": float(tvla.max_abs_t),
            "n_fixed": int(tvla.n_fixed),
            "n_random": int(tvla.n_random),
        }
    return payload


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def run_job(
    job: CampaignJob,
    checkpoint_dir: Path,
    store_dir: Path,
    resume: bool,
    faults,
    cancelled: Callable[[], bool],
) -> dict:
    """Execute ``job`` to completion and return its result payload.

    Runs in a job process.  ``durable`` jobs checkpoint to
    ``checkpoint_dir / <job_id>.ckpt`` after every chunk; with
    ``resume=True`` and an existing checkpoint, the campaign continues
    from it (bit-identically, per the engine's resume contract) instead
    of restarting.  ``store`` jobs persist traces under
    ``store_dir / <tenant> / <job_id>`` and record the byte total on the
    job for quota accounting.

    ``faults`` (an optional :class:`~repro.testing.faults.FaultPlan`) is
    handed to the engine — the chaos harness injects system faults into
    service jobs through it.  A
    :class:`~repro.errors.StorageExhaustedError` (disk full mid-append)
    removes the job's partial store tree before propagating, so a
    ``FAILED`` job neither holds disk nor charges quota.

    Raises :class:`JobCancelledError` at the first chunk boundary at
    which ``cancelled()`` is true.
    """
    spec = job.spec()
    consumers = job_consumers(spec)

    checkpoint_path: Optional[Path] = None
    if job.durable:
        checkpoint_path = Path(checkpoint_dir) / f"{job.job_id}.ckpt"

    store_path: Optional[Path] = None
    if job.store:
        store_path = Path(store_dir) / job.tenant / job.job_id
        store_path.parent.mkdir(parents=True, exist_ok=True)

    def progress(update) -> None:
        if cancelled():
            raise JobCancelledError(f"job {job.job_id} cancelled")

    try:
        if resume and checkpoint_path is not None and checkpoint_path.is_file():
            report = StreamingCampaign.resume(
                store=str(store_path) if store_path is not None else None,
                checkpoint=checkpoint_path,
                consumers=consumers,
                workers=1,
                progress=progress,
                faults=faults,
            )
        else:
            engine = StreamingCampaign(
                spec,
                chunk_size=job.chunk_size,
                workers=1,
                seed=job.seed,
                faults=faults,
            )
            report = engine.run(
                job.n_traces,
                consumers=consumers,
                store=str(store_path) if store_path is not None else None,
                progress=progress,
                checkpoint=checkpoint_path,
            )
    except StorageExhaustedError:
        # The store already cleaned up its half-written chunk; drop the
        # whole partial tree so the FAILED job releases disk and quota.
        if store_path is not None and store_path.exists():
            shutil.rmtree(store_path, ignore_errors=True)
        job.store_bytes = 0
        raise

    if store_path is not None and store_path.exists():
        job.store_bytes = _tree_bytes(store_path)
    if checkpoint_path is not None and checkpoint_path.is_file():
        # The campaign finished; the resume point has served its purpose.
        checkpoint_path.unlink()
    return serialize_report(report)


#: What the service sends down a job process's pipe to cancel its job.
CANCEL = "cancel"


def _job_main(conn, checkpoint_dir: Path, store_dir: Path) -> None:
    """A job process's whole life: run the jobs that arrive on ``conn``.

    Each job arrives as ``(fields, resume, faults)`` and goes home as
    ``(store_bytes, payload or exception)``.  While a job runs, the
    only message that can arrive is :data:`CANCEL`, so a readable pipe
    at a chunk boundary cancels it; a cancel that arrives between jobs
    came after its job had finished, and is dropped.  The process dies
    with the daemon, runs its GEMMs on one BLAS thread (the job
    processes already occupy the CPUs), and leaves a terminal's Ctrl-C
    (SIGINT) to the daemon, which waits for running jobs on shutdown.
    It exits when the daemon closes the pipe.
    """
    die_with_parent()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    set_blas_threads(1)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message == CANCEL:
            continue
        fields, resume, faults = message
        job = CampaignJob.from_dict(fields)
        try:
            outcome = run_job(
                job, checkpoint_dir, store_dir, resume, faults, conn.poll
            )
        except Exception as exc:  # noqa: BLE001 - job failure is data
            outcome = _shippable(exc)
        conn.send((job.store_bytes, outcome))


def _shippable(exc: Exception) -> Exception:
    """``exc`` if it pickles and unpickles, else an error that names it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return ServiceError(
            f"the job failed with an error that does not pickle: "
            f"{type(exc).__name__}: {exc}"
        )
    return exc


class JobProcess:
    """One long-lived job process of the service, and its pipe.

    Forked (:meth:`start`) with the service's state directories; it runs
    one job at a time.  The service calls :meth:`send` and :meth:`cancel`
    under its lock, so a cancel always follows its job down the pipe,
    and :meth:`receive` on the job's lane, without the lock.
    """

    def __init__(self, checkpoint_dir: Path, store_dir: Path, name: str):
        self._args = (checkpoint_dir, store_dir)
        self.name = name
        #: The job this process runs, or ``None`` while it is free.
        self.job_id: Optional[str] = None
        self.start()

    def start(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_job_main, args=(child,) + self._args, name=self.name,
            daemon=True,
        )
        self.process.start()
        child.close()

    def send(self, job: CampaignJob, resume: bool, faults) -> None:
        """Hand ``job`` over; a cancel already requested follows it."""
        try:
            self._conn.send((job.to_dict(include_result=False), resume, faults))
        except OSError:
            return  # the process is dead; receive() finds out
        if job.cancel_event.is_set():
            self.cancel()

    def cancel(self) -> None:
        try:
            self._conn.send(CANCEL)
        except OSError:
            pass  # the process is dead; receive() finds out

    def receive(self):
        """The job's ``(store_bytes, payload or exception)``.

        ``None`` if the process died first; it is then replaced by a
        fresh one before this returns.
        """
        from multiprocessing.connection import wait

        ready = wait([self._conn, self.process.sentinel])
        if self._conn in ready:
            try:
                return self._conn.recv()
            except (EOFError, OSError):
                pass  # killed mid-send
        self.stop()
        self.start()
        return None

    def stop(self) -> None:
        """SIGKILL and reap the process; close the pipe."""
        self.process.kill()
        self.process.join()
        self._conn.close()
