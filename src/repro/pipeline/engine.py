"""The streaming campaign engine: parallel acquisition in bounded memory.

``StreamingCampaign`` shards a campaign into fixed-size chunks, acquires
them on worker processes it starts and stops itself, and streams each
finished chunk — in acquisition order — into an optional
:class:`~repro.store.ChunkedTraceStore` and any number of
:class:`~repro.pipeline.consumers.TraceConsumer` plug-ins.  Peak resident
trace memory is O(workers x chunk), never O(campaign), which is what
makes the paper's four-million-trace evaluations reachable.

Reproducibility contract
------------------------
The master seed feeds one :class:`numpy.random.SeedSequence`; chunk ``i``
gets child ``i`` of ``spawn(n_chunks)`` and derives from it a device
stream (countermeasure randomness) and a data stream (plaintexts, analog
noise).  Chunk results are therefore a pure function of ``(spec, seed,
chunk layout)`` — the worker count only decides *where* a chunk is
computed, and the parent folds chunks in index order, so consumer output
is identical for 1 or N workers (asserted by the test suite).  The same
holds for a :class:`~repro.pipeline.consumers.SummarizingConsumer`,
whose per-chunk summary a pooled run computes in the worker that
acquired the chunk: the parent folds the summaries in index order.
Store writes split the same way: the process that acquired a chunk
writes and hashes its files, and the parent commits the manifest
entries in index order, so store bytes are identical too.

Fault tolerance
---------------
The same purity is what makes multi-hour campaigns *restartable*:

* a chunk is never retried: its acquisition is in-memory work and a
  pure function of its spawned seeds, so a chunk that raised once would
  raise again, and a worker exception fails the run on its first
  attempt, pooled or inline;
* if a worker dies, a chunk times out, or a chunk cannot be published
  to shared memory, the engine stops its workers and **degrades** to
  inline single-process execution for the remaining chunks instead of
  aborting (``PipelineReport.degraded``);
* with ``checkpoint=...`` the engine writes an atomic
  :class:`~repro.pipeline.checkpoint.CampaignCheckpoint` after every
  folded chunk, and :meth:`StreamingCampaign.resume` continues a killed
  campaign — replaying chunks already persisted to the store and
  re-deriving the rest — with bit-identical final results.

See ``docs/robustness.md`` for the guarantees and their tests.

Observability
-------------
Every interval the engine times is a :class:`~repro.obs.Tracer` span:
per-chunk acquire/await/fold/store/checkpoint spans in the parent, and
acquisition-stage, summarize and store-write spans in whichever process
acquired the chunk.  Workers trace into per-chunk buffers that ride home
with each chunk result, and the timing fields of :class:`PipelineReport`
are sums over the run's spans.  Pass an
:class:`~repro.obs.Observability` bundle and the same spans also feed
its histograms and, when its tracer records, one JSONL trace covering
the parent and its workers; degradation counters and throughput gauges
join them (see ``docs/observability.md`` for the catalogue).
Instrumentation never touches the chunk RNG streams or persisted bytes:
results are bit-identical with observability on or off
(``tests/pipeline/test_observability.py``).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import (
    AcquisitionError,
    CheckpointError,
    ConfigurationError,
    PoolBrokenError,
    StorageExhaustedError,
)
from repro.obs import NULL_OBS, NullTracer, Observability, Tracer
from repro.obs.metrics import MetricsSnapshot
from repro.pipeline import shm as shm_transport
from repro.pipeline.checkpoint import CampaignCheckpoint
from repro.pipeline.consumers import SummarizingConsumer, TraceConsumer
from repro.pipeline.spec import CampaignSpec
from repro.power.acquisition import TraceSet
from repro.store import (
    ChunkedTraceStore,
    WrittenChunk,
    count_write_failure,
    discard_chunk_files,
    write_chunk_files,
)
from repro.testing.faults import FaultPlan
from repro.utils.blas import set_blas_threads
from repro.utils.lifetime import die_with_parent

class _ChunkTask(NamedTuple):
    """A unit of worker work: everything needed to acquire one chunk."""

    index: int
    n_traces: int
    seed: np.random.SeedSequence
    spec: CampaignSpec
    faults: Optional[FaultPlan]
    #: Campaign index of the chunk's first trace — what
    #: environment-drift models key on (see :mod:`repro.power.drift`).
    trace_offset: int
    #: Where the acquiring process writes the chunk's files: (store
    #: directory, store chunk index); ``None`` without a store.
    store: Optional[Tuple[Path, int]] = None


class _ChunkResult(NamedTuple):
    """One chunk on its way to the fold, whichever source produced it."""

    index: int
    chunk: Union[TraceSet, shm_transport.ShmChunkHandle]  # a handle until received
    replayed: bool  # folded from the store, not acquired by this run
    metrics: Optional[MetricsSnapshot]  # the acquiring process's; None if replayed
    events: List[dict]  # trace events drained from that process
    summaries: Dict[int, object]  # worker summaries, by consumer position
    written: Optional[WrittenChunk]  # the chunk's files, for the store to commit
    degraded: bool = False  # acquired inline after the workers failed
    transport: str = "inline"  # how its source ships chunks home (PipelineReport)


def _summarizers(consumers: Sequence[TraceConsumer]) -> Dict[int, object]:
    """The summarizers a pooled run ships to its workers, by consumer position.

    A consumer offers one when it is a :class:`SummarizingConsumer` that
    kept the inherited ``consume`` (a subclass overriding ``consume``
    must have that override run, in the parent).  Every other consumer
    is fed whole chunks in the parent.  A ``spawn`` worker starts from
    pickled arguments, so a summarizer must pickle.
    """
    return {
        position: consumer.summarizer()
        for position, consumer in enumerate(consumers)
        if isinstance(consumer, SummarizingConsumer)
        and type(consumer).consume is SummarizingConsumer.consume
    }


def _acquire_chunk(
    task: _ChunkTask, summarizers: Dict[int, object],
    ring: Optional[shm_transport.WorkerRing],
) -> _ChunkResult:
    """Build a fresh device and acquire one chunk.

    With a ``ring`` (a worker on the shared-memory transport) the chunk
    comes home as a :class:`~repro.pipeline.shm.ShmChunkHandle` parked
    in the worker's ring slot; otherwise (inline, or the pickle
    transport) the :class:`TraceSet` itself is returned.  A failed
    publish raises :class:`~repro.errors.PoolBrokenError`: the parent's
    one recovery path for a chunk that cannot get home.

    Runs in the parent, as ``_acquire_chunk(task, {}, None)``, when
    ``workers == 1`` (or after degradation) and in the engine's worker
    processes otherwise; either way the chunk's randomness comes only
    from its spawned seed sequence, never from process-local state.
    Nothing here is retried: the acquisition is in-memory work and a
    pure function of those seeds, so an exception would recur on a
    second attempt; it reaches the parent and fails the run.

    The acquisition runs under an ``acquire_chunk`` span of a *private*
    observability bundle (clocks are per-process, so worker spans never
    share the parent timebase) that also instruments the device; its
    metrics snapshot and drained trace events always ride home in the
    returned :class:`_ChunkResult` (``metrics``, ``events``), where the
    parent folds them into the run's report and, when observed, its
    metrics and trace.  Observation reads clocks only — the chunk's RNG
    streams and bytes are untouched.

    The chunk's summaries, one per entry of ``summarizers`` (a worker's;
    inline acquisition passes none), are computed once the acquisition
    has succeeded; they ride in the ring slot with a published chunk,
    and in ``summaries`` otherwise.  A summarizer that raises fails the
    run the same way: its error is the consumer's own, and it reaches
    the parent in place of the chunk.

    When the task names a store, this process then writes the chunk's
    files into it (:func:`~repro.store.write_chunk_files`, under a
    ``store_write`` span) and ships home only their checksums and byte
    counts, in ``written``; the parent commits them in chunk order.  A
    failed write raises, like a failed append in the parent would.
    """
    index, n, chunk_seed, spec, faults, trace_offset, store_target = task
    obs = Observability.create(origin=f"worker:chunk-{index}")
    device_seq, data_seq = chunk_seed.spawn(2)
    with obs.tracer.span("acquire_chunk", chunk=index, traces=n):
        if faults is not None:
            faults.check_worker(index)
        device = spec.build_device(np.random.default_rng(device_seq))
        device.obs = obs
        device.trace_offset = trace_offset
        rng = np.random.default_rng(data_seq)
        plaintexts = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
        if spec.fixed_plaintext is not None:
            plaintexts[0::2] = np.frombuffer(spec.fixed_plaintext, dtype=np.uint8)
        chunk = device.run(plaintexts, rng)
    chunk.metadata["chunk_index"] = index
    if spec.fixed_plaintext is not None:
        chunk.metadata["tvla_interleaved"] = True
    summaries = {}
    for position, summarizer in summarizers.items():
        with obs.tracer.span("summarize", chunk=index, consumer=summarizer.name):
            summaries[position] = summarizer.summarize(chunk)
    written = None
    if store_target is not None:
        directory, store_index = store_target
        with obs.tracer.span("store_write", chunk=index):
            written = write_chunk_files(directory, store_index, chunk, faults)
    if ring is not None:
        try:
            if faults is not None:
                faults.check_shm_publish(index)
            chunk = ring.publish(chunk, summaries)
        except OSError as exc:
            # /dev/shm exhausted mid-run (or injected): the chunk cannot
            # get home, which the parent treats like a dead worker — it
            # stops the workers and acquires the rest inline.
            raise PoolBrokenError(
                f"shared-memory publish of chunk {index} failed: {exc}"
            ) from exc
        summaries = {}  # they ride in the ring slot with the chunk
    return _ChunkResult(
        index, chunk, False, obs.metrics.snapshot(), obs.tracer.drain(),
        summaries, written,
    )


def _work(
    conn, inherited: Sequence[object], tasks: Sequence[_ChunkTask],
    summarizers: Dict[int, object], ring: Optional[shm_transport.WorkerRing],
) -> None:
    """A worker's whole life: acquire ``tasks`` in order, send each
    result home on ``conn``, then exit.

    It first ties its life to the parent's
    (:func:`~repro.utils.lifetime.die_with_parent`)
    and closes ``inherited``: under ``fork``, its copies of the receive
    ends of its own pipe and of the workers started before it (while
    any copy is open, a send to a dead parent without the death signal
    blocks instead of failing); under other start methods, nothing.
    The workers already occupy the CPUs, so a worker's GEMM gets one
    BLAS thread; more would only preempt each other (see
    :mod:`repro.utils.blas`).  A ``hang@K`` fault blocks here, before
    the acquisition, so inline acquisition never hangs.  An exception
    is sent home in place of the chunk and ends the worker; one that
    does not survive pickling goes home as an
    :class:`~repro.errors.AcquisitionError` naming it, so it still fails
    the run instead of looking like a dead worker.
    """
    die_with_parent()
    for receiver in inherited:
        receiver.close()
    set_blas_threads(1)
    for task in tasks:
        if task.faults is not None:
            task.faults.check_hang(task.index)
        try:
            result = _acquire_chunk(task, summarizers, ring)
        except Exception as exc:
            conn.send(_shippable(exc, task.index))
            return
        conn.send(result)
        del result


def _shippable(exc: Exception, index: int) -> Exception:
    """``exc`` if it pickles and unpickles, else an error that names it."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return AcquisitionError(
            f"chunk {index} failed in a worker with an error that does not "
            f"pickle: {type(exc).__name__}: {exc}"
        )
    return exc


def _receive(conn, proc, timeout_s: Optional[float]) -> _ChunkResult:
    """Worker ``proc``'s next chunk result, from its pipe ``conn``.

    Waits on the pipe and on the worker's exit together, for at most
    ``timeout_s`` (the engine's ``chunk_timeout_s``).  A worker that
    exited, one killed mid-send (``recv`` raises ``OSError``: "got end
    of file during message") and a wait that timed out all raise
    :class:`~repro.errors.PoolBrokenError`: the chunk cannot come home.
    An exception the worker sent in place of the chunk is re-raised as
    is.
    """
    from multiprocessing.connection import wait

    ready = wait([conn, proc.sentinel], timeout_s)
    if conn in ready:
        try:
            message = conn.recv()
        except (EOFError, OSError) as exc:
            raise PoolBrokenError(
                f"{proc.name} died before its chunk came home ({exc!r})"
            ) from exc
        if isinstance(message, BaseException):
            raise message
        return message
    if ready:
        raise PoolBrokenError(f"{proc.name} exited with code {proc.exitcode}")
    raise PoolBrokenError(f"no chunk result within {timeout_s} s")


def _stop(workers: Sequence[Tuple[object, object]]) -> None:
    """SIGKILL and reap every ``(process, pipe)`` worker.

    Once this returns no worker is running, so none is still writing
    chunk files when the inline fallback rewrites them or the engine
    deletes the files of chunks it never committed.  A worker that
    already exited is only reaped.
    """
    for proc, _ in workers:
        proc.kill()
    for proc, conn in workers:
        proc.join()
        conn.close()


# -- chunk sources -----------------------------------------------------
#
# Each yields one _ChunkResult per chunk, in index order, for the one
# fold loop of StreamingCampaign._execute.  A source never yields inside
# an open span: span parents come from the tracer's stack, and the fold's
# spans must nest in the campaign span, not in a source's.


def _replayed(
    store: Optional[ChunkedTraceStore], tasks: List[_ChunkTask],
    start: int, stop: int,
) -> Iterator[_ChunkResult]:
    """Chunks ``start..stop-1`` as the store holds them (resume only).

    They are folded from disk — never re-acquired, so store bytes are
    untouched and consumer folds see the exact same data.  The source
    drops its reference to each chunk once it is yielded, so a folded
    chunk is freed before ``store.chunk`` reads the next one.
    """
    for index in range(start, stop):
        chunk = store.chunk(index)
        if chunk.n_traces != tasks[index].n_traces:
            raise CheckpointError(
                f"stored chunk {index} holds {chunk.n_traces} traces; the "
                f"campaign layout expects {tasks[index].n_traces}"
            )
        yield _ChunkResult(index, chunk, True, None, [], {}, None)
        del chunk


def _count_write_failure(task: _ChunkTask, metrics, exc: BaseException) -> None:
    # The chunk's file write failed where it was acquired; a failing
    # acquisition ships no metrics, so the parent counts it.
    if task.store is not None:
        count_write_failure(metrics, exc)


def _inline(tasks: Sequence[_ChunkTask], metrics) -> Iterator[_ChunkResult]:
    """Acquire ``tasks`` in this process: ``workers=1``, and the rest of
    a run whose workers failed.

    The source drops its reference to each record once it is yielded,
    so a folded chunk is freed before the next acquisition starts.
    """
    for task in tasks:
        try:
            result = _acquire_chunk(task, {}, None)
        except (StorageExhaustedError, OSError) as exc:
            _count_write_failure(task, metrics, exc)
            raise
        yield result
        del result


def _pooled(
    engine: "StreamingCampaign", tasks: Sequence[_ChunkTask],
    consumers: Sequence[TraceConsumer], tracer: Tracer,
) -> Iterator[_ChunkResult]:
    """Acquire ``tasks`` on worker processes, yielding them in index order.

    Owns the workers' whole life.  At the first ``next()`` (so after any
    replay) it builds the shared-memory ring and starts ``n`` daemon
    processes, each with its own one-way pipe: worker ``w`` acquires
    ``tasks[w::n]`` in order (:func:`_work`), so chunk ``k`` comes from
    worker ``k % n`` and each worker's chunk indices increase, which
    keeps the ring deadlock-free (see :mod:`repro.pipeline.shm`).  On
    the pipe a worker blocks mid-send until the parent reads, so it runs
    at most one chunk ahead of the fold.

    If a chunk cannot come home (:func:`_receive` raises
    :class:`~repro.errors.PoolBrokenError`: a dead worker, a timeout, a
    failed publish) the workers are stopped and the rest, from that
    chunk on, is acquired by :func:`_inline` — the one hand-off from
    workers to inline.  Every exit, a caller's ``close()`` included,
    SIGKILLs and reaps the workers and sweeps the ring; a parent killed
    before any of that takes its workers along (:func:`_work`).  The
    source keeps no chunk once it is yielded.
    """
    metrics = engine.obs.metrics
    ctx = multiprocessing.get_context(engine.start_method)
    n_procs = min(engine.workers, len(tasks))
    ring = None
    if shm_transport.shm_available():
        try:
            ring = shm_transport.ChunkTransportRing(ctx, n_procs)
        except OSError:
            # The host has no room for a ring (semaphores or /dev/shm
            # exhausted): chunks use the pipe.
            ring = None
    transport = "shm-ring" if ring is not None else "pickle"
    summarizers = _summarizers(consumers)
    # Only a forked worker inherits the parent's receive ends.
    forked = ctx.get_start_method() == "fork"
    workers: List[tuple] = []
    try:
        for w in range(n_procs):
            receiver, sender = ctx.Pipe(duplex=False)
            inherited = [conn for _, conn in workers] + [receiver]
            proc = ctx.Process(
                target=_work, name=f"campaign-worker-{w}", daemon=True,
                args=(
                    sender, inherited if forked else [],
                    tasks[w::n_procs], summarizers,
                    ring.publisher(w) if ring is not None else None,
                ),
            )
            proc.start()
            # The worker holds the only send end, so its exit is EOF here.
            sender.close()
            workers.append((proc, receiver))
        for position, task in enumerate(tasks):
            proc, conn = workers[position % n_procs]
            try:
                if engine.faults is not None:
                    engine.faults.check_pool(task.index)
                with tracer.span("await_chunk", chunk=task.index):
                    result = _receive(conn, proc, engine.chunk_timeout_s)
                if isinstance(result.chunk, shm_transport.ShmChunkHandle):
                    chunk, summaries = ring.receive(
                        result.chunk, key=engine.spec.key
                    )
                    metrics.inc("campaign_shm_chunks_total")
                    result = result._replace(chunk=chunk, summaries=summaries)
                    # Only the record holds the chunk, so it is freed
                    # once folded, before the next receive allocates.
                    del chunk, summaries
            except PoolBrokenError:
                break
            except (StorageExhaustedError, OSError) as exc:
                _count_write_failure(task, metrics, exc)
                raise
            yield result._replace(transport=transport)
            del result
        else:
            return
        # The workers (not the chunk) failed: stop them and limp home
        # inline rather than losing the campaign.
        metrics.inc("campaign_pool_failures_total")
        tracer.instant(
            "pool_degraded", chunk=task.index, remaining=len(tasks) - position,
        )
        _stop(workers)
        if task.store is not None:
            # A worker stopped mid-write leaves a temporary behind; the
            # inline path rewrites these chunks from scratch.
            directory, first = task.store
            discard_chunk_files(
                directory, range(first, first + len(tasks) - position)
            )
        for result in _inline(tasks[position:], metrics):
            yield result._replace(degraded=True, transport=transport)
    finally:
        _stop(workers)
        if ring is not None:
            # Sweep the ring on every exit path — normal completion,
            # degrade, timeout, crash, SIGINT — so no segment can outlive
            # the campaign.
            ring.unlink_all()


@dataclass
class ChunkProgress:
    """What a progress callback sees after each chunk is folded."""

    chunk_index: int
    n_chunks: int
    chunk_traces: int
    done_traces: int
    total_traces: int
    elapsed_seconds: float

    @property
    def traces_per_second(self) -> float:
        return self.done_traces / self.elapsed_seconds if self.elapsed_seconds else 0.0


ProgressCallback = Callable[[ChunkProgress], None]


@dataclass
class PipelineReport:
    """Outcome + per-stage wall-clock accounting of one pipeline run.

    Every timing field is a sum over the run's spans (see
    :mod:`repro.obs.tracing`): ``wall_seconds`` is the ``campaign``
    span; ``acquire_seconds`` sums the ``acquire_chunk`` spans of the
    processes that acquired the chunks (it exceeds the wall clock when
    workers overlap); ``consume_seconds`` sums the parent's ``consume``
    spans.  ``store_seconds`` sums the parent's ``store_append`` spans
    (checks, disk budget, manifest rewrite) and the ``store_write``
    spans in which the acquiring process — a worker on a pooled
    run — wrote and hashed each chunk's files; neither is part of
    ``acquire_seconds``.

    The recovery fields tell an operator whether the run limped home:
    ``degraded`` flags a pool failure that forced the remaining
    ``degraded_chunks`` to run inline, and ``resumed_from_chunk`` /
    ``replayed_chunks`` describe a checkpoint resume.
    """

    spec: CampaignSpec
    n_traces: int
    chunk_size: int
    n_chunks: int
    workers: int
    seed: int
    wall_seconds: float
    acquire_seconds: float
    consume_seconds: float
    store_seconds: float
    results: Dict[str, object] = field(default_factory=dict)
    store_path: Optional[Path] = None
    #: Acquisition time split by measurement-chain stage (schedule /
    #: crypto / leakage / synth / capture): the ``acquire_stage`` spans,
    #: which nest inside ``acquire_chunk``, summed over chunks and workers.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Chunks acquired inline after the workers failed (see ``degraded``).
    degraded_chunks: int = 0
    #: First chunk index acquired by this run when resuming (``None``
    #: for a fresh campaign).
    resumed_from_chunk: Optional[int] = None
    #: Chunks folded from the store rather than re-acquired on resume.
    replayed_chunks: int = 0
    #: How fresh chunks travelled home: ``"shm-ring"`` (shared-memory
    #: segments), ``"pickle"`` (each worker's pipe), or ``"inline"``
    #: (no workers — single worker or nothing fresh to acquire).
    transport: str = "inline"

    @property
    def retried_chunks(self) -> int:
        """Always 0: the engine never retries a chunk.

        Kept, read-only, only because the benchmark ledger still reads
        it into its ``engine.retried_chunks`` row; it goes with that row.
        """
        return 0

    @property
    def degraded(self) -> bool:
        """True when the workers failed and the engine finished inline.

        Every worker failure inlines at least the chunk it was awaiting,
        so this is exactly ``degraded_chunks > 0``.
        """
        return self.degraded_chunks > 0

    @property
    def traces_per_second(self) -> float:
        return self.n_traces / self.wall_seconds if self.wall_seconds else 0.0

    def summary(self) -> str:
        lines = [
            f"{self.spec.label()}: {self.n_traces} traces in "
            f"{self.n_chunks} chunks of <= {self.chunk_size} "
            f"({self.workers} worker{'s' if self.workers != 1 else ''}, seed {self.seed})",
            f"  wall    : {self.wall_seconds:.2f} s "
            f"({self.traces_per_second:.0f} traces/s)",
            f"  acquire : {self.acquire_seconds:.2f} s (summed over workers)",
            f"  consume : {self.consume_seconds:.2f} s",
        ]
        if self.transport != "inline":
            lines.append(f"  chunks  : {self.transport} transport")
        if self.stage_seconds:
            split = ", ".join(
                f"{stage} {seconds:.2f} s"
                for stage, seconds in self.stage_seconds.items()
            )
            lines.append(f"  stages  : {split}")
        if self.store_path is not None:
            lines.append(
                f"  store   : {self.store_seconds:.2f} s -> {self.store_path}"
            )
        if self.resumed_from_chunk is not None:
            line = f"  resume  : continued at chunk {self.resumed_from_chunk}"
            if self.replayed_chunks:
                line += f" ({self.replayed_chunks} chunk(s) replayed from store)"
            lines.append(line)
        if self.degraded:
            lines.append(
                "  recovery: pool failed -> DEGRADED to inline execution "
                f"for {self.degraded_chunks} chunk(s)"
            )
        return "\n".join(lines)


class StreamingCampaign:
    """Chunked, parallel acquisition with pluggable streaming analysis.

    Parameters
    ----------
    spec:
        What to acquire from (see :class:`CampaignSpec`).
    chunk_size:
        Traces per chunk — the memory/scheduling granularity.
    workers:
        Process count; ``1`` runs inline (no workers, identical
        results).  Otherwise the engine starts ``min(workers, chunks)``
        processes and owns them: worker ``w`` acquires chunks ``w``,
        ``w + workers``, ... in order and ships them home through its
        shared-memory ring (:mod:`repro.pipeline.shm`) when the host
        supports one, else pickled through its own pipe; chunk bytes
        are identical either way.  A worker is never respawned, and
        every exit of a run SIGKILLs and reaps its workers.
    seed:
        Master seed of the campaign's ``SeedSequence`` tree.
    start_method:
        Optional ``multiprocessing`` start method (defaults to the
        platform's; ``"fork"`` on Linux keeps warmed plan caches shared).
    chunk_timeout_s:
        Parent-side cap on waiting for one pooled chunk, including the
        worker-side ``summarize`` of its summarizing consumers; on
        expiry the worker is presumed wedged and the engine degrades to
        inline execution.  ``None`` (default) waits as long as the
        chunk takes, but a worker that dies mid-campaign degrades the
        run the same way at once: the parent waits on the worker's
        exit together with its pipe.
    store_budget_bytes:
        Optional disk budget applied to the campaign's store
        (:attr:`ChunkedTraceStore.disk_budget_bytes`).  It is checked
        when the parent commits a chunk, after the acquiring process
        wrote the chunk's files: a chunk that would breach it fails
        with :class:`~repro.errors.StorageExhaustedError` and its files
        are deleted.
    faults:
        Optional :class:`~repro.testing.faults.FaultPlan` driving the
        deterministic fault-injection harness (tests / ``--inject-fault``).
    obs:
        Optional :class:`~repro.obs.Observability` bundle; when given,
        the engine records metrics and spans into it (CLI
        ``--metrics-out``/``--trace-out``).  Defaults to the null
        bundle: the run's spans then go to a private tracer that only
        sums them for the report.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        chunk_size: int = 5000,
        workers: int = 1,
        seed: int = 0,
        start_method: Optional[str] = None,
        chunk_timeout_s: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        obs: Optional[Observability] = None,
        store_budget_bytes: Optional[int] = None,
    ):
        if chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if chunk_timeout_s is not None and chunk_timeout_s <= 0:
            raise ConfigurationError(
                f"chunk_timeout_s must be positive, got {chunk_timeout_s}"
            )
        if store_budget_bytes is not None and store_budget_bytes < 1:
            raise ConfigurationError("store_budget_bytes must be >= 1")
        self.spec = spec
        self.chunk_size = int(chunk_size)
        self.workers = int(workers)
        self.seed = int(seed)
        self.start_method = start_method
        self.chunk_timeout_s = chunk_timeout_s
        self.faults = faults
        self.obs = obs if obs is not None else NULL_OBS
        self.store_budget_bytes = store_budget_bytes

    def chunk_layout(self, n_traces: int) -> List[int]:
        """Chunk sizes for a campaign of ``n_traces`` (last may be short)."""
        if n_traces < 1:
            raise ConfigurationError("n_traces must be >= 1")
        sizes = [self.chunk_size] * (n_traces // self.chunk_size)
        if n_traces % self.chunk_size:
            sizes.append(n_traces % self.chunk_size)
        return sizes

    def _tasks(self, n_traces: int) -> List[_ChunkTask]:
        sizes = self.chunk_layout(n_traces)
        seeds = np.random.SeedSequence(self.seed).spawn(len(sizes))
        offsets = [0] * len(sizes)
        for index in range(1, len(sizes)):
            offsets[index] = offsets[index - 1] + sizes[index - 1]
        return [
            _ChunkTask(
                index, size, seeds[index], self.spec, self.faults,
                offsets[index],
            )
            for index, size in enumerate(sizes)
        ]

    def run(
        self,
        n_traces: int,
        consumers: Sequence[TraceConsumer] = (),
        store: Union[ChunkedTraceStore, str, Path, None] = None,
        progress: Optional[ProgressCallback] = None,
        checkpoint: Union[str, Path, None] = None,
    ) -> PipelineReport:
        """Acquire ``n_traces``, streaming chunks to consumers and store.

        ``store`` may be an open :class:`ChunkedTraceStore` or a path (a
        fresh store is created there).  Chunks are folded strictly in
        index order even when workers finish out of order.  With
        ``checkpoint`` set, an atomic resume point is rewritten after
        every folded chunk (see :meth:`resume`).
        """
        tasks = self._tasks(n_traces)
        return self._execute(
            n_traces,
            tasks,
            consumers=consumers,
            store=store,
            progress=progress,
            checkpoint_path=checkpoint,
            folded_chunks=0,
            replay_until=0,
            resumed_from=None,
        )

    @classmethod
    def resume(
        cls,
        store: Union[ChunkedTraceStore, str, Path, None],
        checkpoint: Union[CampaignCheckpoint, str, Path],
        consumers: Sequence[TraceConsumer] = (),
        workers: int = 1,
        progress: Optional[ProgressCallback] = None,
        checkpoint_path: Union[str, Path, None] = None,
        chunk_timeout_s: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        obs: Optional[Observability] = None,
    ) -> PipelineReport:
        """Continue an interrupted campaign from its checkpoint.

        Rebuilds the campaign (spec, seed, chunk layout) from the
        checkpoint, restores ``consumers`` (which must match the
        checkpointed names) onto their saved accumulator states, folds
        any chunks the store holds beyond the checkpoint (a crash
        between store append and checkpoint write loses nothing), then
        acquires the remaining chunks from the same ``SeedSequence``
        tree.  Because chunk content is a pure function of ``(spec,
        seed, chunk layout)``, the final consumer results and store
        bytes are **bit-identical** to an uninterrupted run.  A store
        another campaign wrote (another key, dtype, recorded seed or
        target, or chunk layout) is refused with
        :class:`~repro.errors.CheckpointError` before anything is folded.

        Checkpoints keep being written during the resumed run — to
        ``checkpoint_path`` if given, else to the path ``checkpoint``
        was loaded from.
        """
        if isinstance(checkpoint, CampaignCheckpoint):
            ckpt = checkpoint
        else:
            if checkpoint_path is None:
                checkpoint_path = checkpoint
            ckpt = CampaignCheckpoint.load(checkpoint)
        engine = cls(
            ckpt.spec(),
            chunk_size=ckpt.chunk_size,
            workers=workers,
            seed=ckpt.seed,
            chunk_timeout_s=chunk_timeout_s,
            faults=faults,
            obs=obs,
        )
        ckpt.restore_consumers(consumers)
        tasks = engine._tasks(ckpt.n_traces)
        if not 0 <= ckpt.chunks_done <= len(tasks):
            raise CheckpointError(
                f"checkpoint claims {ckpt.chunks_done} folded chunks but the "
                f"campaign has {len(tasks)}"
            )
        if store is not None and not isinstance(store, ChunkedTraceStore):
            store = ChunkedTraceStore.open(store)
        replay_until = ckpt.chunks_done
        if store is not None:
            # What the store records of the campaign that wrote it must be
            # this campaign; a store without metadata records no seed or
            # target, and an empty one no dtype.
            mismatched = [
                f"{name} {recorded!r} != {expected!r}"
                for name, recorded, expected in (
                    ("key", store.key.hex(), engine.spec.key.hex()),
                    ("dtype", store.dtype, engine.spec.dtype),
                    ("seed", store.metadata.get("seed"), ckpt.seed),
                    ("target", store.metadata.get("target"), engine.spec.label()),
                )
                if recorded is not None and recorded != expected
            ]
            if mismatched:
                raise CheckpointError(
                    "store was written by another campaign "
                    f"({', '.join(mismatched)}); wrong store for this "
                    "checkpoint?"
                )
            layout = [task.n_traces for task in tasks]
            if store.n_chunks > len(tasks):
                raise CheckpointError(
                    f"store holds {store.n_chunks} chunks; the campaign has "
                    f"only {len(tasks)}"
                )
            if store.n_chunks < ckpt.chunks_done:
                raise CheckpointError(
                    f"store holds {store.n_chunks} chunks but the checkpoint "
                    f"folded {ckpt.chunks_done}; chunks were persisted before "
                    "being checkpointed, so this store cannot have written "
                    "this checkpoint"
                )
            if store.chunk_sizes() != layout[: store.n_chunks]:
                raise CheckpointError(
                    "store chunk sizes do not match the campaign layout; "
                    "wrong store for this checkpoint?"
                )
            replay_until = store.n_chunks
        return engine._execute(
            ckpt.n_traces,
            tasks,
            consumers=consumers,
            store=store,
            progress=progress,
            checkpoint_path=checkpoint_path,
            folded_chunks=ckpt.chunks_done,
            replay_until=replay_until,
            resumed_from=ckpt.chunks_done,
        )

    # -- core ----------------------------------------------------------

    def _create_store(self, path: Path, chunk: TraceSet) -> ChunkedTraceStore:
        """The deferred store, created at the first commit from the first
        chunk, which knows the sample period."""
        return self._attach(ChunkedTraceStore.create(
            path,
            key=self.spec.key,
            sample_period_ns=chunk.sample_period_ns,
            metadata={
                "target": self.spec.label(),
                "seed": self.seed,
                "chunk_size": self.chunk_size,
            },
        ))

    def _attach(self, store: ChunkedTraceStore) -> ChunkedTraceStore:
        """Give ``store`` this run's metrics, faults and disk budget."""
        store.metrics = self.obs.metrics
        store.faults = self.faults
        if self.store_budget_bytes is not None:
            store.disk_budget_bytes = self.store_budget_bytes
        return store

    def _execute(
        self,
        n_traces: int,
        tasks: List[_ChunkTask],
        consumers: Sequence[TraceConsumer],
        store: Union[ChunkedTraceStore, str, Path, None],
        progress: Optional[ProgressCallback],
        checkpoint_path: Union[str, Path, None],
        folded_chunks: int,
        replay_until: int,
        resumed_from: Optional[int],
    ) -> PipelineReport:
        """Fold every chunk of ``tasks`` from ``folded_chunks`` on.

        Chunks before ``replay_until`` come from the store
        (:func:`_replayed`), the rest from workers (:func:`_pooled`) or
        this process (:func:`_inline`).  One loop folds each record:
        store commit, consumers in order, checkpoint, counters,
        ``progress``, then the crash hook.  On every exit the source is
        closed first (the workers are gone), then the files of chunks this
        run wrote and did not commit are deleted.
        """
        store_path: Optional[Path] = None
        if store is not None and not isinstance(store, ChunkedTraceStore):
            # Deferred: created at the first commit, from the first chunk,
            # which knows the sample period without building a throwaway
            # device here.
            store_path, store = Path(store), None
        elif store is not None:
            self._attach(store)
        if checkpoint_path is not None:
            checkpoint_path = Path(checkpoint_path)
            # Fail on un-checkpointable consumers up front, not at chunk 1.
            CampaignCheckpoint.capture(
                self.spec, self.seed, self.chunk_size, n_traces,
                folded_chunks, consumers,
            )
        if store_path is not None:
            # Chunk files are written before that first commit.
            ChunkedTraceStore.prepare(store_path)
        self.spec.warm_caches()

        obs = self.obs
        # The run's one clock: the caller's tracer, else a private one
        # that buffers nothing and only sums the spans for the report.
        tracer = obs.tracer
        if isinstance(tracer, NullTracer):
            tracer = Tracer()
            tracer.enabled = False
            tracer.metrics = obs.metrics
        before = tracer.totals()
        if obs.metrics.enabled:
            # Consumers that expose a metrics hook report their own
            # counters (e.g. the incremental CPA accumulators).
            for consumer in consumers:
                set_metrics = getattr(consumer, "set_metrics", None)
                if callable(set_metrics):
                    set_metrics(obs.metrics)
        obs.metrics.set_gauge("campaign_total_traces", n_traces)
        obs.metrics.set_gauge("campaign_workers", self.workers)

        fresh = tasks[max(folded_chunks, replay_until):]
        # Fresh chunk k is written as store chunk store_base + k, so the
        # parent's in-order commits meet exactly the files written.
        store_dir = store.path if store is not None else store_path
        store_base = store.n_chunks if store is not None else 0
        if store_dir is not None:
            fresh = [
                task._replace(store=(store_dir, store_base + k))
                for k, task in enumerate(fresh)
            ]
        replayed = _replayed(store, tasks, folded_chunks, replay_until)
        if self.workers > 1 and fresh:
            acquired = _pooled(self, fresh, consumers, tracer)
        else:
            acquired = _inline(fresh, obs.metrics)

        done = sum(task.n_traces for task in tasks[:folded_chunks])
        degraded_chunks = 0
        transport = "inline"
        with tracer.span(
            "campaign", traces=n_traces, workers=self.workers
        ) as elapsed:
            try:
                for result in chain(replayed, acquired):
                    index, chunk = result.index, result.chunk
                    if result.degraded:
                        degraded_chunks += 1
                        obs.metrics.inc("campaign_degraded_chunks_total")
                    if not result.replayed:
                        obs.metrics.merge_snapshot(result.metrics)
                        tracer.extend(result.events)
                        transport = result.transport
                    with tracer.span(
                        "fold_chunk", chunk=index, traces=chunk.n_traces,
                        replayed=result.replayed,
                    ):
                        if result.written is not None:
                            with tracer.span("store_append", chunk=index):
                                if store is None:
                                    store = self._create_store(store_path, chunk)
                                store.append(chunk, result.written)
                        # A consumer in result.summaries folds the summary
                        # a worker computed instead of the chunk.
                        for position, consumer in enumerate(consumers):
                            with tracer.span(
                                "consume", chunk=index, consumer=consumer.name
                            ):
                                if position in result.summaries:
                                    consumer.fold(result.summaries[position])
                                else:
                                    consumer.consume(chunk)
                        done += chunk.n_traces
                        if checkpoint_path is not None:
                            with tracer.span("checkpoint", chunk=index):
                                CampaignCheckpoint.capture(
                                    self.spec, self.seed, self.chunk_size,
                                    n_traces, index + 1, consumers,
                                ).save(checkpoint_path)
                            obs.metrics.inc("campaign_checkpoints_total")
                    obs.metrics.inc(
                        "campaign_chunks_total",
                        phase="replayed" if result.replayed else "fresh",
                    )
                    obs.metrics.inc("campaign_traces_total", chunk.n_traces)
                    obs.metrics.set_gauge("campaign_done_traces", done)
                    if progress is not None:
                        progress(
                            ChunkProgress(
                                chunk_index=index,
                                n_chunks=len(tasks),
                                chunk_traces=chunk.n_traces,
                                done_traces=done,
                                total_traces=n_traces,
                                elapsed_seconds=elapsed(),
                            )
                        )
                    if self.faults is not None:
                        self.faults.check_crash(index)
                    # Folded: free it before the source fetches the next
                    # chunk.  No source keeps a chunk it has yielded, so an
                    # inline, replayed or shared-memory run never holds two
                    # at once (pickled chunks can arrive ahead of the fold).
                    del result, chunk
            finally:
                # A loop left on an exception (a consumer error, a paused
                # progress callback) does not close its source: close it
                # here, so the workers are gone before the sweep below.
                acquired.close()
                if store_dir is not None:
                    # Workers run ahead of the commits: on a pause, cancel
                    # or failure, delete the files of every store chunk
                    # this run was to write and did not commit.
                    committed = store.n_chunks if store is not None else 0
                    discard_chunk_files(
                        store_dir, range(committed, store_base + len(fresh))
                    )

        # Every timing field is a sum over this run's spans.
        spent = {
            key: seconds - before.get(key, 0.0)
            for key, seconds in tracer.totals().items()
        }

        def total(*names: str) -> float:
            return sum(s for (name, _), s in spent.items() if name in names)

        wall = total("campaign")
        obs.metrics.set_gauge("campaign_wall_seconds", wall)
        return PipelineReport(
            spec=self.spec,
            n_traces=done,
            chunk_size=self.chunk_size,
            n_chunks=len(tasks),
            workers=self.workers,
            seed=self.seed,
            wall_seconds=wall,
            acquire_seconds=total("acquire_chunk"),
            consume_seconds=total("consume"),
            store_seconds=total("store_append", "store_write"),
            results={c.name: c.result() for c in consumers},
            store_path=store.path if store is not None else None,
            stage_seconds={
                stage: seconds
                for (name, stage), seconds in spent.items()
                if name == "acquire_stage"
            },
            degraded_chunks=degraded_chunks,
            resumed_from_chunk=resumed_from,
            replayed_chunks=max(0, replay_until - folded_chunks),
            transport=transport,
        )
