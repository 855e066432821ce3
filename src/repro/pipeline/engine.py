"""The streaming campaign engine: parallel acquisition in bounded memory.

``StreamingCampaign`` shards a campaign into fixed-size chunks, acquires
them on a ``multiprocessing`` pool, and streams each finished chunk — in
acquisition order — into an optional
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

Fault tolerance
---------------
The same purity is what makes multi-hour campaigns *restartable*:

* each chunk's acquisition is retried per the engine's
  :class:`~repro.pipeline.retry.RetryPolicy` (inside the worker, from
  the same spawned seeds, so a retried chunk is bit-identical);
* if the pool dies or a chunk times out, the engine **degrades** to
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
Pass an :class:`~repro.obs.Observability` bundle and the engine reports
itself while running: per-chunk acquire/fold/store/checkpoint spans,
retry and degradation counters, throughput gauges (see
``docs/observability.md`` for the full catalogue).  Workers trace into
per-chunk buffers that ride home with each chunk result, so one JSONL
file covers both sides of the pool.  Instrumentation never touches the
chunk RNG streams or persisted bytes: results are bit-identical with
observability on or off (``tests/pipeline/test_observability.py``).
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import (
    AcquisitionError,
    CheckpointError,
    ConfigurationError,
    PoolBrokenError,
)
from repro.obs import NULL_OBS, Observability
from repro.pipeline import shm as shm_transport
from repro.pipeline.checkpoint import CampaignCheckpoint
from repro.pipeline.consumers import SummarizingConsumer, TraceConsumer
from repro.pipeline.retry import RetryPolicy
from repro.pipeline.spec import CampaignSpec
from repro.power.acquisition import TraceSet
from repro.store import ChunkedTraceStore
from repro.testing.faults import FaultPlan
from repro.utils.blas import set_blas_threads

#: A unit of worker work: (chunk index, trace count, chunk seed, spec,
#: retry policy, fault plan, observe flag, absolute trace offset).
#: The offset is the campaign index of the chunk's first trace — what
#: environment-drift models key on (see :mod:`repro.power.drift`).
_ChunkTask = Tuple[
    int,
    int,
    np.random.SeedSequence,
    CampaignSpec,
    RetryPolicy,
    Optional[FaultPlan],
    bool,
    int,
]

#: What a worker ships home besides the chunk: its private metrics
#: snapshot and drained trace events (``None`` when not observing).
_ObsPayload = Optional[dict]

#: Exceptions from collecting a pool result that mean "the pool is gone",
#: not "the chunk is bad" — the engine degrades to inline execution on
#: these instead of aborting the campaign.
_POOL_FAILURES = (multiprocessing.TimeoutError, PoolBrokenError, BrokenPipeError)

#: The summarizers a pool worker runs on every chunk it acquires, set by
#: :func:`_init_pool_worker`; empty in the parent, so inline acquisition
#: never summarizes.
_WORKER_SUMMARIZERS: Tuple[SummarizingConsumer, ...] = ()

#: Seconds the shared-memory transport's in-place pool teardown may take
#: before the workers are SIGKILLed (see :func:`_abandon_pool`).
_PROMPT_TEARDOWN_S = 10.0

#: Slice, in seconds, of the parent's wait for a pooled chunk between
#: checks that the pool's workers are still alive (see :func:`_await_chunk`).
_POOL_POLL_S = 0.5


def _await_chunk(result, workers: Sequence, timeout_s: Optional[float]):
    """Collect one pooled chunk result without hanging on a dead worker.

    ``multiprocessing.Pool`` replaces a worker that dies, but the task
    that worker held is lost and its result never arrives, so an
    unbounded ``get()`` would wait forever.  The wait therefore runs in
    :data:`_POOL_POLL_S` slices, and between slices any exit of the
    ``workers`` the pool started with raises
    :class:`~repro.errors.PoolBrokenError`.  ``timeout_s`` (the engine's
    ``chunk_timeout_s``) still caps the whole wait for this chunk.
    """
    deadline = None if timeout_s is None else time.perf_counter() + timeout_s
    while True:
        wait = _POOL_POLL_S
        if deadline is not None:
            wait = max(0.0, min(wait, deadline - time.perf_counter()))
        result.wait(wait)
        if result.ready():
            return result.get()
        if deadline is not None and time.perf_counter() >= deadline:
            raise multiprocessing.TimeoutError(
                f"no chunk result within {timeout_s} s"
            )
        dead = [proc.pid for proc in workers if proc.exitcode is not None]
        if dead:
            raise PoolBrokenError(
                f"pool worker(s) {dead} died; the chunks they held are lost"
            )


def _abandon_pool(pool, prompt: bool = False) -> None:
    """Hard-stop a failed pool without letting teardown block the campaign.

    ``Pool.terminate()`` can deadlock when a worker is mid-write of a
    chunk result larger than the pipe buffer: the terminate sequence
    stops the result-reader thread, then needs the result queue's write
    lock — which the blocked worker holds while waiting for a reader.
    Workers are therefore SIGKILLed first (a killed writer releases the
    pipe, and the work is re-acquired inline anyway), and the blocking
    ``terminate()``/``join()`` runs on a daemon thread: if teardown still
    wedges, an idle pool is leaked until interpreter exit instead of
    hanging a multi-hour campaign.

    With ``prompt=True`` — the shared-memory transport, whose results
    are tiny handles — teardown is instead ``terminate()``/``join()``
    waited for in place: no SIGKILL, no leaked pool, and the caller may
    sweep the ring's segments the moment this returns (asserted prompt
    by ``tests/pipeline/test_transport.py``).  A worker whose ring broke
    pickles whole chunks again and can wedge that teardown too, so the
    wait is bounded by :data:`_PROMPT_TEARDOWN_S`; past it the workers
    are SIGKILLed and the wedged teardown is left to finish, or not, on
    its daemon thread.
    """

    def reap() -> None:
        if not prompt:
            _kill_workers(pool)
        pool.terminate()
        pool.join()

    reaper = threading.Thread(
        target=reap, name="pool-teardown" if prompt else "pool-reaper",
        daemon=True,
    )
    reaper.start()
    if prompt:
        reaper.join(_PROMPT_TEARDOWN_S)
        if reaper.is_alive():
            _kill_workers(pool)


def _kill_workers(pool) -> None:
    for proc in getattr(pool, "_pool", ()):
        if proc.exitcode is None:
            proc.kill()


def _summarizers(consumers: Sequence[TraceConsumer]) -> Dict[int, object]:
    """The summarizers a pool ships to its workers, by consumer position.

    A consumer offers one when it is a :class:`SummarizingConsumer` that
    kept the inherited ``consume`` (a subclass overriding ``consume``
    must have that override run, in the parent) and its summarizer
    pickles (a ``spawn`` pool pickles it; a lambda prediction model
    would not).  Every other consumer is fed whole chunks in the parent.
    """
    offered = {}
    for position, consumer in enumerate(consumers):
        if (
            not isinstance(consumer, SummarizingConsumer)
            or type(consumer).consume is not SummarizingConsumer.consume
        ):
            continue
        summarizer = consumer.summarizer()
        try:
            pickle.dumps(summarizer)
        except Exception:
            continue
        offered[position] = summarizer
    return offered


def _init_pool_worker(summarizers: tuple, ring_args: Optional[tuple]) -> None:
    """Pool initializer: one BLAS thread, the summarizers, the shm ring.

    The pool already runs one process per CPU, so a worker's GEMM gets
    one BLAS thread; more would only preempt each other (see
    :mod:`repro.utils.blas`).
    """
    global _WORKER_SUMMARIZERS
    set_blas_threads(1)
    _WORKER_SUMMARIZERS = tuple(summarizers)
    if ring_args is not None:
        shm_transport._init_worker_ring(*ring_args)


def _acquire_chunk(
    task: _ChunkTask,
) -> Tuple[
    int,
    Union[TraceSet, shm_transport.ShmChunkHandle],
    float,
    int,
    _ObsPayload,
    list,
]:
    """Worker entry point: build a fresh device and acquire one chunk.

    In a pool whose initializer armed the shared-memory ring, the chunk
    comes home as a :class:`~repro.pipeline.shm.ShmChunkHandle` parked
    in this worker's ring slot; otherwise (inline, or the pickle
    fallback transport) the :class:`TraceSet` itself is returned.

    Runs in the parent when ``workers == 1`` (or after pool degradation)
    and in pool processes otherwise; either way the chunk's randomness
    comes only from its spawned seed sequence, never from process-local
    state.  Failed attempts are retried per the task's
    :class:`RetryPolicy` **from the same seed children** — the seeds are
    spawned once, before the first attempt — so a chunk that needed
    three attempts is bit-identical to one that succeeded immediately.

    When the task's observe flag is set, the worker opens a *private*
    observability bundle (perf_counter clocks are per-process, so worker
    spans never share the parent timebase), instruments the device, and
    ships the metrics snapshot + drained trace events home in the fifth
    tuple slot for the parent to fold.  Observation reads clocks only —
    the chunk's RNG streams and bytes are untouched.

    In a pool worker the last slot carries the chunk's summaries, one
    per summarizer the pool initializer installed, computed once the
    acquisition (retries included) has succeeded.  A summarizer that
    raises is not retried: its error is the consumer's own, and it
    reaches the parent in place of the chunk.
    """
    index, n, chunk_seed, spec, retry, faults, observe, trace_offset = task
    obs = Observability.create(origin=f"worker:chunk-{index}") if observe else NULL_OBS
    started = time.perf_counter()
    device_seq, data_seq = chunk_seed.spawn(2)
    attempt = 0
    with obs.tracer.span("acquire_chunk", chunk=index, traces=n):
        while True:
            attempt += 1
            try:
                if faults is not None:
                    faults.check_worker(index, attempt)
                device = spec.build_device(np.random.default_rng(device_seq))
                device.obs = obs
                device.trace_offset = trace_offset
                rng = np.random.default_rng(data_seq)
                plaintexts = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
                if spec.fixed_plaintext is not None:
                    plaintexts[0::2] = np.frombuffer(
                        spec.fixed_plaintext, dtype=np.uint8
                    )
                chunk = device.run(plaintexts, rng)
            except Exception:
                if attempt >= retry.max_attempts:
                    raise
                obs.metrics.inc("campaign_attempt_failures_total")
                delay = retry.backoff_seconds(
                    attempt, chunk_seed, metrics=obs.metrics
                )
                if delay > 0.0:
                    time.sleep(delay)
                continue
            break
    acquire_s = time.perf_counter() - started
    chunk.metadata["chunk_index"] = index
    if spec.fixed_plaintext is not None:
        chunk.metadata["tvla_interleaved"] = True
    summaries = []
    for summarizer in _WORKER_SUMMARIZERS:
        with obs.tracer.span("summarize", chunk=index, consumer=summarizer.name):
            summaries.append(summarizer.summarize(chunk))
    payload: _ObsPayload = None
    if observe:
        payload = {
            "metrics": obs.metrics.snapshot(),
            "events": obs.tracer.drain(),
        }
    ring = shm_transport.worker_ring()
    if ring is not None and not ring.broken:
        try:
            if faults is not None:
                faults.check_shm_publish(index)
            handle = ring.publish(chunk)
        except OSError:
            # /dev/shm exhausted mid-run (or injected): this worker's
            # ring is done — fall back to pickling the chunk through
            # the result pipe.  The transport only moves bytes, so the
            # campaign's results are unchanged; the parent records the
            # downgrade when a plain TraceSet arrives on a shm run.
            ring.broken = True
            ring.close()
        else:
            return index, handle, acquire_s, attempt, payload, summaries
    return index, chunk, acquire_s, attempt, payload, summaries


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

    ``acquire_seconds`` sums per-chunk worker time (it exceeds the wall
    clock when workers overlap); ``consume_seconds`` and
    ``store_seconds`` are parent-side folding and persistence time.

    The recovery fields tell an operator whether the run limped home:
    ``retried_chunks``/``total_retries`` count worker-side retries,
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
    #: crypto / leakage / synth / capture), summed over chunks and workers
    #: — the breakdown of ``acquire_seconds``.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Chunks that needed more than one acquisition attempt.
    retried_chunks: int = 0
    #: Extra attempts beyond the first, summed over all chunks.
    total_retries: int = 0
    #: True when the worker pool died and the engine fell back to
    #: inline single-process acquisition for the remaining chunks.
    degraded: bool = False
    #: Chunks acquired inline after the pool failure.
    degraded_chunks: int = 0
    #: First chunk index acquired by this run when resuming (``None``
    #: for a fresh campaign).
    resumed_from_chunk: Optional[int] = None
    #: Chunks folded from the store rather than re-acquired on resume.
    replayed_chunks: int = 0
    #: How fresh chunks travelled home: ``"shm-ring"`` (shared-memory
    #: segments), ``"pickle"`` (the pool's result pipe), or ``"inline"``
    #: (no pool — single worker or nothing fresh to acquire).
    transport: str = "inline"
    #: True when shared-memory ring allocation failed (at startup or
    #: mid-run) and chunks fell back to the pickle result pipe.  Results
    #: are unaffected — the transport only moves bytes.
    transport_degraded: bool = False

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
            line = f"  chunks  : {self.transport} transport"
            if self.transport_degraded:
                line += " (shm exhausted -> DEGRADED to pickle)"
            lines.append(line)
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
        if self.retried_chunks or self.degraded:
            parts = []
            if self.retried_chunks:
                parts.append(
                    f"{self.retried_chunks} chunk(s) recovered after "
                    f"{self.total_retries} retry(ies)"
                )
            if self.degraded:
                parts.append(
                    "pool died -> DEGRADED to inline execution for "
                    f"{self.degraded_chunks} chunk(s)"
                )
            lines.append(f"  recovery: {'; '.join(parts)}")
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
        Process count; ``1`` runs inline (no pool, identical results).
    seed:
        Master seed of the campaign's ``SeedSequence`` tree.
    start_method:
        Optional ``multiprocessing`` start method (defaults to the
        platform's; ``"fork"`` on Linux keeps warmed plan caches shared).
    retry:
        Per-chunk :class:`RetryPolicy` (bounded attempts, deterministic
        backoff).  The default retries each chunk up to 3 times.
    chunk_timeout_s:
        Parent-side cap on waiting for one pooled chunk, including the
        worker-side ``summarize`` of its summarizing consumers; on
        expiry the pool is presumed dead and the engine degrades to
        inline execution.  ``None`` (default) waits as long as the
        chunk takes, but a pool worker that dies mid-campaign degrades
        the run the same way instead of leaving the parent waiting
        forever.
    transport:
        How pooled workers ship finished chunks home.  ``"auto"``
        (default) uses shared-memory segment rings
        (:mod:`repro.pipeline.shm`) when the host supports them, else
        the pickle result pipe; ``"shm"`` requires shared memory (a
        :class:`~repro.errors.ConfigurationError` if unavailable);
        ``"pickle"`` forces the pipe.  Irrelevant — and ignored — when
        ``workers == 1``.  Chunk bytes are identical either way.
    store_budget_bytes:
        Optional disk budget applied to the campaign's store
        (:attr:`ChunkedTraceStore.disk_budget_bytes`): an append that
        would breach it fails with
        :class:`~repro.errors.StorageExhaustedError` before any I/O.
    faults:
        Optional :class:`~repro.testing.faults.FaultPlan` driving the
        deterministic fault-injection harness (tests / ``--inject-fault``).
    obs:
        Optional :class:`~repro.obs.Observability` bundle; when given,
        the engine records metrics and spans into it (CLI
        ``--metrics-out``/``--trace-out``).  Defaults to the zero-cost
        null bundle — instrumentation disabled.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        chunk_size: int = 5000,
        workers: int = 1,
        seed: int = 0,
        start_method: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        chunk_timeout_s: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        obs: Optional[Observability] = None,
        transport: str = "auto",
        store_budget_bytes: Optional[int] = None,
    ):
        if chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if chunk_timeout_s is not None and chunk_timeout_s <= 0:
            raise ConfigurationError("chunk_timeout_s must be positive")
        if transport not in ("auto", "shm", "pickle"):
            raise ConfigurationError(
                "transport must be 'auto', 'shm', or 'pickle', "
                f"got {transport!r}"
            )
        if store_budget_bytes is not None and store_budget_bytes < 1:
            raise ConfigurationError("store_budget_bytes must be >= 1")
        self.spec = spec
        self.chunk_size = int(chunk_size)
        self.workers = int(workers)
        self.seed = int(seed)
        self.start_method = start_method
        self.retry = retry if retry is not None else RetryPolicy()
        self.chunk_timeout_s = chunk_timeout_s
        self.faults = faults
        self.obs = obs if obs is not None else NULL_OBS
        self.transport = transport
        self.store_budget_bytes = store_budget_bytes

    def chunk_layout(self, n_traces: int) -> List[int]:
        """Chunk sizes for a campaign of ``n_traces`` (last may be short)."""
        if n_traces < 1:
            raise AcquisitionError("n_traces must be >= 1")
        sizes = [self.chunk_size] * (n_traces // self.chunk_size)
        if n_traces % self.chunk_size:
            sizes.append(n_traces % self.chunk_size)
        return sizes

    def _tasks(self, n_traces: int) -> List[_ChunkTask]:
        sizes = self.chunk_layout(n_traces)
        seeds = np.random.SeedSequence(self.seed).spawn(len(sizes))
        observe = self.obs.enabled
        offsets = [0] * len(sizes)
        for index in range(1, len(sizes)):
            offsets[index] = offsets[index - 1] + sizes[index - 1]
        return [
            (
                index, size, seeds[index], self.spec, self.retry, self.faults,
                observe, offsets[index],
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
        start_method: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        chunk_timeout_s: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        obs: Optional[Observability] = None,
        transport: str = "auto",
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
        bytes are **bit-identical** to an uninterrupted run.

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
            start_method=start_method,
            retry=retry,
            chunk_timeout_s=chunk_timeout_s,
            faults=faults,
            obs=obs,
            transport=transport,
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
            layout = [task[1] for task in tasks]
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
        store_path: Optional[Path] = None
        if store is not None and not isinstance(store, ChunkedTraceStore):
            # Deferred: created from the first chunk, which knows the
            # sample period without building a throwaway device here.
            store_path, store = Path(store), None
        if checkpoint_path is not None:
            checkpoint_path = Path(checkpoint_path)
            # Fail on un-checkpointable consumers up front, not at chunk 1.
            CampaignCheckpoint.capture(
                self.spec, self.seed, self.chunk_size, n_traces,
                folded_chunks, consumers,
            )
        self.spec.warm_caches()

        obs = self.obs
        if obs.enabled:
            # Consumers that expose a metrics hook report their own fold
            # cost (e.g. the incremental CPA accumulators).
            for consumer in consumers:
                set_metrics = getattr(consumer, "set_metrics", None)
                if callable(set_metrics):
                    set_metrics(obs.metrics)
            obs.metrics.set_gauge("campaign_total_traces", n_traces)
            obs.metrics.set_gauge("campaign_workers", self.workers)

        started = time.perf_counter()
        acquire_s = consume_s = store_s = 0.0
        stage_s: Dict[str, float] = {}
        done = sum(task[1] for task in tasks[:folded_chunks])
        retried_chunks = total_retries = degraded_chunks = 0
        degraded = False
        transport_degraded = False

        def _store_chunk(chunk: TraceSet) -> None:
            # Deferred-creation dance: the store is created lazily from
            # the first persisted chunk, which knows the sample period.
            nonlocal store
            if store is None:
                store = ChunkedTraceStore.create(
                    store_path,
                    key=self.spec.key,
                    sample_period_ns=chunk.sample_period_ns,
                    metadata={
                        "target": self.spec.label(),
                        "seed": self.seed,
                        "chunk_size": self.chunk_size,
                    },
                    compression=self.spec.compression,
                )
            store.metrics = obs.metrics
            store.faults = self.faults
            if self.store_budget_bytes is not None:
                store.disk_budget_bytes = self.store_budget_bytes
            store.append(chunk)

        def fold(
            index: int, chunk: TraceSet, persist: bool,
            summaries: Dict[int, object],
        ) -> None:
            """Stream one chunk (replayed or fresh) through store/consumers.

            ``summaries`` holds the worker-computed summary of each
            consumer (by position) that folds one instead of the chunk.
            """
            nonlocal consume_s, store_s, done
            # Pop, don't get: wall-clock stage timings must never reach
            # the store, or persisted chunk bytes stop being a pure
            # function of (spec, seed, layout).
            for stage, seconds in chunk.metadata.pop(
                "stage_seconds", {}
            ).items():
                stage_s[stage] = stage_s.get(stage, 0.0) + float(seconds)
            with obs.tracer.span(
                "fold_chunk", chunk=index, traces=chunk.n_traces,
                replayed=not persist,
            ):
                if persist and (store is not None or store_path is not None):
                    t0 = time.perf_counter()
                    with obs.tracer.span("store_append", chunk=index):
                        _store_chunk(chunk)
                    elapsed = time.perf_counter() - t0
                    store_s += elapsed
                    obs.metrics.observe("campaign_store_append_seconds", elapsed)
                t0 = time.perf_counter()
                for position, consumer in enumerate(consumers):
                    with obs.tracer.span(
                        "consume", chunk=index, consumer=consumer.name
                    ):
                        if position in summaries:
                            consumer.fold(summaries[position])
                        else:
                            consumer.consume(chunk)
                elapsed = time.perf_counter() - t0
                consume_s += elapsed
                obs.metrics.observe("campaign_consume_seconds", elapsed)
                done += chunk.n_traces
                if checkpoint_path is not None:
                    t0 = time.perf_counter()
                    with obs.tracer.span("checkpoint", chunk=index):
                        CampaignCheckpoint.capture(
                            self.spec, self.seed, self.chunk_size, n_traces,
                            index + 1, consumers,
                        ).save(checkpoint_path)
                    obs.metrics.observe(
                        "campaign_checkpoint_seconds",
                        time.perf_counter() - t0,
                    )
                    obs.metrics.inc("campaign_checkpoints_total")
            obs.metrics.inc(
                "campaign_chunks_total",
                phase="fresh" if persist else "replayed",
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
                        elapsed_seconds=time.perf_counter() - started,
                    )
                )
            if self.faults is not None:
                self.faults.check_crash(index)

        fresh = tasks[max(folded_chunks, replay_until):]
        pool = None
        ring = None
        transport_used = "inline"
        try:
            # Phase 1 (resume only): chunks the store already holds are
            # folded from disk — never re-acquired, so store bytes are
            # untouched and consumer folds see the exact same data.
            for index in range(folded_chunks, replay_until):
                chunk = store.chunk(index)
                if chunk.n_traces != tasks[index][1]:
                    raise CheckpointError(
                        f"stored chunk {index} holds {chunk.n_traces} traces; "
                        f"the campaign layout expects {tasks[index][1]}"
                    )
                fold(index, chunk, persist=False, summaries={})

            # Phase 2: acquire the remaining chunks.
            async_results = None
            if self.workers > 1 and len(fresh) > 0:
                use_shm = self.transport != "pickle" and shm_transport.shm_available()
                if self.transport == "shm" and not use_shm:
                    raise ConfigurationError(
                        "transport='shm' requested but POSIX shared memory "
                        "is unavailable on this host"
                    )
                ctx = (
                    multiprocessing.get_context(self.start_method)
                    if self.start_method
                    else multiprocessing.get_context()
                )
                n_procs = min(self.workers, len(fresh))
                if use_shm:
                    try:
                        ring = shm_transport.ChunkTransportRing(ctx, n_procs)
                    except OSError:
                        # Ring allocation failed at startup (semaphores /
                        # /dev/shm exhausted): degrade to the pickle
                        # transport rather than aborting the campaign.
                        ring = None
                        use_shm = False
                        transport_degraded = True
                        obs.metrics.inc("campaign_transport_degraded_total")
                        obs.tracer.instant(
                            "transport_degraded", phase="startup"
                        )
                offered = _summarizers(consumers)
                pool = ctx.Pool(
                    processes=n_procs,
                    initializer=_init_pool_worker,
                    initargs=(
                        tuple(offered.values()),
                        ring.initargs() if use_shm else None,
                    ),
                )
                transport_used = "shm-ring" if use_shm else "pickle"
                pool_workers = list(getattr(pool, "_pool", ()))
                async_results = [
                    pool.apply_async(_acquire_chunk, (task,)) for task in fresh
                ]
            for position, task in enumerate(fresh):
                if pool is not None:
                    try:
                        if self.faults is not None:
                            self.faults.check_pool(task[0])
                        (
                            index, chunk, chunk_acquire_s, attempts, payload,
                            shipped,
                        ) = _await_chunk(
                            async_results[position], pool_workers,
                            self.chunk_timeout_s,
                        )
                        summaries = dict(zip(offered, shipped))
                        if isinstance(chunk, shm_transport.ShmChunkHandle):
                            chunk = ring.receive(chunk, key=self.spec.key)
                            obs.metrics.inc("campaign_shm_chunks_total")
                        elif ring is not None and not transport_degraded:
                            # A plain TraceSet on a shm run: the worker's
                            # ring broke mid-campaign and it downgraded
                            # itself to the pickle result pipe.
                            transport_degraded = True
                            obs.metrics.inc(
                                "campaign_transport_degraded_total"
                            )
                            obs.tracer.instant(
                                "transport_degraded", phase="mid-run",
                                chunk=task[0],
                            )
                    except _POOL_FAILURES:
                        # The pool (not the chunk) failed: abandon it and
                        # limp home inline rather than losing the campaign.
                        degraded = True
                        obs.metrics.inc("campaign_pool_failures_total")
                        obs.tracer.instant(
                            "pool_degraded", chunk=task[0],
                            remaining=len(fresh) - position,
                        )
                        _abandon_pool(pool, prompt=ring is not None)
                        pool = None
                if pool is None:
                    index, chunk, chunk_acquire_s, attempts, payload, _ = (
                        _acquire_chunk(task)
                    )
                    summaries = {}
                    if degraded:
                        degraded_chunks += 1
                        obs.metrics.inc("campaign_degraded_chunks_total")
                if payload is not None:
                    obs.metrics.merge_snapshot(payload["metrics"])
                    obs.tracer.extend(payload["events"])
                acquire_s += chunk_acquire_s
                obs.metrics.observe(
                    "campaign_chunk_acquire_seconds", chunk_acquire_s
                )
                if attempts > 1:
                    retried_chunks += 1
                    total_retries += attempts - 1
                    obs.metrics.inc("campaign_retried_chunks_total")
                    obs.metrics.inc("campaign_retries_total", attempts - 1)
                fold(index, chunk, persist=True, summaries=summaries)
        except BaseException:
            # Workers may still be mid-chunk; close()+join() would block
            # on them while the campaign is already dead.  Kill the pool,
            # surface the original error.
            if pool is not None:
                _abandon_pool(pool, prompt=ring is not None)
                pool = None
            raise
        finally:
            if pool is not None:
                pool.close()
                pool.join()
            if ring is not None:
                # Sweep the ring on every exit path — normal completion,
                # degrade, timeout, crash, SIGINT — so no segment can
                # outlive the campaign.
                ring.unlink_all()

        obs.metrics.set_gauge(
            "campaign_wall_seconds", time.perf_counter() - started
        )
        return PipelineReport(
            spec=self.spec,
            n_traces=done,
            chunk_size=self.chunk_size,
            n_chunks=len(tasks),
            workers=self.workers,
            seed=self.seed,
            wall_seconds=time.perf_counter() - started,
            acquire_seconds=acquire_s,
            consume_seconds=consume_s,
            store_seconds=store_s,
            results={c.name: c.result() for c in consumers},
            store_path=store.path if store is not None else None,
            stage_seconds=stage_s,
            retried_chunks=retried_chunks,
            total_retries=total_retries,
            degraded=degraded,
            degraded_chunks=degraded_chunks,
            resumed_from_chunk=resumed_from,
            replayed_chunks=max(0, replay_until - folded_chunks),
            transport=transport_used,
            transport_degraded=transport_degraded,
        )
