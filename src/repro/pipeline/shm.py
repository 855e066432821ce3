"""Shared-memory chunk transport: trace blocks without the worker's pipe.

Without it, each engine worker pickles every finished chunk through its
own pipe to the parent: serialize in the worker, two kernel copies
through a pipe sized far below a chunk, deserialize in the parent, and
the worker blocks mid-send until the parent reads.

This module moves the arrays through POSIX shared memory instead.  Each
worker owns a small **ring** of reusable segments
(``{prefix}-w{worker}-s{slot}``); publishing a chunk packs its arrays,
and those of the worker-side summaries computed from it, into the next
free slot and ships only a tiny picklable :class:`ShmChunkHandle`
(segment name + dtype/shape/offset per field) through the pipe.  The
parent attaches, copies the arrays out, closes its mapping, and releases
that worker's slot semaphore.  Flow control is the per-worker semaphore
initialised to the ring depth: a worker more than :data:`RING_SLOTS`
chunks ahead of the parent blocks in ``publish`` — bounded memory, and
deadlock-free because the parent folds chunks in index order and each
worker's chunk indices are increasing (worker ``w`` of ``n`` acquires
chunks ``w, w + n, ...``), so the slot a worker waits for is always the
next one the parent frees.

Determinism: the transport copies bytes; it never touches chunk RNG
streams, fold order, or persisted store bytes.  Results are therefore
bit-identical across {pickle, shm} × any worker count (asserted by
``tests/pipeline/test_transport.py``).

Cleanup is explicit: the engine calls
:meth:`ChunkTransportRing.unlink_all` — which sweeps every possible ring
name — on **every** exit path, after it has SIGKILLed and reaped its
workers: normal completion, worker death/degrade, timeout, and
KeyboardInterrupt.  The whole process tree shares one
:mod:`multiprocessing.resource_tracker`, whose cache is a *set* of
names, so the bookkeeping balances by construction: creates and
attaches register a name (idempotently), and only ``unlink()`` — called
exactly once per live name, by whichever process retires it —
unregisters.  No manual (un)tracking, no double-unlink tracebacks, no
leak warnings at exit; and should the parent die before its sweep, the
tracker itself unlinks whatever remains.  Only SIGKILLing the entire
tree can truly leak segments; they are bounded by ``workers ×
RING_SLOTS × chunk bytes`` and carry the parent PID in their name for
manual sweeping.
"""

from __future__ import annotations

import io
import itertools
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro.errors import AcquisitionError
from repro.power.acquisition import TraceSet

try:  # pragma: no cover - absent only on exotic builds
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None  # type: ignore[assignment]

#: Reusable segments per worker.  Two lets a worker synthesize chunk
#: ``k+1`` while the parent is still copying chunk ``k`` out; deeper
#: rings only buy memory pressure, since the parent folds in order.
RING_SLOTS = 2

#: Segment offsets are rounded up to this, so every packed array is
#: cache-line aligned regardless of the fields before it.
_ALIGNMENT = 64

#: Distinguishes rings of concurrent campaigns in one process.
_RING_COUNTER = itertools.count()

#: Memoized :func:`shm_available` probe result.
_AVAILABLE: "list[bool]" = []


def shm_available() -> bool:
    """True when POSIX shared memory works on this host (probed once)."""
    if not _AVAILABLE:
        if shared_memory is None:  # pragma: no cover
            _AVAILABLE.append(False)
        else:
            try:
                probe = shared_memory.SharedMemory(create=True, size=1)
            except (OSError, ValueError):  # pragma: no cover - no /dev/shm
                _AVAILABLE.append(False)
            else:
                probe.close()
                try:
                    probe.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
                _AVAILABLE.append(True)
    return _AVAILABLE[0]


def ring_segment_name(prefix: str, worker_id: int, slot: int) -> str:
    return f"{prefix}-w{worker_id}-s{slot}"


@dataclass(frozen=True)
class ShmChunkHandle:
    """Picklable description of one chunk parked in a shared segment.

    ``fields`` maps every array — the four :class:`TraceSet` fields,
    ``meta:<key>`` entries for array-valued chunk metadata and
    ``summary:<i>`` byte buffers of the summaries — to its
    ``(name, dtype, shape, offset)`` inside ``segment``.  Everything
    else a :class:`TraceSet` needs (the key) the parent already knows
    from the campaign spec.
    """

    segment: str
    worker_id: int
    n_traces: int
    sample_period_ns: float
    fields: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]
    metadata: dict
    #: The chunk's worker-side summaries, pickled (protocol 5) with every
    #: array out of band: each ``summary:<i>`` field is buffer ``i``.
    summaries: bytes


class _OutOfBandPickler(pickle.Pickler):
    """Protocol-5 pickler that sends every array's bytes out of band.

    numpy ships only contiguous arrays out of band; a strided view (a
    CPA bank's ``Σpt`` is a column slice of its GEMM output) is made
    contiguous first, here in the worker, instead of being copied into
    the pickle stream.
    """

    def reducer_override(self, obj):
        if (
            isinstance(obj, np.ndarray)
            and not (obj.flags.c_contiguous or obj.flags.f_contiguous)
            and not obj.dtype.hasobject
        ):
            return np.ascontiguousarray(obj).__reduce_ex__(5)
        return NotImplemented


def _pickle_summaries(summaries) -> "Tuple[bytes, Dict[str, np.ndarray]]":
    """The summaries' pickle stream and their arrays' bytes as fields."""
    buffers: list = []
    stream = io.BytesIO()
    _OutOfBandPickler(
        stream, protocol=5, buffer_callback=buffers.append
    ).dump(summaries)
    return stream.getvalue(), {
        f"summary:{i}": np.frombuffer(buffer.raw(), dtype=np.uint8)
        for i, buffer in enumerate(buffers)
    }


def _pack_layout(
    arrays: "Dict[str, np.ndarray]",
) -> "Tuple[Tuple[Tuple[str, str, Tuple[int, ...], int], ...], int]":
    """Aligned (name, dtype, shape, offset) per array + total byte size."""
    offset = 0
    fields = []
    for name, array in arrays.items():
        offset = -(-offset // _ALIGNMENT) * _ALIGNMENT
        fields.append((name, str(array.dtype), tuple(array.shape), offset))
        offset += array.nbytes
    return tuple(fields), max(offset, 1)


def _chunk_arrays(chunk: TraceSet) -> "Tuple[Dict[str, np.ndarray], dict]":
    """Split a chunk into shippable arrays + JSON-ish plain metadata."""
    arrays = {
        "traces": np.ascontiguousarray(chunk.traces),
        "plaintexts": np.ascontiguousarray(chunk.plaintexts),
        "ciphertexts": np.ascontiguousarray(chunk.ciphertexts),
        "times": np.ascontiguousarray(chunk.completion_times_ns),
    }
    plain = {}
    for key, value in chunk.metadata.items():
        if isinstance(value, np.ndarray):
            arrays[f"meta:{key}"] = np.ascontiguousarray(value)
        else:
            plain[key] = value
    return arrays, plain


class WorkerRing:
    """Worker-side publisher: packs chunks into this worker's slots.

    Built in the parent by :meth:`ChunkTransportRing.publisher` and
    handed to worker ``worker_id`` when it starts; the worker creates
    its segments on first use.  Segments are kept open and reused
    between chunks; a slot is only rewritten after the parent released
    it (the semaphore), so there is never a reader attached to a segment
    being recreated.
    """

    def __init__(self, prefix: str, worker_id: int, slots: int, semaphore):
        self.prefix = prefix
        self.worker_id = worker_id
        self.slots = slots
        self.semaphore = semaphore
        self._segments: dict = {}
        self._cursor = 0

    def _ensure_segment(self, slot: int, size: int):
        segment = self._segments.get(slot)
        if segment is not None and segment.size >= size:
            return segment
        name = ring_segment_name(self.prefix, self.worker_id, slot)
        if segment is not None:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            self._segments.pop(slot)
        try:
            segment = shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:
            # A previous ring with our name died without its sweep (the
            # parent was SIGKILLed); reclaim the stale segment.
            _unlink_segment(name)
            segment = shared_memory.SharedMemory(name=name, create=True, size=size)
        self._segments[slot] = segment
        return segment

    def publish(self, chunk: TraceSet, summaries: dict) -> ShmChunkHandle:
        """Park ``chunk`` and its summaries in the next free slot.

        Blocks while the ring is full.  The summaries' arrays share the
        slot with the chunk's, so the worker's pipe carries only the
        handle.

        A failure to (re)allocate the slot's segment — ``/dev/shm`` full
        mid-campaign — releases the just-acquired semaphore (so the
        ring's flow-control accounting stays balanced) and re-raises the
        ``OSError``; the engine then stops its workers and finishes the
        campaign inline.
        """
        arrays, plain_meta = _chunk_arrays(chunk)
        stream, summary_arrays = _pickle_summaries(summaries)
        arrays.update(summary_arrays)
        fields, size = _pack_layout(arrays)
        self.semaphore.acquire()
        slot = self._cursor
        try:
            self._cursor = (self._cursor + 1) % self.slots
            segment = self._ensure_segment(slot, size)
            for (name, dtype, shape, offset), array in zip(
                fields, arrays.values()
            ):
                dest = np.ndarray(
                    shape, dtype=dtype, buffer=segment.buf, offset=offset
                )
                dest[...] = array
        except OSError:
            self.semaphore.release()
            raise
        return ShmChunkHandle(
            segment=segment.name,
            worker_id=self.worker_id,
            n_traces=chunk.n_traces,
            sample_period_ns=chunk.sample_period_ns,
            fields=fields,
            metadata=plain_meta,
            summaries=stream,
        )


def receive_chunk(
    handle: ShmChunkHandle, key: bytes
) -> "Tuple[TraceSet, dict]":
    """Copy a published chunk and its summaries out of shared memory.

    Returns a fresh :class:`TraceSet` and the summaries.  Their
    arrays are plain private copies — the segment can be rewritten or
    unlinked the moment this returns.  Callers must release
    the worker's slot afterwards (:meth:`ChunkTransportRing.receive`
    does both).
    """
    try:
        segment = shared_memory.SharedMemory(name=handle.segment)
    except FileNotFoundError as exc:
        raise AcquisitionError(
            f"shared-memory segment {handle.segment!r} vanished before the "
            "parent copied its chunk out"
        ) from exc
    try:
        arrays = {}
        for name, dtype, shape, offset in handle.fields:
            view = np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=offset)
            arrays[name] = view.copy()
    finally:
        segment.close()
    metadata = dict(handle.metadata)
    buffers = []
    for name in list(arrays):
        if name.startswith("meta:"):
            metadata[name[len("meta:"):]] = arrays.pop(name)
        elif name.startswith("summary:"):
            buffers.append(arrays.pop(name))
    summaries = pickle.loads(handle.summaries, buffers=buffers)
    chunk = TraceSet(
        traces=arrays["traces"],
        plaintexts=arrays["plaintexts"],
        ciphertexts=arrays["ciphertexts"],
        key=key,
        completion_times_ns=arrays["times"],
        sample_period_ns=handle.sample_period_ns,
        metadata=metadata,
    )
    return chunk, summaries


class ChunkTransportRing:
    """Parent-side controller: ring identity, flow control, and cleanup.

    Construct before the workers, hand worker ``w`` its
    :meth:`publisher`, :meth:`receive` every handle a worker sends, and
    call :meth:`unlink_all` on every exit path — it is idempotent and
    sweeps every name the ring could have created, so it is safe (and
    required) after crashes that interrupt workers mid-publish.
    """

    def __init__(self, ctx, n_workers: int):
        self.prefix = f"rftc-shm-{os.getpid()}-{next(_RING_COUNTER)}"
        self.n_workers = int(n_workers)
        self.slots = RING_SLOTS
        self._semaphores = [ctx.Semaphore(self.slots) for _ in range(self.n_workers)]

    def publisher(self, worker_id: int) -> WorkerRing:
        """Worker ``worker_id``'s side of the ring: its slots and semaphore."""
        return WorkerRing(
            self.prefix, worker_id, self.slots, self._semaphores[worker_id]
        )

    def receive(
        self, handle: ShmChunkHandle, key: bytes
    ) -> "Tuple[TraceSet, dict]":
        """Materialise a handle's chunk and summaries; free the slot."""
        received = receive_chunk(handle, key)
        self._semaphores[handle.worker_id].release()
        return received

    def segment_names(self) -> "list[str]":
        return [
            ring_segment_name(self.prefix, worker, slot)
            for worker in range(self.n_workers)
            for slot in range(self.slots)
        ]

    def unlink_all(self) -> int:
        """Unlink every ring segment still present; returns the count."""
        if shared_memory is None:  # pragma: no cover
            return 0
        return sum(_unlink_segment(name) for name in self.segment_names())


#: Every ring name starts with this; leak scans key on it.
SEGMENT_PREFIX = "rftc-shm-"


def _unlink_segment(name: str) -> bool:
    """Unlink segment ``name``; False when it was already gone.

    A SIGKILL between ``shm_open`` and ``ftruncate`` leaves a 0-byte
    segment that cannot be mapped; it is unlinked by path instead.
    """
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    except ValueError:  # "cannot mmap an empty file"
        try:
            (Path("/dev/shm") / name).unlink()
        except FileNotFoundError:  # pragma: no cover - racing sweep
            return False
        return True
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - racing sweep
        return False
    return True


def leaked_segments(prefix: str = SEGMENT_PREFIX) -> "list[str]":
    """Names of ``/dev/shm`` segments matching ``prefix`` (leak scan).

    Segments only outlive their campaign when the *whole* process tree
    was SIGKILLed (the resource tracker died with it); the parent PID in
    the name identifies the culprit.  Returns ``[]`` on hosts without a
    ``/dev/shm`` filesystem.
    """
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-Linux host
        return []
    return sorted(p.name for p in root.glob(f"{prefix}*"))


def sweep_prefix(prefix: str = SEGMENT_PREFIX) -> "list[str]":
    """Unlink every ``/dev/shm`` segment matching ``prefix``.

    The manual remedy for the one true leak path (tree-wide SIGKILL):
    operators and the chaos soak call this to reclaim orphaned ring
    segments.  Returns the names actually unlinked, 0-byte ones
    included; racing sweeps are tolerated.
    """
    if shared_memory is None:  # pragma: no cover
        return []
    return [name for name in leaked_segments(prefix) if _unlink_segment(name)]
