"""The ledger's own span recorder and the timing proxies that feed it.

Spans are taken only from the benchmark's side of each layer boundary:
a proxy or an instance-level wrap times the call *into* a layer, and the
program under test is never edited or configured to report on itself.
That keeps the ledger independent of ``repro.obs``, which later changes
are free to rework.

A span is ``{id, name, start, end, parent, chunk}`` on the
``time.perf_counter`` clock; ``parent`` is the id of the innermost span
open when it started, and ``chunk`` is the index of the chunk the engine
was folding (``None`` outside a campaign).  Instants (progress marks)
have ``start == end``.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np


class SpanRecorder:
    """In-memory span list with parent tracking; written as JSONL at exit.

    A disabled recorder turns every call into a no-op, so the untraced
    runs pay nothing for the instrumentation hooks.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []
        #: Chunk index stamped on spans opened from now on.
        self.chunk: Optional[int] = None
        #: Counts recorded at the same boundaries as the spans.
        self.counts: Dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Optional[dict]]:
        """Record the block as span ``name``; yields the record (or None)."""
        if not self.enabled:
            yield None
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "chunk": self.chunk,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def mark(self, name: str, chunk: Optional[int] = None) -> None:
        """Record an instant (a zero-length span)."""
        if not self.enabled:
            return
        now = time.perf_counter()
        self.spans.append({
            "id": len(self.spans),
            "name": name,
            "start": now,
            "end": now,
            "parent": self._stack[-1] if self._stack else None,
            "chunk": chunk,
        })

    def count(self, name: str, amount: float) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, fn, name: str):
        """``fn`` with every call recorded as span ``name``."""

        def call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return call

    def wrap(self, obj, attr: str, name: str) -> None:
        """Time every call of ``obj.attr`` (an instance-level wrap)."""
        if self.enabled:
            setattr(obj, attr, self.timed(getattr(obj, attr), name))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def load_spans(path: Path) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def children_of(spans: List[dict]) -> Dict[Optional[int], List[dict]]:
    """Spans grouped by parent id (``None`` holds the roots), in start order."""
    grouped: Dict[Optional[int], List[dict]] = {}
    for record in spans:
        grouped.setdefault(record["parent"], []).append(record)
    return grouped


def self_seconds(spans: List[dict]) -> Dict[str, float]:
    """Self time per span name: duration minus the time its children cover."""
    covered: Dict[int, float] = {}
    for record in spans:
        if record["parent"] is not None:
            covered[record["parent"]] = covered.get(record["parent"], 0.0) + (
                record["end"] - record["start"]
            )
    totals: Dict[str, float] = {}
    for record in spans:
        own = record["end"] - record["start"] - covered.get(record["id"], 0.0)
        totals[record["name"]] = totals.get(record["name"], 0.0) + own
    return totals


def chunk_nbytes(chunk) -> int:
    """Bytes one :class:`~repro.power.acquisition.TraceSet` chunk carries."""
    total = sum(
        np.asarray(array).nbytes
        for array in (
            chunk.traces,
            chunk.plaintexts,
            chunk.ciphertexts,
            chunk.completion_times_ns,
        )
    )
    return total + sum(
        value.nbytes
        for value in chunk.metadata.values()
        if isinstance(value, np.ndarray)
    )


class TimedConsumer:
    """A consumer proxy that times the engine's calls into the fold layer.

    ``consume`` is recorded as ``consume.<name>``, ``snapshot`` as
    ``checkpoint.snapshot`` and ``result`` as ``consume.result``.  With
    ``count_bytes`` the proxy also counts the bytes of every chunk it sees
    as ``transport.bytes`` (one proxy per campaign counts, so chunks are
    counted once).
    """

    def __init__(self, inner, recorder: SpanRecorder, count_bytes: bool = False):
        self._inner = inner
        self._recorder = recorder
        self._count_bytes = count_bytes
        self.name = inner.name

    def consume(self, chunk) -> None:
        if self._count_bytes:
            self._recorder.count("transport.bytes", chunk_nbytes(chunk))
        with self._recorder.span(f"consume.{self.name}"):
            self._inner.consume(chunk)

    def snapshot(self) -> dict:
        with self._recorder.span("checkpoint.snapshot"):
            return self._inner.snapshot()

    def restore(self, state: dict) -> None:
        self._inner.restore(state)

    def result(self):
        with self._recorder.span("consume.result"):
            return self._inner.result()


class TimedStage:
    """Proxy for one acquisition stage object of a device.

    Calls of ``method`` are recorded as span ``name``; every other
    attribute read goes to the wrapped object unchanged.
    """

    def __init__(self, inner, method: str, recorder: SpanRecorder, name: str):
        self._inner = inner
        self.__dict__[method] = recorder.timed(getattr(inner, method), name)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


@contextlib.contextmanager
def timed_class_method(cls, attr: str, recorder: SpanRecorder, name: str,
                       on_return=None):
    """Time ``cls.attr`` for every instance while the block runs.

    Used for layers the engine constructs itself (checkpoints), where no
    instance passes through the benchmark's hands.  ``on_return`` sees
    each call's return value.  The class is restored on exit.
    """
    if not recorder.enabled:
        yield
        return
    original = getattr(cls, attr)
    timed = recorder.timed(original, name)

    def call(*args, **kwargs):
        value = timed(*args, **kwargs)
        if on_return is not None:
            on_return(value)
        return value

    setattr(cls, attr, call)
    try:
        yield
    finally:
        setattr(cls, attr, original)
