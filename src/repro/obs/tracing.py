"""Span tracing: the one clock of a campaign.

A :class:`Tracer` records *spans* — named, attributed, nestable
intervals measured with :func:`time.perf_counter`::

    with tracer.span("fold_chunk", chunk=3):
        with tracer.span("store_append", chunk=3):
            ...

This module is the only place campaign code reads that clock (the
``one-clock`` rule of ``repro verify --suite lint``).  Closing a span
does three things:

* its duration joins the tracer's per-name totals (:meth:`Tracer.totals`),
  which the timing fields of ``PipelineReport`` are sums over;
* it feeds the histogram :data:`SPAN_HISTOGRAMS` maps its name to, in
  the tracer's metrics registry;
* it is buffered as a trace event, but only when the tracer records
  (``enabled``: a trace is being exported).

Multiprocessing contract
------------------------
``perf_counter`` clocks are only monotonic *within* a process, so worker
events never share a timebase with the parent.  Each worker therefore
traces into its own buffer (timestamps relative to that tracer's epoch),
and the buffer rides back to the parent with the chunk result where
:meth:`Tracer.extend` folds it into the campaign's totals and stream.
Events carry an ``origin`` string (``"parent"`` or ``"worker:chunk-K"``)
so a reader can partition timelines by clock domain.

Trace event schema (one JSON object per line, after a header line)::

    {"schema": "rftc-obs-trace/1", ...}          # line 1: header
    {"name": "fold_chunk", "span_id": 2, "parent_id": null,
     "start_s": 0.0123, "dur_s": 0.0045, "origin": "parent",
     "attrs": {"chunk": 3}}

``start_s`` is seconds since the recording tracer's epoch; ``dur_s`` is
the span length (0.0 for instant events); ``span_id`` is unique per
origin; ``parent_id`` is the enclosing span's id or null.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs.metrics import NULL_METRICS, MetricsRegistry

TRACE_SCHEMA = "rftc-obs-trace/1"

#: Keys every trace event line must carry.
EVENT_FIELDS = ("name", "span_id", "parent_id", "start_s", "dur_s", "origin", "attrs")

#: Span name -> (histogram its durations feed, span attribute that labels
#: the histogram series and the tracer's totals, or ``None``).
SPAN_HISTOGRAMS: Dict[str, Tuple[str, Optional[str]]] = {
    "acquire_chunk": ("campaign_chunk_acquire_seconds", None),
    "acquire_stage": ("acquisition_stage_seconds", "stage"),
    "summarize": ("campaign_summarize_seconds", "consumer"),
    "store_write": ("store_write_seconds", None),
    "await_chunk": ("campaign_await_chunk_seconds", None),
    "store_append": ("store_append_seconds", None),
    "consume": ("campaign_consume_seconds", "consumer"),
    "checkpoint": ("campaign_checkpoint_seconds", None),
    "scenario_cell": ("scenario_cell_seconds", None),
}

#: The ``time`` functions only this module may read (the ``one-clock``
#: lint rule); deadlines elsewhere use ``time.monotonic``.
SPAN_CLOCKS = frozenset(
    {"perf_counter", "perf_counter_ns", "process_time", "process_time_ns"}
)

_UNMAPPED: Tuple[Optional[str], Optional[str]] = (None, None)

#: A totals key: (span name, value of its labelling attribute or None).
SpanKey = Tuple[str, Optional[object]]


def _span_key(name: str, attrs: dict) -> SpanKey:
    label = SPAN_HISTOGRAMS.get(name, _UNMAPPED)[1]
    return name, attrs.get(label) if label is not None else None


class Tracer:
    """Span clock for one clock domain (process)."""

    #: Whether closed spans are buffered as events; a tracer that buffers
    #: nothing still keeps the totals and feeds the histograms.
    enabled: bool = True
    #: The registry closed spans feed through :data:`SPAN_HISTOGRAMS`.
    metrics: MetricsRegistry = NULL_METRICS

    def __init__(self, origin: str = "parent") -> None:
        self.origin = str(origin)
        self._epoch = time.perf_counter()
        self._events: List[dict] = []
        self._stack: List[int] = []
        self._next_id = 1
        self._totals: Dict[SpanKey, float] = {}

    @property
    def events(self) -> List[dict]:
        """The buffered events recorded so far (in completion order)."""
        return list(self._events)

    def totals(self) -> Dict[SpanKey, float]:
        """Seconds per span name (and label) over every span closed here
        or folded in by :meth:`extend`, in first-seen order."""
        return dict(self._totals)

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Callable[[], float]]:
        """Time the ``with`` body as a nestable span.

        Yields a function returning the seconds since the span opened.
        The event is appended when the span *closes* (completion order),
        which keeps buffering O(1) per span; readers re-nest via
        ``parent_id``.  Spans are recorded even when the body raises, with
        ``attrs["error"]`` naming the exception type.
        """
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        started = time.perf_counter()
        try:
            yield lambda: time.perf_counter() - started
        except BaseException as exc:
            attrs = dict(attrs)
            attrs["error"] = type(exc).__name__
            raise
        finally:
            duration = time.perf_counter() - started
            self._stack.pop()
            histogram, label = SPAN_HISTOGRAMS.get(name, _UNMAPPED)
            key = _span_key(name, attrs)
            self._totals[key] = self._totals.get(key, 0.0) + duration
            if histogram is not None:
                labels = {label: key[1]} if label is not None else {}
                self.metrics.observe(histogram, duration, **labels)
            if self.enabled:
                self._events.append(
                    {
                        "name": str(name),
                        "span_id": span_id,
                        "parent_id": parent_id,
                        "start_s": started - self._epoch,
                        "dur_s": duration,
                        "origin": self.origin,
                        "attrs": {str(k): v for k, v in attrs.items()},
                    }
                )

    def instant(self, name: str, **attrs: object) -> None:
        """Record a zero-duration marker event (checkpoint written, ...)."""
        if not self.enabled:
            return
        span_id = self._next_id
        self._next_id += 1
        self._events.append(
            {
                "name": str(name),
                "span_id": span_id,
                "parent_id": self._stack[-1] if self._stack else None,
                "start_s": time.perf_counter() - self._epoch,
                "dur_s": 0.0,
                "origin": self.origin,
                "attrs": {str(k): v for k, v in attrs.items()},
            }
        )

    def drain(self) -> List[dict]:
        """Pop the buffer: the worker half of the cross-process handoff."""
        events, self._events = self._events, []
        return events

    def extend(self, events: List[dict]) -> None:
        """Fold drained events from another tracer (a worker) into this one.

        Their durations join the totals, and the events are buffered if
        this tracer records.  Their histograms were fed where they closed.
        """
        for event in events:
            key = _span_key(event["name"], event["attrs"])
            self._totals[key] = self._totals.get(key, 0.0) + event["dur_s"]
        if self.enabled:
            self._events.extend(events)


class NullTracer(Tracer):
    """The do-nothing tracer: spans read no clock and buffer nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(origin="null")

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Callable[[], float]]:
        yield _no_clock

    def extend(self, events: List[dict]) -> None:
        pass


def _no_clock() -> float:
    return 0.0


#: Shared do-nothing tracer for un-observed runs.
NULL_TRACER = NullTracer()


def _sanitize_attrs(attrs: dict) -> dict:
    """JSON-safe copy of span attributes (numpy scalars -> python)."""
    clean = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            clean[key] = value
        elif hasattr(value, "item"):
            clean[key] = value.item()
        else:
            clean[key] = repr(value)
    return clean


def write_trace_jsonl(events: List[dict], path: Union[str, Path]) -> int:
    """Write events as JSON Lines (header first); returns lines written."""
    path = Path(path)
    lines = [json.dumps({"schema": TRACE_SCHEMA, "n_events": len(events)})]
    for event in events:
        record = dict(event)
        record["attrs"] = _sanitize_attrs(record.get("attrs", {}))
        lines.append(json.dumps(record))
    path.write_text("\n".join(lines) + "\n")
    return len(lines)


def read_trace_jsonl(path: Union[str, Path]) -> List[dict]:
    """Read and validate a :func:`write_trace_jsonl` file.

    Raises :class:`~repro.errors.ConfigurationError` on a missing or
    mismatched header, a torn line, or an event missing schema fields —
    the roundtrip is exact (asserted by ``tests/obs/test_tracing.py``).
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ConfigurationError(f"trace file {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"corrupt trace header in {path}: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
        raise ConfigurationError(
            f"{path} is not a trace file (expected schema {TRACE_SCHEMA!r})"
        )
    events: List[dict] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"corrupt trace event at {path}:{lineno}: {exc}"
            ) from exc
        missing = [key for key in EVENT_FIELDS if key not in event]
        if missing:
            raise ConfigurationError(
                f"trace event at {path}:{lineno} is missing {missing}"
            )
        events.append(event)
    declared = header.get("n_events")
    if isinstance(declared, int) and declared != len(events):
        raise ConfigurationError(
            f"{path} declares {declared} events but holds {len(events)}"
        )
    return events


def span_tree(events: List[dict]) -> Dict[Optional[int], List[dict]]:
    """Index events by ``parent_id`` (per origin, ids are unique).

    A small reader-side convenience for tests and the render command:
    ``span_tree(events)[None]`` is the list of root spans.
    """
    children: Dict[Optional[int], List[dict]] = {}
    for event in events:
        children.setdefault(event.get("parent_id"), []).append(event)
    return children
