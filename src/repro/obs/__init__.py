"""Observability for paper-scale campaigns: metrics and span tracing.

``repro.obs`` is the operations layer the ROADMAP's production system
needs: a multi-hour, multi-million-trace campaign must be *watchable*
(throughput, retry storms, checkpoint cadence) without perturbing the
science.  Two dependency-free pieces:

* :class:`MetricsRegistry` — counters, gauges and fixed-bucket
  histograms with labeled series; worker snapshots fold in
  deterministically through ``merge_snapshot``, and export as Prometheus text
  or JSON (``campaign --metrics-out``, ``repro-rftc obs render``).
* :class:`Tracer` — nestable spans, the one clock campaign code
  reads: a closed span adds to the tracer's totals and feeds the
  histogram :data:`SPAN_HISTOGRAMS` maps it to; events are buffered
  per process, drained across the multiprocessing boundary with each
  chunk result, and serialised as JSON Lines (``campaign --trace-out``).

The whole layer honours one invariant, enforced by
``tests/pipeline/test_observability.py``: campaign results and store
bytes are **bit-identical** with observability on or off, at any worker
count.  :class:`Observability` bundles a registry and tracer;
:data:`NULL_OBS` is the zero-cost disabled bundle instrumented code
holds by default.  See ``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    MetricsRegistry,
    MetricsSnapshot,
    NullMetricsRegistry,
    quantile_from_histogram,
)
from repro.obs.render import render_metrics
from repro.obs.tracing import (
    NULL_TRACER,
    SPAN_HISTOGRAMS,
    NullTracer,
    Tracer,
    read_trace_jsonl,
    span_tree,
    write_trace_jsonl,
)


@dataclass
class Observability:
    """One campaign's metrics registry + tracer, passed as a unit.

    Instrumented code receives an ``Observability`` and calls
    ``obs.metrics.inc(...)`` / ``obs.tracer.span(...)`` unconditionally;
    the disabled bundle (:data:`NULL_OBS`, the default everywhere) makes
    every such call a no-op.  A live tracer that feeds no registry yet
    is bound to the bundle's, so its spans feed the bundle's histograms.
    """

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=Tracer)

    def __post_init__(self) -> None:
        if self.tracer.metrics is NULL_METRICS and not isinstance(
            self.tracer, NullTracer
        ):
            self.tracer.metrics = self.metrics

    @classmethod
    def create(cls, origin: str = "parent") -> "Observability":
        """A live bundle whose tracer stamps events with ``origin``."""
        return cls(metrics=MetricsRegistry(), tracer=Tracer(origin=origin))

    @classmethod
    def disabled(cls) -> "Observability":
        """The shared null bundle (also importable as :data:`NULL_OBS`)."""
        return NULL_OBS


#: Shared zero-cost bundle for un-observed runs.
NULL_OBS = Observability(metrics=NULL_METRICS, tracer=NULL_TRACER)

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_METRICS",
    "NULL_OBS",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "Observability",
    "SPAN_HISTOGRAMS",
    "Tracer",
    "quantile_from_histogram",
    "read_trace_jsonl",
    "render_metrics",
    "span_tree",
    "write_trace_jsonl",
]
