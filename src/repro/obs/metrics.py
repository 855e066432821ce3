"""Metrics: counters, gauges and fixed-bucket histograms with labels.

A :class:`MetricsRegistry` is the numeric half of ``repro.obs``: campaign
code increments counters, sets gauges and observes histogram samples,
and an operator exports the whole registry as a Prometheus text page or
a JSON document at any point of a run.

Design constraints (shared with the rest of the pipeline):

* **Deterministic folding.**  A registry reduces to a plain-data
  :class:`MetricsSnapshot` that :meth:`MetricsRegistry.merge_snapshot`
  folds in: counters and histogram buckets add, gauges resolve by a
  logical version stamp (not wall clock), and the fold is associative —
  per-worker registries folded in chunk order produce the same totals at
  any worker count (asserted by ``tests/obs/test_metrics.py``).
* **Multiprocessing safe.**  Snapshots are picklable plain dicts/lists;
  workers snapshot their private registry and ship it back with the
  chunk result, exactly like the CPA running sums.
* **Zero cost when disabled.**  :data:`NULL_METRICS` is a registry whose
  mutators are no-ops and whose ``enabled`` flag lets callers skip work
  that would only feed it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

SNAPSHOT_SCHEMA = "rftc-obs-metrics/1"

#: Prometheus-compatible metric and label name shape.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper edges (seconds-scale timings).  An
#: implicit +Inf bucket always follows the last edge.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: A fully-resolved series identity: (metric name, sorted label pairs).
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _series_key(name: str, labels: Dict[str, object]) -> SeriesKey:
    if not _NAME_RE.match(name):
        raise ConfigurationError(f"invalid metric name {name!r}")
    pairs = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ConfigurationError(f"invalid label name {key!r}")
        pairs.append((key, str(labels[key])))
    return name, tuple(pairs)


def _check_buckets(buckets: Sequence[float]) -> Tuple[float, ...]:
    edges = tuple(float(b) for b in buckets)
    if not edges:
        raise ConfigurationError("histogram needs at least one bucket edge")
    if any(later <= earlier for later, earlier in zip(edges[1:], edges)):
        raise ConfigurationError("bucket edges must be strictly increasing")
    return edges


@dataclass
class _HistogramSeries:
    """One labeled histogram: per-bucket counts plus sum/count."""

    edges: Tuple[float, ...]
    counts: List[int]
    sum: float = 0.0
    count: int = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for position, edge in enumerate(self.edges):
            if value <= edge:
                self.counts[position] += 1
                return
        self.counts[-1] += 1  # +Inf bucket

    def add(self, other: "_HistogramSeries") -> None:
        if other.edges != self.edges:
            raise ConfigurationError(
                "cannot merge histograms with different bucket edges"
            )
        self.sum += other.sum
        self.count += other.count
        for position, count in enumerate(other.counts):
            self.counts[position] += count


@dataclass
class MetricsSnapshot:
    """A registry frozen to plain data: picklable, mergeable, exportable.

    ``counters`` maps series key to value; ``gauges`` to ``(version,
    value)`` where ``version`` is the registry's logical set-sequence
    (``merge_snapshot`` keeps the higher version, ties keep the larger
    value — an associative, commutative rule); ``histograms`` to
    ``(edges, bucket counts incl. +Inf, sum, count)``.
    """

    counters: Dict[SeriesKey, float] = field(default_factory=dict)
    gauges: Dict[SeriesKey, Tuple[int, float]] = field(default_factory=dict)
    histograms: Dict[
        SeriesKey, Tuple[Tuple[float, ...], Tuple[int, ...], float, int]
    ] = field(default_factory=dict)

    @property
    def n_series(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    # -- exporters -----------------------------------------------------

    def to_prometheus(self) -> str:
        """The snapshot as a Prometheus text-format page.

        Series are emitted name-sorted with ``# TYPE`` headers; histogram
        buckets follow Prometheus's cumulative ``le`` convention with the
        terminal ``+Inf`` bucket equal to ``_count``.
        """

        def fmt_labels(pairs: Iterable[Tuple[str, str]]) -> str:
            body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
            return f"{{{body}}}" if body else ""

        def fmt_value(value: float) -> str:
            return repr(int(value)) if float(value).is_integer() else repr(value)

        lines: List[str] = []
        typed: set = set()

        def header(name: str, kind: str) -> None:
            if name not in typed:
                lines.append(f"# TYPE {name} {kind}")
                typed.add(name)

        for (name, pairs), value in sorted(self.counters.items()):
            header(name, "counter")
            lines.append(f"{name}{fmt_labels(pairs)} {fmt_value(value)}")
        for (name, pairs), (_, value) in sorted(self.gauges.items()):
            header(name, "gauge")
            lines.append(f"{name}{fmt_labels(pairs)} {fmt_value(value)}")
        for (name, pairs), (edges, counts, total, count) in sorted(
            self.histograms.items()
        ):
            header(name, "histogram")
            cumulative = 0
            for edge, bucket in zip(edges, counts):
                cumulative += bucket
                le = pairs + (("le", f"{edge:g}"),)
                lines.append(f"{name}_bucket{fmt_labels(le)} {cumulative}")
            le = pairs + (("le", "+Inf"),)
            lines.append(f"{name}_bucket{fmt_labels(le)} {count}")
            lines.append(f"{name}_sum{fmt_labels(pairs)} {repr(float(total))}")
            lines.append(f"{name}_count{fmt_labels(pairs)} {count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> str:
        """The snapshot as a JSON document (inverse of :meth:`from_json`)."""
        doc = {
            "schema": SNAPSHOT_SCHEMA,
            "counters": [
                {"name": name, "labels": dict(pairs), "value": value}
                for (name, pairs), value in sorted(self.counters.items())
            ],
            "gauges": [
                {
                    "name": name,
                    "labels": dict(pairs),
                    "version": version,
                    "value": value,
                }
                for (name, pairs), (version, value) in sorted(self.gauges.items())
            ],
            "histograms": [
                {
                    "name": name,
                    "labels": dict(pairs),
                    "buckets": list(edges),
                    "counts": list(counts),
                    "sum": total,
                    "count": count,
                }
                for (name, pairs), (edges, counts, total, count) in sorted(
                    self.histograms.items()
                )
            ],
        }
        return json.dumps(doc, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "MetricsSnapshot":
        """Parse a :meth:`to_json` document back into a snapshot."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"corrupt metrics JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("schema") != SNAPSHOT_SCHEMA:
            raise ConfigurationError(
                "not a metrics snapshot (expected schema "
                f"{SNAPSHOT_SCHEMA!r}, got {doc.get('schema') if isinstance(doc, dict) else type(doc).__name__!r})"
            )
        snapshot = cls()
        try:
            for entry in doc.get("counters", ()):
                key = _series_key(entry["name"], entry.get("labels", {}))
                snapshot.counters[key] = float(entry["value"])
            for entry in doc.get("gauges", ()):
                key = _series_key(entry["name"], entry.get("labels", {}))
                snapshot.gauges[key] = (
                    int(entry.get("version", 0)),
                    float(entry["value"]),
                )
            for entry in doc.get("histograms", ()):
                key = _series_key(entry["name"], entry.get("labels", {}))
                edges = _check_buckets(entry["buckets"])
                counts = tuple(int(c) for c in entry["counts"])
                if len(counts) != len(edges) + 1:
                    raise ConfigurationError(
                        f"histogram {entry['name']!r}: expected "
                        f"{len(edges) + 1} bucket counts, got {len(counts)}"
                    )
                snapshot.histograms[key] = (
                    edges, counts, float(entry["sum"]), int(entry["count"]),
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed metrics snapshot entry: {exc!r}"
            ) from exc
        return snapshot


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


class MetricsRegistry:
    """Mutable metric state: the write side of the observability layer.

    All mutators accept labels as keyword arguments::

        metrics.inc("campaign_chunks_total", phase="fresh")
        metrics.set_gauge("campaign_done_traces", 4000)
        metrics.observe("campaign_fold_seconds", 0.012)

    Histogram bucket edges are fixed at a series' first observation
    (``buckets=...`` or :data:`DEFAULT_BUCKETS`) and must match on every
    later observation and merge.
    """

    #: Callers test this before doing work that only feeds metrics (e.g.
    #: wiring a registry into consumers) — the null registry is False.
    enabled: bool = True

    def __init__(self) -> None:
        self._counters: Dict[SeriesKey, float] = {}
        self._gauges: Dict[SeriesKey, Tuple[int, float]] = {}
        self._histograms: Dict[SeriesKey, _HistogramSeries] = {}
        self._gauge_seq = 0

    # -- mutators ------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` (>= 0) to a counter series."""
        if value < 0:
            raise ConfigurationError("counters only go up")
        key = _series_key(name, labels)
        self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge series to ``value`` (last set wins on merge)."""
        self._gauge_seq += 1
        self._gauges[_series_key(name, labels)] = (self._gauge_seq, float(value))

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> None:
        """Fold one sample into a fixed-bucket histogram series."""
        key = _series_key(name, labels)
        series = self._histograms.get(key)
        if series is None:
            edges = _check_buckets(buckets if buckets is not None else DEFAULT_BUCKETS)
            series = _HistogramSeries(edges=edges, counts=[0] * (len(edges) + 1))
            self._histograms[key] = series
        elif buckets is not None and _check_buckets(buckets) != series.edges:
            raise ConfigurationError(
                f"histogram {name!r} was created with different bucket edges"
            )
        series.observe(float(value))

    def observe_seconds(self, name: str, seconds: float, **labels: object) -> None:
        """Alias of :meth:`observe` that reads well at timing call sites."""
        self.observe(name, seconds, **labels)

    def ensure_histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> None:
        """Declare a histogram series without observing a sample.

        Long-lived processes (the campaign service daemon) call this at
        boot so their latency histograms appear on ``/metrics`` — with
        zero counts and ``p50=–`` in the rendered view — before the
        first sample arrives.  Declaring an existing series is a no-op,
        but the bucket edges must match.
        """
        key = _series_key(name, labels)
        series = self._histograms.get(key)
        edges = _check_buckets(buckets if buckets is not None else DEFAULT_BUCKETS)
        if series is None:
            self._histograms[key] = _HistogramSeries(
                edges=edges, counts=[0] * (len(edges) + 1)
            )
        elif series.edges != edges:
            raise ConfigurationError(
                f"histogram {name!r} was created with different bucket edges"
            )

    # -- folding / reading ---------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the registry to plain mergeable data (picklable)."""
        return MetricsSnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            histograms={
                key: (series.edges, tuple(series.counts), series.sum, series.count)
                for key, series in self._histograms.items()
            },
        )

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a worker's (or another registry's) snapshot into this one."""
        for key, value in snapshot.counters.items():
            self._counters[key] = self._counters.get(key, 0.0) + value
        for key, stamped in snapshot.gauges.items():
            mine = self._gauges.get(key)
            if mine is None or stamped > mine:
                self._gauges[key] = stamped
        for key, (edges, counts, total, count) in snapshot.histograms.items():
            series = self._histograms.get(key)
            if series is None:
                self._histograms[key] = _HistogramSeries(
                    edges=edges, counts=list(counts), sum=total, count=count
                )
            else:
                series.add(
                    _HistogramSeries(
                        edges=edges, counts=list(counts), sum=total, count=count
                    )
                )

    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of one counter series (0.0 if never incremented)."""
        return self._counters.get(_series_key(name, labels), 0.0)

    def gauge_value(self, name: str, **labels: object) -> Optional[float]:
        """Current value of one gauge series (None if never set)."""
        stamped = self._gauges.get(_series_key(name, labels))
        return stamped[1] if stamped is not None else None


def quantile_from_histogram(
    edges: Sequence[float], counts: Sequence[int], q: float
) -> Optional[float]:
    """Estimate the ``q`` quantile of a fixed-bucket histogram.

    Returns the upper edge of the first bucket whose cumulative count
    reaches ``q`` of the total — the usual conservative bucketed
    estimate.  Samples in the ``+Inf`` bucket resolve to the largest
    finite edge (there is no better bound), and an **empty histogram
    returns None** rather than raising, so renderers can show ``p50=–``
    for a series that was declared but never observed.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError("quantile must be in [0, 1]")
    edges = _check_buckets(edges)
    if len(counts) != len(edges) + 1:
        raise ConfigurationError(
            f"expected {len(edges) + 1} bucket counts, got {len(counts)}"
        )
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0
    for edge, count in zip(edges, counts):
        cumulative += count
        if cumulative >= rank and count:
            return float(edge)
    return float(edges[-1])


class NullMetricsRegistry(MetricsRegistry):
    """The disabled fast path: every mutator is a no-op.

    Instrumented code holds a registry unconditionally and calls it per
    chunk; with observability off it holds this one, whose calls cost a
    single dynamic dispatch and allocate nothing.  ``enabled`` is False
    so code can skip work that only feeds metrics.
    """

    enabled = False

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        pass

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> None:
        pass

    def ensure_histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> None:
        pass

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        pass


#: Shared do-nothing registry for un-observed runs.
NULL_METRICS = NullMetricsRegistry()
