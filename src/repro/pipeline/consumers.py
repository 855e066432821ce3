"""Incremental trace consumers: the analysis side of the pipeline.

A consumer is anything with a ``name``, a ``consume(chunk)`` that folds a
:class:`~repro.power.acquisition.TraceSet` chunk into running state, and a
``result()`` that reports the analysis so far.  The engine feeds every
consumer each chunk exactly once, in acquisition order, then collects
``result()`` into the :class:`~repro.pipeline.engine.PipelineReport` —
so a 4M-trace campaign carries CPA, TVLA and completion-time statistics
simultaneously while only ever holding one chunk of traces.

The three built-ins wrap the library's existing streaming accumulators:

* :class:`CpaStreamConsumer` — :class:`~repro.attacks.IncrementalCpa`
  (known-ciphertext last-round CPA, the paper's Sec. 6 attack).
* :class:`TvlaStreamConsumer` —
  :class:`~repro.leakage_assessment.IncrementalTvla` over the pipeline's
  interleaved fixed/random rows (Fig. 6 methodology).
* :class:`CompletionTimeConsumer` — a streaming histogram of encryption
  completion times (Fig. 3 statistics without storing per-trace times).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Optional, Protocol, runtime_checkable

import numpy as np

from repro.attacks.cpa import CpaByteResult, CpaResult, PredictionModel
from repro.attacks.incremental import (
    CpaChunkSummary,
    IncrementalCpa,
    IncrementalCpaBank,
)
from repro.attacks.models import last_round_hd_predictions
from repro.errors import AttackError, CheckpointError, ConfigurationError
from repro.leakage_assessment.tvla import IncrementalTvla, TvlaResult
from repro.power.acquisition import TraceSet


@runtime_checkable
class TraceConsumer(Protocol):
    """The pipeline's analysis plug-in contract.

    ``snapshot``/``restore`` are the checkpoint half of the contract:
    ``snapshot()`` returns a dict of JSON-safe scalars and numpy arrays
    capturing the accumulator exactly, and ``restore(state)`` overwrites
    a freshly-constructed consumer with it such that continuing the fold
    is bit-identical to never having stopped.  The ``repro.verify.lint``
    suite enforces that every consumer in ``src/`` implements both.

    A consumer whose fold is a sum of per-chunk terms may also derive
    from :class:`SummarizingConsumer`, which lets a pooled campaign
    compute those terms in its workers.
    """

    name: str

    def consume(self, chunk: TraceSet) -> None:
        """Fold one chunk (called once per chunk, in acquisition order)."""
        ...

    def result(self):
        """The analysis outcome accumulated so far."""
        ...

    def snapshot(self) -> dict:
        """Serializable exact state for campaign checkpoints."""
        ...

    def restore(self, state: dict) -> None:
        """Overwrite this consumer with a :meth:`snapshot` state."""
        ...


class SummarizingConsumer:
    """A consumer whose fold splits into a pure summary and an ordered fold.

    ``summarize(chunk)`` computes the chunk's contribution from the chunk
    and the consumer's construction-time config only, never from its
    running state; ``fold(summary)`` adds that contribution, and is
    called in chunk order.  ``consume(chunk)`` is ``fold(summarize(chunk))``
    — one math path, so where a summary was computed cannot change a bit.

    A pooled :class:`~repro.pipeline.StreamingCampaign` ships each such
    consumer's :meth:`summarizer` (a twin carrying only the config) to
    its workers, runs ``summarize`` in the worker that acquired the
    chunk, and calls only ``fold`` in the parent.  A subclass that
    overrides ``consume`` opts out and has its ``consume`` called in
    the parent, as does any consumer hidden behind a wrapper.
    """

    name: str

    def summarize(self, chunk: TraceSet):
        raise NotImplementedError

    def fold(self, summary) -> None:
        raise NotImplementedError

    def summarizer(self) -> "SummarizingConsumer":
        """A picklable twin of this consumer without its running state."""
        raise NotImplementedError

    def consume(self, chunk: TraceSet) -> None:
        self.fold(self.summarize(chunk))


class CpaStreamConsumer(SummarizingConsumer):
    """Streaming last-round CPA on one key byte."""

    def __init__(
        self,
        byte_index: int = 0,
        model: PredictionModel = last_round_hd_predictions,
        name: Optional[str] = None,
    ):
        self._inc = IncrementalCpa(byte_index=byte_index, model=model)
        self.name = name if name is not None else f"cpa[{byte_index}]"

    @property
    def byte_index(self) -> int:
        return self._inc.byte_index

    @property
    def n_traces(self) -> int:
        return self._inc.n_traces

    def set_metrics(self, metrics) -> None:
        """Report per-chunk fold cost into an observed campaign's registry."""
        self._inc.set_metrics(metrics)

    def summarize(self, chunk: TraceSet) -> Optional[CpaChunkSummary]:
        return self._inc.chunk_summary(chunk.traces, chunk.ciphertexts)

    def fold(self, summary: Optional[CpaChunkSummary]) -> None:
        self._inc.fold_summary(summary)

    def summarizer(self) -> "CpaStreamConsumer":
        twin = copy.copy(self)
        twin._inc = IncrementalCpa(self._inc.byte_index, self._inc.model)
        return twin

    def result(self) -> CpaByteResult:
        return self._inc.result()

    def snapshot(self) -> dict:
        return self._inc.snapshot()

    def restore(self, state: dict) -> None:
        self._inc.restore(state)


class CpaBankConsumer(SummarizingConsumer):
    """Streaming last-round CPA on several key bytes at once.

    One :class:`~repro.attacks.IncrementalCpaBank` replaces 16 independent
    :class:`CpaStreamConsumer` plug-ins: the per-chunk trace sums are
    computed once instead of per byte and all guesses share one GEMM, so a
    full-key streaming attack costs far less per chunk (see
    ``docs/performance.md``).
    """

    def __init__(
        self,
        byte_indices: "tuple[int, ...]" = tuple(range(16)),
        model: PredictionModel = last_round_hd_predictions,
        name: str = "cpa_bank",
        engine: str = "fast",
    ):
        self._bank = IncrementalCpaBank(
            byte_indices=byte_indices, model=model, engine=engine
        )
        self.name = name

    @property
    def byte_indices(self) -> "tuple[int, ...]":
        return self._bank.byte_indices

    @property
    def n_traces(self) -> int:
        return self._bank.n_traces

    def set_metrics(self, metrics) -> None:
        """Report per-chunk fold cost into an observed campaign's registry."""
        self._bank.set_metrics(metrics)

    def summarize(self, chunk: TraceSet) -> Optional[CpaChunkSummary]:
        return self._bank.chunk_summary(chunk.traces, chunk.ciphertexts)

    def fold(self, summary: Optional[CpaChunkSummary]) -> None:
        self._bank.fold_summary(summary)

    def summarizer(self) -> "CpaBankConsumer":
        bank = self._bank
        twin = copy.copy(self)
        twin._bank = IncrementalCpaBank(
            bank.byte_indices, bank.model, bank.engine
        )
        return twin

    def result(self) -> CpaResult:
        return self._bank.result()

    def snapshot(self) -> dict:
        return self._bank.snapshot()

    def restore(self, state: dict) -> None:
        self._bank.restore(state)


class TvlaStreamConsumer:
    """Streaming fixed-vs-random Welch t over interleaved chunks.

    Expects chunks produced by a fixed-vs-random campaign
    (``CampaignSpec.fixed_plaintext`` set): even rows fixed, odd rows
    random, flagged by ``metadata["tvla_interleaved"]``.  Feeding it a
    plain CPA chunk is a hard error rather than a silently wrong t-curve.
    """

    def __init__(self, exclude_prefix_samples: int = 0, name: str = "tvla"):
        self._inc = IncrementalTvla(exclude_prefix_samples=exclude_prefix_samples)
        self.name = name

    def consume(self, chunk: TraceSet) -> None:
        if not chunk.metadata.get("tvla_interleaved"):
            raise AttackError(
                "TvlaStreamConsumer needs interleaved fixed-vs-random chunks "
                "(run the campaign with a fixed_plaintext)"
            )
        self._inc.update_interleaved(chunk.traces)

    def result(self) -> TvlaResult:
        return self._inc.result()

    def snapshot(self) -> dict:
        return self._inc.snapshot()

    def restore(self, state: dict) -> None:
        self._inc.restore(state)


@dataclass
class CompletionTimeStats:
    """Streaming summary of per-encryption completion times.

    ``counts`` maps quantized completion time (ns) to occurrences — the
    paper's Fig. 3 histograms reduced to their sufficient statistic.
    """

    counts: Dict[float, int]
    resolution_ns: float

    @property
    def n_encryptions(self) -> int:
        return sum(self.counts.values())

    @property
    def distinct_times(self) -> int:
        return len(self.counts)

    @property
    def min_ns(self) -> float:
        return min(self.counts)

    @property
    def max_ns(self) -> float:
        return max(self.counts)

    @property
    def max_identical(self) -> int:
        """Largest single bucket — the paper's misalignment-resistance metric."""
        return max(self.counts.values())

    def histogram(self) -> "tuple[np.ndarray, np.ndarray]":
        """(times_ns, counts) sorted by time, for plotting."""
        times = np.array(sorted(self.counts))
        return times, np.array([self.counts[t] for t in times])


class CompletionTimeConsumer:
    """Histogram completion times chunk by chunk, in O(distinct times).

    The histogram is two sorted numpy arrays — bucket times (quantized
    value x ``resolution_ns``) and their int64 counts — and each chunk's
    ``np.unique`` is merged into them, so no Python loop runs over the
    distinct times in ``consume`` or ``snapshot``.
    """

    def __init__(self, resolution_ns: float = 0.01, name: str = "completion"):
        if resolution_ns <= 0:
            raise ConfigurationError("resolution_ns must be positive")
        self.resolution_ns = float(resolution_ns)
        self.name = name
        self._times = np.empty(0, dtype=np.float64)
        self._counts = np.empty(0, dtype=np.int64)

    def consume(self, chunk: TraceSet) -> None:
        quantized = np.round(
            np.asarray(chunk.completion_times_ns, dtype=np.float64)
            / self.resolution_ns
        )
        times, counts = np.unique(
            quantized * self.resolution_ns, return_counts=True
        )
        self._add(times, counts.astype(np.int64))

    def _add(self, times: np.ndarray, counts: np.ndarray) -> None:
        """Merge sorted, distinct ``times`` with their ``counts`` in."""
        at = np.searchsorted(self._times, times)
        hit = at < self._times.size
        hit[hit] = self._times[at[hit]] == times[hit]
        self._counts[at[hit]] += counts[hit]
        new = ~hit
        if new.any():
            self._times = np.insert(self._times, at[new], times[new])
            self._counts = np.insert(self._counts, at[new], counts[new])

    def result(self) -> CompletionTimeStats:
        if self._times.size == 0:
            raise AttackError("no completion times accumulated")
        return CompletionTimeStats(
            counts=dict(zip(self._times.tolist(), self._counts.tolist())),
            resolution_ns=self.resolution_ns,
        )

    def snapshot(self) -> dict:
        return {
            "resolution_ns": self.resolution_ns,
            "times": self._times.copy(),
            "counts": self._counts.copy(),
        }

    def restore(self, state: dict) -> None:
        if float(state.get("resolution_ns", -1.0)) != self.resolution_ns:
            raise CheckpointError(
                f"snapshot resolution {state.get('resolution_ns')} ns does "
                f"not match consumer resolution {self.resolution_ns} ns"
            )
        times = np.asarray(state.get("times", ()), dtype=np.float64)
        counts = np.asarray(state.get("counts", ()), dtype=np.int64)
        if times.shape != counts.shape or times.ndim != 1:
            raise CheckpointError("snapshot times/counts length mismatch")
        order = np.argsort(times, kind="stable")
        times, counts = times[order], counts[order]
        if np.any(times[1:] == times[:-1]):
            raise CheckpointError("snapshot repeats a completion time")
        self._times, self._counts = times, counts
