"""Streaming consumers for the adversary zoo (CPA disclosure / MLP /
lattice / MIA / success-rate).

These wrap ``repro.attacks``' profiled and alignment-aware attackers as
:class:`~repro.pipeline.consumers.TraceConsumer` plug-ins, so every
attacker in the catalogue runs inside campaigns, checkpoints and the
scenario matrix exactly like the built-in CPA/TVLA consumers — one pass
over the traces, memory bounded by the chunk size.

Every consumer here attacks key byte 0 and shares that config
(:class:`_KeyByteConsumer`).  The three CPA attackers are one class,
with one rank-vs-traces curve: :class:`DisclosureConsumer` correlates
whatever its ``_features(chunk)`` hook returns — the raw traces, the
MLP's expected HD, or lattice-aligned traces.

All randomness is construction-time (the success-rate consumer derives
its replica subsampling from a counter hash of an explicit seed), so
results are bit-identical across worker counts and checkpoint resume.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.attacks.incremental import IncrementalCpa
from repro.attacks.lattice import lattice_align
from repro.attacks.mlp import MlpModel, mlp_expected_hd
from repro.attacks.models import (
    check_shift_rows_fixed,
    expand_last_round_key,
    last_round_hd_table,
)
from repro.attacks.success_rate import wilson_interval
from repro.errors import AttackError, CheckpointError
from repro.obs.metrics import NULL_METRICS
from repro.power.acquisition import TraceSet

#: Number of last-round HD classes (one state byte toggles 0..8 bits).
_N_CLASSES = 9

#: The MIA histogram is int32 and no cell can exceed ``n_traces``,
#: so this caps the traces one consumer may accumulate.
_MIA_MAX_TRACES = int(np.iinfo(np.int32).max)

#: Strided samples per block of the result-time MI: each block's joint
#: histogram is ``8 x 256 x 9 x n_bins`` float64, 2.25 MiB at 16 bins.
_MIA_MI_BLOCK = 8


def _rank_of(scores: np.ndarray, true_byte: int) -> int:
    order = np.argsort(-scores, kind="stable")
    return int(np.nonzero(order == true_byte)[0][0])


class _KeyByteConsumer:
    """The config every attack consumer shares: the key under attack.

    Every attack consumer targets key byte 0.  The true last-round-key
    byte is what ranks and successes are measured against, and a
    snapshot taken against another key is refused on restore.
    """

    name: str
    #: The attacked key byte (reported in every result).
    byte_index = 0

    def __init__(self, key: bytes):
        self._true_byte = int(expand_last_round_key(key)[self.byte_index])
        self._metrics = NULL_METRICS

    def set_metrics(self, metrics) -> None:
        """Report per-chunk counters into an observed campaign's registry."""
        self._metrics = metrics

    def _check_key(self, state: dict) -> None:
        if int(state.get("true_byte", -1)) != self._true_byte:
            raise CheckpointError(
                f"{self.name} snapshot was taken against a different key"
            )


class DisclosureConsumer(_KeyByteConsumer):
    """Streaming CPA on one key byte plus its rank-vs-traces curve.

    Wraps :class:`~repro.attacks.IncrementalCpa`, which correlates the
    ``(n, S)`` features :meth:`_features` derives from each chunk with
    the HD predictions of the chunk's ciphertexts.  Here the features
    are the raw traces; the MLP and lattice consumers override only
    that hook, so all three share one fold, result, snapshot and
    restore.  The curve (cumulative trace count, true byte's rank)
    after every folded chunk gives traces-to-disclosure at chunk
    granularity without a second pass over the traces.
    """

    name = "disclosure"

    def __init__(self, key: bytes):
        super().__init__(key)
        self._inc = IncrementalCpa(byte_index=self.byte_index)
        self._trace_counts: List[int] = []
        self._ranks: List[int] = []

    @property
    def n_traces(self) -> int:
        return self._inc.n_traces

    def _features(self, chunk: TraceSet) -> np.ndarray:
        return chunk.traces

    def consume(self, chunk: TraceSet) -> None:
        features = self._features(chunk)
        self._inc.update(features, chunk.ciphertexts)
        rank = self._inc.result().rank_of(self._true_byte)
        self._trace_counts.append(int(self.n_traces))
        self._ranks.append(rank)
        self._metrics.inc(
            "attack_traces_total", len(features), attack=self.name
        )
        self._metrics.set_gauge("attack_true_byte_rank", rank, attack=self.name)

    def result(self) -> dict:
        """Final attack outcome plus the disclosure curve."""
        outcome = self._inc.result()
        others = np.delete(outcome.peak_corr, self._true_byte)
        return {
            "byte_index": self.byte_index,
            "best_guess": int(outcome.best_guess),
            "true_byte_rank": int(outcome.rank_of(self._true_byte)),
            "peak_corr_max": float(outcome.peak_corr.max()),
            "margin": float(
                outcome.peak_corr[self._true_byte] - others.max()
            ),
            "trace_counts": list(self._trace_counts),
            "ranks": list(self._ranks),
            "first_disclosure": next(
                (c for c, r in zip(self._trace_counts, self._ranks) if r == 0),
                None,
            ),
        }

    def snapshot(self) -> dict:
        state = {f"cpa_{k}": v for k, v in self._inc.snapshot().items()}
        state["true_byte"] = self._true_byte
        state["trace_counts"] = np.asarray(self._trace_counts, dtype=np.int64)
        state["ranks"] = np.asarray(self._ranks, dtype=np.int64)
        return state

    def restore(self, state: dict) -> None:
        self._check_key(state)
        counts = np.asarray(state.get("trace_counts", ()), dtype=np.int64)
        ranks = np.asarray(state.get("ranks", ()), dtype=np.int64)
        if counts.shape != ranks.shape:
            raise CheckpointError(f"{self.name} snapshot curve length mismatch")
        self._trace_counts = [int(c) for c in counts]
        self._ranks = [int(r) for r in ranks]
        self._inc.restore(
            {k[4:]: v for k, v in state.items() if k.startswith("cpa_")}
        )


class MlpAttackConsumer(DisclosureConsumer):
    """Streaming profiled-MLP attack on one key byte.

    The trained network (:class:`~repro.attacks.mlp.MlpModel`, profiled
    on a clone device before the campaign) condenses each trace to its
    posterior-mean HD, and the CPA correlates that single learned
    feature against every key guess.  Correlating the posterior mean is
    markedly more sample-efficient than summing the classes'
    log-likelihoods (ASCAD style): the rare outer HD classes (0, 1, 7,
    8 — together ~7% of traces) get too few profiling examples to
    calibrate, and a log-likelihood sum amplifies exactly those tails.
    Snapshots carry only the running sums; the weights are
    construction-time configuration.
    """

    name = "mlp"

    def __init__(self, model: MlpModel, key: bytes):
        super().__init__(key)
        self._model = model

    def _features(self, chunk: TraceSet) -> np.ndarray:
        return mlp_expected_hd(self._model, chunk.traces)[:, None]


class LatticeCpaConsumer(DisclosureConsumer):
    """Streaming lattice-alignment CPA on one key byte.

    Each chunk is realigned by its known completion times
    (:func:`~repro.attacks.lattice.lattice_align`) before feeding the
    standard incremental CPA.  ``reference_ns`` must be fixed up front —
    derive it from the frequency *plan*'s full lattice
    (``plan.all_completion_times_ns().max()``) rather than from observed
    traces, so the alignment target never depends on which chunks have
    arrived (that is what keeps worker counts and resume bit-identical).
    """

    name = "lattice"

    def __init__(self, key: bytes, reference_ns: float):
        if not np.isfinite(reference_ns) or reference_ns < 0:
            raise AttackError(
                "reference_ns must be a non-negative finite float"
            )
        super().__init__(key)
        self.reference_ns = float(reference_ns)

    def _features(self, chunk: TraceSet) -> np.ndarray:
        return lattice_align(
            chunk.traces,
            chunk.completion_times_ns,
            chunk.sample_period_ns,
            self.reference_ns,
        )

    def result(self) -> dict:
        return {**super().result(), "reference_ns": self.reference_ns}

    def snapshot(self) -> dict:
        state = super().snapshot()
        state["reference_ns"] = self.reference_ns
        return state

    def restore(self, state: dict) -> None:
        if float(state.get("reference_ns", -1.0)) != self.reference_ns:
            raise CheckpointError(
                "lattice snapshot was aligned to a different reference "
                f"({state.get('reference_ns')} ns != {self.reference_ns} ns)"
            )
        super().restore(state)


class MiaStreamConsumer(_KeyByteConsumer):
    """Streaming mutual-information analysis on one key byte.

    Unlike the batch :func:`~repro.attacks.mia.mia_byte` (whose histogram
    edges adapt to the data and therefore depend on which traces were
    seen), the streaming form fixes its value bins —
    ``n_bins`` bins over ``[bin_lo, bin_hi)``, values outside clipped
    into the edge bins.  The value range ``[0, 100)`` with 16 bins gives
    ~6-unit bins, matched to the synthetic scope's ~2-4 unit per-sample
    noise — the full ADC range ``[0, 400)`` would need ~64 bins for the
    same resolution.

    State is a pure integer histogram ``hist[c, sample, bin]`` over the
    attacked ciphertext byte ``c`` (this is the only attack consumer
    with no order-dependent curve).  ShiftRows leaves byte 0 in place,
    so the last-round HD class of guess ``g`` is a function of ``c``
    alone, and the joint histogram ``counts[sample, guess, class, bin]``
    the MI needs is a sum of ``hist`` rows, rebuilt once in
    :meth:`result`.  Each chunk folds as one ``np.bincount``.

    ``sample_stride`` thins the tracked samples (every ``stride``-th
    sample): stride 4 on 256-sample traces keeps 256 x 64 x 16 int32
    cells (1 MiB) per consumer.  int32 caps a consumer at ``2**31 - 1``
    traces; ``consume`` raises :class:`~repro.errors.AttackError` before
    passing it.

    :meth:`result` computes the mutual information in blocks of
    :data:`_MIA_MI_BLOCK` strided samples, in place: beside the state it
    holds one block's two float64 joint histograms and boolean mask at
    its peak (~5.3 MiB at the default shape, against 18 MiB for one
    float64 copy of the whole joint histogram), and frees them before
    it returns.
    """

    name = "mia"
    bin_lo = 0.0
    bin_hi = 100.0
    n_bins = 16
    sample_stride = 4

    def __init__(self, key: bytes):
        super().__init__(key)
        check_shift_rows_fixed(self.byte_index, "the mia state")
        self.n_traces = 0
        self._hist: Optional[np.ndarray] = None  # (256, n_sel, bins)

    def _quantize(self, values: np.ndarray) -> np.ndarray:
        scaled = (values - self.bin_lo) / (self.bin_hi - self.bin_lo)
        bins = np.floor(scaled * self.n_bins).astype(np.int64)
        return np.clip(bins, 0, self.n_bins - 1)

    def consume(self, chunk: TraceSet) -> None:
        selected = np.asarray(chunk.traces)[:, :: self.sample_stride]
        n, n_sel = selected.shape
        if self.n_traces + n > _MIA_MAX_TRACES:
            raise AttackError(
                f"mia histogram is int32: {self.n_traces} + {n} traces "
                f"would pass {_MIA_MAX_TRACES}"
            )
        if self._hist is None:
            self._hist = np.zeros((256, n_sel, self.n_bins), dtype=np.int32)
        elif self._hist.shape[1] != n_sel:
            raise AttackError(
                f"chunk has {n_sel} strided samples, accumulator has "
                f"{self._hist.shape[1]} — mixed trace lengths?"
            )
        # Flat index of each trace's (ciphertext byte, sample, bin) cell.
        ct = np.asarray(chunk.ciphertexts)[:, self.byte_index, None]
        cells = (ct.astype(np.int64) * n_sel + np.arange(n_sel)) * self.n_bins
        cells += self._quantize(selected.astype(np.float64))
        self._hist += np.bincount(
            cells.ravel(), minlength=self._hist.size
        ).reshape(self._hist.shape).astype(np.int32)
        self.n_traces += n
        self._metrics.inc(
            "attack_traces_total", chunk.n_traces, attack=self.name
        )

    def _joint_counts(self, lo: int, hi: int) -> np.ndarray:
        """The float64 joint histogram ``counts[sample, guess, class, bin]``
        of strided samples ``lo..hi-1``.

        ``counts[s, g, k, b]`` sums ``hist[c, s, b]`` over the ciphertext
        bytes ``c`` whose HD under guess ``g`` is ``k``: class ``k``'s
        slice is the product of a ``(guess, c)`` 0/1 table and the
        block of ``hist``.  Every partial sum is an integer no larger
        than ``n_traces`` < 2**31, so float64 holds each exactly in any
        summation order.  The result is a fresh C-contiguous ``(sample,
        guess, class, bin)`` array, which fixes the summation order of
        the MI whatever the block.
        """
        n_sel = hi - lo
        hist = self._hist[:, lo:hi].astype(np.float64).reshape(256, -1)
        by_guess = last_round_hd_table().T  # (g, c)
        joint = np.empty((n_sel, 256, _N_CLASSES, self.n_bins))
        for k in range(_N_CLASSES):
            product = (by_guess == k).astype(np.float64) @ hist
            joint[:, :, k] = product.reshape(
                256, n_sel, self.n_bins
            ).transpose(1, 0, 2)
        return joint

    def _mutual_information(self) -> np.ndarray:
        """MI in bits per (strided sample, guess), shape ``(n_sel, 256)``.

        Computed :data:`_MIA_MI_BLOCK` strided samples at a time: per
        block, two float64 arrays of the block's joint histogram are
        live, ``joint`` and ``work``, each step writing into ``work`` in
        place.  Each MI cell reduces the same contiguous ``(class, bin)``
        run as over the whole histogram, so blocking changes no bit.
        """
        n_sel = self._hist.shape[1]
        mi = np.empty((n_sel, 256))
        for lo in range(0, n_sel, _MIA_MI_BLOCK):
            hi = min(lo + _MIA_MI_BLOCK, n_sel)
            joint = self._joint_counts(lo, hi)
            joint /= self.n_traces
            p_class = joint.sum(axis=3, keepdims=True)
            p_bin = joint.sum(axis=2, keepdims=True)
            work = p_class * p_bin
            mask = joint > 0
            np.divide(joint, work, out=work, where=mask)
            # Where joint == 0 the ratio is pinned to 1, so log2 is 0 and
            # the term drops out — no masked log needed.
            np.logical_not(mask, out=mask)
            work[mask] = 1.0
            np.log2(work, out=work)
            work *= joint
            mi[lo:hi] = work.sum(axis=(2, 3))
            del joint, work, mask  # freed before the next block is built
        return mi

    def result(self) -> dict:
        if self.n_traces == 0 or self._hist is None:
            raise AttackError("no traces accumulated")
        mi = self._mutual_information()
        scores = mi.max(axis=0)  # (256,) best MI over samples per guess
        best = int(np.argmax(scores))
        others = np.delete(scores, self._true_byte)
        return {
            "byte_index": self.byte_index,
            "best_guess": best,
            "true_byte_rank": _rank_of(scores, self._true_byte),
            "max_mi_bits": float(scores.max()),
            "margin": float(scores[self._true_byte] - others.max()),
            "n_traces": int(self.n_traces),
        }

    def snapshot(self) -> dict:
        state = {
            "true_byte": self._true_byte,
            "n_traces": int(self.n_traces),
            "bin_lo": self.bin_lo,
            "bin_hi": self.bin_hi,
            "n_bins": self.n_bins,
            "sample_stride": self.sample_stride,
        }
        if self._hist is not None:
            state["hist"] = self._hist.copy()
        return state

    def restore(self, state: dict) -> None:
        self._check_key(state)
        for field in ("bin_lo", "bin_hi", "n_bins", "sample_stride"):
            if float(state.get(field, np.nan)) != float(getattr(self, field)):
                raise CheckpointError(
                    f"mia snapshot {field} does not match the consumer"
                )
        n = int(state.get("n_traces", -1))
        if not 0 <= n <= _MIA_MAX_TRACES:
            raise CheckpointError(
                f"mia snapshot n_traces must be in [0, {_MIA_MAX_TRACES}]"
            )
        if "counts" in state:
            raise CheckpointError(
                "mia snapshot holds a (sample, guess, class, bin) counts "
                "histogram, which cannot be converted to the ciphertext-"
                "byte histogram; rerun the campaign"
            )
        if "hist" in state:
            hist = np.asarray(state["hist"])
            if hist.ndim != 3 or (hist.shape[0], hist.shape[2]) != (
                256,
                self.n_bins,
            ):
                raise CheckpointError("mia snapshot hist has a bad shape")
            if hist.dtype.kind not in "iu" or (
                np.any(hist < 0) or np.any(hist > _MIA_MAX_TRACES)
            ):
                raise CheckpointError(
                    "mia snapshot hist must be integers in "
                    f"[0, {_MIA_MAX_TRACES}]"
                )
            self._hist = hist.astype(np.int32)
        else:
            self._hist = None
        self.n_traces = n


def _replica_keep_mask(
    indices: np.ndarray, replica: int, seed: int, keep_fraction: float
) -> np.ndarray:
    """Deterministic Bernoulli thinning by absolute trace index.

    A SplitMix64-style counter hash of ``(seed, replica, index)`` maps
    each trace to a uniform in [0, 1); a trace joins the replica when it
    falls below ``keep_fraction``.  Pure function of the inputs — chunk
    boundaries, worker counts and resume points cannot change which
    traces a replica sees.
    """
    x = np.asarray(indices, dtype=np.uint64)
    x = x + np.uint64((seed * 0x9E3779B9 + replica * 0x85EBCA6B) & 0xFFFFFFFFFFFFFFFF)
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    uniform = (x >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return uniform < keep_fraction


class SuccessRateConsumer(_KeyByteConsumer):
    """Streaming success-rate-vs-traces curve with Wilson bands.

    The batch protocol (``success_rate_curve``) re-attacks random
    subsets at each budget, which needs the whole campaign in memory.
    The streaming form runs ``n_replicas`` parallel CPA attackers, each
    fed an independent deterministic Bernoulli thinning (each replica
    keeps a trace with probability ``keep_fraction``) of the trace stream; after every chunk, the
    fraction of replicas at rank 0 estimates SR at the current budget,
    and :func:`~repro.attacks.success_rate.wilson_interval` turns the
    replica count into a confidence band.  One pass, bounded memory,
    and — because the thinning is a counter hash of ``(seed, replica,
    absolute index)`` — byte-identical across worker counts and resume.
    """

    name = "success_rate"
    keep_fraction = 0.5

    def __init__(self, key: bytes, n_replicas: int = 8, seed: int = 0):
        if n_replicas < 1:
            raise AttackError("n_replicas must be >= 1")
        super().__init__(key)
        self.n_replicas = int(n_replicas)
        self.seed = int(seed)
        self._replicas = [
            IncrementalCpa(byte_index=self.byte_index)
            for _ in range(n_replicas)
        ]
        self.n_traces = 0  # traces *offered* (the SR curve's x axis)
        self._trace_counts: List[int] = []
        self._successes: List[int] = []

    def consume(self, chunk: TraceSet) -> None:
        n = chunk.n_traces
        indices = np.arange(self.n_traces, self.n_traces + n, dtype=np.int64)
        for replica, inc in enumerate(self._replicas):
            mask = _replica_keep_mask(
                indices, replica, self.seed, self.keep_fraction
            )
            if mask.any():
                inc.update(chunk.traces[mask], chunk.ciphertexts[mask])
        self.n_traces += n
        successes = sum(
            1
            for inc in self._replicas
            if inc.n_traces > 0
            and inc.result().rank_of(self._true_byte) == 0
        )
        self._trace_counts.append(self.n_traces)
        self._successes.append(successes)
        self._metrics.inc("attack_traces_total", n, attack=self.name)
        self._metrics.set_gauge(
            "attack_success_rate",
            successes / self.n_replicas,
            attack=self.name,
        )

    def result(self) -> dict:
        if not self._trace_counts:
            raise AttackError("no traces accumulated")
        successes = np.asarray(self._successes, dtype=np.float64)
        rates = successes / self.n_replicas
        bands = wilson_interval(successes, self.n_replicas)
        disclosed = None
        for count, rate in zip(self._trace_counts, rates):
            if rate >= 0.8:
                disclosed = count
                break
        return {
            "byte_index": self.byte_index,
            "n_replicas": self.n_replicas,
            "keep_fraction": self.keep_fraction,
            "trace_counts": list(self._trace_counts),
            "success_rates": [float(r) for r in rates],
            "wilson_low": [float(lo) for lo in bands[:, 0]],
            "wilson_high": [float(hi) for hi in bands[:, 1]],
            "final_success_rate": float(rates[-1]),
            "traces_to_disclosure": disclosed,
        }

    def snapshot(self) -> dict:
        state = {
            "true_byte": self._true_byte,
            "n_replicas": self.n_replicas,
            "keep_fraction": self.keep_fraction,
            "seed": self.seed,
            "n_traces": int(self.n_traces),
            "trace_counts": np.asarray(self._trace_counts, dtype=np.int64),
            "successes": np.asarray(self._successes, dtype=np.int64),
        }
        for replica, inc in enumerate(self._replicas):
            for k, v in inc.snapshot().items():
                state[f"r{replica}_{k}"] = v
        return state

    def restore(self, state: dict) -> None:
        self._check_key(state)
        if (
            int(state.get("n_replicas", -1)) != self.n_replicas
            or float(state.get("keep_fraction", -1.0)) != self.keep_fraction
            or int(state.get("seed", ~self.seed)) != self.seed
        ):
            raise CheckpointError(
                "success-rate snapshot replica configuration does not "
                "match the consumer"
            )
        counts = np.asarray(state.get("trace_counts", ()), dtype=np.int64)
        successes = np.asarray(state.get("successes", ()), dtype=np.int64)
        if counts.shape != successes.shape:
            raise CheckpointError(
                "success-rate snapshot curve length mismatch"
            )
        n = int(state.get("n_traces", -1))
        if n < 0:
            raise CheckpointError(
                "success-rate snapshot n_traces must be >= 0"
            )
        for replica, inc in enumerate(self._replicas):
            prefix = f"r{replica}_"
            inc.restore(
                {
                    k[len(prefix):]: v
                    for k, v in state.items()
                    if k.startswith(prefix)
                }
            )
        self.n_traces = n
        self._trace_counts = [int(c) for c in counts]
        self._successes = [int(s) for s in successes]
