"""Streaming CPA: correlate without holding the trace matrix.

The paper's campaigns reach four million traces; at 256 samples that is a
~4 GB matrix even in float32.  The Pearson coefficient decomposes into five
running sums — Σx, Σx², Σy, Σy², Σxy — so CPA can fold trace batches as
they are acquired and never store them.  ``IncrementalCpa`` maintains those
sums for all 256 guesses of one key byte simultaneously; results are
bit-identical (up to float summation order) to the batch engine, which the
test suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.attacks.cpa import CpaByteResult, CpaResult
from repro.attacks.models import (
    check_shift_rows_fixed,
    hd_pair_table,
    last_round_hd_predictions,
    last_round_hd_table,
)
from repro.crypto.aes_tables import SHIFT_ROWS_MAP
from repro.errors import AttackError, CheckpointError
from repro.obs.metrics import NULL_METRICS

_SUM_FIELDS = ("sum_t", "sum_t2", "sum_p", "sum_p2", "sum_pt")

_HD_MOMENTS: "list[np.ndarray]" = []


def _hd_moments_table() -> np.ndarray:
    """``(256, 512)`` float64 ``[T | T²]`` of the byte-indexed HD table."""
    if not _HD_MOMENTS:
        moments = np.empty((256, 512))  # 1 MiB, built without temporaries
        moments[:, :256] = last_round_hd_table()
        np.square(moments[:, :256], out=moments[:, 256:])
        _HD_MOMENTS.append(moments)
    return _HD_MOMENTS[0]


def _snapshot_sums(acc) -> dict:
    """Exact copy of an accumulator's running sums (omitted while empty)."""
    state: dict = {"n_traces": int(acc.n_traces)}
    if acc._sum_t is not None:
        for name in _SUM_FIELDS:
            state[name] = getattr(acc, f"_{name}").copy()
    return state


@dataclass(frozen=True)
class CpaChunkSummary:
    """One chunk's additive contribution to the five CPA running sums.

    ``chunk_summary`` computes it from the chunk and the accumulator's
    construction-time config alone (byte indices, engine), never
    from the running sums, so it can run in whichever process acquired
    the chunk; ``fold_summary`` adds it in chunk order.  The five arrays
    are exactly the addends the accumulator's ``+=`` lines would have
    computed in place, so summarizing and folding is bit-identical to
    updating.
    """

    n_traces: int
    sum_t: np.ndarray
    sum_t2: np.ndarray
    sum_p: np.ndarray
    sum_p2: np.ndarray
    sum_pt: np.ndarray


def _as_batch(traces, data, keep_float32: bool) -> np.ndarray:
    """Validated ``(n, S)`` traces: float32 kept if asked, else float64."""
    traces = np.asarray(traces)
    if traces.dtype != np.float32 or not keep_float32:
        traces = np.asarray(traces, dtype=np.float64)
    if traces.ndim != 2:
        raise AttackError("traces must be (n, S)")
    if traces.shape[0] != np.asarray(data).shape[0]:
        raise AttackError("traces and data disagree on the batch size")
    return traces


def _fold_summary(acc, summary: Optional[CpaChunkSummary], n_hyp: int,
                  label: str) -> None:
    """Fold one chunk summary into ``acc`` and count its traces."""
    if summary is None:
        return  # zero-trace chunk: exact no-op
    if acc._sum_t is None:
        s = summary.sum_t.shape[0]
        acc._sum_t = np.zeros(s)
        acc._sum_t2 = np.zeros(s)
        acc._sum_p = np.zeros(n_hyp)
        acc._sum_p2 = np.zeros(n_hyp)
        acc._sum_pt = np.zeros((n_hyp, s))
    elif summary.sum_t.shape[0] != acc._sum_t.shape[0]:
        raise AttackError("batch sample count does not match accumulator")
    acc.n_traces += summary.n_traces
    acc._sum_t += summary.sum_t
    acc._sum_t2 += summary.sum_t2
    acc._sum_p += summary.sum_p
    acc._sum_p2 += summary.sum_p2
    acc._sum_pt += summary.sum_pt
    acc._metrics.inc(
        "cpa_traces_folded_total", summary.n_traces, accumulator=label
    )


def _correlation(acc) -> np.ndarray:
    """Pearson matrix ``(n_hyp, S)`` from an accumulator's running sums.

    Computed in place: besides the returned matrix, only ``denom`` (one
    more array of its size) and two boolean masks are live at the peak.
    Every element sees the same IEEE operations as the textbook
    ``where(denom > 0, cov / denom, 0)`` form, so the result is
    bit-identical to it.
    """
    if acc._sum_t is None or acc.n_traces < 2:
        raise AttackError("accumulate at least 2 traces first")
    n = acc.n_traces
    cov = np.outer(acc._sum_p, acc._sum_t)
    cov /= n
    np.subtract(acc._sum_pt, cov, out=cov)
    var_p = acc._sum_p2 - acc._sum_p**2 / n
    var_t = acc._sum_t2 - acc._sum_t**2 / n
    var_p[var_p < 0] = 0.0
    var_t[var_t < 0] = 0.0
    denom = np.outer(var_p, var_t)
    np.sqrt(denom, out=denom)
    with np.errstate(invalid="ignore", divide="ignore"):
        cov /= denom
    # ``~(denom > 0)`` rather than ``denom <= 0``: a NaN denominator
    # zeroes its cell too, exactly as the ``where`` form did.
    cov[~(denom > 0.0)] = 0.0
    return cov


def _restore_sums(acc, state: dict) -> None:
    """Overwrite an accumulator's running sums from a snapshot state."""
    n = int(state.get("n_traces", 0))
    if n < 0:
        raise CheckpointError("snapshot n_traces must be >= 0")
    if n > 0 and any(name not in state for name in _SUM_FIELDS):
        raise CheckpointError(
            "snapshot with traces accumulated must carry all five sums"
        )
    acc.n_traces = n
    if "sum_t" in state:
        for name in _SUM_FIELDS:
            setattr(acc, f"_{name}", np.array(state[name], dtype=np.float64))
    else:
        for name in _SUM_FIELDS:
            setattr(acc, f"_{name}", None)


class IncrementalCpa:
    """Running-sums last-round HD CPA accumulator for one key byte.

    The byte must be one ShiftRows leaves in place (0, 4, 8 or 12;
    others raise :class:`~repro.errors.AttackError`, and
    :class:`IncrementalCpaBank` covers all 16).  Its HD predictions are
    then a function of that one ciphertext byte ``c``: each chunk
    gathers its ``(n, 256)`` prediction rows from
    :func:`~repro.attacks.models.last_round_hd_table`, and ``Σp``/``Σp²``
    come from the chunk's histogram of ``c`` times the table and its
    square — integer sums, so exactly what summing the rows gives.

    Parameters
    ----------
    byte_index:
        The attacked key byte.
    """

    def __init__(self, byte_index: int = 0):
        self.byte_index = check_shift_rows_fixed(byte_index, "IncrementalCpa")
        self.n_traces = 0
        self._metrics = NULL_METRICS
        self._sum_t: Optional[np.ndarray] = None  # (S,)
        self._sum_t2: Optional[np.ndarray] = None  # (S,)
        self._sum_p: Optional[np.ndarray] = None  # (256,)
        self._sum_p2: Optional[np.ndarray] = None  # (256,)
        self._sum_pt: Optional[np.ndarray] = None  # (256, S)

    def set_metrics(self, metrics) -> None:
        """Count folded traces into ``metrics`` (a MetricsRegistry)."""
        self._metrics = metrics

    def update(self, traces: np.ndarray, data: np.ndarray) -> None:
        """Fold a batch of traces and their known data into the sums.

        float32 batches take a reduced-precision GEMM path (the running
        sums stay float64, so snapshots are unchanged); any
        other dtype is folded in float64 exactly as before.
        """
        self.fold_summary(self.chunk_summary(traces, data))

    def chunk_summary(
        self, traces: np.ndarray, data: np.ndarray
    ) -> Optional[CpaChunkSummary]:
        """The batch's addends to the running sums (``None`` if empty).

        Reads only ``byte_index``, never the sums.
        """
        traces = _as_batch(traces, data, keep_float32=True)
        if traces.shape[0] == 0:
            return None  # zero traces: nothing to allocate or fold
        ct = np.asarray(data, dtype=np.uint8)
        if ct.ndim != 2 or ct.shape[1] != 16:
            raise AttackError("ciphertexts must be (n, 16) uint8")
        column = ct[:, self.byte_index]
        predictions = last_round_hd_table()[column].astype(traces.dtype)
        # Σp and Σp² are integer sums (HD ≤ 8), so the byte histogram
        # times [T | T²] is exactly the column sums of ``predictions``
        # and of its square, in any summation order.
        counts = np.bincount(column, minlength=256).astype(np.float64)
        moments = counts @ _hd_moments_table()
        if traces.dtype == np.float32:
            # The trace sums reduce in float64 so only the GEMM loses bits.
            sum_t = traces.sum(axis=0, dtype=np.float64)
            sum_t2 = np.einsum("ns,ns->s", traces, traces, dtype=np.float64)
        else:
            sum_t = traces.sum(axis=0)
            sum_t2 = (traces * traces).sum(axis=0)
        return CpaChunkSummary(
            traces.shape[0], sum_t, sum_t2, moments[:256], moments[256:],
            predictions.T @ traces,
        )

    def fold_summary(self, summary: Optional[CpaChunkSummary]) -> None:
        """Add a :meth:`chunk_summary` into the running sums."""
        _fold_summary(self, summary, 256, f"cpa[{self.byte_index}]")

    def snapshot(self) -> dict:
        """Serializable state: byte index plus the five exact running sums."""
        state = _snapshot_sums(self)
        state["byte_index"] = self.byte_index
        return state

    def restore(self, state: dict) -> None:
        """Overwrite this accumulator with a :meth:`snapshot` state."""
        if int(state.get("byte_index", -1)) != self.byte_index:
            raise CheckpointError(
                f"snapshot is for byte {state.get('byte_index')}, "
                f"accumulator attacks byte {self.byte_index}"
            )
        _restore_sums(self, state)

    def correlation(self) -> np.ndarray:
        """Current ``(256, S)`` Pearson matrix."""
        return _correlation(self)

    def result(self) -> CpaByteResult:
        """Current attack outcome, shaped like the batch engine's."""
        corr = self.correlation()
        peak = np.abs(corr).max(axis=1)
        return CpaByteResult(
            byte_index=self.byte_index,
            peak_corr=peak,
            best_guess=int(np.argmax(peak)),
        )


class IncrementalCpaBank:
    """Running-sums CPA over several key bytes with shared trace moments.

    Sixteen :class:`IncrementalCpa` instances each maintain their own
    Σt/Σt² and issue their own per-chunk GEMM; for a full-key streaming
    attack that recomputes the trace sums 16 times and runs 16 small
    matrix products per chunk.  The bank keeps **one** copy of the trace
    sums and stacks every byte's 256 guesses into a single ``(B·256, S)``
    cross-sum — the streaming twin of :class:`~repro.attacks.cpa.CpaEngine`.

    The default ``engine="fast"`` additionally exploits that the
    last-round HD model depends on the ciphertext only through the byte
    pair ``(ct[b], ct[SR(b)])``: each byte's predictions are one row
    gather from the shared :func:`~repro.attacks.models.hd_pair_table`,
    and its 256 rows of the cross-sum come from one GEMM on the trace
    block augmented with a ones column, so ``Σp`` falls out of the same
    BLAS call (exact — every addend is an integer).  Scratch memory is
    one byte's predictions plus one trace block, whatever ``B``.  For
    float64 batches the fast engine is bit-identical to
    ``engine="reference"`` (the pre-optimization update, kept for
    benchmarking and as an executable specification; for the one BLAS
    caveat see :meth:`_fast_sums`); float32 batches run the GEMMs in
    float32 while the running sums stay float64.

    Parameters
    ----------
    byte_indices:
        The attacked key bytes (all 16 by default).
    engine:
        ``"fast"`` (gather + augmented GEMM) or ``"reference"``.
    """

    def __init__(
        self,
        byte_indices: Sequence[int] = tuple(range(16)),
        engine: str = "fast",
    ):
        if not byte_indices:
            raise AttackError("at least one byte index is required")
        for b in byte_indices:
            if not 0 <= b < 16:
                raise AttackError(f"byte_index must be in [0, 16), got {b}")
        if len(set(byte_indices)) != len(byte_indices):
            raise AttackError("byte_indices must be unique")
        if engine not in ("fast", "reference"):
            raise AttackError(
                f"engine must be 'fast' or 'reference', got {engine!r}"
            )
        self.byte_indices = tuple(int(b) for b in byte_indices)
        self.engine = engine
        self.n_traces = 0
        self._metrics = NULL_METRICS
        self._n_hyp = 256 * len(self.byte_indices)
        self._scratch: dict = {}
        self._sum_t: Optional[np.ndarray] = None  # (S,)
        self._sum_t2: Optional[np.ndarray] = None  # (S,)
        self._sum_p: Optional[np.ndarray] = None  # (B*256,)
        self._sum_p2: Optional[np.ndarray] = None  # (B*256,)
        self._sum_pt: Optional[np.ndarray] = None  # (B*256, S)

    def set_metrics(self, metrics) -> None:
        """Count folded traces into ``metrics`` (a MetricsRegistry)."""
        self._metrics = metrics

    def _predictions(self, data: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [
                last_round_hd_predictions(data, b).astype(np.float64)
                for b in self.byte_indices
            ],
            axis=1,
        )

    def _scratch_buf(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """Reusable uninitialised buffer (reallocated on shape change)."""
        buf = self._scratch.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._scratch[name] = buf
        return buf

    def update(self, traces: np.ndarray, data: np.ndarray) -> None:
        """Fold a batch of traces and their known data into the sums."""
        self.fold_summary(self.chunk_summary(traces, data))

    def chunk_summary(
        self, traces: np.ndarray, data: np.ndarray
    ) -> Optional[CpaChunkSummary]:
        """The batch's addends to the running sums (``None`` if empty).

        Reads only the construction-time config (bytes, engine)
        and the bank's scratch buffers, never the sums, so a
        campaign worker holding a fresh bank of the same config computes
        exactly what :meth:`update` would have added here.
        """
        traces = _as_batch(traces, data, keep_float32=self.engine == "fast")
        if traces.shape[0] == 0:
            return None  # zero traces: nothing to allocate or fold
        if self.engine == "fast":
            sums = self._fast_sums(traces, data)
        else:
            sums = self._reference_sums(traces, data)
        return CpaChunkSummary(traces.shape[0], *sums)

    def fold_summary(self, summary: Optional[CpaChunkSummary]) -> None:
        """Add a :meth:`chunk_summary` into the running sums."""
        _fold_summary(self, summary, self._n_hyp, "cpa_bank")

    def _reference_sums(self, traces: np.ndarray, data: np.ndarray) -> tuple:
        """The pre-optimization addends: concatenate predictions, plain GEMM."""
        traces = np.asarray(traces, dtype=np.float64)
        predictions = self._predictions(data)
        return (
            traces.sum(axis=0),
            (traces * traces).sum(axis=0),
            predictions.sum(axis=0),
            (predictions * predictions).sum(axis=0),
            predictions.T @ traces,
        )

    def _fast_sums(self, traces: np.ndarray, data: np.ndarray) -> tuple:
        """Pair-table gather + augmented GEMM, one key byte at a time.

        Each byte's ``(n, 256)`` predictions are gathered into one reused
        buffer and multiplied into that byte's 256 rows of ``cross``, so
        no ``(n, B·256)`` block is built.

        float64 batches are bit-identical to :meth:`_reference_sums`:
        the prediction-side sums are integer-valued and every addend is
        exactly representable, so both computations land on the same
        integers, and the augmented GEMM keeps the reduction dimension
        whole so each ``Σpt`` element is the same dot product, as it is
        in the whole-bank GEMM over all bytes at once
        (``tests/attacks/test_incremental_fast.py`` pins all three).
        "The same dot product" assumes the BLAS reduces every GEMM shape
        alike.  OpenBLAS sends a GEMM of at most 100³ multiply-adds to a
        small-matrix kernel that sums the whole chunk in one pass, where
        its blocked kernel adds K-panels of a few hundred traces one by
        one; chunks of under 10 samples can reach it, here and in the
        reference alike, and then differ in the last bit.
        """
        ct = np.asarray(data, dtype=np.uint8)
        if ct.ndim != 2 or ct.shape[1] != 16:
            raise AttackError("ciphertexts must be (n, 16) uint8")
        n, s = traces.shape
        compute = traces.dtype
        table = hd_pair_table()
        augmented = self._scratch_buf("augmented", (n, s + 1), compute)
        augmented[:, :s] = traces
        augmented[:, s] = 1.0
        targets = np.asarray(self.byte_indices, dtype=np.intp)
        partners = SHIFT_ROWS_MAP[targets]
        pair = (ct[:, targets].astype(np.uint16) << 8) | ct[:, partners]
        gathered = self._scratch_buf("gathered", (n, 256), np.uint8)
        preds = self._scratch_buf("preds", (n, 256), compute)
        # Not scratch: the summary holds views of it after this returns.
        cross = np.empty((self._n_hyp, s + 1), dtype=compute)
        # Σp² addends are integers (p ≤ 8, so p² ≤ 64): exact in float64
        # always, and exact in float32 for every realistic chunk size
        # (n·64 < 2²⁴ ⇔ n < 262144); float32 beyond that is budgeted
        # drift, not corruption.
        sum_p2 = np.empty(self._n_hyp, dtype=compute)
        for j in range(len(targets)):
            rows = slice(256 * j, 256 * (j + 1))
            np.take(table, pair[:, j], axis=0, out=gathered)
            np.copyto(preds, gathered)
            np.matmul(preds.T, augmented, out=cross[rows])
            np.einsum("nk,nk->k", preds, preds, out=sum_p2[rows])
        if compute == np.float32:
            sum_t = traces.sum(axis=0, dtype=np.float64)
            sum_t2 = np.einsum("ns,ns->s", traces, traces, dtype=np.float64)
        else:
            sum_t = traces.sum(axis=0)
            sum_t2 = (traces * traces).sum(axis=0)
        return sum_t, sum_t2, cross[:, s], sum_p2, cross[:, :s]

    def snapshot(self) -> dict:
        """Serializable state: attacked bytes plus the exact running sums."""
        state = _snapshot_sums(self)
        state["byte_indices"] = list(self.byte_indices)
        return state

    def restore(self, state: dict) -> None:
        """Overwrite this bank with a :meth:`snapshot` state."""
        snapped = tuple(int(b) for b in state.get("byte_indices", ()))
        if snapped != self.byte_indices:
            raise CheckpointError(
                f"snapshot attacks bytes {snapped}, "
                f"bank attacks {self.byte_indices}"
            )
        _restore_sums(self, state)

    def correlation(self) -> np.ndarray:
        """Current ``(B, 256, S)`` Pearson matrices, one byte per slab."""
        return _correlation(self).reshape(len(self.byte_indices), 256, -1)

    def result(self) -> CpaResult:
        """Current attack outcome across all attacked bytes."""
        corr = self.correlation()
        peaks = np.abs(corr).max(axis=2)
        return CpaResult(
            byte_results=[
                CpaByteResult(
                    byte_index=b,
                    peak_corr=peaks[i],
                    best_guess=int(np.argmax(peaks[i])),
                )
                for i, b in enumerate(self.byte_indices)
            ]
        )
