"""Correlation Power Analysis (Brier, Clavier, Olivier — CHES 2004).

For each key-byte guess, correlate the model's predicted leakage against
every trace sample; the guess whose correlation peaks highest (in absolute
value, anywhere in the trace) is the attack's answer.  Misalignment
countermeasures like RFTC work precisely by spreading the secret round's
samples so that no single sample correlates for the right guess.

Multi-byte attacks should go through :class:`CpaEngine`: it centers and
normalizes the trace matrix **once**, reuses those sufficient statistics
for every key byte, and fuses all requested bytes' guesses into a single
correlation GEMM — :func:`cpa_attack` is a thin wrapper over it.  The
per-byte :func:`cpa_byte` remains the standalone reference path the engine
is tested against (see ``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.attacks.models import _last_round_hd_into, last_round_hd_predictions
from repro.errors import AttackError
from repro.utils.stats import center_columns, column_pearson

@dataclass
class CpaByteResult:
    """Outcome of CPA on one key byte.

    Attributes
    ----------
    byte_index:
        Which key byte was attacked.
    peak_corr:
        ``(256,)`` best absolute correlation of each guess over all samples.
    best_guess:
        argmax of ``peak_corr``.
    corr_matrix:
        Always ``None``: no attack keeps the full ``(256, n_samples)``
        correlation traces.  The field stays only because the benchmark
        ledger's result digest hashes every dataclass field name, so
        dropping it would change the cpa-campaign digest.
    """

    byte_index: int
    peak_corr: np.ndarray
    best_guess: int
    corr_matrix: Optional[np.ndarray] = None

    def ranking(self) -> np.ndarray:
        """Guesses sorted from most to least likely."""
        return np.argsort(-self.peak_corr, kind="stable")

    def rank_of(self, key_byte: int) -> int:
        """Position of ``key_byte`` in the ranking (0 == attack succeeded)."""
        if not 0 <= key_byte <= 255:
            raise AttackError("key_byte must be in [0, 255]")
        return int(np.nonzero(self.ranking() == key_byte)[0][0])


@dataclass
class CpaResult:
    """Outcome of CPA on several key bytes."""

    byte_results: List[CpaByteResult]

    def recovered_key(self) -> bytes:
        """The best-guess value of every attacked byte, in byte order."""
        ordered = sorted(self.byte_results, key=lambda r: r.byte_index)
        return bytes(r.best_guess for r in ordered)

    def is_correct(self, true_round_key: bytes) -> bool:
        """True when every attacked byte matches the true (round) key."""
        for r in self.byte_results:
            if r.best_guess != true_round_key[r.byte_index]:
                return False
        return True


def cpa_byte(
    traces: np.ndarray, data: np.ndarray, byte_index: int
) -> CpaByteResult:
    """Last-round Hamming-distance CPA on one key byte.

    Parameters
    ----------
    traces:
        ``(n, S)`` preprocessed or raw traces.
    data:
        ``(n, 16)`` ciphertexts.
    byte_index:
        Target key byte.
    """
    traces = np.asarray(traces, dtype=np.float64)
    if traces.ndim != 2:
        raise AttackError("traces must be a 2-D matrix")
    if traces.shape[0] < 4:
        raise AttackError("CPA requires at least 4 traces")
    if traces.shape[0] != np.asarray(data).shape[0]:
        raise AttackError("traces and data disagree on the number of traces")
    predictions = last_round_hd_predictions(data, byte_index).astype(np.float64)
    corr = column_pearson(predictions, traces)  # (256, S)
    peak = np.abs(corr).max(axis=1)
    best = int(np.argmax(peak))
    return CpaByteResult(byte_index=byte_index, peak_corr=peak, best_guess=best)


class CpaEngine:
    """Multi-byte CPA sharing the trace moments across all guesses.

    ``cpa_byte`` recomputes the trace means and norms for every key byte —
    16 identical passes over an ``(n, S)`` matrix per full-key attack — and
    round-trips every intermediate through freshly allocated arrays.  The
    engine computes the trace sufficient statistics once at construction,
    then answers any number of byte attacks against them with three more
    savings per byte:

    * the uint8 last-round Hamming-distance predictions are filled by a
      fused, allocation-free kernel and get their column norms from exact
      integer sums, skipping the prediction-centering pass entirely —
      valid because the trace side is already centered, so
      ``cov = P.T @ t_centered`` equals the doubly centered covariance to
      machine precision;
    * the covariance GEMM, the float cast of the predictions, and the
      normalization all run in scratch buffers reused across bytes, so no
      ``O(n·256)`` allocation happens after the first byte;
    * peaks are taken as ``max(max, -min)`` over the correlation buffer
      without materializing ``|corr|``.

    Peak correlations and rankings match the per-byte path to ~1e-12
    (asserted by the test suite); see ``docs/performance.md``.

    Parameters
    ----------
    traces:
        ``(n, S)`` preprocessed or raw traces.
    data:
        ``(n, 16)`` uint8 ciphertexts the last-round model consumes.

    At paper-scale trace counts the centered trace matrix dwarfs every
    cache level, so from n ≥ 16384 traces (measured ~20% faster there,
    break-even below) the covariance GEMM is blocked over samples: each
    128-row tile reads a ``(128, n)`` slab of traces against the whole
    prediction block, keeping the prediction operand resident across
    tiles.  BLAS may sum a tile's dot products in a different order than
    the whole matrix's, so tiled and untiled correlations agree to a few
    1e-16, not bit for bit (``tests/attacks/test_cpa_engine.py`` holds
    them within 1e-12 with the same best guesses).
    """

    _AUTO_TILE_WIDTH = 128
    _AUTO_TILE_MIN_TRACES = 16384

    def __init__(
        self,
        traces: np.ndarray,
        data: np.ndarray,
    ):
        traces = np.asarray(traces, dtype=np.float64)
        if traces.ndim != 2:
            raise AttackError("traces must be a 2-D matrix")
        if traces.shape[0] < 4:
            raise AttackError("CPA requires at least 4 traces")
        data = np.asarray(data)
        if traces.shape[0] != data.shape[0]:
            raise AttackError("traces and data disagree on the number of traces")
        # Validate the ciphertexts once here instead of on every byte.
        ct = np.asarray(data, dtype=np.uint8)
        if ct.ndim != 2 or ct.shape[1] != 16:
            raise AttackError("ciphertexts must be (n, 16) uint8")
        self._data = ct
        self._t_centered, self._t_norm = center_columns(traces)
        with np.errstate(divide="ignore"):
            self._t_inv = np.where(self._t_norm > 0.0, 1.0 / self._t_norm, 0.0)
        self._p_buf: Optional[np.ndarray] = None  # (n, 256) float64 scratch
        self._c_buf: Optional[np.ndarray] = None  # (S, 256) float64 scratch
        self._u8_buf: Optional[np.ndarray] = None  # (n, 256) uint8 scratch

    @property
    def n_traces(self) -> int:
        return int(self._t_centered.shape[0])

    @property
    def n_samples(self) -> int:
        return int(self._t_centered.shape[1])

    def _byte_correlation(self, byte_index: int) -> np.ndarray:
        """Pearson coefficients for one byte in the ``(S, 256)`` scratch.

        The returned array is the engine's reusable buffer: consume it (or
        copy it) before the next call.
        """
        n = self.n_traces
        if self._u8_buf is None:
            self._u8_buf = np.empty((n, 256), dtype=np.uint8)
        predictions = _last_round_hd_into(self._data, byte_index, self._u8_buf)
        if self._p_buf is None:
            self._p_buf = np.empty((n, 256), dtype=np.float64)
            self._c_buf = np.empty((self.n_samples, 256), dtype=np.float64)
        np.copyto(self._p_buf, predictions)
        # Exact column norms from the raw sums (the small integer values
        # are exact in float64); the trace side is centered, so skipping
        # the prediction centering changes the covariance only at machine
        # precision.
        sum_p = self._p_buf.sum(axis=0)
        sum_p2 = np.einsum("nk,nk->k", self._p_buf, self._p_buf)
        var_p = np.maximum(sum_p2 - sum_p * sum_p / n, 0.0)
        p_norm = np.sqrt(var_p)
        s = self.n_samples
        tile = self._AUTO_TILE_WIDTH if n >= self._AUTO_TILE_MIN_TRACES else s
        t_centered_t = self._t_centered.T
        for lo in range(0, s, tile):
            hi = min(lo + tile, s)
            np.matmul(
                t_centered_t[lo:hi], self._p_buf, out=self._c_buf[lo:hi]
            )
        with np.errstate(divide="ignore"):
            p_inv = np.where(p_norm > 0.0, 1.0 / p_norm, 0.0)
        corr = self._c_buf
        corr *= self._t_inv[:, None]
        corr *= p_inv[None, :]
        return corr

    def correlation(self, byte_indices: Sequence[int]) -> np.ndarray:
        """``(len(byte_indices), 256, S)`` Pearson matrices."""
        if not len(byte_indices):
            raise AttackError("at least one byte index is required")
        out = None
        for i, b in enumerate(byte_indices):
            corr = self._byte_correlation(b)
            if out is None:
                out = np.empty(
                    (len(byte_indices), corr.shape[1], corr.shape[0])
                )
            out[i] = corr.T
        return out

    def attack_byte(self, byte_index: int) -> CpaByteResult:
        """CPA on one key byte against the shared trace statistics."""
        corr = self._byte_correlation(byte_index)  # (S, 256)
        peak = np.maximum(corr.max(axis=0), -corr.min(axis=0))
        return CpaByteResult(
            byte_index=byte_index,
            peak_corr=peak,
            best_guess=int(np.argmax(peak)),
        )

    def attack(
        self, byte_indices: Sequence[int] = tuple(range(16))
    ) -> CpaResult:
        """CPA across several key bytes (all 16 by default)."""
        if not byte_indices:
            raise AttackError("at least one byte index is required")
        return CpaResult(
            byte_results=[self.attack_byte(b) for b in byte_indices]
        )


def cpa_attack(
    traces: np.ndarray,
    data: np.ndarray,
    byte_indices: Sequence[int] = tuple(range(16)),
) -> CpaResult:
    """CPA across several key bytes (all 16 by default).

    Delegates to :class:`CpaEngine` so the trace moments are computed once
    and the per-guess correlations run as one fused GEMM.
    """
    if not byte_indices:
        raise AttackError("at least one byte index is required")
    engine = CpaEngine(traces, data)
    return engine.attack(byte_indices)
