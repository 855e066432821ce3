"""Static (rigid-shift) alignment and normalization utilities.

Rigid cross-correlation alignment is the cheapest realignment attack; it
cannot help against per-round randomization (the misalignment is not a
single shift) but serves as a sanity baseline and as a pre-stage for DTW.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import AttackError, ConfigurationError


def next_fast_len(target: int) -> int:
    """Smallest 2·3·5·7·11-smooth integer ``>= target``, for ``target >= 1``.

    Those are the lengths pocketfft transforms fastest; this is the rule
    of ``scipy.fft.next_fast_len(target)`` (its complex-transform
    default), without importing scipy.  Smooth numbers are dense: below
    20000 the scan never tests more than 192 candidates.
    """
    if target < 1:
        raise ConfigurationError(f"target must be >= 1, got {target}")
    n = target
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def normalize_traces(traces: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance per trace (constant traces stay zero)."""
    traces = np.asarray(traces, dtype=np.float64)
    if traces.ndim != 2:
        raise AttackError("traces must be (n, S)")
    centered = traces - traces.mean(axis=1, keepdims=True)
    std = centered.std(axis=1, keepdims=True)
    std[std == 0] = 1.0
    return centered / std


def _best_shift(reference: np.ndarray, trace: np.ndarray, max_shift: int) -> int:
    """Shift (in samples) maximizing cross-correlation with the reference."""
    corr = np.correlate(trace, reference, mode="full")
    center = reference.size - 1
    lo = center - max_shift
    hi = center + max_shift + 1
    window = corr[lo:hi]
    return int(np.argmax(window)) - max_shift


def best_shifts(
    traces: np.ndarray, reference: np.ndarray, max_shift: int
) -> np.ndarray:
    """Per-trace cross-correlation shifts against a reference, batched.

    One FFT cross-correlation over the whole trace matrix replaces the
    per-trace ``np.correlate`` loop: correlating every trace against the
    same reference is a convolution with the reversed reference, so all
    rows share the reference transform.  Matches :func:`_best_shift`'s
    argmax-window semantics (same window, same tie-breaking toward the
    most negative shift).
    """
    traces = np.asarray(traces, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if traces.ndim != 2:
        raise AttackError("traces must be (n, S)")
    if reference.ndim != 1 or reference.size == 0:
        raise ConfigurationError("reference must be a non-empty 1-D trace")
    if max_shift < 0 or max_shift > reference.size - 1:
        raise ConfigurationError(
            "max_shift must be within [0, reference length)"
        )
    length = traces.shape[1] + reference.size - 1
    fft_len = next_fast_len(length)
    spectrum = np.fft.rfft(traces, fft_len, axis=1)
    spectrum *= np.fft.rfft(reference[::-1], fft_len)[None, :]
    corr = np.fft.irfft(spectrum, fft_len, axis=1)[:, :length]
    center = reference.size - 1
    window = corr[:, center - max_shift : center + max_shift + 1]
    return np.argmax(window, axis=1) - max_shift


def static_align(
    traces: np.ndarray,
    reference: Optional[np.ndarray] = None,
    max_shift: int = 32,
) -> np.ndarray:
    """Rigidly shift every trace to best match a reference.

    Shifts come from :func:`best_shifts` (batched FFT cross-correlation);
    samples shifted in from outside the window are zero-filled.  Output is
    equivalent to the direct per-trace ``np.correlate`` loop (asserted by
    the test suite).
    """
    traces = np.asarray(traces, dtype=np.float64)
    if traces.ndim != 2:
        raise AttackError("traces must be (n, S)")
    if max_shift < 0 or max_shift >= traces.shape[1]:
        raise ConfigurationError(
            "max_shift must be within [0, n_samples)"
        )
    ref = traces.mean(axis=0) if reference is None else np.asarray(reference)
    s = traces.shape[1]
    shifts = best_shifts(traces, ref, max_shift)
    columns = np.arange(s)[None, :] + shifts[:, None]
    valid = (columns >= 0) & (columns < s)
    gathered = np.take_along_axis(traces, np.clip(columns, 0, s - 1), axis=1)
    return np.where(valid, gathered, 0.0)
