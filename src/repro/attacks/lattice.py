"""Lattice-alignment attack: realign traces by completion-time cell.

RFTC hides the last AES round by randomizing every round's clock period,
so the round-10 register transition lands at a different sample in every
trace and generic CPA integrates over misalignment noise.  But the
countermeasure's completion-time structure is *public* combinatorics
(Sec. 4): with M output clocks and P configurations each encryption ends
on one of P x C(R + M - 1, R) completion times — a finite lattice
(RFTC(3, 1024): 1024 x 66 = 67,584 points, ``repro.rftc.completion``).
An attacker who measures each trace's completion time (trivially visible
as the end of switching activity) can therefore skip generic elastic
alignment (DTW) entirely: quantize the completion time onto the lattice,
bucket traces into lattice cells, and shift every trace in a cell by the
same known offset so all last rounds land on one reference sample.  CPA
on the realigned matrix then sees the last-round leakage coherently
again.

The shift is a pure function of ``(completion_time, resolution,
reference)`` — no trace content is inspected — so alignment is exact,
deterministic, and streaming-friendly (each chunk aligns independently;
see ``repro.pipeline.attack_consumers.LatticeCpaConsumer``).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.attacks.cpa import CpaResult, cpa_attack
from repro.errors import AttackError
from repro.power.acquisition import TraceSet


def lattice_cells(
    completion_times_ns: np.ndarray, resolution_ns: float
) -> np.ndarray:
    """Quantize completion times onto the lattice, returning cell ids.

    ``resolution_ns`` is the quantization step; completion times within
    half a step of each other share a cell (and hence a realignment
    shift).  Anything at or below the scope's sample period loses no
    alignment precision.
    """
    if not np.isfinite(resolution_ns) or resolution_ns <= 0:
        raise AttackError("resolution_ns must be a positive finite float")
    times = np.asarray(completion_times_ns, dtype=np.float64)
    if times.ndim != 1:
        raise AttackError("completion_times_ns must be (n,)")
    if times.size and (not np.isfinite(times).all() or times.min() < 0):
        raise AttackError("completion times must be finite and non-negative")
    return np.round(times / resolution_ns).astype(np.int64)


def lattice_shifts(
    completion_times_ns: np.ndarray,
    sample_period_ns: float,
    reference_ns: float,
) -> np.ndarray:
    """Per-trace sample shifts that move every completion time onto
    ``reference_ns`` (positive = shift right / delay the trace).

    Completion times are quantized onto the scope's sample grid.
    """
    if not np.isfinite(sample_period_ns) or sample_period_ns <= 0:
        raise AttackError("sample_period_ns must be a positive finite float")
    if not np.isfinite(reference_ns) or reference_ns < 0:
        raise AttackError("reference_ns must be a non-negative finite float")
    cells = lattice_cells(completion_times_ns, sample_period_ns)
    cell_times = cells.astype(np.float64) * sample_period_ns
    return np.round(
        (reference_ns - cell_times) / sample_period_ns
    ).astype(np.int64)


def lattice_align(
    traces: np.ndarray,
    completion_times_ns: np.ndarray,
    sample_period_ns: float,
    reference_ns: float,
) -> np.ndarray:
    """Shift each trace so its completion time lands on ``reference_ns``.

    Samples shifted in from outside the capture window are zero — they
    carry no information either way, and zeros keep the output a dense
    matrix CPA can consume directly.  Returns a new ``(n, S)`` float64
    array; the input is never modified.

    The shift is one row-window gather: each trace sits in the middle
    third of a zero-padded ``(n, 3S)`` copy, and trace ``i`` reads the
    ``S``-wide window starting at ``S - shift_i`` (clipped to
    ``[0, 2S]``, so any shift of ``S`` or more reads only zeros).
    """
    traces = np.asarray(traces, dtype=np.float64)
    if traces.ndim != 2:
        raise AttackError("traces must be (n, S)")
    shifts = lattice_shifts(completion_times_ns, sample_period_ns, reference_ns)
    if shifts.shape[0] != traces.shape[0]:
        raise AttackError(
            "completion_times_ns length must match the trace count"
        )
    n, s = traces.shape
    if n == 0:
        return traces.copy()
    padded = np.zeros((n, 3 * s))
    padded[:, s : 2 * s] = traces
    windows = np.lib.stride_tricks.sliding_window_view(padded, s, axis=1)
    return windows[np.arange(n), np.clip(s - shifts, 0, 2 * s)]


def lattice_reference_ns(completion_times_ns: np.ndarray) -> float:
    """The canonical alignment reference: the slowest completion time.

    Aligning onto the latest lattice point shifts every trace right, so
    the reference sample always sits inside the capture window (the
    scope records at least through the slowest encryption).  Derive it
    from the *plan's* full lattice
    (:meth:`~repro.rftc.planner.FrequencyPlan.all_completion_times_ns`)
    when streaming, so the reference never depends on which traces have
    arrived.
    """
    times = np.asarray(completion_times_ns, dtype=np.float64)
    if times.size == 0 or not np.isfinite(times).all():
        raise AttackError("need a non-empty finite completion-time set")
    return float(times.max())


def lattice_cpa_attack(
    trace_set: TraceSet,
    byte_indices: Sequence[int] = (0,),
    reference_ns: Optional[float] = None,
) -> CpaResult:
    """Full lattice-alignment attack on a collected campaign.

    Aligns on the campaign's own slowest completion time unless an
    explicit ``reference_ns`` is given, then runs the standard CPA
    engine on the realigned matrix.
    """
    if reference_ns is None:
        reference_ns = lattice_reference_ns(trace_set.completion_times_ns)
    aligned = lattice_align(
        trace_set.traces,
        trace_set.completion_times_ns,
        trace_set.sample_period_ns,
        reference_ns,
    )
    return cpa_attack(aligned, trace_set.ciphertexts, byte_indices=byte_indices)
