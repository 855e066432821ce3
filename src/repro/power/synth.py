"""Analog trace synthesis: clock edges + amplitudes -> sampled current.

Each rising clock edge draws a current spike whose charge is set by the
leakage model; the spike decays exponentially with the die/decoupling time
constant.  The synthesizer evaluates that pulse train on the oscilloscope's
sample grid:

    trace(t) = sum_k A_k * exp(-(t - e_k)/tau) * [t >= e_k]

where e_k is the edge ending cycle k.  Randomized clocks move the e_k — this
is the *only* mechanism by which RFTC (or any random execution-time
countermeasure) protects the trace, so the synthesizer is deliberately
faithful about edge placement and deliberately simple about pulse shape.

The default :meth:`TraceSynthesizer.synthesize` evaluates that sum with an
exact O(n·S) recursive-decay algorithm: each edge is scattered onto the
sample grid as one impulse pre-decayed to its first covered sample, then a
single-pole recursion ``y[s] = x[s] + y[s-1]·exp(-dt/τ)`` propagates every
pulse tail — exact for the exponential kernel, never materializing the
(traces × cycles × samples) broadcast.  The impulses are laid out
samples-major, ``(S, n)``, so the recursion is ``S`` vectorized row
updates over all traces (:func:`repro.utils.iir.decay_rows`).  The
original broadcast kernel is kept as
:meth:`TraceSynthesizer.synthesize_reference` for equivalence tests and
benchmarking (see ``docs/performance.md``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.clock import ClockSchedule
from repro.utils.iir import decay_rows
from repro.utils.validation import check_positive, check_positive_int


class TraceSynthesizer:
    """Evaluates the pulse-train model on a fixed sample grid.

    Parameters
    ----------
    sample_rate_msps:
        Sample rate in MS/s.  The default 250 MS/s (4 ns per point) keeps
        attack matrices laptop-sized; the paper's scope samples faster but
        its 100 MHz bandwidth discards the difference.
    n_samples:
        Samples per trace.  256 points at 4 ns cover 1.024 us — enough for
        the slowest RFTC completion (833 ns) plus margin.
    tau_ns:
        Pulse decay time constant.
    chunk_traces:
        Internal batch size bounding the (chunk x samples x cycles) working
        set.
    jitter_ps_rms:
        RMS cycle-to-cycle clock jitter: each edge time is perturbed by
        independent Gaussian noise of this magnitude (an ``rng`` must then
        be passed to :meth:`synthesize`).  MMCM output jitter on a Kintex-7
        is on the order of 100 ps — invisible at 4 ns sampling, which is
        why the default is 0; the knob exists for sensitivity studies.
    dtype:
        Output sample dtype of :meth:`synthesize`: ``"float64"``
        (default) or ``"float32"``.  Edge placement, impulse scatter,
        and pre-decay always run in float64 — only the final decay
        recursion (the O(n·S) bulk of the work) drops to float32, so
        the opt-in costs ~one ulp of the recursion, bounded by the
        ``synthesize_float32`` drift budget.
    taps:
        Intra-round pulse substructure: ``(delay_ns, fraction)`` pairs.
        Each clock edge deposits one decaying pulse *per tap*, the tap's
        fraction of the cycle amplitude, offset by its delay — modelling
        the register edge followed by the round's combinational logic
        settling (SubBytes/MixColumns switching a few ns later).  The
        default single tap at 0 ns is the paper-minimal model; e.g.
        ``((0.0, 0.6), (7.0, 0.4))`` adds a MixColumns bump.
    """

    def __init__(
        self,
        sample_rate_msps: float = 250.0,
        n_samples: int = 256,
        tau_ns: float = 6.0,
        chunk_traces: int = 4096,
        jitter_ps_rms: float = 0.0,
        taps: Sequence[Tuple[float, float]] = ((0.0, 1.0),),
        dtype: str = "float64",
    ):
        if dtype not in ("float64", "float32"):
            raise ConfigurationError(
                f"dtype must be 'float64' or 'float32', got {dtype!r}"
            )
        self.dtype = dtype
        self.sample_rate_msps = check_positive("sample_rate_msps", sample_rate_msps)
        self.n_samples = check_positive_int("n_samples", n_samples)
        self.tau_ns = check_positive("tau_ns", tau_ns)
        self.chunk_traces = check_positive_int("chunk_traces", chunk_traces)
        if jitter_ps_rms < 0:
            raise ConfigurationError("jitter_ps_rms must be >= 0")
        self.jitter_ps_rms = float(jitter_ps_rms)
        if not taps:
            raise ConfigurationError("at least one pulse tap is required")
        for delay, fraction in taps:
            if delay < 0:
                raise ConfigurationError("tap delays must be >= 0")
            if fraction <= 0:
                raise ConfigurationError("tap fractions must be > 0")
        self.taps = tuple((float(d), float(f)) for d, f in taps)

    @property
    def dt_ns(self) -> float:
        """Sample spacing in nanoseconds."""
        return 1000.0 / self.sample_rate_msps

    @property
    def window_ns(self) -> float:
        """Trace window length in nanoseconds."""
        return self.dt_ns * self.n_samples

    def time_axis_ns(self) -> np.ndarray:
        """Sample times relative to the trigger (encryption start)."""
        return np.arange(self.n_samples) * self.dt_ns

    def _validated_edges(
        self,
        schedule: ClockSchedule,
        amplitudes: np.ndarray,
        rng: Optional[np.random.Generator],
    ) -> "Tuple[np.ndarray, np.ndarray]":
        """Shared input validation: returns ``(edge_times, amplitudes)``."""
        amplitudes = np.asarray(amplitudes, dtype=np.float64)
        n, c = schedule.periods_ns.shape
        if amplitudes.shape != (n, c):
            raise ConfigurationError(
                f"amplitudes shape {amplitudes.shape} does not match "
                f"schedule {(n, c)}"
            )
        edge_times = schedule.edge_times_ns()  # (n, C)
        if self.jitter_ps_rms > 0:
            if rng is None:
                raise ConfigurationError(
                    "an rng is required when jitter_ps_rms > 0"
                )
            edge_times = edge_times + rng.normal(
                0.0, self.jitter_ps_rms * 1e-3, edge_times.shape
            )
        if edge_times.max() > self.window_ns + 3 * self.tau_ns:
            raise ConfigurationError(
                f"slowest encryption ends at {edge_times.max():.1f} ns but the "
                f"scope window is only {self.window_ns:.1f} ns; increase "
                "n_samples or the sample rate"
            )
        return edge_times, amplitudes

    def synthesize(
        self,
        schedule: ClockSchedule,
        amplitudes: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Render the pulse train for every encryption.

        Uses the exact O(n·S) recursive-decay kernel: results match
        :meth:`synthesize_reference` to better than 1e-9 (asserted by the
        test suite) at a fraction of its time and memory.

        Parameters
        ----------
        schedule:
            Per-cycle clock periods (defines the edge times e_k).
        amplitudes:
            ``(n, C)`` per-cycle pulse amplitudes from the leakage model.
        rng:
            Required when ``jitter_ps_rms > 0``; supplies the edge-time
            perturbations.

        Returns
        -------
        ``(n, n_samples)`` analog traces in the configured dtype
        (pre-scope: no noise, no bandwidth limit, no quantization).  The
        array is the transpose of the samples-major recursion buffer, so
        it is Fortran-ordered; the scope's ``capture`` filters it in that
        layout and hands back C order.
        """
        edge_times, amplitudes = self._validated_edges(schedule, amplitudes, rng)
        n = edge_times.shape[0]
        s_count = self.n_samples
        dt = self.dt_ns
        # One extra grid point so out-of-window edges index safely before
        # being dropped.
        grid = np.arange(s_count + 1) * dt
        # Samples-major scatter: bin s·n + row is sample s of trace row,
        # so the decay recursion below runs over contiguous rows.
        impulses = None
        rows = np.broadcast_to(np.arange(n)[:, None], edge_times.shape)
        for delay_ns, fraction in self.taps:
            e = edge_times + delay_ns  # (n, C)
            # First sample at or after the edge.  ceil(e/dt) is correct in
            # exact arithmetic; the two masked corrections re-anchor the
            # index to the actual float sample grid so the causality cut
            # (t_s >= e) matches the broadcast kernel bit for bit.
            s0 = np.ceil(e / dt).astype(np.int64)
            np.clip(s0, 0, s_count, out=s0)
            dec = (s0 > 0) & (grid[np.maximum(s0 - 1, 0)] >= e)
            s0[dec] -= 1
            inc = (s0 < s_count) & (grid[s0] < e)
            s0[inc] += 1
            keep = s0 < s_count
            if not np.any(keep):
                continue
            pre_decay = np.exp(-(grid[s0[keep]] - e[keep]) / self.tau_ns)
            scattered = np.bincount(
                s0[keep] * n + rows[keep],
                weights=fraction * amplitudes[keep] * pre_decay,
                minlength=s_count * n,
            )
            # The first tap's scatter is the buffer: adding it to zeros
            # would be an exact no-op (bincount never yields -0.0) that
            # costs a pass over, and the page faults of, n·S floats.
            if impulses is None:
                impulses = scattered
            else:
                impulses += scattered
        if impulses is None:
            impulses = np.zeros(s_count * n)
        # The decay recursion always runs in float64 and narrows at the
        # end: the pulse tail shrinks exponentially, and in a float32
        # recursion it underflows into denormals (sub-1.2e-38 values whose
        # arithmetic is microcoded, ~3x the filter cost).  float64 keeps
        # every intermediate normal, so the filter runs at full speed and
        # the float32 output is just the correctly-rounded float64 result.
        traces = decay_rows(
            impulses.reshape(s_count, n), np.exp(-dt / self.tau_ns)
        )
        return traces.T.astype(np.dtype(self.dtype), copy=False)

    def synthesize_reference(
        self,
        schedule: ClockSchedule,
        amplitudes: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """The original O(n·C·S) broadcast kernel.

        Materializes the full ``(chunk, cycles, samples)`` delta tensor per
        chunk.  Kept as the executable specification of the pulse model:
        equivalence tests and ``benchmarks/bench_kernels.py`` compare
        :meth:`synthesize` against it.
        """
        edge_times, amplitudes = self._validated_edges(schedule, amplitudes, rng)
        n = edge_times.shape[0]
        t = self.time_axis_ns()  # (S,)
        traces = np.zeros((n, self.n_samples), dtype=np.float64)
        for start in range(0, n, self.chunk_traces):
            stop = min(start + self.chunk_traces, n)
            chunk_edges = edge_times[start:stop]  # (b, C)
            chunk_amps = amplitudes[start:stop]  # (b, C)
            for delay_ns, fraction in self.taps:
                delta = (
                    t[None, None, :] - chunk_edges[:, :, None] - delay_ns
                )  # (b, C, S)
                with np.errstate(over="ignore"):
                    kernel = np.where(
                        delta >= 0.0,
                        np.exp(-np.maximum(delta, 0.0) / self.tau_ns),
                        0.0,
                    )
                traces[start:stop] += fraction * np.einsum(
                    "bc,bcs->bs", chunk_amps, kernel
                )
        return traces
