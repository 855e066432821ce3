"""RFTC runtime controller: the clock-randomization state machine of Fig. 1.

The controller owns N MMCMs (plus their DRP controllers and the shared
configuration block RAM), a BUFG mux tree, and the random number generator.
At any instant one MMCM *drives* the AES clock mux while another is being
reconfigured to a freshly drawn frequency set; when the reconfiguration
locks, the driver role ping-pongs at the next encryption boundary (Fig. 2-B:
x ~ 82 encryptions fit into the 34 us reconfiguration window).  Per AES
round, the RNG picks one of the driving MMCM's M outputs.

``schedule(n)`` produces the :class:`~repro.hw.clock.ClockSchedule` the
power-trace synthesizer consumes; the walk is chunked so stretches of
encryptions sharing one frequency set are generated vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.block_ram import BlockRam
from repro.hw.bufg import ClockMux
from repro.hw.clock import ClockSchedule
from repro.hw.drp import MmcmDrpController
from repro.hw.lfsr import FibonacciLfsr
from repro.hw.mmcm import Mmcm
from repro.rftc.config import RFTCParams
from repro.rftc.planner import FrequencyPlan

#: Datapath cycles per encryption (load + 10 rounds), fixed by the AES core.
CYCLES = 11


class _RandomSource:
    """Uniform-int adapter over either a numpy Generator or a fabric LFSR.

    Campaign-scale simulations use numpy (vectorized draws); fidelity tests
    can plug in the paper's 128-bit LFSR and get bit-exact hardware
    behaviour at Python speed.
    """

    def __init__(self, source: Union[np.random.Generator, FibonacciLfsr, None]):
        if source is None:
            source = np.random.default_rng(np.random.SeedSequence(2019))
        self._np = source if isinstance(source, np.random.Generator) else None
        self._lfsr = source if isinstance(source, FibonacciLfsr) else None
        if self._np is None and self._lfsr is None:
            raise ConfigurationError(
                "rng must be a numpy Generator or a FibonacciLfsr"
            )

    def integers(self, bound: int, size: int) -> np.ndarray:
        if self._np is not None:
            return self._np.integers(0, bound, size=size)
        return np.array(
            [self._lfsr.next_uint(bound) for _ in range(size)], dtype=np.int64
        )

    def integer(self, bound: int) -> int:
        return int(self.integers(bound, 1)[0])


@dataclass
class ReconfigurationPipeline:
    """Bookkeeping of the MMCM ping-pong (Fig. 2-B).

    Attributes
    ----------
    reconfig_seconds:
        Latency of one full DRP reconfiguration (writes + lock).
    encryptions_per_swap:
        Histogrammable list of how many encryptions ran on each frequency
        set before the next swap (the paper's x ~ 82).
    swap_count:
        Number of completed driver swaps.
    """

    reconfig_seconds: float
    encryptions_per_swap: List[int] = field(default_factory=list)
    swap_count: int = 0

    @property
    def mean_encryptions_per_swap(self) -> float:
        if not self.encryptions_per_swap:
            return 0.0
        return float(np.mean(self.encryptions_per_swap))


class RFTCController:
    """Runtime model of one RFTC(M, P) instance.

    Parameters
    ----------
    params:
        Design parameters (M, P, N, clock window...).
    plan:
        The design-time frequency plan whose sets fill the block RAM.
    rng:
        Randomness source: a numpy ``Generator`` (fast, default) or a
        :class:`~repro.hw.lfsr.FibonacciLfsr` such as the paper's
        :class:`~repro.hw.lfsr.Lfsr128` (bit-faithful).
    model_mux_dead_time:
        When True, BUFG glitch-free switchover dead time is added to each
        round that changes clocks.  The paper's completion-time figures do
        not include it (the AES enable is gated around the switch), so the
        default is False; the ablation benchmark turns it on.
    """

    def __init__(
        self,
        params: RFTCParams,
        plan: FrequencyPlan,
        rng: Union[np.random.Generator, FibonacciLfsr, None] = None,
        model_mux_dead_time: bool = False,
    ):
        if plan.params.m_outputs != params.m_outputs or plan.n_sets != params.p_configs:
            raise ConfigurationError(
                "frequency plan does not match the RFTC parameters"
            )
        self.params = params
        self.plan = plan
        self._rand = _RandomSource(rng)
        self.model_mux_dead_time = bool(model_mux_dead_time)
        self._periods_ns = 1000.0 / plan.sets_mhz  # (P, M)

        configs = plan.to_mmcm_configs()
        self.block_ram = BlockRam(configs, name=f"{params.label()}_rom")
        first_sets = [
            self._rand.integer(params.p_configs) for _ in range(params.n_mmcms)
        ]
        self.mmcms = [
            Mmcm(configs[first_sets[i]], name=f"mmcm{i}")
            for i in range(params.n_mmcms)
        ]
        self.drp_controllers = [
            MmcmDrpController(m, params.drp_clk_mhz) for m in self.mmcms
        ]
        self.mux = ClockMux(max(2, params.m_outputs))
        self._mmcm_set_index = list(first_sets)
        self._reconfig_seconds = self.drp_controllers[0].reconfiguration_seconds(
            configs[first_sets[0]]
        )
        self.pipeline = ReconfigurationPipeline(
            reconfig_seconds=self._reconfig_seconds
        )

    @property
    def reconfiguration_seconds(self) -> float:
        """Latency of one MMCM reconfiguration (the paper's 34 us)."""
        return self._reconfig_seconds

    def expected_encryptions_per_swap(self) -> float:
        """Analytic x of Fig. 2-B: reconfiguration time / mean encryption time."""
        mean_period_ns = float(self._periods_ns.mean())
        mean_encryption_s = CYCLES * mean_period_ns * 1e-9
        return self._reconfig_seconds / mean_encryption_s

    def schedule(self, n_encryptions: int) -> ClockSchedule:
        """Generate the per-cycle clock schedule for ``n_encryptions``.

        Models the full pipeline: encryptions run back-to-back on the
        driving MMCM's mux while the spare MMCM reconfigures; the driver
        swaps as soon as the spare locks (at an encryption boundary), and
        the old driver immediately starts reconfiguring to the next drawn
        set.  With N = 1 the cipher must stall for the whole
        reconfiguration (the throughput ablation).
        """
        if n_encryptions < 1:
            raise ConfigurationError("n_encryptions must be >= 1")
        params = self.params
        p, m = params.p_configs, params.m_outputs

        choices = self._rand.integers(m, n_encryptions * CYCLES).reshape(
            n_encryptions, CYCLES
        )
        periods = np.empty((n_encryptions, CYCLES), dtype=np.float64)
        set_indices = np.empty(n_encryptions, dtype=np.int64)
        stall_ns = np.zeros(n_encryptions, dtype=np.float64)

        driver = 0
        produced = 0
        now_s = max(mmcm.locked_at_s for mmcm in self.mmcms)
        single = params.n_mmcms == 1
        spare = None if single else (driver + 1) % params.n_mmcms
        if not single:
            self._start_reconfig(spare, now_s)
        # With a single MMCM there is no spare to hide the reconfiguration
        # behind; keep the dual-MMCM swap cadence (a fresh set every ~x
        # encryptions) and pay the stall openly — the throughput ablation.
        swap_every = max(1, int(round(self.expected_encryptions_per_swap())))

        while produced < n_encryptions:
            if single:
                deadline_s = np.inf
            else:
                deadline_s = self.drp_controllers[spare].busy_until_s
            chunk_start = produced
            set_idx = self._mmcm_set_index[driver]
            row = self._periods_ns[set_idx]  # (M,)
            remaining = n_encryptions - produced
            # Only a lookahead window of encryptions is timed, doubled
            # until it runs past the spare's lock: a prefix of the cumsum
            # is the cumsum of the prefix, so the swap lands exactly where
            # timing every remaining encryption would put it, in linear
            # rather than quadratic time over the chunk.
            window = min(swap_every if single else 2 * swap_every, remaining)
            while True:
                chunk_periods = row[choices[produced : produced + window]]
                end_times_s = now_s + np.cumsum(chunk_periods.sum(axis=1)) * 1e-9
                if single or window == remaining or end_times_s[-1] >= deadline_s:
                    break
                window = min(2 * window, remaining)
            if single:
                fit = window
            else:
                fit = int(np.searchsorted(end_times_s, deadline_s, side="left")) + 1
                fit = min(fit, window)
            periods[produced : produced + fit] = chunk_periods[:fit]
            set_indices[produced : produced + fit] = set_idx
            produced += fit
            now_s = float(end_times_s[fit - 1])
            if produced >= n_encryptions:
                self.pipeline.encryptions_per_swap.append(produced - chunk_start)
                break
            # Swap drivers: the spare has locked (or, with N = 1, the single
            # MMCM stalls the cipher while it reconfigures in place).
            self.pipeline.encryptions_per_swap.append(produced - chunk_start)
            self.pipeline.swap_count += 1
            if single:
                next_set = self._rand.integer(p)
                done = self._start_reconfig(0, now_s, set_override=next_set)
                stall_ns[produced] += (done - now_s) * 1e9
                now_s = done
            else:
                now_s = max(now_s, deadline_s)
                old_driver = driver
                driver = spare
                spare = old_driver
                self._start_reconfig(spare, now_s)

        if self.model_mux_dead_time:
            stall_ns += self._mux_dead_times(choices, set_indices)

        metadata = {
            "countermeasure": params.label(),
            "set_indices": set_indices,
            "round_choices": choices,
            "stall_ns": stall_ns,
            "reconfig_seconds": self._reconfig_seconds,
        }
        schedule = ClockSchedule.from_period_matrix(periods, metadata=metadata)
        return schedule

    def _start_reconfig(
        self, mmcm_index: int, at_time_s: float, set_override: Optional[int] = None
    ) -> float:
        next_set = (
            set_override
            if set_override is not None
            else self._rand.integer(self.params.p_configs)
        )
        config = self.block_ram.config(next_set)
        self.block_ram.read_count += 1
        done = self.drp_controllers[mmcm_index].start(config, at_time_s)
        self._mmcm_set_index[mmcm_index] = next_set
        return done

    def _mux_dead_times(
        self, choices: np.ndarray, set_indices: np.ndarray
    ) -> np.ndarray:
        """Per-encryption BUFG switchover dead time (expected-case model)."""
        sel_periods = self._periods_ns[set_indices[:, None], choices]
        prev = np.roll(choices, 1, axis=1)
        prev[:, 0] = choices[:, 0]  # load cycle keeps the prior selection
        changed = choices != prev
        prev_periods = self._periods_ns[set_indices[:, None], prev]
        dead = 0.5 * (prev_periods + 0.5 * sel_periods)
        return (dead * changed).sum(axis=1)
