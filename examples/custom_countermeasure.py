#!/usr/bin/env python3
"""Extend the framework: evaluate your own countermeasure.

Anything exposing ``schedule(n) -> ClockSchedule`` plugs into the same
device/attack/TVLA machinery as RFTC and the paper's baselines.  This
example implements a naive "two-speed" countermeasure (a coin flip between
a fast and a slow clock per encryption), then lets the framework show *why*
it is weak: only two completion times means an attacker can split traces by
timing and attack each half aligned.

Run:  python examples/custom_countermeasure.py
"""

import numpy as np

from repro.attacks import cpa_byte
from repro.attacks.models import expand_last_round_key
from repro.baselines.base import AES_CYCLES, CountermeasureBase
from repro.hw.clock import ClockSchedule, freq_mhz_to_period_ns
from repro.pipeline import DEFAULT_KEY
from repro.power import AcquisitionCampaign, ProtectedAesDevice


class TwoSpeedClock(CountermeasureBase):
    """Coin-flip between two clock frequencies per encryption."""

    def __init__(self, fast_mhz=48.0, slow_mhz=24.0, rng=None):
        self.fast_mhz = fast_mhz
        self.slow_mhz = slow_mhz
        self._rng = rng if rng is not None else np.random.default_rng()
        self.label = f"two-speed({slow_mhz:g}/{fast_mhz:g} MHz)"

    def schedule(self, n_encryptions: int) -> ClockSchedule:
        periods = np.where(
            self._rng.random(n_encryptions) < 0.5,
            freq_mhz_to_period_ns(self.fast_mhz),
            freq_mhz_to_period_ns(self.slow_mhz),
        )
        matrix = np.repeat(periods[:, None], AES_CYCLES, axis=1)
        return ClockSchedule.from_period_matrix(
            matrix, metadata={"countermeasure": self.label}
        )

    def enumerate_completion_times_ns(self) -> np.ndarray:
        return AES_CYCLES * np.array(
            [
                freq_mhz_to_period_ns(self.fast_mhz),
                freq_mhz_to_period_ns(self.slow_mhz),
            ]
        )


def main():
    cm = TwoSpeedClock(rng=np.random.default_rng(5))
    device = ProtectedAesDevice(DEFAULT_KEY, cm)
    trace_set = AcquisitionCampaign(device, seed=6).collect(6000)
    rk10 = expand_last_round_key(trace_set.key)

    print(f"{cm.label}: {cm.distinct_completion_time_count()} completion times")

    # Plain CPA: diluted by the 50/50 timing split.
    blind = cpa_byte(trace_set.traces, trace_set.ciphertexts, 0)
    print(f"blind CPA rank of true byte: {blind.rank_of(rk10[0])}")

    # Timing-split CPA: a scope trivially measures the completion time,
    # so the attacker groups by it and attacks each aligned group.
    times = np.round(trace_set.completion_times_ns, 3)
    for value in np.unique(times):
        mask = times == value
        result = cpa_byte(trace_set.traces[mask], trace_set.ciphertexts[mask], 0)
        status = "KEY BYTE RECOVERED" if result.best_guess == rk10[0] else "failed"
        print(
            f"  group @ {value:.1f} ns ({int(mask.sum())} traces): "
            f"rank {result.rank_of(rk10[0])} -> {status}"
        )

    print(
        "\nmoral: a handful of completion times is no protection — the "
        "paper's point, and why RFTC provisions 67,584 of them."
    )


if __name__ == "__main__":
    main()
