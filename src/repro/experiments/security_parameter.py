"""Eq. 1's security parameter, measured: T_countermeasure / T_unprotected.

Table 1's "Sec. Para." column is the ratio between the trace count a
countermeasure was shown to withstand and the count that breaks the
unprotected core.  The paper transcribes these from each cited work; here
they are *measured* on the common bench, using the strongest attack of the
battery per target (the fairest reading of "shown to be effective").

A countermeasure that never discloses within the probe budget gets a
lower-bound parameter (budget / unprotected cost), mirroring the paper's
">=" entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.attacks.incremental import IncrementalCpa
from repro.attacks.models import expand_last_round_key
from repro.errors import ConfigurationError
from repro.pipeline import CampaignSpec
from repro.power.acquisition import AcquisitionCampaign
from repro.power.synth import TraceSynthesizer


@dataclass
class SecurityParameterRow:
    """One countermeasure's measured Eq. 1 entry."""

    name: str
    disclosure_traces: Optional[int]  # None = secure within budget
    unprotected_traces: int
    budget: int
    best_attack: str

    @property
    def parameter(self) -> float:
        """T_count / T_unprot; lower bound when undisclosed."""
        numerator = (
            self.budget if self.disclosure_traces is None else self.disclosure_traces
        )
        return numerator / self.unprotected_traces

    @property
    def is_lower_bound(self) -> bool:
        return self.disclosure_traces is None

    def render(self) -> str:
        prefix = ">=" if self.is_lower_bound else ""
        return f"{prefix}{self.parameter:.0f}"


def _streamed_disclosure(
    device, seed: int, budget: int, batch: int = 10_000
) -> Optional[int]:
    """First checkpoint where streamed plain CPA on key byte 0 holds rank 0.

    The rank must stay 0 for two consecutive checkpoints before
    disclosure is declared, rejecting the transient rank-0 flickers a
    noisy correlation ranking produces.
    """
    campaign = AcquisitionCampaign(device, seed=seed)
    rk10 = expand_last_round_key(device.key)
    inc = IncrementalCpa(byte_index=0)
    collected = 0
    first_zero = None
    streak = 0
    while collected < budget:
        n = min(batch, budget - collected)
        ts = campaign.collect(n)
        inc.update(ts.traces, ts.ciphertexts)
        collected += n
        if inc.result().rank_of(rk10[0]) == 0:
            if first_zero is None:
                first_zero = collected
            streak += 1
            if streak >= 2:
                return first_zero
        else:
            first_zero = None
            streak = 0
    return first_zero if streak >= 2 else None


def measure_security_parameters(
    budget: int = 120_000,
) -> Sequence[SecurityParameterRow]:
    """Measure Eq. 1 for every baseline plus RFTC(3, 64).

    Plain CPA, streamed to ``budget`` traces per target, is the common
    yardstick (preprocessed attacks shift the absolute numbers downward
    but preserve the ordering, and plain CPA is the one attack every cited
    work reported).  The unprotected reference cost is measured on the
    same channel with fine batches.
    """
    if budget < 2048:
        raise ConfigurationError("budget must be >= 2048")
    seed = 51

    def build(target: str, rng_seed: int, **shape):
        return CampaignSpec(target=target, **shape).build_device(
            np.random.default_rng(rng_seed)
        )

    unprotected = build("unprotected", seed)
    unprot = _streamed_disclosure(unprotected, seed + 1, 16_000, batch=500)
    if unprot is None:
        raise ConfigurationError(
            "the unprotected core did not fall within 16k traces; the "
            "channel calibration is off"
        )
    rows = []
    rcdd = build("rcdd", seed + 3)
    # RCDD's dummy cycles push past the default 256-sample window.
    rcdd.synthesizer = TraceSynthesizer(n_samples=320)
    targets = [
        ("RDI [14]", build("rdi", seed + 2)),
        ("RCDD [3]", rcdd),
        ("Phase shifted clocks [10]", build("phase-shift", seed + 4)),
        ("iPPAP [19]", build("ippap", seed + 5)),
        ("Clock randomization [9]", build("clock-rand", seed + 6)),
        (
            "RFTC(3, 64)",
            build("rftc", seed + 8, m_outputs=3, p_configs=64, plan_seed=seed + 7),
        ),
    ]
    for offset, (name, device) in enumerate(targets):
        disclosed = _streamed_disclosure(device, seed + 10 + offset, budget)
        rows.append(
            SecurityParameterRow(
                name=name,
                disclosure_traces=disclosed,
                unprotected_traces=unprot,
                budget=budget,
                best_attack="cpa (streamed)" if disclosed else "none",
            )
        )
    return rows
