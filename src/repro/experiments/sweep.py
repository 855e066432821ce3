"""Design-space sweeps over (M, P): the countermeasure designer's view.

The paper evaluates five P values at three M values; a designer adopting
RFTC wants the full grid — "how much randomization do I need for my
security target?".  ``design_space_sweep`` measures, per (M, P) cell, the
TVLA peak and the best attacker progress (minimum key rank over a chosen
attack set) at a fixed trace budget, and renders the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.cpa import cpa_byte
from repro.attacks.models import expand_last_round_key
from repro.errors import ConfigurationError
from repro.experiments.attack_suite import make_preprocessor
from repro.experiments.reporting import format_table
from repro.leakage_assessment.tvla import TVLA_FIXED_PLAINTEXT, tvla_fixed_vs_random
from repro.pipeline import CampaignSpec
from repro.power.acquisition import AcquisitionCampaign


@dataclass
class SweepCell:
    """One (M, P) design point's measurements."""

    m_outputs: int
    p_configs: int
    tvla_max_t: float
    attack_ranks: Dict[str, int] = field(default_factory=dict)

    @property
    def best_attack_rank(self) -> int:
        """Lowest rank any attack achieved (0 = some attack recovered)."""
        return min(self.attack_ranks.values())

    @property
    def broken(self) -> bool:
        return self.best_attack_rank == 0


@dataclass
class SweepResult:
    """The full grid plus rendering helpers."""

    cells: Dict[Tuple[int, int], SweepCell]
    n_traces: int
    attacks: Tuple[str, ...]

    def cell(self, m: int, p: int) -> SweepCell:
        if (m, p) not in self.cells:
            raise ConfigurationError(f"no ({m}, {p}) cell in this sweep")
        return self.cells[(m, p)]

    def render(self) -> str:
        m_values = sorted({m for m, _ in self.cells})
        p_values = sorted({p for _, p in self.cells})
        rows = []
        for p in p_values:
            row = [p]
            for m in m_values:
                cell = self.cells[(m, p)]
                status = "BROKEN" if cell.broken else f"rank {cell.best_attack_rank}"
                row.append(f"|t|={cell.tvla_max_t:.1f} {status}")
            rows.append(row)
        headers = ["P \\ M"] + [f"M={m}" for m in m_values]
        return format_table(headers, rows)

    def minimum_secure_p(self, m: int) -> Optional[int]:
        """Smallest P at which no attack broke this M (None if all broke)."""
        candidates = sorted(p for mm, p in self.cells if mm == m)
        for p in candidates:
            if not self.cells[(m, p)].broken:
                return p
        return None


def design_space_sweep(
    m_values: Sequence[int] = (1, 2, 3),
    p_values: Sequence[int] = (4, 16, 64),
    n_traces: int = 4000,
    attacks: Sequence[str] = ("cpa", "dtw-cpa", "fft-cpa"),
) -> SweepResult:
    """Measure TVLA and key-byte-0 attack progress on every (M, P) cell.

    One campaign per cell is shared by the attacks; TVLA uses an
    interleaved fixed-vs-random campaign of the same size.
    """
    seed = 2024
    if n_traces < 64:
        raise ConfigurationError("n_traces must be >= 64")
    cells: Dict[Tuple[int, int], SweepCell] = {}
    for m in m_values:
        for p in p_values:
            plan_seed = seed + m * 131 + p
            device = CampaignSpec(
                target="rftc", m_outputs=m, p_configs=p, plan_seed=plan_seed
            ).build_device(np.random.default_rng(plan_seed + 1))
            campaign = AcquisitionCampaign(device, seed=seed + m * 17 + p)
            ts = campaign.collect(n_traces)
            rk10 = expand_last_round_key(ts.key)
            ranks = {}
            for attack in attacks:
                pre = make_preprocessor(attack)
                traces = ts.traces if pre is None else pre(ts.traces)
                result = cpa_byte(traces, ts.ciphertexts, 0)
                ranks[attack] = result.rank_of(rk10[0])
            fixed, random_ = campaign.collect_fixed_vs_random(
                n_traces // 2, TVLA_FIXED_PLAINTEXT
            )
            tvla = tvla_fixed_vs_random(fixed.traces, random_.traces)
            cells[(m, p)] = SweepCell(
                m_outputs=m,
                p_configs=p,
                tvla_max_t=tvla.max_abs_t,
                attack_ranks=ranks,
            )
    return SweepResult(
        cells=cells, n_traces=n_traces, attacks=tuple(attacks)
    )
