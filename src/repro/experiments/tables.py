"""Table 1 regeneration: RFTC vs the related work.

Every cell that can be *computed* from the models is computed (number of
distinct delays, time overhead, power/area from the component models);
attack-resistance cells come from running the attack battery at the given
budget; the security parameter is T_countermeasure / T_unprotected per
Eq. 1.  Paper-reported values ride along for side-by-side printing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.baselines import (
    FritzkeClockRandomization,
    IPpapClocks,
    PhaseShiftedClocks,
    RandomClockDummyData,
    RandomDelayInsertion,
)
from repro.hw.bufg import bufg_count_for_inputs
from repro.pipeline import CampaignSpec
from repro.rftc import distinct_completion_time_count

#: Paper-reported Table 1 values, for side-by-side reporting.  ``None``
#: mirrors the paper's "NA" entries.
PAPER_TABLE1: Dict[str, Dict[str, Optional[float]]] = {
    "RDI [14]": {
        "delays": None,
        "security": 500,
        "time": 1.64,
        "power": 4.11,
        "area": 1.81,
    },
    "RCDD [3]": {
        "delays": None,
        "security": 226,
        "time": 1.94,
        "power": None,
        "area": 1.70,
    },
    "Phase shifted clocks [10]": {
        "delays": 15,
        "security": 100,
        "time": 3.77,
        "power": None,
        "area": None,
    },
    "iPPAP [19]": {
        "delays": 39,
        "security": None,
        "time": None,
        "power": None,
        "area": 1.05,
    },
    "Clock randomization [9]": {
        "delays": 83,
        "security": 6,
        "time": 3.0,
        "power": 1.00,
        "area": 1.02,
    },
    "RFTC(3, 1024)": {
        "delays": 67584,
        "security": 2000,
        "time": 1.72,
        "power": 1.48,
        "area": 1.30,
    },
}


@dataclass
class Table1Row:
    """One countermeasure's computed Table 1 entries."""

    name: str
    delays: Optional[int]
    time_overhead: float
    power_overhead: float
    area_overhead: float
    paper: Dict[str, Optional[float]] = field(default_factory=dict)

    @property
    def energy_overhead(self) -> float:
        """Energy per encryption relative to unprotected: time x power.

        Not a paper column, but the figure an embedded adopter budgets
        by — and where RCDD/RDI's dummy work hurts doubly.
        """
        return self.time_overhead * self.power_overhead


def _rftc_controller(m_outputs: int, p_configs: int, seed: int):
    """RFTC(M, P)'s controller on the plan of ``seed``."""
    return CampaignSpec(
        target="rftc", m_outputs=m_outputs, p_configs=p_configs, plan_seed=seed
    ).build_device(np.random.default_rng(seed + 1)).countermeasure


def _rftc_overheads(m_outputs: int, p_configs: int, seed: int) -> Table1Row:
    controller = _rftc_controller(m_outputs, p_configs, seed)
    params = controller.params
    delays = distinct_completion_time_count(
        params.m_outputs, params.p_configs, params.rounds
    )
    # Residual exact duplicates on the hardware lattice reduce the count.
    delays -= controller.plan.duplicate_count()
    sched = controller.schedule(4096)
    completion = sched.completion_times_ns()
    # Reference: the unprotected circuit at the top of the window (48 MHz),
    # counting the 10 round cycles as the paper does.
    time_overhead = float(completion.mean() * (10 / 11)) / (10 * 1000.0 / params.f_hi_mhz)
    # Power model, normalized to the unprotected core at 48 MHz (static
    # ~0.3 / dynamic ~0.7 split, typical for a small design on a Kintex-7):
    # the core's dynamic power scales with the mean operating frequency,
    # and each always-on MMCM plus the LFSR/DRP control fabric adds a
    # constant share (MMCMs draw ~100 mW — a large fraction of a small AES
    # core's budget, which is why the paper's overhead is 1.48x despite the
    # core running *slower* on average).
    static_share, dynamic_share = 0.3, 0.7
    mean_freq_ratio = float((1000.0 / sched.periods_ns).mean() / params.f_hi_mhz)
    mmcm_share = 0.35 * params.n_mmcms
    control_share = 0.08
    power = (
        static_share
        + dynamic_share * mean_freq_ratio
        + mmcm_share
        + control_share
    )
    # Area model (excluding MMCM/BRAM hard blocks, matching the paper's
    # dagger note): clock muxes + DRP state machines + LFSR over a ~2000
    # LUT AES core.
    mux_luts = 50 * bufg_count_for_inputs(max(2, params.m_outputs))
    drp_luts = 180 * params.n_mmcms
    lfsr_luts = 130
    area = 1.0 + (mux_luts + drp_luts + lfsr_luts) / 2000.0
    return Table1Row(
        name=f"RFTC({m_outputs}, {p_configs})",
        delays=delays,
        time_overhead=time_overhead,
        power_overhead=power,
        area_overhead=area,
        paper=PAPER_TABLE1.get("RFTC(3, 1024)", {}),
    )


def table1_rows(seed: int = 23) -> Sequence[Table1Row]:
    """Compute every Table 1 row from the models."""
    rng = np.random.default_rng(seed)
    rows = []
    baselines = (
        ("RDI [14]", RandomDelayInsertion(rng=rng)),
        ("RCDD [3]", RandomClockDummyData(rng=rng)),
        ("Phase shifted clocks [10]", PhaseShiftedClocks(rng=rng)),
        ("iPPAP [19]", IPpapClocks(rng=rng)),
        ("Clock randomization [9]", FritzkeClockRandomization(rng=rng)),
    )
    for name, cm in baselines:
        if isinstance(cm, IPpapClocks):
            # The floating-mean generator makes the tails of iPPAP's raw
            # 71-level support unreachable; count what actually occurs, as
            # [19]'s Fig. 4 did.
            delays = cm.practical_completion_time_count()
        else:
            delays = cm.distinct_completion_time_count()
        rows.append(
            Table1Row(
                name=name,
                delays=delays,
                time_overhead=cm.time_overhead_factor(),
                power_overhead=cm.power_overhead_factor(),
                area_overhead=cm.area_overhead_factor(),
                paper=PAPER_TABLE1.get(name, {}),
            )
        )
    rows.append(_rftc_overheads(3, 1024, seed))
    return rows


def block_ram_count(m_outputs: int = 3, p_configs: int = 1024, seed: int = 23) -> int:
    """The paper's "20 Block RAMs" resource figure for RFTC(3, 1024)."""
    controller = _rftc_controller(m_outputs, p_configs, seed)
    return controller.block_ram.bram_count(n_mmcms=controller.params.n_mmcms)
