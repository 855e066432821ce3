"""One-command reproduction report.

``generate_report`` runs a condensed version of the full evaluation —
completion-time statistics, the unprotected baseline, a TVLA trio, the
comparison table — and renders a self-contained markdown document with
paper-vs-measured columns.  ``repro-rftc report`` writes it to a file; the
"smoke" profile finishes in well under a minute, "quick" in a few minutes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ReportProfile:
    """Budget knobs for one report run."""

    name: str
    fig3_encryptions: int
    baseline_traces: int
    tvla_traces_per_group: int
    rftc_p_for_tvla: int


PROFILES: Dict[str, ReportProfile] = {
    "smoke": ReportProfile("smoke", 50_000, 3000, 3000, 8),
    "quick": ReportProfile("quick", 200_000, 8000, 8000, 64),
}


def generate_report(profile: str = "smoke", seed: int = 2019) -> str:
    """Run the condensed evaluation and return the markdown report."""
    if profile not in PROFILES:
        raise ConfigurationError(
            f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
        )
    p = PROFILES[profile]
    t0 = time.time()
    lines: List[str] = []
    lines.append("# RFTC reproduction report")
    lines.append("")
    lines.append(f"Profile: **{p.name}**, seed {seed}.  Paper: Jayasinghe "
                 "et al., DAC 2019.")
    lines.append("")

    # --- Sec. 4 closed forms -------------------------------------------------
    from repro.rftc import completion_time_count, distinct_completion_time_count

    lines.append("## Closed forms (Sec. 4)")
    lines.append("")
    lines.append("| quantity | paper | measured |")
    lines.append("|---|---|---|")
    lines.append(f"| C(12,10) | 66 | {completion_time_count(3, 10)} |")
    lines.append(
        f"| completion times RFTC(3,1024) | 67,584 | "
        f"{distinct_completion_time_count(3, 1024, 10)} |"
    )
    lines.append("")

    # --- Figure 3 -------------------------------------------------------------
    from repro.experiments.figures import figure3_data

    fig3 = figure3_data(
        m_outputs=3,
        p_configs=256 if p.name == "smoke" else 1024,
        n_encryptions=p.fig3_encryptions,
        seed=seed,
    )
    lines.append(f"## Figure 3 ({p.fig3_encryptions} encryptions)")
    lines.append("")
    lines.append("| panel | range ns | distinct times | max identical |")
    lines.append("|---|---|---|---|")
    for panel in fig3.values():
        lines.append(
            f"| {panel.label} | {panel.times_ns.min():.1f}-"
            f"{panel.times_ns.max():.1f} | {panel.occupied_buckets} | "
            f"{panel.max_identical} |"
        )
    lines.append("")

    # --- unprotected baseline --------------------------------------------------
    from repro.experiments.figures import unprotected_baseline_data

    counts = tuple(
        c
        for c in (500, 1000, 2000, p.baseline_traces)
        if c <= p.baseline_traces
    )
    baseline = unprotected_baseline_data(
        n_traces=p.baseline_traces,
        trace_counts=counts,
        n_repeats=4,
        seed=seed + 1,
    )
    lines.append("## Unprotected baseline (paper: ~2k traces for CPA)")
    lines.append("")
    lines.append("| attack | traces to SR>=0.8 |")
    lines.append("|---|---|")
    for attack, n in baseline.disclosure_summary().items():
        lines.append(f"| {attack} | {n if n else 'not disclosed'} |")
    lines.append("")

    # --- TVLA trio -------------------------------------------------------------
    import numpy as np

    from repro.leakage_assessment.tvla import TVLA_FIXED_PLAINTEXT, tvla_fixed_vs_random
    from repro.pipeline import CampaignSpec
    from repro.power.acquisition import AcquisitionCampaign

    lines.append(
        f"## TVLA (Fig. 6; {p.tvla_traces_per_group}/group; "
        "paper verdicts: M=1 LEAK, M=2 grazes, M=3 PASS)"
    )
    lines.append("")
    lines.append("| build | max \\|t\\| | verdict |")
    lines.append("|---|---|---|")
    for m in (1, 2, 3):
        spec = CampaignSpec(
            target="rftc", m_outputs=m, p_configs=p.rftc_p_for_tvla, plan_seed=seed + 10 + m
        )
        device = spec.build_device(np.random.default_rng(seed + 11 + m))
        campaign = AcquisitionCampaign(device, seed=seed + 20 + m)
        fixed, rnd = campaign.collect_fixed_vs_random(
            p.tvla_traces_per_group, TVLA_FIXED_PLAINTEXT
        )
        result = tvla_fixed_vs_random(fixed.traces, rnd.traces)
        verdict = "PASS" if result.max_abs_t < 4.5 else "LEAK"
        lines.append(
            f"| {spec.label()} | {result.max_abs_t:.2f} | {verdict} |"
        )
    lines.append("")

    # --- Table 1 ----------------------------------------------------------------
    from repro.experiments.tables import block_ram_count, table1_rows

    lines.append("## Table 1 (computed vs paper)")
    lines.append("")
    lines.append(
        "| countermeasure | #delays | paper | time x | paper | "
        "power x | paper | area x | paper |"
    )
    lines.append("|---|---|---|---|---|---|---|---|---|")
    for row in table1_rows(seed=seed + 30):
        def fmt(v):
            return "NA" if v is None else (f"{v:.2f}" if isinstance(v, float) else str(v))
        lines.append(
            f"| {row.name} | {fmt(row.delays)} | {fmt(row.paper.get('delays'))} "
            f"| {fmt(row.time_overhead)} | {fmt(row.paper.get('time'))} "
            f"| {fmt(row.power_overhead)} | {fmt(row.paper.get('power'))} "
            f"| {fmt(row.area_overhead)} | {fmt(row.paper.get('area'))} |"
        )
    lines.append("")
    lines.append(
        f"Block RAMs for RFTC(3, 1024): {block_ram_count(seed=seed + 30)} "
        "(paper: 20)"
    )
    lines.append("")
    lines.append(f"_Generated in {time.time() - t0:.0f} s._")
    lines.append("")
    return "\n".join(lines)
