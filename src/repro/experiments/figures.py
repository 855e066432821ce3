"""Regeneration code for every figure in the paper's evaluation.

Each ``figure*_data`` function returns plain dict/array data shaped like
the corresponding figure's series; the benchmark harness prints them and
EXPERIMENTS.md records paper-vs-measured.  Budgets (trace counts, repeats)
are arguments so the benchmarks can run in minutes while a full overnight
run can push toward the paper's scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.experiments.attack_suite import (
    ATTACK_NAMES,
    AttackSuiteResult,
    run_attack_suite,
)
from repro.leakage_assessment.tvla import (
    TVLA_FIXED_PLAINTEXT,
    TvlaResult,
    load_stage_samples,
    tvla_fixed_vs_random,
)
from repro.pipeline import DEFAULT_KEY, CampaignSpec
from repro.power.acquisition import AcquisitionCampaign
from repro.rftc import RFTCParams, simulate_completion_times
from repro.rftc.completion import collision_statistics
from repro.rftc.planner import plan_naive_grid, plan_overlap_free


@dataclass
class CompletionHistogram:
    """One panel of Figure 3."""

    label: str
    times_ns: np.ndarray
    max_identical: int
    occupied_buckets: int

    def histogram(self, bins: int = 200):
        return np.histogram(self.times_ns, bins=bins)


def figure3_data(
    m_outputs: int = 3,
    p_configs: int = 1024,
    n_encryptions: int = 1_000_000,
    seed: int = 33,
) -> Dict[str, CompletionHistogram]:
    """Figure 3: completion-time histograms.

    (a) unprotected at 48 MHz; (b) RFTC(3, 1024) on the naive consecutive
    grid; (c) RFTC(3, 1024) with carefully chosen (overlap-free) sets.
    The "identical completion times" statistic counts 1 ps buckets
    (paper: <130 identical among one million for (c)).
    """
    rng = np.random.default_rng(seed)
    params = RFTCParams(m_outputs=m_outputs, p_configs=p_configs)

    unprotected = np.full(n_encryptions, 10 * 1000.0 / 48.0)
    naive_plan = plan_naive_grid(params)
    naive = simulate_completion_times(
        naive_plan.sets_mhz, params.rounds, n_encryptions, rng
    )
    careful_plan = plan_overlap_free(
        params,
        rng=np.random.default_rng(seed + 1),
        hardware=False,
        stratify=False,  # the paper's MATLAB study samples the whole window
    )
    careful = simulate_completion_times(
        careful_plan.sets_mhz, params.rounds, n_encryptions, rng
    )

    def panel(label: str, times: np.ndarray) -> CompletionHistogram:
        max_id, occupied = collision_statistics(times, 1e-3)
        return CompletionHistogram(
            label=label,
            times_ns=times,
            max_identical=max_id,
            occupied_buckets=occupied,
        )

    return {
        "a_unprotected": panel("unprotected 48 MHz", unprotected),
        "b_naive": panel(f"RFTC({m_outputs}, {p_configs}) naive grid", naive),
        "c_careful": panel(f"RFTC({m_outputs}, {p_configs}) overlap-free", careful),
    }


def attack_figure_data(
    m_outputs: int,
    p_values: Sequence[int] = (4, 16, 64, 256, 1024),
    attacks: Sequence[str] = ATTACK_NAMES,
    n_traces: int = 8000,
    trace_counts: Sequence[int] = (1000, 2000, 4000, 8000),
    n_repeats: int = 10,
    byte_indices: Sequence[int] = (0,),
    seed: int = 7,
    key: bytes = DEFAULT_KEY,
) -> Dict[int, AttackSuiteResult]:
    """Figures 4 (M = 1) and 5 (M = 2): SR curves per P per attack.

    One campaign of ``n_traces`` is collected per RFTC(M, P) build and
    shared across the four attacks.
    """
    results: Dict[int, AttackSuiteResult] = {}
    for p in p_values:
        spec = CampaignSpec(
            target="rftc", m_outputs=m_outputs, p_configs=p, key=key, plan_seed=seed
        )
        device = spec.build_device(np.random.default_rng(seed + 1))
        campaign = AcquisitionCampaign(device, seed=seed + p)
        trace_set = campaign.collect(n_traces)
        results[p] = run_attack_suite(
            trace_set,
            spec.label(),
            attacks=attacks,
            trace_counts=trace_counts,
            n_repeats=n_repeats,
            byte_indices=byte_indices,
            rng=np.random.default_rng(seed + 100 + p),
        )
    return results


def figure4_data(**kwargs) -> Dict[int, AttackSuiteResult]:
    """Figure 4: the attack battery against RFTC(1, P)."""
    return attack_figure_data(1, **kwargs)


def figure5_data(**kwargs) -> Dict[int, AttackSuiteResult]:
    """Figure 5: the attack battery against RFTC(2, P)."""
    return attack_figure_data(2, **kwargs)


def m3_resistance_data(
    p_values: Sequence[int] = (4, 1024),
    **kwargs,
) -> Dict[int, AttackSuiteResult]:
    """Sec. 7 text: no attack recovers the key from any RFTC(3, P) build."""
    return attack_figure_data(3, p_values=p_values, **kwargs)


def unprotected_baseline_data(
    n_traces: int = 8000,
    trace_counts: Sequence[int] = (250, 500, 1000, 2000, 4000, 8000),
    n_repeats: int = 10,
    seed: int = 11,
) -> AttackSuiteResult:
    """Sec. 7's unprotected reference: ~2k traces for CPA/PCA/DTW, ~8k for FFT."""
    device = CampaignSpec(target="unprotected").build_device(
        np.random.default_rng(seed)
    )
    campaign = AcquisitionCampaign(device, seed=seed)
    trace_set = campaign.collect(n_traces)
    return run_attack_suite(
        trace_set,
        device.countermeasure.label,
        trace_counts=trace_counts,
        n_repeats=n_repeats,
        rng=np.random.default_rng(seed + 1),
    )


@dataclass
class TvlaPanel:
    """One curve of Figure 6."""

    label: str
    result: TvlaResult

    @property
    def max_abs_t(self) -> float:
        return self.result.max_abs_t

    @property
    def passes(self) -> bool:
        return self.result.passes


def figure6_data(
    m_values: Sequence[int] = (1, 2, 3),
    p_values: Sequence[int] = (4, 1024),
    n_per_group: int = 20000,
    seed: int = 17,
) -> Dict[str, TvlaPanel]:
    """Figure 6: TVLA of RFTC(M, P) for M in {1,2,3}, P in {4, 1024}.

    The paper's verdicts: M = 1 leaks far beyond +-4.5; M = 2 grazes the
    limit; M = 3 stays within except during plaintext load.
    """
    panels: Dict[str, TvlaPanel] = {}
    for m in m_values:
        for p in p_values:
            device = CampaignSpec(
                target="rftc", m_outputs=m, p_configs=p, plan_seed=seed
            ).build_device(np.random.default_rng(seed + 1))
            campaign = AcquisitionCampaign(device, seed=seed + 31 * m + p)
            fixed, random_ = campaign.collect_fixed_vs_random(
                n_per_group, TVLA_FIXED_PLAINTEXT
            )
            max_first_period = float(device.countermeasure.plan.sets_mhz.min())
            prefix = load_stage_samples(
                fixed.sample_period_ns, 1000.0 / max_first_period
            )
            result = tvla_fixed_vs_random(
                fixed.traces, random_.traces, exclude_prefix_samples=prefix
            )
            label = f"RFTC({m}, {p})"
            panels[label] = TvlaPanel(label=label, result=result)
    return panels


def tvla_unprotected(n_per_group: int = 20000, seed: int = 19) -> TvlaPanel:
    """TVLA of the unprotected device (massive leakage, for contrast)."""
    device = CampaignSpec(target="unprotected").build_device(
        np.random.default_rng(seed)
    )
    campaign = AcquisitionCampaign(device, seed=seed)
    fixed, random_ = campaign.collect_fixed_vs_random(
        n_per_group, TVLA_FIXED_PLAINTEXT
    )
    prefix = load_stage_samples(fixed.sample_period_ns, 1000.0 / 48.0)
    result = tvla_fixed_vs_random(
        fixed.traces, random_.traces, exclude_prefix_samples=prefix
    )
    return TvlaPanel(label="unprotected", result=result)
