"""Ablation: DTW alignment reference — single trace vs mean trace.

Classic elastic-alignment folklore aligns to the mean trace; against a
clock-randomized target the mean is a blur of incompatible completion
times and the warp has nothing sharp to lock onto.  Aligning to one
concrete trace restores the attack against small-P RFTC.  This is the
design choice behind DtwAligner's default and is worth a number.
"""


import numpy as np

from benchmarks._budget import run_once, scaled
from repro.attacks.cpa import cpa_byte
from repro.attacks.models import expand_last_round_key
from repro.experiments.reporting import format_table
from repro.pipeline import CampaignSpec
from repro.power.acquisition import AcquisitionCampaign
from repro.preprocess import DtwAligner


def test_ablation_dtw_reference(benchmark):
    n = scaled(8000)

    def run():
        device = CampaignSpec(
            target="rftc", m_outputs=1, p_configs=4, plan_seed=83
        ).build_device(np.random.default_rng(84))
        ts = AcquisitionCampaign(device, seed=84).collect(n)
        rk10 = expand_last_round_key(ts.key)
        ranks = {}
        for reference in ("first", "mean"):
            aligner = DtwAligner(reference=reference)
            result = cpa_byte(aligner(ts.traces), ts.ciphertexts, 0)
            ranks[reference] = result.rank_of(rk10[0])
        return ranks

    ranks = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["DTW reference", "CPA rank of true byte vs RFTC(1, 4)"],
            [(k, v) for k, v in ranks.items()],
        )
    )
    # The sharp single-trace anchor must make (much) more progress.
    assert ranks["first"] < ranks["mean"]
    assert ranks["first"] <= 8
