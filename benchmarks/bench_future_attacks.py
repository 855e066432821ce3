"""Sec. 8's proposed future work, carried out: RAM and Sliding-Window CPA
against RFTC.

The paper closes by proposing to test the Rapid Alignment Method [16] and
Sliding-Window CPA [8] against RFTC.  This benchmark runs both (plus the
original battery's plain CPA as the anchor) against the unprotected core,
RFTC(1, 4) and RFTC(3, 64):

* RAM realigns *rigid* shifts only, so it restores nothing against
  per-round frequency randomization;
* Sliding-Window CPA trades time resolution for misalignment tolerance —
  it out-performs plain CPA against small-P RFTC but large windows drown
  in algorithmic noise long before they span RFTC's completion spread.
"""


import numpy as np

from benchmarks._budget import run_once, scaled
from repro.attacks.cpa import cpa_byte
from repro.attacks.models import expand_last_round_key
from repro.attacks.sliding_window import sliding_window_cpa
from repro.experiments.reporting import format_table
from repro.pipeline import CampaignSpec
from repro.power.acquisition import AcquisitionCampaign
from repro.preprocess import RapidAligner


def _device(target, rng_seed, **shape):
    return CampaignSpec(target=target, **shape).build_device(
        np.random.default_rng(rng_seed)
    )


def _ranks(device, seed, n):
    ts = AcquisitionCampaign(device, seed=seed).collect(n)
    rk10 = expand_last_round_key(ts.key)
    plain = cpa_byte(ts.traces, ts.ciphertexts, 0).rank_of(rk10[0])
    ram = cpa_byte(
        RapidAligner()(ts.traces), ts.ciphertexts, 0
    ).rank_of(rk10[0])
    sw = (
        sliding_window_cpa(ts.traces, ts.ciphertexts, width=24, step=4)
        .byte_results[0]
        .rank_of(rk10[0])
    )
    return {"cpa": plain, "ram-cpa": ram, "sw-cpa": sw}


def test_future_attacks_ram_and_sliding_window(benchmark):
    n = scaled(6000)

    def run():
        return {
            "unprotected": _ranks(_device("unprotected", 91), 91, min(n, 3000)),
            "RFTC(1, 4)": _ranks(
                _device("rftc", 93, m_outputs=1, p_configs=4, plan_seed=92), 93, n
            ),
            "RFTC(3, 64)": _ranks(
                _device("rftc", 95, m_outputs=3, p_configs=64, plan_seed=94), 95, n
            ),
        }

    out = run_once(benchmark, run)
    print()
    rows = [
        (name, r["cpa"], r["ram-cpa"], r["sw-cpa"])
        for name, r in out.items()
    ]
    print(
        format_table(
            ["target", "CPA rank", "RAM-CPA rank", "SW-CPA rank"], rows
        )
    )
    print(
        "Sec. 8 follow-through: RAM cannot undo per-round randomization; "
        "sliding windows help against small P but not the full design."
    )

    # All three break the unprotected core.
    assert max(out["unprotected"].values()) == 0
    # The flagship-direction build resists all three.
    assert min(out["RFTC(3, 64)"].values()) > 0
