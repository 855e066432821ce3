"""Ablation: oscilloscope bandwidth (the paper's 100 MHz Agilent limit).

The measurement bandwidth shapes both sides of the arms race: a wider band
sharpens the per-round pulses (more signal for CPA against the unprotected
core) and sharpens the *misalignment* (a faster-decaying pulse overlaps a
mispositioned correlation window less).  This ablation measures CPA's peak
correlation on the unprotected core and DTW-CPA's key rank against
RFTC(1, 4) at three scope bandwidths.
"""


import numpy as np

from benchmarks._budget import run_once, scaled
from repro.attacks.cpa import cpa_byte
from repro.attacks.models import expand_last_round_key
from repro.experiments.reporting import format_table
from repro.pipeline import DEFAULT_KEY, CampaignSpec
from repro.baselines import UnprotectedClock
from repro.power.acquisition import AcquisitionCampaign, ProtectedAesDevice
from repro.power.scope import Oscilloscope
from repro.preprocess import DtwAligner

BANDWIDTHS = (20.0, 100.0, 500.0)


def _unprotected_peak(bandwidth_mhz: float, n: int) -> float:
    device = ProtectedAesDevice(
        DEFAULT_KEY,
        UnprotectedClock(),
        scope=Oscilloscope(bandwidth_mhz=bandwidth_mhz),
    )
    ts = AcquisitionCampaign(device, seed=71).collect(n)
    rk10 = expand_last_round_key(ts.key)
    result = cpa_byte(ts.traces, ts.ciphertexts, 0)
    return float(result.peak_corr[rk10[0]])


def _rftc_dtw_rank(bandwidth_mhz: float, n: int) -> int:
    device = CampaignSpec(
        target="rftc", m_outputs=1, p_configs=4, plan_seed=73
    ).build_device(np.random.default_rng(74))
    device.scope = Oscilloscope(bandwidth_mhz=bandwidth_mhz)
    ts = AcquisitionCampaign(device, seed=74).collect(n)
    rk10 = expand_last_round_key(ts.key)
    warped = DtwAligner()(ts.traces)
    return cpa_byte(warped, ts.ciphertexts, 0).rank_of(rk10[0])


def test_ablation_scope_bandwidth(benchmark):
    n = scaled(4000)

    def run():
        return {
            bw: {
                "cpa_peak": _unprotected_peak(bw, n),
                "dtw_rank": _rftc_dtw_rank(bw, n),
            }
            for bw in BANDWIDTHS
        }

    out = run_once(benchmark, run)
    print()
    rows = [
        (f"{bw:.0f} MHz", f"{v['cpa_peak']:.3f}", v["dtw_rank"])
        for bw, v in out.items()
    ]
    print(
        format_table(
            ["scope bandwidth", "CPA peak corr (unprotected)", "DTW-CPA rank vs RFTC(1,4)"],
            rows,
        )
    )
    # Starving the bandwidth starves the attacker.
    assert out[20.0]["cpa_peak"] < out[500.0]["cpa_peak"]
