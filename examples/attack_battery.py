#!/usr/bin/env python3
"""The full four-attack battery against a chosen RFTC build.

Runs CPA, PCA-CPA, DTW-CPA and FFT-CPA success-rate curves against an
RFTC(M, P) build — the per-panel machinery of the paper's Figures 4 and 5 —
and prints the SR table plus traces-to-disclosure summary.

Run:  python examples/attack_battery.py [M] [P] [n_traces]
e.g.: python examples/attack_battery.py 1 16 8000
"""

import sys

import numpy as np

from repro.experiments.attack_suite import run_attack_suite
from repro.experiments.reporting import render_attack_suite
from repro.pipeline import CampaignSpec
from repro.power import AcquisitionCampaign


def main():
    m = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    p = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    n = int(sys.argv[3]) if len(sys.argv) > 3 else 6000

    spec = CampaignSpec(target="rftc", m_outputs=m, p_configs=p, plan_seed=7)
    device = spec.build_device(np.random.default_rng(8))
    print(f"collecting {n} traces from {spec.label()} ...")
    trace_set = AcquisitionCampaign(device, seed=7).collect(n)
    print(
        f"completion times span "
        f"{trace_set.completion_times_ns.min():.1f} - "
        f"{trace_set.completion_times_ns.max():.1f} ns "
        f"({np.unique(np.round(trace_set.completion_times_ns, 3)).size} distinct)"
    )

    result = run_attack_suite(
        trace_set,
        spec.label(),
        trace_counts=tuple(c for c in (n // 4, n // 2, n) if c >= 500),
        n_repeats=5,
        byte_indices=(0,),
        rng=np.random.default_rng(13),
    )
    print()
    print(render_attack_suite(result))
    print(
        "\npaper (Fig. 4/5): DTW-CPA breaks small P; FFT-CPA breaks P<=16 "
        "at M=1; everything fails against M=3"
    )


if __name__ == "__main__":
    main()
