#!/usr/bin/env python3
"""Quickstart: break an unprotected AES, watch RFTC stop the same attack.

Builds the two ends of the paper's story on the synthetic bench:

1. an unprotected AES core on a constant 48 MHz clock — CPA recovers the
   full 128-bit key from a couple thousand power traces;
2. the same core behind RFTC(3, 64) — the identical attack, with the same
   budget, goes nowhere.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.attacks import cpa_attack
from repro.attacks.models import (
    expand_last_round_key,
    recover_master_key_from_last_round,
)
from repro.pipeline import CampaignSpec
from repro.power import AcquisitionCampaign

N_TRACES = 3000


def attack(device, seed):
    """Collect a campaign and run last-round CPA on all 16 key bytes."""
    campaign = AcquisitionCampaign(device, seed=seed)
    trace_set = campaign.collect(N_TRACES)
    result = cpa_attack(
        trace_set.traces, trace_set.ciphertexts, byte_indices=range(16)
    )
    true_rk10 = expand_last_round_key(trace_set.key)
    correct = sum(
        r.best_guess == true_rk10[r.byte_index] for r in result.byte_results
    )
    return result, true_rk10, correct


def main():
    print(f"=== Unprotected AES, {N_TRACES} traces ===")
    unprotected = CampaignSpec(target="unprotected").build_device(
        np.random.default_rng(1)
    )
    result, rk10, correct = attack(unprotected, seed=1)
    print(f"key bytes recovered: {correct}/16")
    if result.is_correct(rk10):
        master = recover_master_key_from_last_round(result.recovered_key())
        print(f"last round key : {result.recovered_key().hex()}")
        print(f"master key     : {master.hex()}")
        print(f"device key     : {unprotected.key.hex()}")
        assert master == unprotected.key
        print("-> full AES-128 key recovered by inverting the key schedule.")

    print()
    print(f"=== RFTC(3, 64), same attack, same {N_TRACES} traces ===")
    rftc = CampaignSpec(
        target="rftc", m_outputs=3, p_configs=64, plan_seed=11
    ).build_device(np.random.default_rng(12))
    result, rk10, correct = attack(rftc, seed=2)
    print(f"key bytes recovered: {correct}/16")
    controller = rftc.countermeasure
    plan = controller.plan
    print(
        f"(randomized over {plan.n_sets * plan.m_outputs} clock "
        f"frequencies; one MMCM reconfiguration takes "
        f"{controller.reconfiguration_seconds * 1e6:.1f} us and serves "
        f"~{controller.expected_encryptions_per_swap():.0f} encryptions)"
    )
    assert correct <= 3, "RFTC should resist this budget"
    print("-> the countermeasure holds: misaligned traces defeat CPA.")


if __name__ == "__main__":
    main()
