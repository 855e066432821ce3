"""Paper-scale plain CPA via streaming accumulation (Fig. 4-a's long tail).

The paper's one result out of reach at the default 8k-trace budgets is the
plain-CPA break of RFTC(1, 4) at ~700,000 hardware traces.  The streaming
CPA engine makes the equivalent run feasible here: traces are synthesized
and folded into running sums in batches — constant memory, ~10k traces/s —
until the weakest build falls, while the same budget leaves RFTC(3, 64)
untouched.

Paper ratio: 700k / 2k unprotected = 350x.  Model ratio: ~100k / 2k = 50x —
same order, with the gap explained by the synthetic channel's sharper
class structure (DESIGN.md §6).
"""


import numpy as np

from benchmarks._budget import run_once, scaled
from repro.attacks.incremental import IncrementalCpa
from repro.attacks.models import expand_last_round_key
from repro.experiments.reporting import format_table
from repro.pipeline import CampaignSpec
from repro.power.acquisition import AcquisitionCampaign

BATCH = 15000


def _rftc(m_outputs, p_configs, seed):
    """RFTC(M, P) on plan ``seed``, switching from ``seed + 1``."""
    return CampaignSpec(
        target="rftc", m_outputs=m_outputs, p_configs=p_configs, plan_seed=seed
    ).build_device(np.random.default_rng(seed + 1))


def _stream_attack(device, seed, total, checkpoints):
    campaign = AcquisitionCampaign(device, seed=seed)
    rk10 = expand_last_round_key(device.key)
    inc = IncrementalCpa(byte_index=0)
    history = []
    collected = 0
    for target in checkpoints:
        while collected < target:
            n = min(BATCH, target - collected)
            ts = campaign.collect(n)
            inc.update(ts.traces, ts.ciphertexts)
            collected += n
        history.append((collected, inc.result().rank_of(rk10[0])))
    return history


def test_paper_scale_streaming_cpa(benchmark):
    total = scaled(150_000)
    checkpoints = [c for c in (25_000, 50_000, 100_000, 150_000) if c <= total]
    if checkpoints[-1] != total:
        checkpoints.append(total)

    def run():
        weak = _stream_attack(
            _rftc(1, 4, seed=92), 93, total, checkpoints
        )
        strong = _stream_attack(
            _rftc(3, 256, seed=94), 95, total, checkpoints
        )
        return weak, strong

    weak, strong = run_once(benchmark, run)
    print()
    print(f"Streaming plain CPA, batches of {BATCH} (constant memory)")
    rows = [
        (n_w, r_w, r_s)
        for (n_w, r_w), (_, r_s) in zip(weak, strong)
    ]
    print(
        format_table(
            ["traces", "RFTC(1,4) rank", "RFTC(3,256) rank"], rows
        )
    )
    print(
        "paper: plain CPA breaks RFTC(1, 4) at ~700k traces and never "
        "breaks RFTC(3, .) within 4M"
    )
    # The weakest build falls within the budget; the strong one does not.
    assert weak[-1][1] == 0
    assert strong[-1][1] > 0