"""End-to-end reproduction invariants: the paper's headline behaviours.

These are the tests that assert the *system* reproduces the paper's
qualitative results — CPA breaks the unprotected core, RFTC resists it at
the same budget, TVLA grades M = 1/2/3 in the paper's order, and the
completion-time machinery matches Sec. 4's closed forms end to end.
"""

import numpy as np
import pytest

from repro.attacks import cpa_attack, cpa_byte
from repro.attacks.models import (
    expand_last_round_key,
    recover_master_key_from_last_round,
)
from repro.leakage_assessment.snr import partition_snr
from repro.leakage_assessment.tvla import TVLA_FIXED_PLAINTEXT, tvla_fixed_vs_random
from repro.pipeline import CampaignSpec
from repro.power.acquisition import AcquisitionCampaign


def _rftc_device(m_outputs, p_configs, seed):
    """RFTC(M, P) on plan ``seed``, switching from ``seed + 1``."""
    return CampaignSpec(
        target="rftc", m_outputs=m_outputs, p_configs=p_configs, plan_seed=seed
    ).build_device(np.random.default_rng(seed + 1))


class TestHeadlineAttack:
    def test_cpa_breaks_unprotected_full_key(self, unprotected_traceset):
        """~2,000 traces disclose the unprotected key (Sec. 7) — and the
        recovered last round key inverts to the master key."""
        ts = unprotected_traceset
        result = cpa_attack(ts.traces, ts.ciphertexts, byte_indices=range(16))
        rk10 = expand_last_round_key(ts.key)
        assert result.is_correct(rk10)
        assert recover_master_key_from_last_round(result.recovered_key()) == ts.key

    def test_rftc_resists_at_same_budget(self, rftc_traceset):
        """Even a small RFTC(2, 8) defeats the budget that broke the
        unprotected core."""
        ts = rftc_traceset
        rk10 = expand_last_round_key(ts.key)
        result = cpa_byte(ts.traces, ts.ciphertexts, 0)
        assert result.rank_of(rk10[0]) > 0

    def test_rftc_class_conditional_cpa_succeeds(self):
        """Splitting traces by frequency set restores alignment and the
        attack — evidence the *only* protection is misalignment, exactly
        the paper's premise."""
        device = _rftc_device(1, 4, seed=61)
        ts = AcquisitionCampaign(device, seed=62).collect(9000)
        sets = ts.metadata["set_indices"]
        rk10 = expand_last_round_key(ts.key)
        biggest = np.argmax(np.bincount(sets))
        subset = sets == biggest
        result = cpa_byte(ts.traces[subset], ts.ciphertexts[subset], 0)
        assert result.best_guess == rk10[0]


class TestSnrOrdering:
    def test_rftc_kills_worst_case_snr(self, unprotected_traceset, rftc_traceset):
        """Sec. 5: spreading completion times lowers the per-sample SNR.

        The raw SNR estimator is biased upward by within-label variance at
        finite sample sizes (severely so for RFTC, whose traces mix wildly
        different completion-time classes), so the comparison is made on
        the *excess* over a shuffled-label permutation baseline.
        """
        from repro.attacks.models import last_round_hd_predictions

        def snr_excess(ts, rng):
            # Binary low/high-HD partition keeps both groups large, so the
            # estimator's noise floor (measured by shuffling) stays small.
            rk10 = expand_last_round_key(ts.key)
            hd = last_round_hd_predictions(ts.ciphertexts, 0)[:, rk10[0]]
            keep = hd != 4
            labels = (hd[keep] > 4).astype(int)
            traces = ts.traces[keep]
            raw = partition_snr(traces, labels).max()
            shuffled = labels.copy()
            baseline = 0.0
            for _ in range(5):
                rng.shuffle(shuffled)
                baseline = max(baseline, partition_snr(traces, shuffled).max())
            return raw - baseline

        rng = np.random.default_rng(7)
        excess_unprotected = snr_excess(unprotected_traceset, rng)
        excess_rftc = snr_excess(rftc_traceset, rng)
        assert excess_unprotected > 0.01
        assert excess_unprotected > 3 * abs(excess_rftc)


class TestTvlaOrdering:
    @pytest.fixture(scope="class")
    def tvla_by_m(self):
        values = {}
        for m in (1, 2, 3):
            device = _rftc_device(m, 8, seed=71 + m)
            campaign = AcquisitionCampaign(device, seed=81 + m)
            fixed, rnd = campaign.collect_fixed_vs_random(
                8000, TVLA_FIXED_PLAINTEXT
            )
            values[m] = tvla_fixed_vs_random(fixed.traces, rnd.traces).max_abs_t
        return values

    def test_leakage_decreases_with_m(self, tvla_by_m):
        """Fig. 6's verdicts at model scale: M = 1 exceeds the 4.5 limit,
        M = 2 and M = 3 stay within it, and M = 1 leaks the most."""
        assert tvla_by_m[1] > 4.5
        assert tvla_by_m[2] < 4.5
        assert tvla_by_m[3] < 4.5
        assert tvla_by_m[1] > tvla_by_m[2]
        assert tvla_by_m[1] > tvla_by_m[3]


class TestCompletionTimeEndToEnd:
    def test_controller_times_match_plan_enumeration(self):
        """Every completion time the controller produces is one the plan's
        enumeration predicted (Sec. 4's combinatorics, end to end)."""
        device = _rftc_device(2, 8, seed=91)
        plan = device.countermeasure.plan
        ts = AcquisitionCampaign(device, seed=92).collect(2000)
        table = plan.completion_table_ns()
        # Controller times include the load cycle; subtract it per trace.
        sets = ts.metadata["set_indices"]
        choices = ts.metadata["round_choices"]
        periods = 1000.0 / plan.sets_mhz
        load = periods[sets, choices[:, 0]]
        round_time = ts.completion_times_ns - load
        for i in range(0, 2000, 97):
            row = table[sets[i]]
            assert np.isclose(row, round_time[i], atol=1e-6).any()

    def test_x_encryptions_per_set_magnitude(self):
        """Fig. 2-B's x (~82 on the paper's bench) at model scale."""
        device = _rftc_device(3, 16, seed=95)
        AcquisitionCampaign(device, seed=96).collect(4000)
        x = device.countermeasure.pipeline.mean_encryptions_per_swap
        assert 30 < x < 200
