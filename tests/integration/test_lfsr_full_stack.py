"""Hardware-faithful end-to-end: the paper's 128-bit LFSR drives everything.

The campaign-scale tests use numpy RNG for speed; this integration test
runs the full stack — LFSR-driven controller, DRP-reconfigured MMCMs,
trace synthesis, attack — with the bit-faithful fabric generator, and pins
its determinism (the property a hardware replay would have).
"""

import numpy as np

from repro.attacks.cpa import cpa_byte
from repro.attacks.models import expand_last_round_key
from repro.hw.lfsr import Lfsr128
from repro.pipeline import DEFAULT_KEY
from repro.power.acquisition import AcquisitionCampaign, ProtectedAesDevice
from repro.rftc import RFTCController, RFTCParams, cached_plan


def _campaign(seed_lfsr: int, n: int = 1500):
    params = RFTCParams(m_outputs=2, p_configs=8)
    plan = cached_plan(2, 8, seed=41)
    controller = RFTCController(params, plan, rng=Lfsr128(seed=seed_lfsr))
    device = ProtectedAesDevice(DEFAULT_KEY, controller)
    return AcquisitionCampaign(device, seed=9).collect(n), controller


class TestLfsrFullStack:
    def test_deterministic_replay(self):
        """Same LFSR seed + same campaign seed -> identical traces."""
        a, _ = _campaign(0xFEED)
        b, _ = _campaign(0xFEED)
        np.testing.assert_array_equal(a.traces, b.traces)
        np.testing.assert_array_equal(
            a.metadata["set_indices"], b.metadata["set_indices"]
        )

    def test_different_seed_different_schedule(self):
        a, _ = _campaign(0xFEED)
        b, _ = _campaign(0xBEEF)
        assert not np.array_equal(
            a.metadata["set_indices"], b.metadata["set_indices"]
        )

    def test_lfsr_driven_rftc_still_resists(self):
        ts, controller = _campaign(0xACE1)
        rk10 = expand_last_round_key(ts.key)
        result = cpa_byte(ts.traces, ts.ciphertexts, 0)
        assert result.rank_of(rk10[0]) > 0
        # The pipeline really ran: MMCMs were reconfigured via the DRP.
        assert controller.mmcms[0].reconfig_count + controller.mmcms[
            1
        ].reconfig_count >= 2

    def test_selections_cover_the_rom(self):
        ts, controller = _campaign(0x1234, n=2500)
        sets = np.unique(ts.metadata["set_indices"])
        # ~30 swaps over 2500 encryptions should touch many of the 8 sets.
        assert sets.size >= 5
