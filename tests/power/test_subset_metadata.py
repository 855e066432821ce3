"""TraceSet.subset must slice per-trace metadata, not copy it whole."""

import numpy as np

from repro.pipeline import CampaignSpec
from repro.power.acquisition import AcquisitionCampaign, TraceSet


def _traceset(n=8, s=16):
    rng = np.random.default_rng(5)
    return TraceSet(
        traces=rng.normal(size=(n, s)),
        plaintexts=rng.integers(0, 256, size=(n, 16), dtype=np.uint8),
        ciphertexts=rng.integers(0, 256, size=(n, 16), dtype=np.uint8),
        key=bytes(16),
        completion_times_ns=rng.uniform(400, 800, size=n),
        sample_period_ns=4.0,
        metadata={
            "set_indices": np.arange(n),
            "round_choices": np.arange(n * 10).reshape(n, 10),
            "countermeasure": "rftc",
            "taps": np.array([1.0, 2.0, 3.0]),  # not per-trace: leading dim != n
            "stage_seconds": {"synth": 0.5},
        },
    )


class TestSubsetMetadata:
    def test_per_trace_arrays_are_sliced(self):
        ts = _traceset()
        idx = np.array([1, 3, 6])
        sub = ts.subset(idx)
        np.testing.assert_array_equal(sub.metadata["set_indices"], idx)
        np.testing.assert_array_equal(
            sub.metadata["round_choices"], ts.metadata["round_choices"][idx]
        )

    def test_non_per_trace_entries_carried_over(self):
        ts = _traceset()
        sub = ts.subset(np.array([0, 2]))
        assert sub.metadata["countermeasure"] == "rftc"
        np.testing.assert_array_equal(sub.metadata["taps"], [1.0, 2.0, 3.0])
        assert sub.metadata["stage_seconds"] == {"synth": 0.5}

    def test_boolean_mask_indices(self):
        ts = _traceset()
        mask = np.zeros(ts.n_traces, dtype=bool)
        mask[[2, 5]] = True
        sub = ts.subset(mask)
        np.testing.assert_array_equal(sub.metadata["set_indices"], [2, 5])

    def test_fixed_vs_random_groups_keep_aligned_metadata(self):
        # The bug this guards against: collect_fixed_vs_random splits one
        # combined run via subset(), and the RFTC controller's per-trace
        # metadata (set indices, stall times) must follow the split.
        spec = CampaignSpec(target="rftc", m_outputs=2, p_configs=8, plan_seed=3)
        campaign = AcquisitionCampaign(
            spec.build_device(np.random.default_rng(4)), seed=4
        )
        fixed, rand = campaign.collect_fixed_vs_random(30, bytes(16))
        assert fixed.metadata["set_indices"].shape == (30,)
        assert rand.metadata["set_indices"].shape == (30,)
        combined_again = np.empty(60, dtype=fixed.metadata["set_indices"].dtype)
        combined_again[0::2] = fixed.metadata["set_indices"]
        combined_again[1::2] = rand.metadata["set_indices"]
        # Rebuild the combined campaign to check the interleaving is real.
        device2 = spec.build_device(np.random.default_rng(4))
        campaign2 = AcquisitionCampaign(device2, seed=4)
        pts = campaign2.random_plaintexts(60)
        pts[0::2] = 0
        combined = device2.run(pts, campaign2._rng)
        np.testing.assert_array_equal(
            combined_again, combined.metadata["set_indices"]
        )
