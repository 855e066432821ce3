"""Scenario builders."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.scenarios import (
    _PLAN_CACHE,
    DEFAULT_KEY,
    baseline_names,
    build_baseline,
    build_rftc,
    build_unprotected,
    cached_plan,
)
from repro.hw.mmcm import INTEL_IOPLL_SPEC, KINTEX7_SPEC
from repro.pipeline import CampaignSpec
from repro.rftc import RFTCParams


class TestUnprotectedScenario:
    def test_build(self):
        scenario = build_unprotected()
        assert scenario.device.key == DEFAULT_KEY
        assert "unprotected" in scenario.name

    def test_custom_frequency(self):
        scenario = build_unprotected(freq_mhz=24.0)
        assert "24" in scenario.name


class TestRftcScenario:
    def test_build_small(self):
        scenario = build_rftc(2, 8, seed=41)
        assert scenario.name == "RFTC(2, 8)"
        assert scenario.rftc_params.m_outputs == 2
        assert scenario.plan.n_sets == 8

    def test_plan_cache_reused(self):
        a = cached_plan(2, 8, seed=41)
        b = cached_plan(2, 8, seed=41)
        assert a is b

    def test_different_seeds_different_plans(self):
        a = cached_plan(2, 8, seed=41)
        b = cached_plan(2, 8, seed=42)
        assert a is not b

    def test_plan_records_the_callers_params(self):
        """Builds differing only in N must not share a plan (its params
        reach the ROM header and JSON export)."""
        two = build_rftc(2, 8, n_mmcms=2)
        one = build_rftc(2, 8, n_mmcms=1)
        assert two.plan.params.n_mmcms == 2
        assert one.plan.params.n_mmcms == 1
        assert one.plan.params == one.rftc_params
        assert np.array_equal(one.plan.sets_mhz, two.plan.sets_mhz)

    def test_plan_cache_keys_on_the_spec(self):
        intel = RFTCParams(m_outputs=2, p_configs=8, spec=INTEL_IOPLL_SPEC)
        kintex = RFTCParams(m_outputs=2, p_configs=8)
        assert intel == kintex  # spec is outside the dataclass's equality
        a = cached_plan(2, 8, seed=41, params=intel)
        b = cached_plan(2, 8, seed=41, params=kintex)
        assert a.params.spec is INTEL_IOPLL_SPEC
        assert b.params.spec is KINTEX7_SPEC
        assert a is not b

    def test_spec_warms_the_plan_its_devices_use(self):
        """A campaign plans once per process: the parent's warm-up and
        every chunk's device build hit the same cache entry."""
        spec = CampaignSpec(target="rftc", m_outputs=2, p_configs=8, plan_seed=43)
        spec.warm_caches()
        cached = len(_PLAN_CACHE)
        device = spec.build_device(np.random.default_rng(0))
        assert len(_PLAN_CACHE) == cached
        assert device.countermeasure.plan is cached_plan(2, 8, seed=43)

    def test_device_measures(self):
        from repro.power.acquisition import AcquisitionCampaign

        scenario = build_rftc(2, 8, seed=41)
        ts = AcquisitionCampaign(scenario.device, seed=0).collect(20)
        assert ts.traces.shape == (20, 256)


class TestBaselineScenario:
    @pytest.mark.parametrize("name", baseline_names())
    def test_all_buildable(self, name):
        scenario = build_baseline(name)
        sched = scenario.countermeasure.schedule(5)
        assert sched.n_encryptions == 5

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            build_baseline("nope")

    def test_rcdd_needs_wider_window(self):
        """RCDD's dummy cycles push past the default 256-sample window; the
        builder's n_samples knob accommodates it."""
        from repro.power.acquisition import AcquisitionCampaign

        scenario = build_baseline("rcdd", n_samples=320)
        ts = AcquisitionCampaign(scenario.device, seed=0).collect(10)
        assert ts.n_samples == 320
