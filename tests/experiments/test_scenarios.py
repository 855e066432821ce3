"""The devices the experiments measure: ``CampaignSpec.build_device`` and
the frequency-plan memo ``repro.rftc.cached_plan``, which
``repro.experiments.scenarios`` still re-exports."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw.mmcm import KINTEX7_SPEC
from repro.pipeline import DEFAULT_KEY, CampaignSpec, campaign_targets
from repro.power.acquisition import AcquisitionCampaign
from repro.power.synth import TraceSynthesizer
from repro.rftc import cached_plan
from repro.rftc.planner import _PLAN_CACHE


def _rftc(m_outputs, p_configs, plan_seed=2019):
    return CampaignSpec(
        target="rftc", m_outputs=m_outputs, p_configs=p_configs, plan_seed=plan_seed
    ).build_device(np.random.default_rng(plan_seed + 1))


class TestUnprotectedScenario:
    def test_build(self):
        device = CampaignSpec(target="unprotected").build_device(
            np.random.default_rng(0)
        )
        assert device.key == DEFAULT_KEY
        assert device.countermeasure.label == "unprotected@48MHz"


class TestRftcScenario:
    def test_build_small(self):
        device = _rftc(2, 8, plan_seed=41)
        assert device.countermeasure.params.label() == "RFTC(2, 8)"
        assert device.countermeasure.params.m_outputs == 2
        assert device.countermeasure.plan.n_sets == 8

    def test_plan_cache_reused(self):
        a = cached_plan(2, 8, seed=41)
        b = cached_plan(2, 8, seed=41)
        assert a is b

    def test_different_seeds_different_plans(self):
        a = cached_plan(2, 8, seed=41)
        b = cached_plan(2, 8, seed=42)
        assert a is not b

    def test_plan_records_the_callers_params(self):
        """The plan's params (they reach the ROM header and JSON export)
        are the build's: N = 2 MMCMs on the Kintex-7 spec."""
        controller = _rftc(2, 8).countermeasure
        assert controller.plan.params == controller.params
        assert controller.plan.params.n_mmcms == 2
        assert controller.plan.params.spec is KINTEX7_SPEC

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
        ts = AcquisitionCampaign(_rftc(2, 8, plan_seed=41), seed=0).collect(20)
        assert ts.traces.shape == (20, 256)

    def test_former_import_path_plans_through_the_same_memo(self):
        """The benchmark harness calls ``cached_plan(m, p, seed, True)``
        positionally through ``repro.experiments.scenarios``."""
        from repro.experiments import scenarios

        assert scenarios.cached_plan(2, 8, 41, True) is cached_plan(2, 8, seed=41)


class TestBaselineScenario:
    @pytest.mark.parametrize("name", campaign_targets())
    def test_all_buildable(self, name):
        device = CampaignSpec(target=name).build_device(np.random.default_rng(0))
        assert device.countermeasure.schedule(5).n_encryptions == 5
        ts = AcquisitionCampaign(device, seed=0).collect(4)
        assert ts.traces.shape == (4, 256)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(target="nope")

    def test_rcdd_needs_wider_window(self):
        """RCDD's dummy cycles push past the default 256-sample window;
        replacing the built device's synthesizer accommodates it."""
        device = CampaignSpec(target="rcdd").build_device(np.random.default_rng(0))
        device.synthesizer = TraceSynthesizer(n_samples=320)
        ts = AcquisitionCampaign(device, seed=0).collect(10)
        assert ts.n_samples == 320
