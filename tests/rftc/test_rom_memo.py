"""The design-time configuration ROM is built once per process.

``encode_config`` memoizes each configuration's DRP burst and
``FrequencyPlan.to_mmcm_configs`` memoizes the plan's configurations, so
device builds and runtime DRP swaps stop re-encoding.  The memo must be
invisible: a memoized burst equals a fresh encode and cannot be mutated
through a returned list, devices built cold (empty memos) and warm give
identical schedules and traces, and controllers that share a plan keep
their runtime state apart.
"""

import dataclasses

import numpy as np
import pytest

from repro.hw.block_ram import BlockRam
from repro.hw.drp import DrpTransaction, _encode_burst, encode_config
from repro.hw.mmcm import MmcmConfig, OutputDivider
from repro.pipeline import CampaignSpec
from repro.rftc import RFTCController, RFTCParams, planner

SIZES = [(1, 16), (2, 8), (3, 256)]


def _fresh_encode(config):
    return list(_encode_burst.__wrapped__(config))


def _spec(m, p):
    return CampaignSpec(target="rftc", m_outputs=m, p_configs=p, plan_seed=2019)


def _plan(m, p):
    return planner.cached_plan(m, p, 2019, True)


class TestEncodeMemo:
    def test_memoized_bursts_equal_a_fresh_encode(self):
        configs = _plan(2, 8).to_mmcm_configs()
        configs.append(
            MmcmConfig(
                f_in_mhz=24.0, mult=40.0, divclk=1,
                outputs=(
                    OutputDivider(divide=20.5),
                    OutputDivider(divide=25.0, phase_degrees=45.0 / 25.0 * 3),
                    OutputDivider(divide=30.0, enabled=False),
                ),
            )
        )
        for config in configs:
            assert encode_config(config) == _fresh_encode(config)
            assert encode_config(config) == _fresh_encode(config)  # memo hit

    def test_mutating_a_returned_burst_does_not_reach_the_cache(self):
        config = _plan(2, 8).to_mmcm_configs()[0]
        expected = _fresh_encode(config)
        burst = encode_config(config)
        burst[0] = DrpTransaction(0x00, 0x1234)
        burst.append(DrpTransaction(0x01, 0x5678))
        del burst[1:3]
        assert encode_config(config) == expected

        rom = BlockRam([config])
        read = rom.read_burst(0)
        read.clear()
        assert rom.read_burst(0) == expected
        assert encode_config(config) == expected

    def test_plan_configs_are_private_copies(self):
        plan = _plan(2, 8)
        first = plan.to_mmcm_configs()
        first.clear()
        second = plan.to_mmcm_configs()
        assert len(second) == plan.n_sets
        assert second == plan._convert(plan.params.spec)
        assert plan.to_mmcm_configs() is not second


def _cold_device(m, p, seed, monkeypatch):
    """A device built with both memos empty, as before the ROM memo."""
    _encode_burst.cache_clear()
    plan = _plan(m, p)
    monkeypatch.setitem(
        planner._PLAN_CACHE,
        planner._plan_key(plan.params, 2019, True),
        dataclasses.replace(plan),
    )
    return _spec(m, p).build_device(np.random.default_rng(seed))


@pytest.mark.parametrize("m, p", SIZES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cold_and_warm_devices_acquire_identically(m, p, seed, monkeypatch):
    spec = _spec(m, p)
    spec.warm_caches()
    cold = _cold_device(m, p, seed, monkeypatch)
    warm = spec.build_device(np.random.default_rng(seed))
    assert _encode_burst.cache_info().hits > 0

    plaintexts = np.random.default_rng(seed + 10).integers(
        0, 256, size=(400, 16), dtype=np.uint8
    )
    a = cold.run(plaintexts, np.random.default_rng(seed + 20))
    b = warm.run(plaintexts, np.random.default_rng(seed + 20))
    assert np.array_equal(a.traces, b.traces)
    assert np.array_equal(a.completion_times_ns, b.completion_times_ns)

    sched_a = cold.countermeasure.schedule(300)
    sched_b = warm.countermeasure.schedule(300)
    assert np.array_equal(sched_a.periods_ns, sched_b.periods_ns)
    for key in ("set_indices", "round_choices", "stall_ns"):
        assert np.array_equal(sched_a.metadata[key], sched_b.metadata[key])


def test_controllers_sharing_a_plan_keep_their_own_state():
    plan = _plan(2, 8)
    params = RFTCParams(m_outputs=2, p_configs=8)
    busy = RFTCController(params, plan, rng=np.random.default_rng(1))
    idle = RFTCController(params, plan, rng=np.random.default_rng(2))
    idle_configs = [mmcm.config for mmcm in idle.mmcms]

    busy.schedule(2000)
    busy.block_ram.read_burst(3)

    assert busy.block_ram.read_count > 1
    assert idle.block_ram.read_count == 0
    assert busy.block_ram is not idle.block_ram
    assert all(mmcm.reconfig_count > 0 for mmcm in busy.mmcms)
    assert all(mmcm.reconfig_count == 0 for mmcm in idle.mmcms)
    assert [mmcm.config for mmcm in idle.mmcms] == idle_configs
    assert all(drp.interface.write_count == 0 for drp in idle.drp_controllers)
