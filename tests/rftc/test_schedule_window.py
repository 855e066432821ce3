"""``RFTCController.schedule`` times a lookahead window, not the whole rest.

The windowed walk must reproduce the full-remainder walk it replaced bit
for bit: periods, set indices, stalls, the swap cadence and the RNG
state afterwards.  The reference below is that earlier loop, verbatim in
substance, run on an identically seeded twin controller.
"""

import numpy as np
import pytest

from repro.rftc.config import RFTCParams
from repro.rftc.controller import CYCLES, RFTCController
from repro.rftc.planner import plan_overlap_free


def reference_schedule(ctrl: RFTCController, n_encryptions: int):
    """The pre-window walk: times every remaining encryption per swap."""
    params = ctrl.params
    p, m = params.p_configs, params.m_outputs
    choices = ctrl._rand.integers(m, n_encryptions * CYCLES).reshape(
        n_encryptions, CYCLES
    )
    periods = np.empty((n_encryptions, CYCLES), dtype=np.float64)
    set_indices = np.empty(n_encryptions, dtype=np.int64)
    stall_ns = np.zeros(n_encryptions, dtype=np.float64)
    driver = 0
    produced = 0
    now_s = max(mmcm.locked_at_s for mmcm in ctrl.mmcms)
    single = params.n_mmcms == 1
    spare = None if single else (driver + 1) % params.n_mmcms
    if not single:
        ctrl._start_reconfig(spare, now_s)
    swap_every = max(1, int(round(ctrl.expected_encryptions_per_swap())))
    while produced < n_encryptions:
        deadline_s = np.inf if single else ctrl.drp_controllers[spare].busy_until_s
        chunk_start = produced
        set_idx = ctrl._mmcm_set_index[driver]
        row = ctrl._periods_ns[set_idx]
        remaining = n_encryptions - produced
        chunk_periods = row[choices[produced : produced + remaining]]
        end_times_s = now_s + np.cumsum(chunk_periods.sum(axis=1)) * 1e-9
        if single:
            fit = min(swap_every, remaining)
        else:
            fit = int(np.searchsorted(end_times_s, deadline_s, side="left")) + 1
            fit = min(fit, remaining)
        periods[produced : produced + fit] = chunk_periods[:fit]
        set_indices[produced : produced + fit] = set_idx
        produced += fit
        now_s = float(end_times_s[fit - 1])
        ctrl.pipeline.encryptions_per_swap.append(produced - chunk_start)
        if produced >= n_encryptions:
            break
        ctrl.pipeline.swap_count += 1
        if single:
            done = ctrl._start_reconfig(0, now_s, set_override=ctrl._rand.integer(p))
            stall_ns[produced] += (done - now_s) * 1e9
            now_s = done
        else:
            now_s = max(now_s, deadline_s)
            driver, spare = spare, driver
            ctrl._start_reconfig(spare, now_s)
    return periods, set_indices, stall_ns


_PLANS = {}


def _controller(m, p, n_mmcms, seed):
    params = RFTCParams(m_outputs=m, p_configs=p, n_mmcms=n_mmcms)
    key = (m, p)
    if key not in _PLANS:
        _PLANS[key] = plan_overlap_free(
            RFTCParams(m_outputs=m, p_configs=p), rng=np.random.default_rng(99)
        )
    return RFTCController(params, _PLANS[key], rng=np.random.default_rng(seed))


@pytest.mark.parametrize(
    "m, p, n_mmcms",
    [(1, 16, 2), (2, 8, 2), (3, 256, 2), (2, 8, 1)],
    ids=["rftc-1-16", "rftc-2-8", "rftc-3-256", "n1-rftc-2-8"],
)
@pytest.mark.parametrize("n_encryptions", [1, 82, 5000])
@pytest.mark.parametrize("tiny_window", [False, True], ids=["x", "x=1"])
def test_window_walk_equals_full_remainder_walk(
    m, p, n_mmcms, n_encryptions, tiny_window
):
    fast = _controller(m, p, n_mmcms, seed=7)
    ref = _controller(m, p, n_mmcms, seed=7)
    if tiny_window:
        # The first window is sized from x; shrunk to 2 it must double
        # several times before every swap.
        for ctrl in (fast, ref):
            ctrl.expected_encryptions_per_swap = lambda: 1.0
    # Two calls in a row: the second starts from the state the first left.
    for _ in range(2):
        schedule = fast.schedule(n_encryptions)
        periods, set_indices, stall_ns = reference_schedule(ref, n_encryptions)
        assert np.array_equal(schedule.periods_ns, periods)
        assert np.array_equal(schedule.metadata["set_indices"], set_indices)
        assert np.array_equal(schedule.metadata["stall_ns"], stall_ns)
    assert (
        fast.pipeline.encryptions_per_swap == ref.pipeline.encryptions_per_swap
    )
    assert fast.pipeline.swap_count == ref.pipeline.swap_count
    assert fast._mmcm_set_index == ref._mmcm_set_index
    # Same draws in the same order: the generators end in the same state.
    assert (
        fast._rand._np.bit_generator.state == ref._rand._np.bit_generator.state
    )
