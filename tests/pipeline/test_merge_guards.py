"""Zero-sample edge cases: empty updates are exact no-ops.

Regression tests for the accumulator bugs the verification subsystem was
built to catch: a ``(0, S)`` update used to allocate (and, for
``RunningMoments`` fed an empty 1-D array, poison) accumulator state.
"""

import numpy as np
import pytest

from repro.attacks.incremental import IncrementalCpa, IncrementalCpaBank
from repro.leakage_assessment.tvla import IncrementalTvla
from repro.utils.stats import RunningMoments
from repro.verify.accumulators import states_equal


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def _cpa_data(rng, n):
    return (
        rng.normal(50.0, 5.0, size=(n, 8)),
        rng.integers(0, 256, size=(n, 16), dtype=np.uint8),
    )


class TestZeroSampleUpdates:
    def test_cpa_zero_update_is_noop(self, rng):
        traces, data = _cpa_data(rng, 40)
        acc = IncrementalCpa(byte_index=0)
        acc.update(traces, data)
        before = acc.snapshot()
        acc.update(np.empty((0, 8)), np.empty((0, 16), dtype=np.uint8))
        assert states_equal(acc.snapshot(), before)

    def test_cpa_zero_update_on_fresh_allocates_nothing(self):
        acc = IncrementalCpa(byte_index=0)
        acc.update(np.empty((0, 8)), np.empty((0, 16), dtype=np.uint8))
        assert acc.n_traces == 0
        assert acc._sum_t is None

    def test_bank_zero_update_is_noop(self, rng):
        traces, data = _cpa_data(rng, 40)
        acc = IncrementalCpaBank(byte_indices=(0, 5))
        acc.update(traces, data)
        before = acc.snapshot()
        acc.update(np.empty((0, 8)), np.empty((0, 16), dtype=np.uint8))
        assert states_equal(acc.snapshot(), before)

    def test_running_moments_zero_2d_update_is_noop(self, rng):
        acc = RunningMoments()
        acc.update(rng.normal(size=(10, 4)))
        before = acc.snapshot()
        acc.update(np.empty((0, 4)))
        assert states_equal(acc.snapshot(), before)

    def test_running_moments_empty_1d_update_does_not_poison(self):
        """`np.array([])` used to pin the width to 0 via atleast_2d."""
        acc = RunningMoments()
        acc.update(np.array([]))
        assert acc.count == 0
        acc.update(np.ones((3, 5)))  # width 5 must still be accepted
        assert acc.count == 3
        assert acc.mean.shape == (5,)

    def test_tvla_zero_updates_are_noops(self, rng):
        acc = IncrementalTvla()
        acc.update_fixed(rng.normal(size=(10, 4)))
        acc.update_random(rng.normal(size=(10, 4)))
        before = acc.snapshot()
        acc.update_fixed(np.empty((0, 4)))
        acc.update_random(np.array([]))
        assert states_equal(acc.snapshot(), before)
