"""Security-parameter measurement plumbing (full scale runs in benchmarks)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.security_parameter import (
    SecurityParameterRow,
    _streamed_disclosure,
    measure_security_parameters,
)
from repro.pipeline import CampaignSpec


def _unprotected():
    return CampaignSpec(target="unprotected").build_device(np.random.default_rng(0))


class TestRow:
    def test_parameter_from_disclosure(self):
        row = SecurityParameterRow(
            name="x",
            disclosure_traces=4000,
            unprotected_traces=2000,
            budget=10000,
            best_attack="cpa",
        )
        assert row.parameter == 2.0
        assert not row.is_lower_bound
        assert row.render() == "2"

    def test_lower_bound_uses_budget(self):
        row = SecurityParameterRow(
            name="x",
            disclosure_traces=None,
            unprotected_traces=2000,
            budget=10000,
            best_attack="none",
        )
        assert row.parameter == 5.0
        assert row.is_lower_bound
        assert row.render() == ">=5"


class TestStreamedDisclosure:
    def test_unprotected_falls_quickly(self):
        n = _streamed_disclosure(
            _unprotected(), seed=4, budget=6000, batch=1000
        )
        assert n is not None
        assert n <= 4000

    def test_rftc_survives_small_budget(self):
        device = CampaignSpec(
            target="rftc", m_outputs=3, p_configs=16, plan_seed=5
        ).build_device(np.random.default_rng(6))
        n = _streamed_disclosure(
            device, seed=6, budget=4000, batch=2000
        )
        assert n is None

    def test_confirmation_requires_streak(self):
        """A single rank-0 checkpoint at the very end is not a disclosure."""
        # Budget below the confirmation horizon: even if the last batch
        # ranks 0, one checkpoint cannot satisfy the two confirmations... unless
        # disclosure happened earlier and held.
        n = _streamed_disclosure(
            _unprotected(), seed=8, budget=1000, batch=1000
        )
        assert n is None


class TestMeasureValidation:
    def test_budget_floor(self):
        with pytest.raises(ConfigurationError):
            measure_security_parameters(budget=100)
