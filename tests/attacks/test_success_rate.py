"""Success-rate machinery against the shared campaign fixtures."""

import numpy as np
import pytest

from repro.attacks.success_rate import (
    success_rate_curve,
    traces_to_disclosure,
    wilson_interval,
)
from repro.errors import AttackError, ConfigurationError


class TestCurveOnUnprotected:
    def test_sr_reaches_one(self, unprotected_traceset):
        curve = success_rate_curve(
            unprotected_traceset,
            trace_counts=(2500,),
            n_repeats=3,
            byte_indices=(0,),
            rng=np.random.default_rng(0),
        )
        assert curve.success_rates[-1] == 1.0

    def test_sr_grows_with_traces(self, unprotected_traceset):
        curve = success_rate_curve(
            unprotected_traceset,
            trace_counts=(50, 2500),
            n_repeats=4,
            byte_indices=(0,),
            rng=np.random.default_rng(1),
        )
        assert curve.success_rates[-1] >= curve.success_rates[0]
        assert curve.mean_ranks[-1] <= curve.mean_ranks[0]

    def test_disclosure_threshold(self, unprotected_traceset):
        curve = success_rate_curve(
            unprotected_traceset,
            trace_counts=(50, 2500),
            n_repeats=4,
            byte_indices=(0,),
            rng=np.random.default_rng(2),
        )
        assert curve.traces_to_disclosure(0.8) == 2500
        assert traces_to_disclosure(curve, 0.8) == 2500

    def test_never_disclosed_returns_none(self, rftc_traceset):
        curve = success_rate_curve(
            rftc_traceset,
            trace_counts=(100,),
            n_repeats=3,
            byte_indices=(0,),
            rng=np.random.default_rng(3),
        )
        if curve.success_rates[0] < 0.8:
            assert curve.traces_to_disclosure(0.8) is None

    def test_preprocessor_hook_called(self, unprotected_traceset):
        calls = []

        def spy(traces):
            calls.append(traces.shape)
            return traces

        success_rate_curve(
            unprotected_traceset,
            trace_counts=(100,),
            n_repeats=2,
            byte_indices=(0,),
            preprocess=spy,
            rng=np.random.default_rng(4),
        )
        assert calls == [(100, 256), (100, 256)]


class TestSeedContract:
    """Subsampling randomness must be explicit and replayable."""

    def test_seed_is_byte_reproducible(self, unprotected_traceset):
        kwargs = dict(
            trace_counts=(100, 500),
            n_repeats=3,
            byte_indices=(0,),
            seed=42,
        )
        a = success_rate_curve(unprotected_traceset, **kwargs)
        b = success_rate_curve(unprotected_traceset, **kwargs)
        np.testing.assert_array_equal(a.success_rates, b.success_rates)
        np.testing.assert_array_equal(a.mean_ranks, b.mean_ranks)

    def test_rejects_both_rng_and_seed(self, unprotected_traceset):
        with pytest.raises(AttackError, match="exactly one"):
            success_rate_curve(
                unprotected_traceset,
                trace_counts=(100,),
                n_repeats=1,
                rng=np.random.default_rng(0),
                seed=0,
            )

    def test_rejects_neither_rng_nor_seed(self, unprotected_traceset):
        with pytest.raises(AttackError, match="exactly one"):
            success_rate_curve(
                unprotected_traceset, trace_counts=(100,), n_repeats=1
            )


class TestWilsonInterval:
    def test_edges_finite_and_clipped(self):
        """SR = 0 and SR = 1 must give finite bands inside [0, 1] — the
        Wald interval degenerates to a point there; Wilson must not."""
        ci = wilson_interval(np.array([0.0, 10.0]), 10)
        assert np.isfinite(ci).all()
        assert (ci >= 0.0).all() and (ci <= 1.0).all()
        assert ci[0, 0] == 0.0 and ci[0, 1] > 0.0  # SR=0: (0, something)
        assert ci[1, 1] == 1.0 and ci[1, 0] < 1.0  # SR=1: (something, 1)

    def test_scalar_input(self):
        ci = wilson_interval(5, 10)
        assert ci.shape == (2,)
        assert ci[0] < 0.5 < ci[1]

    def test_wider_z_wider_band(self):
        narrow = wilson_interval(5, 10, z=1.0)
        wide = wilson_interval(5, 10, z=2.58)
        assert (wide[1] - wide[0]) > (narrow[1] - narrow[0])

    def test_rejects_bad_inputs(self):
        with pytest.raises(AttackError):
            wilson_interval(np.array([1.0]), 0)
        with pytest.raises(AttackError):
            wilson_interval(np.array([-1.0]), 10)
        with pytest.raises(AttackError):
            wilson_interval(np.array([11.0]), 10)
        with pytest.raises(AttackError):
            wilson_interval(np.array([5.0]), 10, z=0.0)


class TestValidation:
    def test_subset_larger_than_campaign(self, unprotected_traceset):
        with pytest.raises(AttackError):
            success_rate_curve(
                unprotected_traceset,
                trace_counts=(10**6,),
                n_repeats=1,
            )

    def test_tiny_counts_rejected(self, unprotected_traceset):
        with pytest.raises(AttackError):
            success_rate_curve(unprotected_traceset, trace_counts=(2,), n_repeats=1)

    def test_zero_repeats_rejected(self, unprotected_traceset):
        with pytest.raises(ConfigurationError):
            success_rate_curve(
                unprotected_traceset, trace_counts=(100,), n_repeats=0, seed=0
            )

    def test_counts_sorted_and_deduped(self, unprotected_traceset):
        curve = success_rate_curve(
            unprotected_traceset,
            trace_counts=(500, 100, 500),
            n_repeats=1,
            byte_indices=(0,),
            rng=np.random.default_rng(5),
        )
        assert curve.trace_counts.tolist() == [100, 500]
