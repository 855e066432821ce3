"""MMCM behavioural model: constraints, synthesis, lock timing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, FrequencyRangeError, LockError
from repro.hw.mmcm import (
    KINTEX7_SPEC,
    Mmcm,
    MmcmConfig,
    MmcmTimingSpec,
    OutputDivider,
    achievable_frequencies_mhz,
    lock_time_cycles,
    lock_time_seconds,
    synthesize_config,
)


def _config(mult=40.0, divclk=1, divides=(20.0,), f_in=24.0):
    return MmcmConfig(
        f_in_mhz=f_in,
        mult=mult,
        divclk=divclk,
        outputs=tuple(OutputDivider(divide=d) for d in divides),
    )


class TestConfigValidation:
    def test_valid_config(self):
        cfg = _config()
        assert cfg.f_vco_mhz == pytest.approx(960.0)
        assert cfg.output_freq_mhz(0) == pytest.approx(48.0)

    def test_vco_too_low(self):
        with pytest.raises(FrequencyRangeError):
            _config(mult=20.0)  # 480 MHz VCO < 600

    def test_vco_too_high(self):
        with pytest.raises(FrequencyRangeError):
            _config(mult=55.0)  # 1320 MHz VCO > 1200

    def test_mult_step(self):
        with pytest.raises(ConfigurationError):
            _config(mult=40.06)

    def test_mult_fractional_ok(self):
        _config(mult=40.125)

    def test_divclk_bounds(self):
        with pytest.raises(ConfigurationError):
            _config(divclk=0)

    def test_clkout0_fractional_allowed(self):
        cfg = _config(divides=(20.125,))
        assert cfg.output_freq_mhz(0) == pytest.approx(960.0 / 20.125)

    def test_clkout1_must_be_integer(self):
        with pytest.raises(ConfigurationError):
            _config(divides=(20.0, 21.5))

    def test_too_many_outputs(self):
        with pytest.raises(ConfigurationError):
            _config(divides=(10.0,) * 8)

    def test_input_frequency_range(self):
        with pytest.raises(FrequencyRangeError):
            _config(f_in=5.0)

    def test_pfd_range(self):
        # 24 MHz / 3 = 8 MHz PFD < 10 MHz minimum.
        with pytest.raises(FrequencyRangeError):
            _config(mult=40.0, divclk=3)

    def test_disabled_output_query(self):
        cfg = MmcmConfig(
            f_in_mhz=24.0,
            mult=40.0,
            divclk=1,
            outputs=(OutputDivider(20.0), OutputDivider(24.0, enabled=False)),
        )
        with pytest.raises(ConfigurationError):
            cfg.output_freq_mhz(1)

    def test_output_freqs_skips_disabled(self):
        cfg = MmcmConfig(
            f_in_mhz=24.0,
            mult=40.0,
            divclk=1,
            outputs=(OutputDivider(20.0), OutputDivider(24.0, enabled=False)),
        )
        assert len(cfg.output_freqs_mhz()) == 1


class TestLockTiming:
    def test_lock_cycles_monotone_decreasing(self):
        assert lock_time_cycles(2) >= lock_time_cycles(20) >= lock_time_cycles(64)

    def test_lock_cycles_bounds(self):
        for mult in (2, 10, 40, 64):
            assert 250 <= lock_time_cycles(mult) <= 1000

    def test_lock_time_seconds_scales_with_pfd(self):
        # Same multiplier, halved PFD (divclk 2 needs mult 50+ to keep the
        # VCO legal at a 12 MHz PFD) -> double the wall-clock lock time.
        fast = lock_time_seconds(_config(mult=50.0))
        slow = lock_time_seconds(_config(mult=50.0, divclk=2))
        assert slow == pytest.approx(2 * fast)

    def test_bad_mult(self):
        with pytest.raises(ConfigurationError):
            lock_time_cycles(0)


class TestMmcmRuntime:
    def test_locked_at_start(self):
        m = Mmcm(_config())
        assert m.locked_at_s == 0.0
        assert m.output_period_ns(0, 0.0) == pytest.approx(1000.0 / 48.0)

    def test_reconfiguration_unlocks(self):
        m = Mmcm(_config())
        locked_at = m.apply_reconfiguration(_config(mult=44.0), 1e-3, 5e-6)
        assert locked_at > 1e-3
        with pytest.raises(LockError):
            m.output_period_ns(0, 1e-3 + 1e-6)
        assert m.output_period_ns(0, locked_at) > 0.0
        assert m.reconfig_count == 1

    def test_negative_times_rejected(self):
        m = Mmcm(_config())
        with pytest.raises(ConfigurationError):
            m.apply_reconfiguration(_config(), -1.0, 0.0)


class TestSynthesis:
    def test_exact_target(self):
        cfg = synthesize_config(24.0, [48.0])
        assert cfg.output_freq_mhz(0) == pytest.approx(48.0, rel=1e-6)

    def test_three_targets_near(self):
        targets = [12.012, 40.24, 30.744]
        cfg = synthesize_config(24.0, targets)
        for got, want in zip(cfg.output_freqs_mhz(), targets):
            assert got == pytest.approx(want, rel=0.02)

    def test_integer_only_output1(self):
        cfg = synthesize_config(24.0, [48.0, 31.0])
        assert cfg.outputs[1].divide == round(cfg.outputs[1].divide)

    def test_out_of_range_target(self):
        with pytest.raises(FrequencyRangeError):
            synthesize_config(24.0, [2000.0])

    def test_too_many_targets(self):
        with pytest.raises(ConfigurationError):
            synthesize_config(24.0, [20.0] * 8)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=10.0, max_value=300.0))
    def test_single_target_accuracy(self, target):
        cfg = synthesize_config(100.0, [target])
        # Fractional CLKOUT0 should land within 1% anywhere in range.
        assert cfg.output_freq_mhz(0) == pytest.approx(target, rel=0.01)


class TestAchievableFrequencies:
    def test_window_respected(self):
        freqs = achievable_frequencies_mhz(24.0, 12.0, 48.0)
        assert freqs.min() >= 12.0
        assert freqs.max() <= 48.0

    def test_dense_menu(self):
        freqs = achievable_frequencies_mhz(24.0, 12.0, 48.0)
        # The fractional lattice provides tens of thousands of choices —
        # far beyond the paper's 3,072.
        assert freqs.size > 10_000

    def test_integer_only_much_smaller(self):
        frac = achievable_frequencies_mhz(24.0, 12.0, 48.0, fractional=True)
        integer = achievable_frequencies_mhz(24.0, 12.0, 48.0, fractional=False)
        assert integer.size < frac.size

    def test_sorted_unique(self):
        freqs = achievable_frequencies_mhz(24.0, 12.0, 48.0)
        assert (np.diff(freqs) > 0).all()

    def test_bad_window(self):
        with pytest.raises(ConfigurationError):
            achievable_frequencies_mhz(24.0, 48.0, 12.0)
