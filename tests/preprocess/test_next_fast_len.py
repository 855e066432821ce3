"""The pure-Python FFT length rule equals scipy's ``next_fast_len``."""

import pytest
from scipy.fft import next_fast_len as scipy_next_fast_len

from repro.errors import ConfigurationError
from repro.preprocess.align import next_fast_len


def test_matches_scipy_up_to_20000():
    mismatches = [
        t for t in range(1, 20001) if next_fast_len(t) != scipy_next_fast_len(t)
    ]
    assert mismatches == []


def test_rejects_non_positive_targets():
    with pytest.raises(ConfigurationError):
        next_fast_len(0)
