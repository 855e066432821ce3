"""Shared fixtures: deterministic keys, RNGs, and cached expensive builds."""

import tracemalloc

import numpy as np
import pytest

from repro.pipeline import DEFAULT_KEY, CampaignSpec
from repro.power.acquisition import AcquisitionCampaign
from repro.rftc import RFTCParams
from repro.rftc.planner import plan_overlap_free


@pytest.fixture
def key() -> bytes:
    return DEFAULT_KEY


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def traced_peak():
    """``measure(fn)`` -> ``(fn(), peak bytes fn allocated at once)``.

    numpy reports its array buffers to ``tracemalloc``, so the peak
    counts every transient array, the returned one included.
    """

    def measure(fn):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = fn()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        return out, peak

    return measure


@pytest.fixture(scope="session")
def small_plan():
    """Overlap-free plan for RFTC(2, 8) — fast, reused across tests."""
    params = RFTCParams(m_outputs=2, p_configs=8)
    return plan_overlap_free(params, rng=np.random.default_rng(99))


@pytest.fixture(scope="session")
def small_plan_params():
    return RFTCParams(m_outputs=2, p_configs=8)


@pytest.fixture(scope="session")
def unprotected_traceset():
    """2,500-trace unprotected campaign — enough for CPA to succeed."""
    device = CampaignSpec(target="unprotected").build_device(np.random.default_rng(1))
    return AcquisitionCampaign(device, seed=1).collect(2500)


@pytest.fixture(scope="session")
def rftc_traceset():
    """A small RFTC(2, 8) campaign for attack/TVLA plumbing tests."""
    device = CampaignSpec(
        target="rftc", m_outputs=2, p_configs=8, plan_seed=5
    ).build_device(np.random.default_rng(6))
    return AcquisitionCampaign(device, seed=2).collect(1200)
