"""The float32 fast path through the whole pipeline.

A ``CampaignSpec(dtype="float32")`` must propagate the dtype from
synthesis through the store to the consumers, consume the same RNG
stream as its float64 twin, stay worker-count independent and
crash/resume bit-identical, and land within the committed drift budget
of the float64 result.
"""

import numpy as np
import pytest

from repro.errors import InjectedCrashError
from repro.pipeline import (
    CampaignSpec,
    CpaBankConsumer,
    StreamingCampaign,
    spec_from_dict,
    spec_to_dict,
)
from repro.store import ChunkedTraceStore
from repro.testing.faults import FaultPlan

TRACES = 1200
CHUNK = 300


def _spec(dtype="float32"):
    return CampaignSpec(target="unprotected", noise_std=2.0, dtype=dtype)


def _run(spec, workers=1, seed=21, store=None, checkpoint=None, faults=None):
    engine = StreamingCampaign(
        spec, chunk_size=CHUNK, workers=workers, seed=seed, faults=faults
    )
    return engine.run(
        TRACES,
        consumers=[CpaBankConsumer()],
        store=store,
        checkpoint=checkpoint,
    )


def test_float32_spec_yields_float32_store_chunks(tmp_path):
    _run(_spec(), store=tmp_path / "store")
    store = ChunkedTraceStore.open(tmp_path / "store")
    assert store.dtype == "float32"
    assert store.chunk(0).traces.dtype == np.float32
    assert all(name.endswith(".npy") for name in store.expected_files(0))


def test_float32_results_worker_count_independent():
    solo = _run(_spec(), workers=1)
    pooled = _run(_spec(), workers=2)
    for a, b in zip(
        solo.results["cpa_bank"].byte_results,
        pooled.results["cpa_bank"].byte_results,
    ):
        np.testing.assert_array_equal(a.peak_corr, b.peak_corr)


def test_float32_crash_resume_bit_identical(tmp_path):
    clean = _run(_spec())
    ckpt = tmp_path / "resume.npz"
    with pytest.raises(InjectedCrashError):
        _run(_spec(), store=tmp_path / "s", checkpoint=ckpt,
             faults=FaultPlan(crash_after=1))
    resumed = StreamingCampaign.resume(
        tmp_path / "s", ckpt, consumers=[CpaBankConsumer()]
    )
    for a, b in zip(
        clean.results["cpa_bank"].byte_results,
        resumed.results["cpa_bank"].byte_results,
    ):
        np.testing.assert_array_equal(a.peak_corr, b.peak_corr)


def test_float32_tracks_float64_within_budget():
    f32 = _run(_spec())
    f64 = _run(_spec(dtype="float64"))
    for a, b in zip(
        f32.results["cpa_bank"].byte_results,
        f64.results["cpa_bank"].byte_results,
    ):
        # The end-to-end gap compounds synthesis, capture and fold
        # rounding; it stays far below any decision margin.
        np.testing.assert_allclose(a.peak_corr, b.peak_corr, atol=5e-3)
        assert a.best_guess == b.best_guess


def test_old_spec_dicts_default_to_float64_uncompressed():
    # Checkpoints written before dtype existed must resume.
    fields = {
        "target": "unprotected", "m_outputs": 2, "p_configs": 16,
        "key": "2b7e151628aed2a6abf7158809cf4f3c", "noise_std": 2.0,
        "plan_seed": 2019, "fixed_plaintext": None,
    }
    spec = spec_from_dict(fields)
    assert spec.dtype == "float64"
    assert spec_to_dict(spec)["compression"] == "none"
