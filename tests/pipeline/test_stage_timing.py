"""Pipeline stage accounting and the multi-byte streaming CPA consumer."""

import json

import numpy as np
import pytest

from repro.attacks import IncrementalCpaBank
from repro.errors import AttackError
from repro.pipeline import (
    CampaignSpec,
    CpaBankConsumer,
    CpaStreamConsumer,
    StreamingCampaign,
)
from repro.store import MANIFEST_NAME

STAGES = ("schedule", "crypto", "leakage", "synth", "capture")


class TestStageSeconds:
    def test_chunks_carry_no_timing_key(self, tmp_path):
        spec = CampaignSpec(target="unprotected")
        device = spec.build_device(np.random.default_rng(0))
        rng = np.random.default_rng(1)
        pts = rng.integers(0, 256, size=(50, 16), dtype=np.uint8)
        chunk = device.run(pts, rng)
        assert not [key for key in chunk.metadata if "seconds" in key]
        StreamingCampaign(spec, chunk_size=100, seed=3).run(
            200, store=tmp_path / "store"
        )
        manifest = json.loads((tmp_path / "store" / MANIFEST_NAME).read_text())
        for entry in manifest["chunks"]:
            assert not [key for key in entry["metadata"] if "seconds" in key]

    def test_report_aggregates_stages(self):
        spec = CampaignSpec(target="unprotected")
        engine = StreamingCampaign(spec, chunk_size=100, seed=3)
        report = engine.run(300)
        assert set(report.stage_seconds) == set(STAGES)
        assert all(v >= 0.0 for v in report.stage_seconds.values())
        assert "stages" in report.summary()
        # The stage spans nest inside the acquire_chunk spans.
        assert sum(report.stage_seconds.values()) <= report.acquire_seconds


class TestCpaBankConsumer:
    def test_matches_per_byte_stream_consumers(self):
        spec = CampaignSpec(target="unprotected")

        def run(consumers):
            engine = StreamingCampaign(spec, chunk_size=200, seed=7)
            return engine.run(600, consumers=consumers)

        bank_report = run([CpaBankConsumer()])
        single_report = run(
            [CpaStreamConsumer(byte_index=b) for b in (0, 4, 8)]
        )
        bank_result = bank_report.results["cpa_bank"]
        for b in (0, 4, 8):
            single = single_report.results[f"cpa[{b}]"]
            np.testing.assert_allclose(
                bank_result.byte_results[b].peak_corr,
                single.peak_corr,
                atol=1e-10,
                rtol=0.0,
            )
            assert bank_result.byte_results[b].best_guess == single.best_guess

    def test_default_attacks_all_sixteen_bytes(self):
        consumer = CpaBankConsumer()
        assert consumer.byte_indices == tuple(range(16))
        assert consumer.name == "cpa_bank"
        assert consumer.n_traces == 0
        with pytest.raises(AttackError):
            consumer.result()

    def test_bank_property_access(self):
        consumer = CpaBankConsumer(engine="reference")
        assert isinstance(consumer._bank, IncrementalCpaBank)
        assert consumer._bank.engine == "reference"
