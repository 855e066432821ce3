"""Streaming campaign engine: determinism, chunking, store integration."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pipeline import (
    CampaignSpec,
    CompletionTimeConsumer,
    CpaStreamConsumer,
    StreamingCampaign,
    TvlaStreamConsumer,
)
from repro.pipeline import shm as shm_transport
from repro.store import MANIFEST_NAME, ChunkedTraceStore

FIXED_PT = bytes(range(16))


def _cpa_run(workers, n=600, chunk=150, seed=9, spec=None):
    spec = spec or CampaignSpec(target="unprotected")
    engine = StreamingCampaign(spec, chunk_size=chunk, workers=workers, seed=seed)
    return engine.run(n, consumers=[CpaStreamConsumer(byte_index=0)])


class TestValidation:
    def test_bad_parameters(self):
        spec = CampaignSpec(target="unprotected")
        with pytest.raises(ConfigurationError):
            StreamingCampaign(spec, chunk_size=0)
        with pytest.raises(ConfigurationError):
            StreamingCampaign(spec, workers=0)
        with pytest.raises(ConfigurationError):
            StreamingCampaign(spec).chunk_layout(0)

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(target="laser")

    def test_bad_key_and_plaintext(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(target="unprotected", key=b"short")
        with pytest.raises(ConfigurationError):
            CampaignSpec(target="unprotected", fixed_plaintext=b"short")

    def test_chunk_layout(self):
        engine = StreamingCampaign(CampaignSpec(target="unprotected"), chunk_size=100)
        assert engine.chunk_layout(250) == [100, 100, 50]
        assert engine.chunk_layout(100) == [100]
        assert engine.chunk_layout(7) == [7]


class TestDeterminism:
    """The acceptance criterion: results are worker-count independent."""

    def test_cpa_identical_across_worker_counts(self):
        single = _cpa_run(workers=1)
        pooled = _cpa_run(workers=3)
        a = single.results["cpa[0]"]
        b = pooled.results["cpa[0]"]
        np.testing.assert_array_equal(a.peak_corr, b.peak_corr)
        assert a.best_guess == b.best_guess
        assert np.array_equal(a.ranking(), b.ranking())

    def test_rftc_identical_across_worker_counts(self):
        spec = CampaignSpec(target="rftc", m_outputs=1, p_configs=8, plan_seed=5)
        single = _cpa_run(workers=1, n=400, chunk=100, spec=spec)
        pooled = _cpa_run(workers=2, n=400, chunk=100, spec=spec)
        np.testing.assert_array_equal(
            single.results["cpa[0]"].peak_corr, pooled.results["cpa[0]"].peak_corr
        )

    def test_tvla_curve_identical_across_worker_counts(self):
        spec = CampaignSpec(target="unprotected", fixed_plaintext=FIXED_PT)
        results = []
        for workers in (1, 3):
            engine = StreamingCampaign(
                spec, chunk_size=200, workers=workers, seed=21
            )
            report = engine.run(800, consumers=[TvlaStreamConsumer()])
            results.append(report.results["tvla"])
        np.testing.assert_array_equal(results[0].t_values, results[1].t_values)
        assert results[0].n_fixed == results[1].n_fixed == 400

    def test_same_seed_same_traces_in_store(self, tmp_path, monkeypatch):
        """Same stems and file checksums, whoever writes the chunk files.

        RFTC chunks carry a ``.meta.npz`` sidecar; the store is written
        inline (1 worker), by pool workers shipping chunks through the
        shared-memory ring, and by pool workers on the pickle pipe.
        """
        spec = CampaignSpec(target="rftc", m_outputs=1, p_configs=8)
        runs = {"inline": (1, "inline"), "pooled": (2, "pickle")}
        if shm_transport.shm_available():
            runs["ring"] = (2, "shm-ring")
        for name, (workers, transport) in runs.items():
            with monkeypatch.context() as patch:
                if transport != "shm-ring":
                    patch.setattr(shm_transport, "shm_available", lambda: False)
                report = StreamingCampaign(
                    spec, chunk_size=100, workers=workers, seed=4
                ).run(300, store=tmp_path / name)
            assert report.transport == transport
        files = {}
        for name in runs:
            manifest = json.loads((tmp_path / name / MANIFEST_NAME).read_text())
            files[name] = [(c["stem"], c["files"]) for c in manifest["chunks"]]
        assert any(
            file.endswith(".meta.npz") for file in files["inline"][0][1]
        )
        for name in runs:
            assert files[name] == files["inline"], name
        a = ChunkedTraceStore.open(tmp_path / "inline").load_all()
        b = ChunkedTraceStore.open(tmp_path / "pooled").load_all()
        np.testing.assert_array_equal(a.traces, b.traces)
        np.testing.assert_array_equal(a.plaintexts, b.plaintexts)

    def test_different_seed_differs(self):
        a = _cpa_run(workers=1, seed=1).results["cpa[0]"]
        b = _cpa_run(workers=1, seed=2).results["cpa[0]"]
        assert not np.array_equal(a.peak_corr, b.peak_corr)


class TestStreamingVsBatch:
    """Streaming consumers agree with batch engines on identical data."""

    def test_store_replay_matches_live_consumer(self, tmp_path):
        from repro.attacks import IncrementalCpa

        spec = CampaignSpec(target="unprotected")
        engine = StreamingCampaign(spec, chunk_size=128, workers=1, seed=13)
        report = engine.run(
            512,
            consumers=[CpaStreamConsumer(byte_index=0)],
            store=tmp_path / "s",
        )
        replay = IncrementalCpa(byte_index=0)
        for chunk in ChunkedTraceStore.open(tmp_path / "s").iter_chunks(mmap=True):
            replay.update(chunk.traces, chunk.ciphertexts)
        np.testing.assert_array_equal(
            replay.result().peak_corr, report.results["cpa[0]"].peak_corr
        )

    def test_streaming_cpa_matches_batch_engine(self, tmp_path):
        from repro.attacks import cpa_byte

        spec = CampaignSpec(target="unprotected")
        engine = StreamingCampaign(spec, chunk_size=100, workers=2, seed=13)
        report = engine.run(
            500, consumers=[CpaStreamConsumer(byte_index=0)], store=tmp_path / "s"
        )
        full = ChunkedTraceStore.open(tmp_path / "s").load_all()
        batch = cpa_byte(full.traces, full.ciphertexts, byte_index=0)
        stream = report.results["cpa[0]"]
        np.testing.assert_allclose(stream.peak_corr, batch.peak_corr, atol=1e-10)
        assert stream.best_guess == batch.best_guess

    def test_streaming_tvla_matches_batch_welch(self, tmp_path):
        from repro.leakage_assessment import tvla_fixed_vs_random

        spec = CampaignSpec(target="unprotected", fixed_plaintext=FIXED_PT)
        engine = StreamingCampaign(spec, chunk_size=200, workers=2, seed=17)
        report = engine.run(
            800, consumers=[TvlaStreamConsumer()], store=tmp_path / "s"
        )
        chunks = list(ChunkedTraceStore.open(tmp_path / "s").iter_chunks())
        fixed = np.concatenate([c.traces[0::2] for c in chunks])
        rnd = np.concatenate([c.traces[1::2] for c in chunks])
        batch = tvla_fixed_vs_random(fixed, rnd)
        np.testing.assert_allclose(
            report.results["tvla"].t_values, batch.t_values, atol=1e-8
        )


class TestPipelineRun:
    def test_report_accounting(self, tmp_path):
        spec = CampaignSpec(target="unprotected")
        engine = StreamingCampaign(spec, chunk_size=100, workers=1, seed=1)
        report = engine.run(250, store=tmp_path / "s")
        assert report.n_traces == 250
        assert report.n_chunks == 3
        assert report.wall_seconds > 0
        assert report.acquire_seconds > 0
        assert report.traces_per_second > 0
        assert "250 traces" in report.summary()
        assert report.store_path == (tmp_path / "s")

    def test_progress_callback_sees_every_chunk(self):
        spec = CampaignSpec(target="unprotected")
        seen = []
        StreamingCampaign(spec, chunk_size=100, workers=1, seed=1).run(
            300, progress=seen.append
        )
        assert [p.chunk_index for p in seen] == [0, 1, 2]
        assert seen[-1].done_traces == seen[-1].total_traces == 300

    def test_fixed_rows_interleaved(self, tmp_path):
        spec = CampaignSpec(target="unprotected", fixed_plaintext=FIXED_PT)
        StreamingCampaign(spec, chunk_size=50, workers=1, seed=2).run(
            100, store=tmp_path / "s"
        )
        chunk = ChunkedTraceStore.open(tmp_path / "s").chunk(0)
        assert chunk.metadata["tvla_interleaved"]
        fixed = np.frombuffer(FIXED_PT, dtype=np.uint8)
        assert (chunk.plaintexts[0::2] == fixed).all()
        assert not (chunk.plaintexts[1::2] == fixed).all(axis=1).any()

    def test_appends_to_open_store(self, tmp_path, key):
        spec = CampaignSpec(target="unprotected", key=key)
        for workers in (1, 2):
            store = ChunkedTraceStore.create(
                tmp_path / f"w{workers}", key=key, sample_period_ns=4.0
            )
            StreamingCampaign(spec, chunk_size=50, workers=1, seed=2).run(
                50, store=store
            )
            # A run on a store that already holds a chunk writes its
            # files from the store's next index on.
            StreamingCampaign(spec, chunk_size=50, workers=workers, seed=2).run(
                100, store=store
            )
            assert store.n_chunks == 3 and store.n_traces == 150
            outcome = ChunkedTraceStore.open(
                store.path, quarantine=False
            ).verify()
            assert outcome.ok and outcome.orphaned == []
            np.testing.assert_array_equal(
                store.chunk(1).traces, store.chunk(0).traces
            )

    def test_baseline_target_runs(self):
        spec = CampaignSpec(target="clock-rand")
        report = StreamingCampaign(spec, chunk_size=100, workers=1, seed=3).run(
            200, consumers=[CompletionTimeConsumer()]
        )
        assert report.results["completion"].n_encryptions == 200
