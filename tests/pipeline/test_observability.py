"""Observability must never perturb the science.

The acceptance criterion of the obs layer, as tests: a campaign run with
metrics + tracing + checkpointing enabled produces **bit-identical**
consumer results and store bytes to an uninstrumented run, at any worker
count — while the collected metrics and spans actually cover every chunk
on both sides of the process pool.
"""

import numpy as np
import pytest

from repro.obs import Observability, read_trace_jsonl, write_trace_jsonl
from repro.pipeline import (
    CampaignSpec,
    CompletionTimeConsumer,
    CpaStreamConsumer,
    StreamingCampaign,
)

N_TRACES = 120
CHUNK = 40
N_CHUNKS = 3


def _spec():
    return CampaignSpec(target="unprotected", plan_seed=5)


def _run(root, workers, obs):
    engine = StreamingCampaign(
        _spec(), chunk_size=CHUNK, workers=workers, seed=11, obs=obs
    )
    report = engine.run(
        N_TRACES,
        consumers=[CpaStreamConsumer(byte_index=0), CompletionTimeConsumer()],
        store=root / "store",
        checkpoint=root / "ckpt.json",
    )
    return report


def _store_bytes(root):
    store = root / "store"
    return {
        str(path.relative_to(store)): path.read_bytes()
        for path in sorted(store.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The uninstrumented single-worker ground truth."""
    root = tmp_path_factory.mktemp("baseline")
    report = _run(root, workers=1, obs=None)
    return report, _store_bytes(root)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_observed_campaign_is_bit_identical(tmp_path, baseline, workers):
    base_report, base_bytes = baseline
    obs = Observability.create()
    report = _run(tmp_path, workers=workers, obs=obs)
    assert _store_bytes(tmp_path) == base_bytes
    base_cpa = base_report.results["cpa[0]"]
    cpa = report.results["cpa[0]"]
    assert np.array_equal(cpa.peak_corr, base_cpa.peak_corr)
    assert cpa.best_guess == base_cpa.best_guess
    base_times = base_report.results["completion"]
    times = report.results["completion"]
    assert times.counts == base_times.counts


def test_metrics_cover_every_chunk_across_the_pool(tmp_path):
    obs = Observability.create()
    _run(tmp_path, workers=2, obs=obs)
    m = obs.metrics
    assert m.counter_value("campaign_chunks_total", phase="fresh") == N_CHUNKS
    assert m.counter_value("campaign_traces_total") == N_TRACES
    # Worker-side counters merged home through the chunk payloads.
    assert m.counter_value("acquisition_traces_total") == N_TRACES
    assert m.counter_value("campaign_checkpoints_total") == N_CHUNKS
    assert m.counter_value("store_chunks_written_total") == N_CHUNKS
    assert m.counter_value("store_bytes_written_total") > 0
    assert (
        m.counter_value("cpa_traces_folded_total", accumulator="cpa[0]")
        == N_TRACES
    )
    assert m.gauge_value("campaign_done_traces") == N_TRACES
    assert m.gauge_value("campaign_wall_seconds") > 0.0
    snap = m.snapshot()
    key = ("campaign_consume_seconds", (("consumer", "cpa[0]"),))
    _, _, _, count = snap.histograms[key]
    assert count == N_CHUNKS


@pytest.mark.parametrize("workers", [1, 2])
def test_report_timings_are_sums_over_the_trace(tmp_path, workers):
    """Every timing field of the report is the sum of its spans."""
    obs = Observability.create()
    report = _run(tmp_path, workers=workers, obs=obs)
    events = obs.tracer.events

    def spans(*names):
        return sum(e["dur_s"] for e in events if e["name"] in names)

    def assert_sum(field, expected):
        assert abs(field - expected) <= 1e-12, (field, expected)

    writes = [e for e in events if e["name"] == "store_write"]
    assert len(writes) == N_CHUNKS
    assert_sum(report.store_seconds, spans("store_append", "store_write"))
    assert_sum(report.acquire_seconds, spans("acquire_chunk"))
    assert_sum(report.consume_seconds, spans("consume"))
    assert_sum(report.wall_seconds, spans("campaign"))
    stages = {}
    for event in events:
        if event["name"] == "acquire_stage":
            stage = event["attrs"]["stage"]
            stages[stage] = stages.get(stage, 0.0) + event["dur_s"]
    assert set(report.stage_seconds) == set(stages) == {
        "schedule", "crypto", "leakage", "synth", "capture"
    }
    for stage, seconds in stages.items():
        assert_sum(report.stage_seconds[stage], seconds)


def test_trace_covers_every_chunk_and_both_clock_domains(tmp_path):
    obs = Observability.create()
    _run(tmp_path, workers=2, obs=obs)
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(obs.tracer.events, path)
    events = read_trace_jsonl(path)
    folds = [e for e in events if e["name"] == "fold_chunk"]
    assert sorted(e["attrs"]["chunk"] for e in folds) == list(range(N_CHUNKS))
    acquires = [e for e in events if e["name"] == "acquire_chunk"]
    assert {e["origin"] for e in acquires} == {
        f"worker:chunk-{k}" for k in range(N_CHUNKS)
    }
    stages = {
        e["attrs"]["stage"] for e in events if e["name"] == "acquire_stage"
    }
    assert stages == {"schedule", "crypto", "leakage", "synth", "capture"}


def test_resume_with_observability_stays_bit_identical(tmp_path, baseline):
    from repro.errors import AttackError

    _, base_bytes = baseline

    class ExplodingCpa(CpaStreamConsumer):
        """Dies folding chunk 1 — after its store append (replay setup)."""

        def consume(self, chunk):
            if chunk.metadata["chunk_index"] == 1:
                raise AttackError("boom mid-fold")
            super().consume(chunk)

    crashing = StreamingCampaign(
        _spec(), chunk_size=CHUNK, workers=1, seed=11,
        obs=Observability.create(),
    )
    with pytest.raises(AttackError):
        crashing.run(
            N_TRACES,
            consumers=[ExplodingCpa(byte_index=0), CompletionTimeConsumer()],
            store=tmp_path / "store",
            checkpoint=tmp_path / "ckpt.json",
        )
    obs = Observability.create()
    report = StreamingCampaign.resume(
        tmp_path / "store",
        tmp_path / "ckpt.json",
        consumers=[CpaStreamConsumer(byte_index=0), CompletionTimeConsumer()],
        workers=2,
        obs=obs,
    )
    assert _store_bytes(tmp_path) == base_bytes
    assert report.replayed_chunks == 1
    assert obs.metrics.counter_value(
        "campaign_chunks_total", phase="replayed"
    ) == 1
    assert obs.metrics.counter_value(
        "campaign_chunks_total", phase="fresh"
    ) == 1
    (campaign,) = _parent_events(obs, "campaign")
    folds = {
        e["attrs"]["chunk"]: e for e in _parent_events(obs, "fold_chunk")
    }
    assert sorted(folds) == [1, 2]
    assert folds[1]["attrs"]["replayed"] is True
    assert folds[2]["attrs"]["replayed"] is False
    awaits = _parent_events(obs, "await_chunk")
    assert [e["attrs"]["chunk"] for e in awaits] == [2]
    for event in [*folds.values(), *awaits]:
        assert event["parent_id"] == campaign["span_id"], event


DEGRADE_CHUNKS = 4


def _degrade_run(root, workers, faults, obs=None):
    engine = StreamingCampaign(
        _spec(), chunk_size=CHUNK, workers=workers, seed=11, faults=faults,
        obs=obs,
    )
    return engine.run(
        DEGRADE_CHUNKS * CHUNK,
        consumers=[CpaStreamConsumer(byte_index=0), CompletionTimeConsumer()],
        store=root / "store",
        checkpoint=root / "ckpt.json",
    )


@pytest.fixture(scope="module")
def degrade_baseline(tmp_path_factory):
    """The four-chunk single-worker ground truth of the degrade record."""
    root = tmp_path_factory.mktemp("degrade-baseline")
    report = _degrade_run(root, workers=1, faults=None)
    return report, _store_bytes(root)


def _parent_events(obs, name):
    return [
        e for e in obs.tracer.events
        if e["name"] == name and e["origin"] == "parent"
    ]


@pytest.mark.parametrize("broken_at", [0, 2])
def test_pool_degrade_record(tmp_path, degrade_baseline, broken_at):
    """A pool that dies collecting chunk K leaves one exact record.

    The chunks before K come home through the pool (one ``await_chunk``
    each); chunk K and every later one are acquired inline; one counter,
    one instant, and bit-identical results and store bytes.
    """
    from repro.testing.faults import FaultPlan

    base_report, base_bytes = degrade_baseline
    obs = Observability.create()
    report = _degrade_run(
        tmp_path, workers=2, faults=FaultPlan(pool_breaks=(broken_at,)),
        obs=obs,
    )
    remaining = DEGRADE_CHUNKS - broken_at
    assert report.degraded_chunks == remaining
    assert obs.metrics.counter_value("campaign_pool_failures_total") == 1
    assert (
        obs.metrics.counter_value("campaign_degraded_chunks_total")
        == remaining
    )
    (campaign,) = _parent_events(obs, "campaign")
    (degraded,) = _parent_events(obs, "pool_degraded")
    assert degraded["attrs"] == {"chunk": broken_at, "remaining": remaining}
    awaits = _parent_events(obs, "await_chunk")
    assert sorted(e["attrs"]["chunk"] for e in awaits) == list(range(broken_at))
    folds = _parent_events(obs, "fold_chunk")
    assert sorted(e["attrs"]["chunk"] for e in folds) == list(
        range(DEGRADE_CHUNKS)
    )
    for event in [degraded, *awaits, *folds]:
        assert event["parent_id"] == campaign["span_id"], event
    assert _store_bytes(tmp_path) == base_bytes
    cpa = report.results["cpa[0]"]
    base_cpa = base_report.results["cpa[0]"]
    assert np.array_equal(cpa.peak_corr, base_cpa.peak_corr)
    assert (
        report.results["completion"].counts
        == base_report.results["completion"].counts
    )
