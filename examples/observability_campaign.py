#!/usr/bin/env python3
"""Observed campaign: metrics and span traces.

Runs the same streaming CPA campaign twice — once bare, once carrying a
live ``repro.obs`` bundle — and demonstrates the three claims the
observability layer makes:

1. the metrics registry captures the campaign's operational story
   (chunks, traces, per-stage latency histograms) and renders as either
   Prometheus text or an ASCII dashboard;
2. the span trace reconstructs where the time went, per chunk and per
   acquisition stage, across the multiprocessing boundary;
3. watching changes *nothing*: the observed run's CPA ranking is
   bit-identical to the bare run's.

Run:  python examples/observability_campaign.py
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.obs import (
    Observability,
    read_trace_jsonl,
    render_metrics,
    span_tree,
    write_trace_jsonl,
)
from repro.pipeline import CampaignSpec, CpaStreamConsumer, StreamingCampaign

N_TRACES = 8000
CHUNK = 2000


def _run(obs=None):
    spec = CampaignSpec(target="rftc", m_outputs=1, p_configs=16, plan_seed=7)
    engine = StreamingCampaign(spec, chunk_size=CHUNK, workers=2,
                               seed=42, obs=obs)
    return engine.run(N_TRACES, consumers=[CpaStreamConsumer(byte_index=0)])


def main():
    print(f"=== Observed campaign: {N_TRACES} traces, chunks of {CHUNK} ===")
    obs = Observability.create()
    observed = _run(obs=obs)
    snapshot = obs.metrics.snapshot()

    print("\n--- Metrics dashboard (repro-rftc obs render) ---")
    print(render_metrics(snapshot, width=32))

    print("\n--- Prometheus text (first lines) ---")
    print("\n".join(snapshot.to_prometheus().splitlines()[:8]))

    print("\n--- Span trace ---")
    trace_path = Path(tempfile.mkdtemp(prefix="rftc_obs_")) / "trace.jsonl"
    n_lines = write_trace_jsonl(obs.tracer.events, trace_path)
    events = read_trace_jsonl(trace_path)
    assert len(events) == n_lines - 1  # header line + one line per event
    folds = sorted((e for e in events if e["name"] == "fold_chunk"),
                   key=lambda e: e["attrs"]["chunk"])
    print(f"{len(events)} events; {len(folds)} fold_chunk spans:")
    # Span ids restart per origin (each worker has its own tracer), so
    # parent/child lookups must stay within one origin's event stream.
    parent_tree = span_tree(
        [e for e in events if e["origin"] == "parent"]
    )
    for fold in folds:
        kids = parent_tree.get(fold["span_id"], [])
        inner = ", ".join(f"{k['name']} {k['dur_s'] * 1e3:.1f}ms"
                          for k in kids)
        print(f"  chunk {fold['attrs']['chunk']}: "
              f"{fold['dur_s'] * 1e3:.1f}ms  ({inner})")
    stage_totals = {}
    for event in events:
        if event["name"] == "acquire_stage":
            stage = event["attrs"]["stage"]
            stage_totals[stage] = stage_totals.get(stage, 0.0) + event["dur_s"]
    print("worker acquisition stages: " + ", ".join(
        f"{stage} {seconds * 1e3:.0f}ms"
        for stage, seconds in sorted(stage_totals.items())
    ))
    origins = {e["origin"] for e in events}
    print(f"origins seen: {sorted(origins)}")
    waited = sum(e["dur_s"] for e in events if e["name"] == "await_chunk")
    print(f"parent busy fraction: {1 - waited / observed.wall_seconds:.0%} "
          f"(1 - await_chunk / wall; wall {observed.wall_seconds:.2f} s "
          "is the campaign span)")

    print("\n=== Observation changes nothing ===")
    bare = _run(obs=None)
    same = np.array_equal(bare.results["cpa[0]"].peak_corr,
                          observed.results["cpa[0]"].peak_corr)
    print(f"bare rerun matches the observed ranking exactly: {same}")
    assert same

    shutil.rmtree(trace_path.parent)


if __name__ == "__main__":
    main()
