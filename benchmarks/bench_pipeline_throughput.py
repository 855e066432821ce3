"""Pipeline throughput: traces/sec through the streaming campaign engine.

The paper's 4M-trace evaluations are only reachable if acquisition keeps
the hardware busy; this benchmark measures the ``repro.pipeline`` engine
end to end — chunked acquisition, store writes, and a streaming CPA
consumer — at 1 worker and at a small pool, printing traces/sec and the
per-stage wall-clock split.  On multi-core hosts the pool column should
approach linear scaling; the numbers also confirm the engine's memory
stays bounded by the chunk size at any campaign length.

Two modes (mirroring ``bench_kernels.py``):

* ``pytest benchmarks/bench_pipeline_throughput.py --benchmark-only`` —
  the worker-scaling table via pytest-benchmark.
* ``python benchmarks/bench_pipeline_throughput.py [--quick] [--out F]``
  — a machine-readable throughput report, including the observability
  overhead: the measured per-chunk obs cost as a fraction of the
  per-chunk wall (the obs layer's <2% acceptance bound, checked with
  ``--check-obs-overhead``; see ``docs/observability.md``).
"""

import argparse
import json
import sys
import time

import numpy as np

from repro.experiments.reporting import format_table
from repro.pipeline import CampaignSpec, CpaStreamConsumer, StreamingCampaign

CHUNK = 2000
WORKER_COUNTS = (1, 2, 4)

SCHEMA = "rftc-bench-pipeline/1"


def _run_campaign(workers: int, n: int, obs=None):
    spec = CampaignSpec(target="rftc", m_outputs=1, p_configs=16, plan_seed=7)
    engine = StreamingCampaign(
        spec, chunk_size=CHUNK, workers=workers, seed=3, obs=obs
    )
    return engine.run(n, consumers=[CpaStreamConsumer(byte_index=0)])


# --------------------------------------------------------------------------
# Script mode: JSON throughput report + observability overhead check.
# --------------------------------------------------------------------------


def _best_wall(workers: int, n: int, rounds: int, obs_factory=None):
    """Best-of-``rounds`` wall seconds for one campaign configuration."""
    best = float("inf")
    for _ in range(rounds):
        obs = obs_factory() if obs_factory is not None else None
        t0 = time.perf_counter()
        _run_campaign(workers, n, obs=obs)
        best = min(best, time.perf_counter() - t0)
    return best


def _per_chunk_obs_seconds(reps: int = 200) -> float:
    """Best-of-5 cost of one chunk's worth of observability work.

    Replays, in a tight loop, the per-chunk sequence of an observed
    campaign with a store, a checkpoint and one summarizing consumer.
    In the acquiring process: a private bundle, the ``acquire_chunk``
    span around the five ``acquire_stage`` spans, the ``summarize`` and
    ``store_write`` spans (each feeding its histogram through
    ``SPAN_HISTOGRAMS``), the worker counters, snapshot and drain.  In
    the parent: the ``await_chunk`` span, snapshot merge and ``extend``
    of the worker's events, the ``fold_chunk`` span around
    ``store_append``/``consume``/``checkpoint``, and the per-chunk
    counters.  An unobserved run does the same worker half and a
    subset of the parent half (no histograms, no buffering), so this
    bounds the always-on cost too.  Unlike an end-to-end A/B of two
    campaign walls, the replay stays stable on noisy shared runners, so
    it is what ``--check-obs-overhead`` gates.
    """
    from repro.obs import Observability

    stages = ("schedule", "crypto", "leakage", "synth", "capture")
    best = float("inf")
    for _ in range(5):
        parent = Observability.create()
        tracer, metrics = parent.tracer, parent.metrics
        started = time.perf_counter()
        for index in range(reps):
            with tracer.span("await_chunk", chunk=index):
                worker = Observability.create(origin=f"worker:chunk-{index}")
                with worker.tracer.span(
                    "acquire_chunk", chunk=index, traces=CHUNK
                ):
                    for stage in stages:
                        with worker.tracer.span("acquire_stage", stage=stage):
                            pass
                    worker.metrics.inc("acquisition_traces_total", CHUNK)
                with worker.tracer.span(
                    "summarize", chunk=index, consumer="cpa[0]"
                ):
                    pass
                with worker.tracer.span("store_write", chunk=index):
                    pass
                shipped = (worker.metrics.snapshot(), worker.tracer.drain())
            metrics.merge_snapshot(shipped[0])
            tracer.extend(shipped[1])
            with tracer.span("fold_chunk", chunk=index, traces=CHUNK,
                             replayed=False):
                with tracer.span("store_append", chunk=index):
                    metrics.inc("store_chunks_written_total")
                    metrics.inc("store_bytes_written_total", 1)
                with tracer.span("consume", chunk=index, consumer="cpa[0]"):
                    metrics.inc("cpa_traces_folded_total", CHUNK,
                                accumulator="cpa[0]")
                with tracer.span("checkpoint", chunk=index):
                    pass
                metrics.inc("campaign_checkpoints_total")
            metrics.inc("campaign_chunks_total", phase="fresh")
            metrics.inc("campaign_traces_total", CHUNK)
            metrics.set_gauge("campaign_done_traces", CHUNK * index)
        best = min(best, (time.perf_counter() - started) / reps)
    return best


def run_suite(n: int, rounds: int) -> dict:
    """Measure worker scaling and the observability overhead."""
    from repro.obs import Observability

    report = {"schema": SCHEMA, "n_traces": n, "chunk_size": CHUNK,
              "throughput": {}}
    for workers in WORKER_COUNTS:
        wall = _best_wall(workers, n, rounds)
        report["throughput"][str(workers)] = {
            "wall_seconds": wall,
            "traces_per_second": n / wall,
        }
        print(f"workers={workers}: {n / wall:,.0f} traces/s")
    # End-to-end A/B walls are reported for humans, but run-to-run noise
    # on shared machines dwarfs the true cost, so the gated number is
    # the measured per-chunk obs cost over the per-chunk wall.
    obs_rounds = max(rounds, 3)
    base = _best_wall(1, n, obs_rounds)
    observed = _best_wall(1, n, obs_rounds, obs_factory=Observability.create)
    per_chunk_obs = _per_chunk_obs_seconds()
    per_chunk_wall = base / max(1, -(-n // CHUNK))
    report["observability"] = {
        "disabled_wall_seconds": base,
        "enabled_wall_seconds": observed,
        "enabled_overhead_fraction": (observed - base) / base,
        "per_chunk_obs_seconds": per_chunk_obs,
        "per_chunk_wall_seconds": per_chunk_wall,
        "obs_cost_fraction": per_chunk_obs / per_chunk_wall,
    }
    print(
        f"observability: {per_chunk_obs * 1e6:.0f} us per chunk "
        f"= {per_chunk_obs / per_chunk_wall:.3%} of the "
        f"{per_chunk_wall * 1e3:.0f} ms chunk wall "
        f"(end-to-end A/B: {(observed - base) / base:+.2%}, noisy)"
    )
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Streaming-pipeline throughput benchmark"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI budget: fewer traces, single timing round",
    )
    parser.add_argument(
        "--traces", type=int, default=None,
        help="traces per campaign (default 20000, quick 4000)",
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON report here"
    )
    parser.add_argument(
        "--check-obs-overhead", type=float, default=None, metavar="FRAC",
        help="fail (exit 1) when the per-chunk observability cost exceeds "
             "this fraction of the per-chunk wall (the acceptance bound "
             "is 0.02)",
    )
    args = parser.parse_args(argv)
    n = args.traces if args.traces else (4000 if args.quick else 20_000)
    rounds = 1 if args.quick else 3
    report = run_suite(n, rounds)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    if args.check_obs_overhead is not None:
        overhead = report["observability"]["obs_cost_fraction"]
        if overhead > args.check_obs_overhead:
            print(
                f"REGRESSION: observability overhead {overhead:.2%} exceeds "
                f"{args.check_obs_overhead:.2%}",
                file=sys.stderr,
            )
            return 1
        print("observability overhead gate: ok")
    return 0


def test_pipeline_throughput_vs_workers(benchmark):
    # Imported here so script mode works without the benchmarks package
    # on sys.path (``python benchmarks/bench_pipeline_throughput.py``).
    from benchmarks._budget import run_once, scaled

    n = scaled(20_000)

    def run():
        return [_run_campaign(w, n) for w in WORKER_COUNTS]

    reports = run_once(benchmark, run)

    rows = [
        (
            r.workers,
            r.n_traces,
            r.n_chunks,
            f"{r.traces_per_second:.0f}",
            f"{r.wall_seconds:.2f}",
            f"{r.acquire_seconds:.2f}",
            f"{r.stage_seconds.get('synth', 0.0):.2f}",
            f"{r.consume_seconds:.2f}",
        )
        for r in reports
    ]
    print()
    print(f"Streaming pipeline, RFTC(1, 16), chunks of {CHUNK}:")
    print(
        format_table(
            ["workers", "traces", "chunks", "traces/s", "wall s",
             "acquire s", "synth s", "cpa s"],
            rows,
        )
    )
    # Acquisition dominated by trace synthesis?  The stage split says.
    synth_total = sum(r.stage_seconds.get("synth", 0.0) for r in reports)
    cpa_total = sum(r.consume_seconds for r in reports)
    print(
        f"time split across runs: synth {synth_total:.2f}s, "
        f"cpa consume {cpa_total:.2f}s"
    )
    # Worker count must never change the science, only the wall clock.
    peaks = [r.results["cpa[0]"].peak_corr for r in reports]
    for other in peaks[1:]:
        np.testing.assert_array_equal(peaks[0], other)
    print("consumer results identical across worker counts: yes")


if __name__ == "__main__":
    sys.exit(main())
