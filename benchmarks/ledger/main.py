"""Command line of the ledger benchmark.

Run one workload::

    python3 benchmarks/ledger/run.py --workload cpa-campaign --seed 3 \\
        --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every ``end_to_end`` metric of
``BENCHMARK.json`` with ``--trace 0``, every ``per_layer`` one with
``--trace 1``.  A failed correctness gate prints ``"correct": false`` and
exits 1.

Compare or summarise recorded runs (``--record FILE`` appends each run)::

    python3 benchmarks/ledger/run.py compare RUNS_A RUNS_B
    python3 benchmarks/ledger/run.py summarize RUNS
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.ledger.common import (
    BENCHMARK_JSON,
    ROOT,
    RUN_PY,
    WORK,
    Outcome,
    Scale,
    adopt_orphans,
    child_env,
    fresh_dir,
    median,
    peak_rss_mib,
    require_source_tree,
    stop_children,
)
from benchmarks.ledger.spans import SpanRecorder

WORKLOADS = ("cpa-campaign", "attack-zoo", "tvla-archive", "service-openloop")


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks.ledger",
        description="Run one ledger workload (see benchmarks/ledger/README.md); "
        "'compare RUNS_A RUNS_B' and 'summarize RUNS' read recorded runs.",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="derives every campaign, job and tenant seed")
    parser.add_argument("--seconds", type=int, default=10,
                        help="measured-phase length the work is sized to (1-60)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="a fixed few seconds of work (for the tests)")
    parser.add_argument("--record", type=Path, default=None,
                        help="append this run's record to a JSONL file")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="span JSONL path for --trace 1 (default under "
                        ".ledger_work/traces/)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def _cold_start(args) -> float:
    """Seconds for a fresh interpreter to import and set up a campaign."""
    command = [
        sys.executable, str(RUN_PY), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--setup-only",
    ]
    started = time.perf_counter()
    subprocess.run(command, cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - started


def _run_campaign(args, scale: Scale, workdir: Path):
    from benchmarks.ledger import campaigns

    # setup_s is an end-to-end metric: a traced run does not report it.
    setup_s = [] if args.trace else [
        _cold_start(args) for _ in range(scale.setup_reps)
    ]
    prep = campaigns.setup(args.workload, args.seed, workdir / "untraced")
    untraced = campaigns.measure(prep, scale, SpanRecorder(enabled=False))
    rss = peak_rss_mib(resource.RUSAGE_SELF)
    shutil.rmtree(workdir / "untraced", ignore_errors=True)
    if not args.trace:
        return untraced, None, None, setup_s, rss
    recorder = SpanRecorder()
    traced = campaigns.measure(
        campaigns.setup(args.workload, args.seed, workdir / "traced"),
        scale,
        recorder,
    )
    shape = campaigns.SHAPES[args.workload]
    traced.layers.update(
        campaigns.probe_power(shape.spec(), shape.chunk_size, args.seed)
    )
    traced.layers["rftc.plan_s"] = prep.plan_s
    traced.layers["attacks.profile_s"] = prep.profile_s
    return untraced, traced, recorder, setup_s, rss


def _run_service(args, scale: Scale, workdir: Path):
    from benchmarks.ledger import campaigns, service

    setup_s = []
    for rep in range(0 if args.trace else scale.setup_reps - 1):
        daemon = service.Daemon(workdir / f"setup-{rep}")
        try:
            setup_s.append(daemon.start())
        finally:
            daemon.stop()

    def phase(name: str, recorder: SpanRecorder) -> Outcome:
        daemon = service.Daemon(workdir / name)
        try:
            setup_s.append(daemon.start())
            return service.measure(daemon, args.seed, scale, recorder)
        finally:
            daemon.stop()

    untraced = phase("untraced", SpanRecorder(enabled=False))
    rss = peak_rss_mib(resource.RUSAGE_CHILDREN)
    if not args.trace:
        return untraced, None, None, setup_s, rss
    recorder = SpanRecorder()
    traced = phase("traced", recorder)
    spec = service.job_spec()
    started = time.perf_counter()
    spec.warm_caches()
    traced.layers["rftc.plan_s"] = time.perf_counter() - started
    traced.layers.update(
        campaigns.probe_power(spec, service.JOB_CHUNK, args.seed)
    )
    return untraced, traced, recorder, setup_s, rss


def _metrics(section: List[dict], values: Dict[str, float],
             fill_absent: bool) -> dict:
    """``{name: {value, unit}}`` for every metric of a BENCHMARK.json list.

    Per-layer metrics of a layer the workload never calls read 0
    (``fill_absent``); an end-to-end metric must always be measured.
    """
    metrics = {}
    for entry in section:
        name = entry["name"]
        if name not in values and not fill_absent:
            raise KeyError(f"end-to-end metric {name!r} was not measured")
        metrics[name] = {"value": float(values.get(name, 0.0)),
                         "unit": entry["unit"]}
    return metrics


def run_workload(args) -> int:
    require_source_tree()
    bench = load_benchmark()
    scale = Scale.smoke() if args.smoke else Scale.for_seconds(args.seconds)
    if args.setup_only:
        from benchmarks.ledger import campaigns

        workdir = fresh_dir(WORK / f"setup-{os.getpid()}")
        try:
            campaigns.setup(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    workdir = fresh_dir(WORK / f"{args.workload}-{args.seed}-{os.getpid()}")
    runner = _run_service if args.workload == "service-openloop" else _run_campaign
    try:
        untraced, traced, recorder, setup_s, rss = runner(args, scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    gates = dict(untraced.gates)
    if traced is None:
        values = {
            "setup_s": median(setup_s),
            "traces_per_s": untraced.traces_per_s,
            "peak_rss_mib": rss,
        }
        metrics = _metrics(bench["end_to_end"], values, fill_absent=False)
        attempted, failed = untraced.attempted, untraced.failed
    else:
        for name, ok in traced.gates.items():
            gates[f"{name} (traced)"] = ok
        gates["traced digest equals untraced"] = traced.digest == untraced.digest
        values = dict(traced.layers)
        values["trace.overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0
        metrics = _metrics(bench["per_layer"], values, fill_absent=True)
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        trace_out = args.trace_out or (
            WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        )
        recorder.dump(trace_out)
        print(f"trace: {trace_out}")

    correct = all(gates.values())
    for name, ok in gates.items():
        print(f"gate: {'PASS' if ok else 'FAIL'} {name}")
    for name, metric in metrics.items():
        print(f"metric: {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"digest: {untraced.digest}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.record is not None:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "trace": args.trace,
            "digest": untraced.digest,
            "result": result,
        }
        args.record.parent.mkdir(parents=True, exist_ok=True)
        with open(args.record, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("compare", "summarize"):
        from benchmarks.ledger import compare

        return compare.main(argv)
    args = _parser().parse_args(argv)
    if not 1 <= args.seconds <= 60:
        _parser().error("--seconds must be in 1..60")
    adopt_orphans()
    try:
        return run_workload(args)
    finally:
        stop_children()
