"""``compare RUNS_A RUNS_B`` and ``summarize RUNS`` over recorded runs.

A RUNS argument is a JSONL file written by ``--record`` or a directory of
them.  ``compare`` treats A as the parent and B as the change, and gives
each end-to-end metric x workload one verdict:

* ``improved``  -- B wins at least 9/10 of the runs paired by seed (ties
  count for neither) and the medians differ, in B's favour, by more
  than the distance between A's quartiles;
* ``regressed`` -- B's median is worse than A's by more than the
  metric's bound, and either both spreads are within the bound or every
  run of B is worse than every run of A;
* ``unresolved`` -- a spread (quartile distance over median) is wider
  than the bound, unless every run of B beats every run of A;
* ``ok`` -- otherwise.

It also checks that every (workload, seed) produced one result digest
across all runs of both sets, traced and untraced.  Exit status 1 means
a regression or a digest mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from benchmarks.ledger.common import BENCHMARK_JSON, quartiles


def load_runs(path: Path) -> List[dict]:
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for file in files:
        with open(file) as handle:
            records += [json.loads(line) for line in handle if line.strip()]
    return records


def _series(records: List[dict], workload: str, metric: str) -> List[Tuple[int, float]]:
    return [
        (r["seed"], r["result"]["metrics"][metric]["value"])
        for r in records
        if r["workload"] == workload and r["trace"] == 0
        and metric in r["result"]["metrics"]
    ]


def _pairs(a: List[Tuple[int, float]], b: List[Tuple[int, float]]):
    """Runs paired by seed, in order; by position when no seed is shared."""
    by_seed: Dict[int, List[float]] = {}
    for seed, value in a:
        by_seed.setdefault(seed, []).append(value)
    pairs = []
    for seed, value in b:
        if by_seed.get(seed):
            pairs.append((by_seed[seed].pop(0), value))
    if not pairs:
        pairs = [(x, y) for (_, x), (_, y) in zip(a, b)]
    return pairs


def verdict(a: List[Tuple[int, float]], b: List[Tuple[int, float]],
            better: str, bound: float) -> Tuple[str, dict]:
    av = [v for _, v in a]
    bv = [v for _, v in b]
    qa, qb = quartiles(av), quartiles(bv)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    pairs = _pairs(a, b)
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    if better == "lower":
        all_better, all_worse = max(bv) < min(av), min(bv) > max(av)
    else:
        all_better, all_worse = min(bv) > max(av), max(bv) < min(av)
    if pairs and wins >= 0.9 * len(pairs) and -worse * qa[1] > qa[2] - qa[0]:
        outcome = "improved"
    elif worse > bound and (spread <= bound or all_worse):
        outcome = "regressed"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    else:
        outcome = "ok"
    return outcome, {
        "a": qa, "b": qb, "n_a": len(av), "n_b": len(bv),
        "worse": worse, "spread": spread, "wins": wins, "pairs": len(pairs),
    }


def digest_mismatches(records: List[dict]) -> List[str]:
    digests: Dict[tuple, set] = {}
    for r in records:
        key = (r["workload"], r["seed"], r["seconds"], r["smoke"])
        digests.setdefault(key, set()).add(r["digest"])
    return [
        f"{w} seed {s}: {len(d)} different digests"
        for (w, s, _, _), d in sorted(digests.items()) if len(d) > 1
    ]


def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def summarize(records: List[dict], bench: dict) -> dict:
    """Median and quartiles of every metric per workload."""
    summary: Dict[str, dict] = {}
    for workload in sorted({r["workload"] for r in records}):
        rows = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            runs = [r for r in records
                    if r["workload"] == workload and r["trace"] == trace]
            for entry in bench[section]:
                values = [r["result"]["metrics"][entry["name"]]["value"]
                          for r in runs
                          if entry["name"] in r["result"]["metrics"]]
                if not values:
                    continue
                q1, med, q3 = quartiles(values)
                rows[entry["name"]] = {
                    "unit": entry["unit"], "n": len(values),
                    "median": med, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / med if med else 0.0,
                }
        summary[workload] = rows
    return summary


def main(argv: List[str]) -> int:
    with open(BENCHMARK_JSON) as handle:
        bench = json.load(handle)
    command, paths = argv[0], [Path(p) for p in argv[1:]]
    if command == "summarize" and len(paths) == 1:
        summary = {
            "environment": environment(),
            "workloads": summarize(load_runs(paths[0]), bench),
        }
        print(json.dumps(summary, indent=1))
        return 0
    if command != "compare" or len(paths) != 2:
        print("usage: compare RUNS_A RUNS_B | summarize RUNS", file=sys.stderr)
        return 2
    a, b = load_runs(paths[0]), load_runs(paths[1])
    status = 0
    workloads = sorted({r["workload"] for r in a} & {r["workload"] for r in b})
    for workload in workloads:
        for entry in bench["end_to_end"]:
            sa = _series(a, workload, entry["name"])
            sb = _series(b, workload, entry["name"])
            if not sa or not sb:
                continue
            outcome, d = verdict(sa, sb, entry["better"], entry["bound"])
            status |= outcome == "regressed"
            print(
                f"{workload:17s} {entry['name']:15s} "
                f"A {d['a'][1]:10.4g} [{d['a'][0]:.4g}, {d['a'][2]:.4g}] n={d['n_a']}  "
                f"B {d['b'][1]:10.4g} [{d['b'][0]:.4g}, {d['b'][2]:.4g}] n={d['n_b']}  "
                f"worse {d['worse']:+7.2%} bound {entry['bound']:.0%} "
                f"spread {d['spread']:6.2%} wins {d['wins']}/{d['pairs']}  "
                f"{outcome}"
            )
    for problem in digest_mismatches(a + b):
        print(f"digest mismatch: {problem}")
        status = 1
    return int(status)
