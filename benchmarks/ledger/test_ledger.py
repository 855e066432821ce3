"""Tests of the ledger benchmark; run with ``pytest benchmarks/ledger``.

The workload tests run each workload at smoke scale, untraced and
traced, each in a fresh interpreter started from the checkout root.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.ledger.campaigns import engine_layers
from benchmarks.ledger.common import BENCHMARK_JSON, ROOT, RUN_PY
from benchmarks.ledger.compare import verdict
from benchmarks.ledger.main import WORKLOADS
from benchmarks.ledger.spans import load_spans

BENCH = json.loads(BENCHMARK_JSON.read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _session_members(sid):
    """``(pid, command)`` of every process in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        comm, fields = stat.rsplit(")", 1)
        if int(fields.split()[3]) == sid:
            members.append((int(entry), comm.split("(", 1)[1]))
    return members


def _run(*args, cwd=ROOT):
    """Run the benchmark in a session of its own, which must end with it."""
    with subprocess.Popen(
        [sys.executable, str(RUN_PY), *args], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    ) as child:
        stdout, stderr = child.communicate(timeout=110)
    assert _session_members(child.pid) == [], "processes outlived the run"
    return subprocess.CompletedProcess(child.args, child.returncode, stdout, stderr)


def _result(proc):
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest:"))
    return json.loads(lines[-1]), digest


def test_benchmark_json_shape():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in BENCH["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCH["per_layer"])
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_workload(workload, tmp_path):
    untraced, plain_digest = _result(
        _run("--workload", workload, "--seed", "0", "--smoke", "--trace", "0")
    )
    trace_file = tmp_path / "trace.jsonl"
    traced, traced_digest = _result(
        _run("--workload", workload, "--seed", "0", "--smoke", "--trace", "1",
             "--trace-out", str(trace_file))
    )
    assert traced_digest == plain_digest
    for result, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCH[section]
        }
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    spans = load_spans(trace_file)
    assert spans and all(
        set(s) == {"id", "name", "start", "end", "parent", "chunk"}
        for s in spans
    )
    if workload != "service-openloop":
        layers = engine_layers(spans)
        assert 0 <= layers["engine.residual_s"] < layers["engine.wall_s"]
        assert layers["engine.chunks"] == traced["metrics"]["engine.chunks"]["value"]


def test_refuses_to_run_without_the_program(tmp_path):
    """A checkout holding only the benchmark must fail without a result."""
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "ledger", tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "cpa-campaign", "--seed", "0", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=110,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _spans(*records):
    return [
        {"id": i, "name": name, "start": start, "end": end,
         "parent": parent, "chunk": None}
        for i, (name, start, end, parent) in enumerate(records)
    ]


def test_engine_split_accounts_for_the_whole_run():
    spans = _spans(
        ("engine.run", 0.0, 10.0, None),
        ("checkpoint.snapshot", 0.1, 0.2, 0),  # up-front validation
        ("store.append", 1.0, 1.5, 0),          # fetch 0.0-1.0 minus 0.1
        ("consume.cpa_bank", 1.5, 3.5, 0),
        ("checkpoint.save", 3.5, 4.0, 0),
        ("engine.progress", 4.2, 4.2, 0),
        ("store.read", 4.3, 4.8, 0),            # a replay read: fetch
        ("consume.cpa_bank", 5.0, 8.0, 0),
        ("engine.progress", 8.0, 8.0, 0),
        ("consume.result", 8.1, 8.3, 0),
    )
    layers = engine_layers(spans)
    assert layers["engine.fetch_s"] == pytest.approx(0.9 + 0.8)
    assert layers["engine.fold_s"] == pytest.approx(0.1 + 0.5 + 2.0 + 0.5 + 3.0 + 0.2)
    assert layers["engine.residual_s"] == pytest.approx(10.0 - 1.7 - 6.3)
    assert layers["engine.chunks"] == 2
    assert layers["store.read_s"] == pytest.approx(0.5)
    assert layers["consume.cpa_bank_s"] == pytest.approx(5.0)


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([10, 10.1, 9.9, 10.05, 9.95], [10, 10.1, 9.9, 10.05, 9.95], "lower", "ok"),
        ([10, 10.1, 9.9, 10.05, 9.95], [12, 12.1, 11.9, 12.05, 11.95], "lower", "regressed"),
        ([10, 10.1, 9.9, 10.05, 9.95], [8, 8.1, 7.9, 8.05, 7.95], "lower", "improved"),
        ([10, 10.1, 9.9, 10.05, 9.95], [8, 8.1, 7.9, 8.05, 7.95], "higher", "regressed"),
        ([10, 14, 7, 12, 9], [10.5, 13, 8, 11, 9.5], "lower", "unresolved"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    # Run i of each set has seed i, so the sets pair up run by run.
    assert verdict(list(enumerate(a)), list(enumerate(b)), better, 0.1)[0] == expected
