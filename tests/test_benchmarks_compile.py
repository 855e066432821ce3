"""Benchmarks stay loadable and their CLIs stay parsable.

The pytest-benchmark scripts run under CI's bench jobs and the argparse
harnesses run with explicit flags (``--quick --out ...``); neither path
exercises ``--help`` or catches bit-rot in rarely-used flags.  This
module compiles every script, checks that every ``from repro...``
import in it (the ledger's included) names a real attribute, and runs
``--help`` on each argparse harness in a subprocess from the repo root
(their working-directory contract), so a renamed flag, a broken or
moved import, or a stale ``set_defaults`` fails tier-1 instead of the
nightly lane.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent
BENCHMARKS = sorted((REPO_ROOT / "benchmarks").glob("*.py"))

#: Scripts with an argparse CLI of their own (the rest are
#: pytest-benchmark modules, imported by pytest, never run directly).
CLI_SCRIPTS = sorted(
    path for path in BENCHMARKS if "argparse" in path.read_text()
)


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.stem)
def test_compiles(path):
    compile(path.read_text(), str(path), "exec")


@pytest.mark.parametrize(
    "path",
    BENCHMARKS + sorted((REPO_ROOT / "benchmarks" / "ledger").glob("*.py")),
    ids=lambda p: p.relative_to(REPO_ROOT / "benchmarks").with_suffix("").as_posix(),
)
def test_imports_resolve(path):
    """Every ``from repro...`` import, function-local ones included,
    names a real attribute."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module.startswith("repro")
        ):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{path.name}: {node.module}.{alias.name} missing"
                )


def test_expected_cli_harnesses_present():
    names = {path.stem for path in CLI_SCRIPTS}
    assert {
        "bench_e2e_campaign",
        "bench_kernels",
        "bench_pipeline_throughput",
        "bench_service_load",
        "soak_service_chaos",
    } <= names


@pytest.mark.parametrize("path", CLI_SCRIPTS, ids=lambda p: p.stem)
def test_help_exits_zero(path):
    """``--help`` must parse, print usage, and exit 0 from the repo root."""
    result = subprocess.run(
        [sys.executable, str(path), "--help"],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "usage" in result.stdout.lower()
