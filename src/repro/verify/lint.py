"""AST-based repository invariants (`repro verify --suite lint`).

Six mechanical rules that guard reproducibility and operability:

* **no-global-np-random** — ``src/`` must never touch numpy's global
  random state (``np.random.seed``, ``np.random.normal``, ...); only the
  explicit generator API (``default_rng``/``Generator``/``SeedSequence``)
  is allowed, so every experiment stays replayable from its seed.
* **no-unseeded-default-rng** — the explicit-generator API must itself
  be seeded: a zero-argument ``default_rng()`` call seeds from the OS
  entropy pool, so a ``rng=None`` fallback built on it silently makes a
  result irreplayable (the ``success_rate_curve`` bug this rule grew
  from).  Rule is syntactic: it flags literal zero-argument calls, not
  ``default_rng(maybe_none)`` flowing ``None`` at runtime.
* **consumer-protocol** — every trace consumer (a class with both
  ``consume`` and ``result`` methods) must also implement the
  checkpoint contract: ``snapshot`` and ``restore``.
* **metrics-documented** — every metric name emitted through
  ``inc``/``observe``/``set_gauge``/``observe_seconds`` with a literal
  name, and every histogram a span feeds through the literal
  ``SPAN_HISTOGRAMS`` table, must be listed in ``docs/observability.md``.
* **one-clock** — the span clocks (:data:`repro.obs.tracing.SPAN_CLOCKS`)
  are read only in ``repro/obs/tracing.py``: every campaign timing is a
  tracer span, so reports, histograms and traces cannot disagree.
  Deadlines use ``time.monotonic``.
* **cli-exit-codes** — every ``_cmd_*`` handler in ``repro.cli`` must
  return an explicit integer on every path (no bare ``return``, no
  falling off the end), so shell callers always get a real exit code.

The rules work on the AST, not on text, so docstrings and comments can
mention ``np.random.seed`` freely.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional, Tuple

from repro.obs.tracing import SPAN_CLOCKS
from repro.verify import Checks

#: The only attributes of ``np.random`` the codebase may use: the modern
#: explicit-generator API, which never mutates process-global state.
ALLOWED_NP_RANDOM_ATTRS = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}
)

#: Methods every trace consumer must implement besides consume/result.
CONSUMER_REQUIRED_METHODS = ("snapshot", "restore")

#: Metric-emitting call names whose first literal argument is a metric name.
METRIC_CALL_ATTRS = frozenset(
    {"inc", "observe", "set_gauge", "observe_seconds"}
)

#: The module-level table mapping span names to the histograms they feed.
SPAN_TABLE_NAME = "SPAN_HISTOGRAMS"

#: The one module that reads the span clocks, relative to ``src/``.
CLOCK_MODULE = "repro/obs/tracing.py"


def _is_np_random(node: ast.AST) -> bool:
    """True for ``np.random`` / ``numpy.random`` attribute bases."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def find_global_random(tree: ast.AST, filename: str) -> List[str]:
    """Uses of numpy's global random state (banned in ``src/``)."""
    violations = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and _is_np_random(node.value)
            and node.attr not in ALLOWED_NP_RANDOM_ATTRS
        ):
            violations.append(
                f"{filename}:{node.lineno} np.random.{node.attr}"
            )
    return violations


def find_unseeded_default_rng(tree: ast.AST, filename: str) -> List[str]:
    """Zero-argument ``default_rng()`` calls (nondeterministic by default).

    Matches both the attribute form (``np.random.default_rng()``) and a
    bare imported name (``default_rng()``).  Any argument — even an
    explicit ``None`` — passes: the rule targets the *silent* unseeded
    fallback idiom, and runtime ``None`` flow is out of AST reach.
    """
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or node.args or node.keywords:
            continue
        func = node.func
        unseeded = (
            isinstance(func, ast.Attribute)
            and func.attr == "default_rng"
            and _is_np_random(func.value)
        ) or (isinstance(func, ast.Name) and func.id == "default_rng")
        if unseeded:
            violations.append(
                f"{filename}:{node.lineno} default_rng() without a seed"
            )
    return violations


def find_incomplete_consumers(tree: ast.AST, filename: str) -> List[str]:
    """Consumer-shaped classes missing part of the checkpoint contract."""
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "consume" not in methods or "result" not in methods:
            continue
        missing = [m for m in CONSUMER_REQUIRED_METHODS if m not in methods]
        if missing:
            violations.append(
                f"{filename}:{node.lineno} {node.name} lacks "
                f"{'/'.join(missing)}"
            )
    return violations


def find_metric_names(tree: ast.AST) -> List[Tuple[str, int]]:
    """Literal metric names passed to inc/observe/set_gauge calls, and
    the literal histogram names of a ``SPAN_HISTOGRAMS`` table."""
    names = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in METRIC_CALL_ATTRS
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            names.append((node.args[0].value, node.lineno))
        elif (
            isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.Dict)
            and SPAN_TABLE_NAME in _target_names(node)
        ):
            for entry in node.value.values:
                first = entry.elts[0] if isinstance(entry, ast.Tuple) else entry
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    names.append((first.value, first.lineno))
    return names


def _target_names(node: ast.stmt) -> List[str]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def find_clock_reads(tree: ast.AST, filename: str) -> List[str]:
    """Reads of the span clocks (``time.<name>`` for a name in
    :data:`~repro.obs.tracing.SPAN_CLOCKS`, or importing one)."""
    violations = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in SPAN_CLOCKS
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
        ):
            violations.append(f"{filename}:{node.lineno} time.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            violations.extend(
                f"{filename}:{node.lineno} from time import {alias.name}"
                for alias in node.names
                if alias.name in SPAN_CLOCKS
            )
    return violations


def _always_returns_value(body: List[ast.stmt]) -> bool:
    """True when every path through ``body`` ends in return-with-value or raise."""
    if not body:
        return False
    last = body[-1]
    if isinstance(last, ast.Return):
        return last.value is not None
    if isinstance(last, ast.Raise):
        return True
    if isinstance(last, ast.If):
        return (
            bool(last.orelse)
            and _always_returns_value(last.body)
            and _always_returns_value(last.orelse)
        )
    if isinstance(last, ast.Try):
        handlers_ok = all(
            _always_returns_value(h.body) for h in last.handlers
        )
        if last.finalbody and _always_returns_value(last.finalbody):
            return True
        body_ok = _always_returns_value(last.orelse or last.body)
        return body_ok and handlers_ok
    if isinstance(last, (ast.With, ast.For, ast.While)):
        # Conservative: a trailing loop/with must be followed by a return,
        # so reaching here means the handler can fall off the end.
        return False
    return False


def find_cli_exit_violations(tree: ast.AST, filename: str) -> List[str]:
    """``_cmd_*`` handlers that can exit without an explicit return code."""
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        if not node.name.startswith("_cmd_"):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Return) and sub.value is None:
                violations.append(
                    f"{filename}:{sub.lineno} {node.name} has a bare return"
                )
            elif (
                isinstance(sub, ast.Return)
                and isinstance(sub.value, ast.Constant)
                and sub.value.value is None
            ):
                violations.append(
                    f"{filename}:{sub.lineno} {node.name} returns None"
                )
        if not _always_returns_value(node.body):
            violations.append(
                f"{filename}:{node.lineno} {node.name} can fall off the "
                "end without returning an exit code"
            )
    return violations


def run_lint_checks(checks: Checks, src_root: Optional[str] = None) -> None:
    """Append the repo-lint verdicts to ``checks``."""
    root = (
        Path(src_root) if src_root else Path(__file__).resolve().parents[2]
    )
    repo_root = root.parent
    files = sorted(root.rglob("*.py"))
    trees = {}
    parse_errors = []
    for path in files:
        try:
            trees[path] = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as exc:
            parse_errors.append(f"{path}: {exc}")
    checks.record(
        "lint:parse",
        bool(trees) and not parse_errors,
        "; ".join(parse_errors[:3]) or f"parsed {len(trees)} files",
    )

    random_violations: List[str] = []
    unseeded_violations: List[str] = []
    consumer_violations: List[str] = []
    metric_names: List[Tuple[str, str, int]] = []
    cli_violations: List[str] = []
    clock_violations: List[str] = []
    for path, tree in trees.items():
        rel = str(path.relative_to(repo_root))
        if path.relative_to(root).as_posix() != CLOCK_MODULE:
            clock_violations.extend(find_clock_reads(tree, rel))
        random_violations.extend(find_global_random(tree, rel))
        unseeded_violations.extend(find_unseeded_default_rng(tree, rel))
        consumer_violations.extend(find_incomplete_consumers(tree, rel))
        for name, lineno in find_metric_names(tree):
            metric_names.append((name, rel, lineno))
        if path.name == "cli.py":
            cli_violations.extend(find_cli_exit_violations(tree, rel))

    checks.record(
        "lint:no-global-np-random",
        not random_violations,
        "; ".join(random_violations[:5])
        or "no numpy global-random-state use in src/",
    )
    checks.record(
        "lint:no-unseeded-default-rng",
        not unseeded_violations,
        "; ".join(unseeded_violations[:5])
        or "every default_rng() call in src/ carries a seed",
    )
    checks.record(
        "lint:consumer-protocol",
        not consumer_violations,
        "; ".join(consumer_violations[:5])
        or "every consumer implements snapshot/restore",
    )

    doc_path = repo_root / "docs" / "observability.md"
    if not doc_path.exists():
        checks.record(
            "lint:metrics-documented", False, f"{doc_path} is missing"
        )
    else:
        doc_text = doc_path.read_text()
        undocumented = [
            f"{rel}:{lineno} {name!r}"
            for name, rel, lineno in metric_names
            if name not in doc_text
        ]
        checks.record(
            "lint:metrics-documented",
            not undocumented,
            "; ".join(undocumented[:5])
            or f"{len(metric_names)} emitted metric names all listed in "
            "docs/observability.md",
        )

    checks.record(
        "lint:one-clock",
        not clock_violations,
        "; ".join(clock_violations[:5])
        or f"span clocks are read only in {CLOCK_MODULE}",
    )

    checks.record(
        "lint:cli-exit-codes",
        not cli_violations,
        "; ".join(cli_violations[:5])
        or "every _cmd_* handler returns an explicit exit code on all paths",
    )
