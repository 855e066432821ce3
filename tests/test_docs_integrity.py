"""Documentation stays truthful: imports in docs resolve, files exist.

Docs rot silently; these tests re-validate every ``from repro... import``
statement quoted in the markdown documentation, every file path the
docs reference and every CLI command line they show, so a refactor
cannot orphan the documentation.
"""

import importlib
import pathlib
import re
import shlex

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DOCS = sorted(ROOT.glob("docs/*.md")) + [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "CONTRIBUTING.md",
]

#: Markdown files whose fenced blocks may show CLI command lines.
CLI_DOCS = sorted(ROOT.glob("docs/*.md")) + [
    ROOT / name
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md")
]

#: A command line: optional ``$`` prompt and ``VAR=value`` prefixes, the
#: CLI entry point, then its arguments (group 1).
_CLI_RE = re.compile(
    r"^\s*(?:\$\s+)?(?:[A-Z_]+=\S*\s+)*"
    r"(?:repro-rftc|python3? -m repro\.cli)\s(.*)$"
)

_IMPORT_RE = re.compile(
    r"^from (repro[\w.]*) import \(?([^\n]*?)\\?$", re.MULTILINE
)


def _imports_in(text):
    """Yield (module, [names]) for single-line ``from repro.x import ...``."""
    for match in _IMPORT_RE.finditer(text):
        names = [
            n.strip()
            for n in match.group(2).rstrip(")").split(",")
            if n.strip() and n.strip() not in ("(", "\\")
        ]
        yield match.group(1), names


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_doc_imports_resolve(doc):
    for module_name, names in _imports_in(doc.read_text()):
        module = importlib.import_module(module_name)
        for name in names:
            assert hasattr(module, name), (
                f"{doc.name} quotes {module_name}.{name}, which no longer exists"
            )


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_doc_module_paths_exist(doc):
    """Backtick-quoted repro dotted paths resolve to a module or attribute."""
    for match in re.finditer(r"`(repro(?:\.\w+)+)`", doc.read_text()):
        dotted = match.group(1)
        try:
            importlib.import_module(dotted)
            continue
        except ModuleNotFoundError:
            pass
        module_name, _, attr = dotted.rpartition(".")
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), f"{doc.name} quotes missing {dotted}"


def test_design_md_module_map_files_exist():
    """Every .py filename in DESIGN.md's inventory exists in the repo."""
    text = (ROOT / "DESIGN.md").read_text()
    existing = {p.name for p in (ROOT / "src" / "repro").rglob("*.py")}
    existing |= {p.name for p in (ROOT / "benchmarks").glob("*.py")}
    existing |= {p.name for p in (ROOT / "tests").rglob("*.py")}
    for match in re.finditer(r"(\w+\.py)\b", text):
        assert match.group(1) in existing, (
            f"DESIGN.md lists missing module {match.group(1)}"
        )


def test_experiments_md_references_real_benches():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for match in re.finditer(r"`(bench_\w+)`", text):
        assert (ROOT / "benchmarks" / f"{match.group(1)}.py").exists(), (
            f"EXPERIMENTS.md references missing {match.group(1)}"
        )


def test_readme_examples_exist():
    text = (ROOT / "README.md").read_text()
    for match in re.finditer(r"`(\w+)\.py`", text):
        name = match.group(1)
        if (ROOT / "examples" / f"{name}.py").exists():
            continue
        # Non-example code file references are allowed if they exist anywhere.
        hits = list(ROOT.rglob(f"{name}.py"))
        assert hits, f"README references missing file {name}.py"


def test_observability_catalogue_metrics_exist():
    """Every metric in docs/observability.md's tables is emitted by name."""
    text = (ROOT / "docs" / "observability.md").read_text()
    names = re.findall(r"^\| `(\w+)` \|", text, re.MULTILINE)
    assert len(names) >= 30, f"found only {len(names)} catalogue rows"
    source = "\n".join(
        p.read_text() for p in (ROOT / "src" / "repro").rglob("*.py")
    )
    missing = [
        name for name in names
        if f'"{name}"' not in source and f"'{name}'" not in source
    ]
    assert not missing, f"catalogued but never emitted: {missing}"


def _cli_lines(text):
    """Yield the argv of every CLI command line in fenced code blocks.

    ``\\`` continuations are joined, trailing ``#`` comments dropped, and
    a leading ``$`` prompt or ``VAR=value`` environment prefix skipped.
    """
    in_block = False
    pending = ""
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_block, pending = not in_block, ""
            continue
        if not in_block:
            continue
        pending += line
        if pending.endswith("\\"):
            pending = pending[:-1] + " "
            continue
        match, pending = _CLI_RE.match(pending), ""
        if match:
            yield shlex.split(match.group(1), comments=True)


def test_doc_cli_lines_parse():
    """Every documented CLI line is accepted by the real argument parser."""
    from repro.cli import build_parser

    parser = build_parser()
    seen = 0
    for doc in CLI_DOCS:
        for argv in _cli_lines(doc.read_text()):
            seen += 1
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{doc.name}: `{shlex.join(argv)}` does not parse")
    assert seen >= 20, f"found only {seen} CLI lines; is the extractor broken?"
