"""``repro.experiments`` sits on top: nothing below it imports it.

The paper's figure and table harness builds its devices through
``CampaignSpec.build_device`` and attacks through the library; the
library must never reach back up into the harness. Only the harness
itself (``repro/experiments/``) and the CLI that fronts it may import
``repro.experiments``. Function-local imports count as much as
module-level ones.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"
HARNESS = "repro.experiments"


def _imported_modules(tree):
    """Yield (module name, line) for every import anywhere in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module, node.lineno
            for alias in node.names:
                yield f"{node.module}.{alias.name}", node.lineno


def _may_import_harness(path):
    relative = path.relative_to(SRC)
    return relative.parts[0] == "experiments" or relative == pathlib.Path("cli.py")


def harness_imports():
    """``path:line`` of each import of the harness outside its allowed users."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if _may_import_harness(path):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for module, line in _imported_modules(tree):
            if module == HARNESS or module.startswith(HARNESS + "."):
                found.append(f"{path.relative_to(SRC.parent)}:{line}")
    return sorted(set(found))


def test_only_the_harness_and_the_cli_import_experiments():
    found = harness_imports()
    assert not found, (
        "repro.experiments is imported below the harness; build devices "
        "with CampaignSpec.build_device and plans with repro.rftc.cached_plan "
        "instead:\n  " + "\n  ".join(found)
    )


def test_the_check_sees_function_local_imports():
    tree = ast.parse(
        "def f():\n    from repro.experiments.scenarios import cached_plan\n"
    )
    assert ("repro.experiments.scenarios", 2) in set(_imported_modules(tree))
