"""The runtime packages import, and so run, without scipy.

scipy is a test-only dependency (an oracle for ``lfilter``, ``stats`` and
``next_fast_len``).  A fresh interpreter imports every public runtime
package and must not load a single ``scipy`` module.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

RUNTIME_PACKAGES = (
    "repro",
    "repro.pipeline",
    "repro.attacks",
    "repro.leakage_assessment",
    "repro.preprocess",
    "repro.service",
    "repro.cli",
)

PROBE = (
    "import importlib, sys\n"
    "for name in sys.argv[1:]:\n"
    "    importlib.import_module(name)\n"
    "print(' '.join(sorted(m for m in sys.modules\n"
    "                      if m == 'scipy' or m.startswith('scipy.'))))\n"
)


def test_runtime_imports_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *RUNTIME_PACKAGES],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
