"""Script entry point of the ledger benchmark; see ``main.py`` for usage."""

import sys
from pathlib import Path

# Import the package from the checkout root, not from this directory.
sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.ledger.main import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
