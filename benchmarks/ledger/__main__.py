"""``python -m benchmarks.ledger``: the same command line as ``run.py``."""

import sys

from benchmarks.ledger.main import main

sys.exit(main())
