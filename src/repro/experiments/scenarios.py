"""Former home of :func:`repro.rftc.cached_plan`, kept as a re-export.

The frequency-plan memo moved to :mod:`repro.rftc`, beside the planner.
The ledger benchmark's campaign harness (``benchmarks/ledger/campaigns.py``)
still plans through this import path, so it stays until the next change
to the benchmark points the harness at :mod:`repro.rftc`.
"""

from repro.rftc import cached_plan

__all__ = ["cached_plan"]
