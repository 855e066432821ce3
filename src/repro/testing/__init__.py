"""Deterministic test instrumentation for the reproduction library.

Home of the fault-injection harness (:mod:`repro.testing.faults`) that
the test suite and the CLI ``--inject-fault`` debug flag use to exercise
every recovery path of the streaming pipeline — failing and wedged
workers, pool degradation, crash/resume, and store-integrity detection —
without sleeps, signals, or other sources of flakiness.
"""

from repro.testing.faults import (
    FaultPlan,
    corrupt_chunk_file,
    drop_manifest_tail,
    truncate_chunk_file,
)

__all__ = [
    "FaultPlan",
    "corrupt_chunk_file",
    "drop_manifest_tail",
    "truncate_chunk_file",
]
