"""Seeded schedule generator for the accumulator oracle.

A *schedule* is a randomized but reproducible plan for exercising a
streaming accumulator over a fixed chunk partition of a data set.
*Replay schedules* interleave chunk folds with ``snapshot`` / ``restore``
operations, rewinding and re-folding random spans.  Because
snapshot/restore is specified to be exact, any replay schedule must leave
the accumulator *bit-identical* to the plain sequential fold of the same
chunks — no tolerance.

Schedules are pure data (tuples of primitive ops), so the oracle and the
test suite can share one generator and log failing schedules verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Replay-schedule op codes: ("snapshot",), ("restore",), ("feed", chunk),
#: ("feed_empty",).  ``restore`` rewinds to the most recent snapshot.
ReplayOp = Tuple


@dataclass(frozen=True)
class ReplaySchedule:
    """Snapshot/restore/replay plan equivalent to one sequential fold."""

    n_chunks: int
    ops: Tuple[ReplayOp, ...]


def chunk_bounds(
    n_rows: int, n_chunks: int, rng: np.random.Generator
) -> Tuple[Tuple[int, int], ...]:
    """Randomized contiguous partition of ``n_rows`` into ``n_chunks``.

    Every chunk holds at least one row, so chunk emptiness is exercised
    only through the explicit ``feed_empty`` ops.
    """
    if n_chunks < 1 or n_rows < n_chunks:
        raise ConfigurationError("need 1 <= n_chunks <= n_rows")
    cuts = np.sort(
        rng.choice(np.arange(1, n_rows), size=n_chunks - 1, replace=False)
    )
    edges = np.concatenate(([0], cuts, [n_rows]))
    return tuple((int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]))


def generate_replay_schedule(
    rng: np.random.Generator, n_chunks: int, max_rewinds: int = 3
) -> ReplaySchedule:
    """Draw one replay schedule whose net effect is the sequential fold."""
    if n_chunks < 1:
        raise ConfigurationError("n_chunks must be >= 1")
    ops = []
    position = 0
    snapshot_at = None
    rewinds = 0
    while position < n_chunks:
        if snapshot_at is None or rng.random() < 0.35:
            ops.append(("snapshot",))
            snapshot_at = position
        if rng.random() < 0.25:
            ops.append(("feed_empty",))
        span = min(n_chunks - position, int(rng.integers(1, 4)))
        for chunk in range(position, position + span):
            ops.append(("feed", chunk))
        position += span
        if (
            rewinds < max_rewinds
            and position < n_chunks
            and rng.random() < 0.4
        ):
            ops.append(("restore",))
            position = snapshot_at
            rewinds += 1
    return ReplaySchedule(n_chunks=n_chunks, ops=tuple(ops))
