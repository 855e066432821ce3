"""Schedule generator invariants: every schedule is a valid fold plan."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.verify.schedules import (
    chunk_bounds,
    generate_replay_schedule,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestChunkBounds:
    def test_partition_covers_all_rows(self, rng):
        for _ in range(20):
            n_chunks = int(rng.integers(1, 9))
            bounds = chunk_bounds(100, n_chunks, rng)
            assert len(bounds) == n_chunks
            assert bounds[0][0] == 0 and bounds[-1][1] == 100
            for (a_lo, a_hi), (b_lo, b_hi) in zip(bounds, bounds[1:]):
                assert a_hi == b_lo
            assert all(hi > lo for lo, hi in bounds)

    def test_rejects_impossible_partitions(self, rng):
        with pytest.raises(ConfigurationError):
            chunk_bounds(3, 4, rng)
        with pytest.raises(ConfigurationError):
            chunk_bounds(3, 0, rng)


class TestReplaySchedules:
    def test_net_effect_is_sequential_fold(self, rng):
        """Simulating a schedule on a list accumulator yields 0..n-1."""
        for _ in range(50):
            n_chunks = int(rng.integers(1, 9))
            schedule = generate_replay_schedule(rng, n_chunks)
            fed, saved = [], None
            for op in schedule.ops:
                if op[0] == "snapshot":
                    saved = list(fed)
                elif op[0] == "restore":
                    fed = list(saved)
                elif op[0] == "feed":
                    fed.append(op[1])
            assert fed == list(range(n_chunks))

    def test_restore_never_precedes_snapshot(self, rng):
        for _ in range(50):
            schedule = generate_replay_schedule(rng, 6)
            seen_snapshot = False
            for op in schedule.ops:
                if op[0] == "snapshot":
                    seen_snapshot = True
                if op[0] == "restore":
                    assert seen_snapshot

    def test_rejects_zero_chunks(self, rng):
        with pytest.raises(ConfigurationError):
            generate_replay_schedule(rng, 0)
