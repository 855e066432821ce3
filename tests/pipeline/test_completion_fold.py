"""The completion-time histogram as sorted arrays, against a Counter.

``CompletionTimeConsumer`` keeps its buckets as sorted numpy arrays and
merges each chunk's ``np.unique`` into them.  Its ``result()`` keys
(quantized value x ``resolution_ns``), counts and snapshot arrays must
equal the ``Counter`` fold it replaced (kept here as the reference),
also after a restore and further chunks, and after a merge.
"""

from collections import Counter

import numpy as np
import pytest

from repro.errors import AttackError, CheckpointError
from repro.pipeline import CompletionTimeConsumer
from repro.power.acquisition import TraceSet

RESOLUTION_NS = 0.01


class CounterReference:
    """The dict-of-buckets fold the sorted arrays replaced."""

    def __init__(self, resolution_ns=RESOLUTION_NS):
        self.resolution_ns = resolution_ns
        self.counts = Counter()

    def consume(self, chunk):
        quantized = np.round(
            np.asarray(chunk.completion_times_ns, dtype=np.float64)
            / self.resolution_ns
        )
        values, counts = np.unique(quantized, return_counts=True)
        for value, count in zip(values, counts):
            self.counts[float(value) * self.resolution_ns] += int(count)

    def snapshot(self):
        times = np.array(sorted(self.counts), dtype=np.float64)
        counts = np.array([self.counts[t] for t in times], dtype=np.int64)
        return {"times": times, "counts": counts}


def _chunk(n, seed, spread=300):
    """Completion times on a coarse grid, so buckets repeat across chunks."""
    rng = np.random.default_rng(seed)
    times = 400.0 + rng.integers(0, spread, size=n) * 0.37 + rng.normal(
        0.0, 1e-4, size=n
    )
    return TraceSet(
        traces=np.zeros((n, 1)),
        plaintexts=np.zeros((n, 16), dtype=np.uint8),
        ciphertexts=np.zeros((n, 16), dtype=np.uint8),
        key=bytes(16),
        completion_times_ns=times,
        sample_period_ns=1.0,
    )


def _assert_equal(consumer, reference):
    result = consumer.result()
    assert result.counts == dict(reference.counts)
    assert sorted(result.counts) == sorted(reference.counts)
    for got, want in zip(sorted(result.counts), sorted(reference.counts)):
        assert repr(got) == repr(want)
    snap, ref_snap = consumer.snapshot(), reference.snapshot()
    for key in ("times", "counts"):
        assert snap[key].dtype == ref_snap[key].dtype
        assert np.array_equal(snap[key], ref_snap[key])


@pytest.mark.parametrize("sizes", [[1], [500], [37, 1, 400, 2, 1000]])
def test_chunks_equal_the_counter_reference(sizes):
    consumer, reference = CompletionTimeConsumer(), CounterReference()
    for seed, n in enumerate(sizes):
        chunk = _chunk(n, seed)
        consumer.consume(chunk)
        reference.consume(chunk)
    _assert_equal(consumer, reference)


def test_restore_then_continue_equals_the_reference():
    first, reference = CompletionTimeConsumer(), CounterReference()
    for seed in range(3):
        chunk = _chunk(700, seed)
        first.consume(chunk)
        reference.consume(chunk)
    resumed = CompletionTimeConsumer()
    resumed.restore(first.snapshot())
    _assert_equal(resumed, reference)
    for seed in range(3, 7):
        chunk = _chunk(700, seed, spread=600)
        resumed.consume(chunk)
        reference.consume(chunk)
    _assert_equal(resumed, reference)


def test_restore_of_a_counter_snapshot_continues_exactly():
    reference = CounterReference()
    reference.consume(_chunk(900, 0))
    state = {"resolution_ns": RESOLUTION_NS, **reference.snapshot()}
    consumer = CompletionTimeConsumer()
    consumer.restore(state)
    chunk = _chunk(900, 1)
    consumer.consume(chunk)
    reference.consume(chunk)
    _assert_equal(consumer, reference)


def test_merge_equals_one_fold():
    left, right = CompletionTimeConsumer(), CompletionTimeConsumer()
    reference = CounterReference()
    for seed in range(4):
        chunk = _chunk(300, seed)
        (left if seed % 2 else right).consume(chunk)
        reference.consume(chunk)
    left.merge(right)
    _assert_equal(left, reference)
    fresh = CompletionTimeConsumer()
    left.merge(fresh)
    _assert_equal(left, reference)


def test_empty_consumer_has_no_result():
    with pytest.raises(AttackError):
        CompletionTimeConsumer().result()


def test_restore_rejects_repeated_times():
    consumer = CompletionTimeConsumer()
    with pytest.raises(CheckpointError):
        consumer.restore(
            {
                "resolution_ns": RESOLUTION_NS,
                "times": np.array([1.0, 1.0]),
                "counts": np.array([1, 2]),
            }
        )
