"""Consumer plug-ins and the parallel-merge support they build on."""

import numpy as np
import pytest

from repro.attacks import IncrementalCpa
from repro.errors import AttackError
from repro.leakage_assessment import IncrementalTvla
from repro.pipeline import (
    CompletionTimeConsumer,
    CpaStreamConsumer,
    TraceConsumer,
    TvlaStreamConsumer,
)
from repro.power.acquisition import TraceSet

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def _chunk(rng, n=32, metadata=None):
    return TraceSet(
        traces=rng.normal(size=(n, 48)),
        plaintexts=rng.integers(0, 256, (n, 16), dtype=np.uint8),
        ciphertexts=rng.integers(0, 256, (n, 16), dtype=np.uint8),
        key=KEY,
        completion_times_ns=rng.choice([200.0, 250.0, 300.0], size=n),
        sample_period_ns=4.0,
        metadata=dict(metadata or {}),
    )


class TestProtocol:
    def test_builtins_satisfy_protocol(self):
        for consumer in (
            CpaStreamConsumer(),
            TvlaStreamConsumer(),
            CompletionTimeConsumer(),
        ):
            assert isinstance(consumer, TraceConsumer)
            assert isinstance(consumer.name, str)


class TestCpaConsumer:
    def test_matches_incremental_cpa(self, rng):
        consumer = CpaStreamConsumer(byte_index=0)
        reference = IncrementalCpa(byte_index=0)
        for _ in range(3):
            chunk = _chunk(rng)
            consumer.consume(chunk)
            reference.update(chunk.traces, chunk.ciphertexts)
        np.testing.assert_array_equal(
            consumer.result().peak_corr, reference.result().peak_corr
        )
        assert consumer.n_traces == reference.n_traces == 96

    def test_default_name_includes_byte(self):
        assert CpaStreamConsumer(byte_index=4).name == "cpa[4]"


class TestTvlaConsumer:
    def test_requires_interleaved_chunks(self, rng):
        consumer = TvlaStreamConsumer()
        with pytest.raises(AttackError):
            consumer.consume(_chunk(rng))

    def test_splits_populations_by_parity(self, rng):
        consumer = TvlaStreamConsumer()
        reference = IncrementalTvla()
        for _ in range(2):
            chunk = _chunk(rng, metadata={"tvla_interleaved": True})
            consumer.consume(chunk)
            reference.update_fixed(chunk.traces[0::2])
            reference.update_random(chunk.traces[1::2])
        np.testing.assert_array_equal(
            consumer.result().t_values, reference.result().t_values
        )


class TestCompletionConsumer:
    def test_counts_match_numpy(self, rng):
        consumer = CompletionTimeConsumer()
        times = []
        for _ in range(3):
            chunk = _chunk(rng)
            consumer.consume(chunk)
            times.append(chunk.completion_times_ns)
        all_times = np.concatenate(times)
        stats = consumer.result()
        assert stats.n_encryptions == all_times.size
        assert stats.min_ns == pytest.approx(all_times.min())
        assert stats.max_ns == pytest.approx(all_times.max())
        assert stats.distinct_times == np.unique(all_times).size
        hist_times, hist_counts = stats.histogram()
        assert hist_counts.sum() == all_times.size
        assert stats.max_identical == hist_counts.max()

    def test_empty_result_rejected(self):
        with pytest.raises(AttackError):
            CompletionTimeConsumer().result()
