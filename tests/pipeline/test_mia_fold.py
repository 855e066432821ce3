"""Streaming MIA: the one-hot GEMM fold and the int32 histogram contract.

``MiaStreamConsumer`` folds each chunk as one float32 GEMM per block of
rows.  Its counts must equal, cell for cell, the per-sample
``np.bincount`` fold it replaced (kept here as the reference), at chunk
sizes around the block boundary, both strides, both bin counts, both
trace dtypes, and with values outside ``[bin_lo, bin_hi)``.  The
histogram is int32: the trace cap must be enforced on ``consume``, and
legacy int64 snapshots must restore exactly or be rejected.
"""

import numpy as np
import pytest

from repro.attacks.models import last_round_hd_predictions
from repro.errors import AttackError, CheckpointError
from repro.pipeline import CampaignSpec, MiaStreamConsumer, StreamingCampaign
from repro.pipeline.attack_consumers import _MIA_BLOCK_ROWS, _MIA_MAX_TRACES
from repro.power.acquisition import TraceSet

N_SAMPLES = 16
BIN_LO, BIN_HI = 0.0, 100.0


def _reference_counts(traces, ciphertexts, n_bins, sample_stride):
    """The per-sample bincount fold the GEMM replaced, in int64."""
    selected = np.asarray(traces, dtype=np.float64)[:, ::sample_stride]
    scaled = (selected - BIN_LO) / (BIN_HI - BIN_LO)
    bins = np.clip(np.floor(scaled * n_bins).astype(np.int64), 0, n_bins - 1)
    hd = last_round_hd_predictions(ciphertexts, 0).astype(np.int64)
    n_sel = selected.shape[1]
    counts = np.zeros((n_sel, 256, 9, n_bins), dtype=np.int64)
    guess_offset = np.arange(256, dtype=np.int64)[None, :] * 9 * n_bins
    class_bin = hd * n_bins
    for si in range(n_sel):
        flat = class_bin + bins[:, si][:, None] + guess_offset
        counts[si] += np.bincount(
            flat.ravel(), minlength=256 * 9 * n_bins
        ).reshape(256, 9, n_bins)
    return counts


def _trace_set(key, n, dtype=np.float64, seed=0):
    """Random traces spanning below ``bin_lo`` to above ``bin_hi``."""
    rng = np.random.default_rng(seed)
    traces = rng.uniform(BIN_LO - 30.0, BIN_HI + 30.0, size=(n, N_SAMPLES))
    traces[:, 0] = BIN_LO - 1.0  # always clips into the first bin
    traces[:, 1] = BIN_HI + 1.0  # always clips into the last bin
    return TraceSet(
        traces=traces.astype(dtype),
        plaintexts=np.zeros((n, 16), dtype=np.uint8),
        ciphertexts=rng.integers(0, 256, size=(n, 16), dtype=np.uint8),
        key=key,
        completion_times_ns=np.zeros(n),
        sample_period_ns=1.0,
    )


def _consumer(key, n_bins=16, sample_stride=4):
    return MiaStreamConsumer(
        key, bin_lo=BIN_LO, bin_hi=BIN_HI, n_bins=n_bins,
        sample_stride=sample_stride,
    )


def _counts(consumer):
    return consumer.snapshot()["counts"]


class TestFoldEquivalence:
    @pytest.mark.parametrize(
        "n",
        [1, _MIA_BLOCK_ROWS - 1, _MIA_BLOCK_ROWS, _MIA_BLOCK_ROWS + 1,
         _MIA_BLOCK_ROWS * 5 // 2],
    )
    @pytest.mark.parametrize("sample_stride", [1, 4])
    @pytest.mark.parametrize("n_bins", [2, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_counts_equal_bincount_reference(
        self, key, n, sample_stride, n_bins, dtype
    ):
        chunk = _trace_set(key, n, dtype=dtype, seed=n)
        consumer = _consumer(key, n_bins, sample_stride)
        consumer.consume(chunk)
        counts = _counts(consumer)
        assert counts.dtype == np.int32
        assert np.array_equal(
            counts,
            _reference_counts(chunk.traces, chunk.ciphertexts, n_bins,
                              sample_stride),
        )

    def test_out_of_range_values_clip_into_edge_bins(self, key):
        chunk = _trace_set(key, 50)
        consumer = _consumer(key, sample_stride=1)
        consumer.consume(chunk)
        counts = _counts(consumer)
        per_guess = np.full(256, 50)
        np.testing.assert_array_equal(counts[0, :, :, 0].sum(axis=1), per_guess)
        np.testing.assert_array_equal(counts[1, :, :, -1].sum(axis=1), per_guess)
        assert counts[0, :, :, 1:].sum() == counts[1, :, :, :-1].sum() == 0

    def test_uneven_chunks_accumulate_to_the_reference(self, key):
        whole = _trace_set(key, 3 * _MIA_BLOCK_ROWS, seed=7)
        consumer = _consumer(key)
        bounds = [0, 1, 700, _MIA_BLOCK_ROWS + 700, 3 * _MIA_BLOCK_ROWS]
        for lo, hi in zip(bounds, bounds[1:]):
            consumer.consume(whole.subset(np.arange(lo, hi)))
        assert consumer.n_traces == 3 * _MIA_BLOCK_ROWS
        assert np.array_equal(
            _counts(consumer),
            _reference_counts(whole.traces, whole.ciphertexts, 16, 4),
        )


class TestEngineRuns:
    def test_workers_and_resume_give_byte_equal_results(self, tmp_path):
        spec = CampaignSpec(target="unprotected")

        def run(workers):
            consumer = MiaStreamConsumer(spec.key)
            StreamingCampaign(
                spec, chunk_size=100, workers=workers, seed=11
            ).run(400, [consumer])
            return consumer

        one, two = run(1), run(2)

        class Stop(Exception):
            pass

        def interrupt(update):
            if update.done_traces >= 200:
                raise Stop

        checkpoint = tmp_path / "mia.ckpt"
        with pytest.raises(Stop):
            StreamingCampaign(spec, chunk_size=100, seed=11).run(
                400, [MiaStreamConsumer(spec.key)], checkpoint=checkpoint,
                progress=interrupt,
            )
        resumed = MiaStreamConsumer(spec.key)
        StreamingCampaign.resume(
            store=None, checkpoint=checkpoint, consumers=[resumed]
        )

        assert repr(one.result()) == repr(two.result()) == repr(resumed.result())
        assert np.array_equal(_counts(one), _counts(two))
        assert np.array_equal(_counts(one), _counts(resumed))


class TestInt32State:
    def _near_cap(self, key, headroom):
        """A consumer restored to ``headroom`` traces below the int32 cap."""
        seed = _consumer(key)
        seed.consume(_trace_set(key, 10))
        state = seed.snapshot()
        state["n_traces"] = _MIA_MAX_TRACES - headroom
        consumer = _consumer(key)
        consumer.restore(state)
        return consumer

    def test_consume_up_to_the_cap_then_raises(self, key):
        consumer = self._near_cap(key, headroom=10)
        consumer.consume(_trace_set(key, 10, seed=1))
        assert consumer.n_traces == _MIA_MAX_TRACES
        before = _counts(consumer)
        with pytest.raises(AttackError, match="int32"):
            consumer.consume(_trace_set(key, 1, seed=2))
        assert consumer.n_traces == _MIA_MAX_TRACES
        assert np.array_equal(_counts(consumer), before)

    def test_restore_rejects_n_traces_past_the_cap(self, key):
        state = _consumer(key).snapshot()
        state["n_traces"] = _MIA_MAX_TRACES + 1
        with pytest.raises(CheckpointError, match="n_traces"):
            _consumer(key).restore(state)

    def test_legacy_int64_snapshot_continues_bit_identically(self, key):
        chunks = [_trace_set(key, 300, seed=s) for s in range(4)]
        reference = _consumer(key)
        for chunk in chunks:
            reference.consume(chunk)

        half = _consumer(key)
        for chunk in chunks[:2]:
            half.consume(chunk)
        legacy = half.snapshot()
        legacy["counts"] = legacy["counts"].astype(np.int64)
        moved = _consumer(key)
        moved.restore(legacy)
        for chunk in chunks[2:]:
            moved.consume(chunk)

        assert _counts(moved).dtype == np.int32
        assert np.array_equal(_counts(moved), _counts(reference))
        assert repr(moved.result()) == repr(reference.result())

    @pytest.mark.parametrize(
        "value", [-1, _MIA_MAX_TRACES + 1, np.iinfo(np.int64).max]
    )
    def test_out_of_range_int64_snapshot_is_rejected(self, key, value):
        populated = _consumer(key)
        populated.consume(_trace_set(key, 10))
        state = populated.snapshot()
        counts = state["counts"].astype(np.int64)
        counts[0, 0, 0, 0] = value
        state["counts"] = counts
        with pytest.raises(CheckpointError, match="counts"):
            _consumer(key).restore(state)

    def test_non_integer_counts_are_rejected(self, key):
        populated = _consumer(key)
        populated.consume(_trace_set(key, 10))
        state = populated.snapshot()
        state["counts"] = state["counts"].astype(np.float64)
        with pytest.raises(CheckpointError, match="counts"):
            _consumer(key).restore(state)


def _reference_mutual_information(counts, n_traces):
    """``MiaStreamConsumer._mutual_information`` before it worked in place.

    Kept verbatim: the in-place form must match it bit for bit.
    """
    joint = counts.astype(np.float64) / n_traces
    p_class = joint.sum(axis=3, keepdims=True)
    p_bin = joint.sum(axis=2, keepdims=True)
    denom = p_class * p_bin
    # Where joint == 0 the ratio is pinned to 1, so log2 is 0 and the
    # term drops out — no masked log needed.
    ratio = np.divide(
        joint, denom, out=np.ones_like(joint), where=joint > 0
    )
    return (joint * np.log2(ratio)).sum(axis=(2, 3))


def _restored(key, counts):
    """A default consumer holding ``counts`` (one sample's total traces)."""
    consumer = MiaStreamConsumer(key)
    state = consumer.snapshot()
    state["counts"] = counts
    state["n_traces"] = int(counts[0, 0].sum())
    consumer.restore(state)
    return consumer


class TestResultInPlace:
    def test_sparse_histogram_is_bit_identical(self, key):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 40, size=(8, 256, 9, 16)).astype(np.int32)
        counts[rng.random(counts.shape) < 0.6] = 0
        counts[2] = 0  # a whole sample of empty cells
        consumer = _restored(key, counts)
        mi = consumer._mutual_information()
        expected = _reference_mutual_information(counts, consumer.n_traces)
        assert mi.dtype == expected.dtype
        assert np.array_equal(mi, expected)

    def test_odd_strided_sample_count_is_bit_identical(self, key):
        rng = np.random.default_rng(4)
        n = 700
        chunk = TraceSet(
            traces=rng.uniform(0.0, 100.0, size=(n, 126)),
            plaintexts=np.zeros((n, 16), dtype=np.uint8),
            ciphertexts=rng.integers(0, 256, size=(n, 16), dtype=np.uint8),
            key=key,
            completion_times_ns=np.zeros(n),
            sample_period_ns=1.0,
        )
        consumer = _consumer(key, sample_stride=2)
        consumer.consume(chunk)
        assert _counts(consumer).shape[0] == 63
        mi = consumer._mutual_information()
        expected = _reference_mutual_information(_counts(consumer), n)
        assert mi.dtype == expected.dtype
        assert np.array_equal(mi, expected)

    def test_result_transient_is_at_most_two_and_a_half_histograms(
        self, key, traced_peak
    ):
        # The default consumer's histogram on 256-sample traces.  The
        # out-of-place form peaked at ~4.2 float64 copies (75 MiB).
        counts = np.random.default_rng(5).integers(
            0, 40, size=(64, 256, 9, 16)
        ).astype(np.int32)
        consumer = _restored(key, counts)
        _, peak = traced_peak(consumer.result)
        assert peak <= 2.5 * counts.size * 8
