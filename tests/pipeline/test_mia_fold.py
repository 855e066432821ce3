"""Streaming MIA: the ciphertext-byte fold and the int32 histogram contract.

``MiaStreamConsumer`` folds each chunk into ``hist[c, sample, bin]``
with one ``np.bincount`` and rebuilds the joint histogram
``counts[sample, guess, class, bin]`` from it at result time.  The
rebuild must equal, cell for cell, the per-sample ``np.bincount`` fold
of the joint histogram (kept here as the reference), at several chunk
sizes, both strides, both bin counts, both trace dtypes, and with
values outside ``[bin_lo, bin_hi)``.  The state is int32: the trace cap
must be enforced on ``consume`` and ``restore``, and snapshots of the
older 4-D ``counts`` state must be refused.
"""

import numpy as np
import pytest

from repro.attacks.models import last_round_hd_predictions
from repro.errors import AttackError, CheckpointError
from repro.pipeline import CampaignSpec, MiaStreamConsumer, StreamingCampaign
from repro.pipeline.attack_consumers import _MIA_MAX_TRACES
from repro.power.acquisition import TraceSet

N_SAMPLES = 16
BIN_LO, BIN_HI = 0.0, 100.0


def _reference_counts(traces, ciphertexts, n_bins, sample_stride):
    """The per-sample bincount fold of the joint histogram, in int64."""
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
    """A consumer whose histogram geometry is overridden for the test.

    The fold reads ``n_bins`` and ``sample_stride`` from the instance,
    so shadowing the class constants checks the fold and the rebuild
    against the reference at other geometries too.
    """
    consumer = MiaStreamConsumer(key)
    assert (consumer.bin_lo, consumer.bin_hi) == (BIN_LO, BIN_HI)
    consumer.n_bins = n_bins
    consumer.sample_stride = sample_stride
    return consumer


def _hist(consumer):
    return consumer.snapshot()["hist"]


def _joint(consumer):
    return consumer._joint_counts()


class TestFoldEquivalence:
    # Around the attack-zoo chunk of 1000 traces, and the 5000-trace
    # chunk of the CPA and TVLA campaigns.
    @pytest.mark.parametrize("n", [1, 999, 1000, 1001, 2500, 5000])
    @pytest.mark.parametrize("sample_stride", [1, 4])
    @pytest.mark.parametrize("n_bins", [2, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_counts_equal_bincount_reference(
        self, key, n, sample_stride, n_bins, dtype
    ):
        chunk = _trace_set(key, n, dtype=dtype, seed=n)
        consumer = _consumer(key, n_bins, sample_stride)
        consumer.consume(chunk)
        hist = _hist(consumer)
        assert hist.dtype == np.int32
        assert hist.shape == (256, -(-N_SAMPLES // sample_stride), n_bins)
        assert np.array_equal(
            _joint(consumer),
            _reference_counts(chunk.traces, chunk.ciphertexts, n_bins,
                              sample_stride),
        )

    def test_out_of_range_values_clip_into_edge_bins(self, key):
        chunk = _trace_set(key, 50)
        consumer = _consumer(key, sample_stride=1)
        consumer.consume(chunk)
        counts = _joint(consumer)
        per_guess = np.full(256, 50)
        np.testing.assert_array_equal(counts[0, :, :, 0].sum(axis=1), per_guess)
        np.testing.assert_array_equal(counts[1, :, :, -1].sum(axis=1), per_guess)
        assert counts[0, :, :, 1:].sum() == counts[1, :, :, :-1].sum() == 0

    def test_uneven_chunks_accumulate_to_the_reference(self, key):
        whole = _trace_set(key, 3000, seed=7)
        consumer = _consumer(key)
        bounds = [0, 1, 700, 2100, 3000]
        for lo, hi in zip(bounds, bounds[1:]):
            consumer.consume(whole.subset(np.arange(lo, hi)))
        assert consumer.n_traces == 3000
        assert np.array_equal(
            _joint(consumer),
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
        assert np.array_equal(_hist(one), _hist(two))
        assert np.array_equal(_hist(one), _hist(resumed))


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
        before = _hist(consumer)
        with pytest.raises(AttackError, match="int32"):
            consumer.consume(_trace_set(key, 1, seed=2))
        assert consumer.n_traces == _MIA_MAX_TRACES
        assert np.array_equal(_hist(consumer), before)

    def test_restore_rejects_n_traces_past_the_cap(self, key):
        state = _consumer(key).snapshot()
        state["n_traces"] = _MIA_MAX_TRACES + 1
        with pytest.raises(CheckpointError, match="n_traces"):
            _consumer(key).restore(state)

    def test_four_d_counts_snapshot_is_refused(self, key):
        populated = _consumer(key)
        populated.consume(_trace_set(key, 10))
        state = populated.snapshot()
        del state["hist"]
        state["counts"] = np.zeros((4, 256, 9, 16), dtype=np.int32)
        with pytest.raises(CheckpointError, match="counts"):
            _consumer(key).restore(state)

    @pytest.mark.parametrize(
        "value", [-1, _MIA_MAX_TRACES + 1, np.iinfo(np.int64).max]
    )
    def test_out_of_range_int64_snapshot_is_rejected(self, key, value):
        populated = _consumer(key)
        populated.consume(_trace_set(key, 10))
        state = populated.snapshot()
        hist = state["hist"].astype(np.int64)
        hist[0, 0, 0] = value
        state["hist"] = hist
        with pytest.raises(CheckpointError, match="hist"):
            _consumer(key).restore(state)

    def test_non_integer_counts_are_rejected(self, key):
        populated = _consumer(key)
        populated.consume(_trace_set(key, 10))
        state = populated.snapshot()
        state["hist"] = state["hist"].astype(np.float64)
        with pytest.raises(CheckpointError, match="hist"):
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


def _restored(key, hist):
    """A default consumer holding ``hist`` (one sample's total traces)."""
    consumer = MiaStreamConsumer(key)
    state = consumer.snapshot()
    state["hist"] = hist
    state["n_traces"] = int(hist[:, 0].sum())
    consumer.restore(state)
    return consumer


def _counts_from_hist(hist):
    """The joint histogram ``hist`` stands for, summed in int64."""
    by_byte = np.repeat(np.arange(256, dtype=np.uint8)[:, None], 16, 1)
    hd = last_round_hd_predictions(by_byte, 0)  # (c, guess)
    hist = hist.astype(np.int64)
    counts = np.zeros((hist.shape[1], 256, 9, hist.shape[2]), np.int64)
    for k in range(9):
        counts[:, :, k] = np.einsum(
            "cg,csb->sgb", (hd == k).astype(np.int64), hist
        )
    return counts


class TestResultInPlace:
    def test_sparse_histogram_is_bit_identical(self, key):
        rng = np.random.default_rng(3)
        hist = rng.integers(0, 40, size=(256, 8, 16)).astype(np.int32)
        hist[rng.random(hist.shape) < 0.6] = 0
        hist[:, 2] = 0  # a whole sample of empty cells
        consumer = _restored(key, hist)
        mi = consumer._mutual_information()
        expected = _reference_mutual_information(
            _counts_from_hist(hist), consumer.n_traces
        )
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
        assert _hist(consumer).shape[1] == 63
        mi = consumer._mutual_information()
        expected = _reference_mutual_information(
            _reference_counts(chunk.traces, chunk.ciphertexts, 16, 2), n
        )
        assert mi.dtype == expected.dtype
        assert np.array_equal(mi, expected)

    def test_result_transient_is_at_most_two_and_a_half_histograms(
        self, key, traced_peak
    ):
        # The default consumer's state on 256-sample traces, whose joint
        # histogram is (64, 256, 9, 16).  The out-of-place MI peaked at
        # ~4.2 float64 copies of it (75 MiB).
        hist = np.random.default_rng(5).integers(
            0, 40, size=(256, 64, 16)
        ).astype(np.int32)
        consumer = _restored(key, hist)
        _, peak = traced_peak(consumer.result)
        assert peak <= 2.5 * (64 * 256 * 9 * 16) * 8
