"""The fused TVLA fold: both populations in one exact Welford pass.

``TvlaStreamConsumer`` steps its fixed and random populations together
over the ``(n // 2, 2, S)`` view of each interleaved chunk.  Counts,
means, M2 and t-values must equal, bit for bit, the per-population row
loop it replaced (kept here as the reference): at even, odd and 1-row
chunk sizes, from a restored state whose populations differ in size, on
float32 input, across a resume from a checkpoint written by the
reference fold, and through the engine at 1 and 2 workers.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.leakage_assessment.tvla import IncrementalTvla
from repro.pipeline import (
    CampaignCheckpoint,
    CampaignSpec,
    StreamingCampaign,
    TvlaStreamConsumer,
)
from repro.power.acquisition import TraceSet
from repro.utils.stats import RunningMoments

N_SAMPLES = 37
FIXED_PT = bytes(range(16))


def _reference_update(moments, traces):
    """The per-population Welford row loop the fused fold replaced."""
    batch = np.atleast_2d(np.asarray(traces, dtype=np.float64))
    if batch.shape[0] == 0:
        return
    if moments._mean is None:
        moments._mean = np.zeros(batch.shape[1])
        moments._m2 = np.zeros(batch.shape[1])
    for row in batch:
        moments.count += 1
        delta = row - moments._mean
        moments._mean += delta / moments.count
        moments._m2 += delta * (row - moments._mean)


class ReferenceTvlaConsumer(TvlaStreamConsumer):
    """``TvlaStreamConsumer`` folding each population on its own."""

    def consume(self, chunk):
        _reference_update(self._inc._fixed, chunk.traces[0::2])
        _reference_update(self._inc._random, chunk.traces[1::2])


def _chunk(n, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    traces = rng.normal(100.0, 30.0, size=(n, N_SAMPLES))
    traces[0::2, 5] += 4.0  # a leaky sample, so t is not all noise
    traces[:, 7] = 50.0  # a constant sample: t = 0 from zero variance
    return TraceSet(
        traces=traces.astype(dtype),
        plaintexts=np.zeros((n, 16), dtype=np.uint8),
        ciphertexts=np.zeros((n, 16), dtype=np.uint8),
        key=bytes(16),
        completion_times_ns=np.zeros(n),
        sample_period_ns=1.0,
        metadata={"tvla_interleaved": True},
    )


def _assert_same_state(fused, reference):
    for name in ("_fixed", "_random"):
        a, b = getattr(fused._inc, name), getattr(reference._inc, name)
        assert a.count == b.count, name
        assert (a._mean is None) == (b._mean is None), name
        if a._mean is not None:
            assert np.array_equal(a._mean, b._mean), name
            assert np.array_equal(a._m2, b._m2), name
    if min(fused._inc._fixed.count, fused._inc._random.count) >= 2:
        assert np.array_equal(
            fused.result().t_values, reference.result().t_values
        )


class TestFoldEquivalence:
    @pytest.mark.parametrize(
        "sizes",
        [[2], [8, 8], [7], [7, 7, 3], [1, 5, 1, 2, 1], [1, 1, 1, 1], [501, 500]],
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_chunk_sequences_equal_the_reference(self, sizes, dtype):
        fused, reference = TvlaStreamConsumer(), ReferenceTvlaConsumer()
        for seed, n in enumerate(sizes):
            chunk = _chunk(n, dtype=dtype, seed=seed)
            fused.consume(chunk)
            reference.consume(chunk)
        _assert_same_state(fused, reference)

    def test_one_row_chunk_leaves_random_population_unpinned(self):
        consumer = TvlaStreamConsumer()
        consumer.consume(_chunk(1))
        assert consumer._inc._fixed.count == 1
        assert consumer._inc._random.count == 0
        assert consumer._inc._random._mean is None

    @pytest.mark.parametrize("sizes", [[6], [5, 4], [1, 1, 9]])
    def test_restored_unequal_populations_continue_exactly(self, sizes):
        # A state whose populations differ in size (an odd chunk earlier),
        # restored into both consumers, then folded further.
        seed_state = ReferenceTvlaConsumer()
        for n in (3, 5, 9):
            seed_state.consume(_chunk(n, seed=n))
        state = seed_state.snapshot()
        assert state["fixed.count"] != state["random.count"]

        fused, reference = TvlaStreamConsumer(), ReferenceTvlaConsumer()
        fused.restore(state)
        reference.restore(state)
        for seed, n in enumerate(sizes, start=100):
            chunk = _chunk(n, seed=seed)
            fused.consume(chunk)
            reference.consume(chunk)
        _assert_same_state(fused, reference)

    def test_running_moments_update_equals_the_reference(self):
        rng = np.random.default_rng(4)
        fused, reference = RunningMoments(), RunningMoments()
        for n in (1, 6, 13):
            batch = rng.normal(size=(n, N_SAMPLES)).astype(np.float32)
            fused.update(batch)
            _reference_update(reference, batch)
        single = rng.normal(size=N_SAMPLES)
        fused.update(single)
        _reference_update(reference, single)
        assert fused.count == reference.count == 21
        assert np.array_equal(fused._mean, reference._mean)
        assert np.array_equal(fused._m2, reference._m2)

    def test_width_mismatch_raises_before_folding(self):
        tvla = IncrementalTvla()
        tvla.update_interleaved(np.ones((4, N_SAMPLES)))
        before = tvla.snapshot()
        with pytest.raises(ConfigurationError):
            tvla.update_interleaved(np.ones((4, N_SAMPLES + 1)))
        after = tvla.snapshot()
        assert before.keys() == after.keys()
        for key in before:
            assert np.array_equal(before[key], after[key])


class TestEngineRuns:
    def _spec(self):
        return CampaignSpec(target="unprotected", fixed_plaintext=FIXED_PT)

    def _run(self, consumer, workers=1, **kwargs):
        StreamingCampaign(
            self._spec(), chunk_size=75, workers=workers, seed=9
        ).run(375, [consumer], **kwargs)
        return consumer

    def test_workers_and_resume_equal_the_reference(self, tmp_path):
        reference = self._run(ReferenceTvlaConsumer())
        one = self._run(TvlaStreamConsumer())
        two = self._run(TvlaStreamConsumer(), workers=2)
        _assert_same_state(one, reference)
        _assert_same_state(two, reference)

        class Stop(Exception):
            pass

        def interrupt(update):
            if update.chunk_index == 2:
                raise Stop

        checkpoint = tmp_path / "tvla.ckpt"
        with pytest.raises(Stop):
            self._run(
                TvlaStreamConsumer(), checkpoint=checkpoint, progress=interrupt
            )
        resumed = TvlaStreamConsumer()
        StreamingCampaign.resume(
            store=None, checkpoint=checkpoint, consumers=[resumed], workers=2
        )
        _assert_same_state(resumed, reference)

    def test_checkpoint_of_the_reference_fold_resumes_exactly(self, tmp_path):
        """A checkpoint written by the per-population fold (the format the
        fused fold keeps) restores into the fused consumer and continues
        bit-identically."""
        reference = self._run(ReferenceTvlaConsumer())

        class Stop(Exception):
            pass

        def interrupt(update):
            if update.chunk_index == 1:
                raise Stop

        checkpoint = tmp_path / "reference.ckpt"
        with pytest.raises(Stop):
            self._run(
                ReferenceTvlaConsumer(), checkpoint=checkpoint,
                progress=interrupt,
            )
        assert CampaignCheckpoint.load(checkpoint).chunks_done == 2
        resumed = TvlaStreamConsumer()
        StreamingCampaign.resume(
            store=None, checkpoint=checkpoint, consumers=[resumed]
        )
        _assert_same_state(resumed, reference)
