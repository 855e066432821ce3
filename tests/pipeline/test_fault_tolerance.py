"""Fault tolerance: crash/resume equivalence, worker faults, degradation.

The acceptance criteria of the robustness work, as tests:

* a campaign killed after chunk *k* and resumed produces **bit-identical**
  consumer results and store bytes to an uninterrupted run, at any
  worker count;
* a chunk whose acquisition raises fails the run on its first attempt,
  pooled or inline, and leaves the store holding only committed chunks;
* a dying worker pool degrades to inline execution instead of losing
  the campaign.

All failures are injected deterministically via
:mod:`repro.testing.faults` — no sleeps, no signals, no flakiness.
"""

import numpy as np
import pytest

from repro.errors import (
    AttackError,
    CheckpointError,
    ConfigurationError,
    InjectedCrashError,
    InjectedFaultError,
)
from repro.pipeline import (
    CampaignCheckpoint,
    CampaignSpec,
    CompletionTimeConsumer,
    CpaStreamConsumer,
    StreamingCampaign,
    TvlaStreamConsumer,
)
from repro.store import ChunkedTraceStore
from repro.testing.faults import FaultPlan

N_TRACES = 200
CHUNK = 50
SEED = 31
FIXED_PT = bytes(range(16))


def _spec(**overrides):
    return CampaignSpec(target="unprotected", **overrides)


def _consumers():
    return [CpaStreamConsumer(byte_index=0), CompletionTimeConsumer()]


def _store_bytes(root):
    """Every file in a store directory, name -> bytes."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _assert_same_results(a, b):
    np.testing.assert_array_equal(
        a.results["cpa[0]"].peak_corr, b.results["cpa[0]"].peak_corr
    )
    assert a.results["completion"].counts == b.results["completion"].counts


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted campaign: results + store bytes to beat."""
    root = tmp_path_factory.mktemp("reference") / "store"
    consumers = _consumers()
    report = StreamingCampaign(_spec(), chunk_size=CHUNK, seed=SEED).run(
        N_TRACES, consumers, store=root
    )
    return report, _store_bytes(root)


class TestCrashResume:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_after_crash_and_resume(
        self, workers, reference, tmp_path
    ):
        ref_report, ref_bytes = reference
        store = tmp_path / "store"
        ckpt = tmp_path / "campaign.npz"
        engine = StreamingCampaign(
            _spec(),
            chunk_size=CHUNK,
            seed=SEED,
            workers=workers,
            faults=FaultPlan(crash_after=1),
        )
        with pytest.raises(InjectedCrashError):
            engine.run(N_TRACES, _consumers(), store=store, checkpoint=ckpt)
        assert CampaignCheckpoint.load(ckpt).chunks_done == 2

        resumed = StreamingCampaign.resume(
            store, ckpt, _consumers(), workers=workers
        )
        _assert_same_results(ref_report, resumed)
        assert _store_bytes(store) == ref_bytes
        assert resumed.resumed_from_chunk == 2
        assert resumed.n_traces == N_TRACES
        # the resumed run kept checkpointing to the same file
        assert CampaignCheckpoint.load(ckpt).chunks_done == N_TRACES // CHUNK

    def test_tvla_crash_resume(self, tmp_path):
        spec = _spec(fixed_plaintext=FIXED_PT)
        clean = StreamingCampaign(spec, chunk_size=CHUNK, seed=5).run(
            N_TRACES, [TvlaStreamConsumer()]
        )
        ckpt = tmp_path / "c.npz"
        with pytest.raises(InjectedCrashError):
            StreamingCampaign(
                spec, chunk_size=CHUNK, seed=5, faults=FaultPlan(crash_after=0)
            ).run(N_TRACES, [TvlaStreamConsumer()],
                  store=tmp_path / "s", checkpoint=ckpt)
        resumed = StreamingCampaign.resume(
            tmp_path / "s", ckpt, [TvlaStreamConsumer()]
        )
        np.testing.assert_array_equal(
            clean.results["tvla"].t_values, resumed.results["tvla"].t_values
        )

    def test_store_ahead_of_checkpoint_is_replayed(self, reference, tmp_path):
        """Crash between store append and checkpoint write loses nothing."""
        ref_report, ref_bytes = reference

        class ExplodingCpa(CpaStreamConsumer):
            """Dies while folding chunk 2 — after the store append."""

            def consume(self, chunk):
                if chunk.metadata["chunk_index"] == 2:
                    raise AttackError("boom mid-fold")
                super().consume(chunk)

        store, ckpt = tmp_path / "store", tmp_path / "c.npz"
        with pytest.raises(AttackError):
            StreamingCampaign(_spec(), chunk_size=CHUNK, seed=SEED).run(
                N_TRACES,
                [ExplodingCpa(byte_index=0), CompletionTimeConsumer()],
                store=store,
                checkpoint=ckpt,
            )
        # chunk 2 reached the store but never the checkpoint
        loaded = CampaignCheckpoint.load(ckpt)
        assert loaded.chunks_done == 2
        resumed = StreamingCampaign.resume(store, ckpt, _consumers())
        assert resumed.replayed_chunks == 1
        _assert_same_results(ref_report, resumed)
        assert _store_bytes(store) == ref_bytes

    def test_resume_without_store_reacquires(self, reference, tmp_path):
        """A store is optional on resume: chunks are re-derived from seeds."""
        ref_report, _ = reference
        ckpt = tmp_path / "c.npz"
        with pytest.raises(InjectedCrashError):
            StreamingCampaign(
                _spec(), chunk_size=CHUNK, seed=SEED,
                faults=FaultPlan(crash_after=1),
            ).run(N_TRACES, _consumers(), checkpoint=ckpt)
        resumed = StreamingCampaign.resume(None, ckpt, _consumers())
        _assert_same_results(ref_report, resumed)

    def test_resume_rejects_mismatched_store(self, tmp_path):
        """A store behind its checkpoint cannot have written it."""
        short_store, ckpt = tmp_path / "short", tmp_path / "c.npz"
        with pytest.raises(InjectedCrashError):
            StreamingCampaign(
                _spec(), chunk_size=CHUNK, seed=SEED,
                faults=FaultPlan(crash_after=0),
            ).run(N_TRACES, _consumers(), store=short_store,
                  checkpoint=tmp_path / "early.npz")
        with pytest.raises(InjectedCrashError):
            StreamingCampaign(
                _spec(), chunk_size=CHUNK, seed=SEED,
                faults=FaultPlan(crash_after=2),
            ).run(N_TRACES, _consumers(), store=tmp_path / "long",
                  checkpoint=ckpt)
        with pytest.raises(CheckpointError):
            StreamingCampaign.resume(short_store, ckpt, _consumers())

    @pytest.mark.parametrize(
        "other, recorded",
        [
            ({"seed": SEED + 1}, "seed"),
            ({"spec": {"target": "rdi"}}, "target"),
            ({"spec": {"dtype": "float32"}}, "dtype"),
            ({"spec": {"key": bytes(16)}}, "key"),
        ],
    )
    def test_resume_rejects_another_campaigns_store(
        self, tmp_path, other, recorded
    ):
        """A store of the same layout from another campaign is refused,
        not folded into the resumed consumers."""
        ckpt = tmp_path / "c.npz"
        with pytest.raises(InjectedCrashError):
            StreamingCampaign(
                _spec(), chunk_size=CHUNK, seed=SEED,
                faults=FaultPlan(crash_after=1),
            ).run(N_TRACES, _consumers(), store=tmp_path / "own",
                  checkpoint=ckpt)
        spec = CampaignSpec(**{"target": "unprotected", **other.get("spec", {})})
        StreamingCampaign(
            spec, chunk_size=CHUNK, seed=other.get("seed", SEED)
        ).run(N_TRACES, _consumers(), store=tmp_path / "other")
        with pytest.raises(CheckpointError, match=f"another campaign.*{recorded}"):
            StreamingCampaign.resume(tmp_path / "other", ckpt, _consumers())

    def test_resume_accepts_a_store_without_metadata(self, reference, tmp_path):
        """A store created without campaign metadata (as the benchmark
        ledger creates its own) is checked by key, dtype and layout only."""
        ref_report, ref_bytes = reference
        ckpt = tmp_path / "c.npz"
        sample_period_ns = ref_report.spec.build_device(
            np.random.default_rng(0)
        ).sample_period_ns
        bare = ChunkedTraceStore.create(
            tmp_path / "bare", key=_spec().key,
            sample_period_ns=sample_period_ns,
        )
        assert bare.metadata == {}
        with pytest.raises(InjectedCrashError):
            StreamingCampaign(
                _spec(), chunk_size=CHUNK, seed=SEED,
                faults=FaultPlan(crash_after=1),
            ).run(N_TRACES, _consumers(), store=bare, checkpoint=ckpt)
        resumed = StreamingCampaign.resume(
            ChunkedTraceStore.open(tmp_path / "bare"), ckpt, _consumers()
        )
        _assert_same_results(ref_report, resumed)

    def test_resume_rejects_wrong_consumers(self, tmp_path):
        ckpt = tmp_path / "c.npz"
        with pytest.raises(InjectedCrashError):
            StreamingCampaign(
                _spec(), chunk_size=CHUNK, seed=SEED,
                faults=FaultPlan(crash_after=0),
            ).run(N_TRACES, _consumers(), checkpoint=ckpt)
        with pytest.raises(CheckpointError):
            StreamingCampaign.resume(None, ckpt, [CompletionTimeConsumer()])


class TestWorkerFault:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_fault_fails_on_first_attempt(self, workers, tmp_path):
        """A chunk is a pure function of its seeds, so a failed
        acquisition is not retried: the run fails there, and the store
        keeps only what was committed before it."""
        store = tmp_path / "store"
        engine = StreamingCampaign(
            _spec(), chunk_size=CHUNK, seed=SEED, workers=workers,
            faults=FaultPlan.parse("worker@1"),
        )
        with pytest.raises(InjectedFaultError, match="chunk 1"):
            engine.run(N_TRACES, _consumers(), store=store)
        # Files that pool workers wrote ahead of the failure are gone.
        opened = ChunkedTraceStore.open(store, quarantine=False)
        assert opened.n_chunks == 1
        assert opened.verify().ok
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("worker@1x2")


class TestPoolDegradation:
    def test_pool_break_degrades_not_aborts(self, reference):
        ref_report, _ = reference
        report = StreamingCampaign(
            _spec(), chunk_size=CHUNK, seed=SEED, workers=2,
            faults=FaultPlan(pool_breaks=(1,)),
        ).run(N_TRACES, _consumers())
        _assert_same_results(ref_report, report)
        assert report.degraded
        assert report.degraded_chunks == 3  # chunks 1..3 ran inline
        assert "DEGRADED" in report.summary()

    def test_degraded_run_still_persists_and_checkpoints(self, tmp_path):
        report = StreamingCampaign(
            _spec(), chunk_size=CHUNK, seed=SEED, workers=2,
            faults=FaultPlan(pool_breaks=(0,)),
        ).run(N_TRACES, store=tmp_path / "s", checkpoint=tmp_path / "c.npz")
        assert report.degraded and report.degraded_chunks == 4
        assert CampaignCheckpoint.load(tmp_path / "c.npz").chunks_done == 4

    def test_consumer_error_kills_pool_promptly(self):
        """Satellite fix: a dead campaign must terminate() its pool, not
        block in close()/join() behind unfinished chunks."""

        class Poisoned(CompletionTimeConsumer):
            def consume(self, chunk):
                raise AttackError("consumer died")

        engine = StreamingCampaign(_spec(), chunk_size=CHUNK, seed=SEED, workers=2)
        with pytest.raises(AttackError):
            engine.run(N_TRACES, [Poisoned()])
