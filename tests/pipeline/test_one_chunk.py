"""The parent holds one chunk at a time.

``StreamingCampaign._execute`` frees each folded chunk before its source
fetches the next, and the sources keep no reference of their own once
they have yielded: the store replay (:func:`_replayed`, through
``ChunkedTraceStore.chunk``), the inline acquisition (:func:`_inline`,
through ``engine._acquire_chunk``) and the workers (:func:`_pooled`,
through ``engine._receive``).  Each fetch is hooked here: when it
starts, a weak reference to the previous chunk's trace array must
already be dead.  No ``gc.collect()`` runs, so only reference counting
may have freed it, as it does in a campaign.  On the pickle transport a
worker blocks mid-send until the parent reads, so the workers never run
more than one chunk each ahead of the fold.
"""

import gc
import shutil
import time
import weakref

import pytest

from repro.pipeline import (
    CampaignCheckpoint,
    CampaignSpec,
    CompletionTimeConsumer,
    CpaStreamConsumer,
    StreamingCampaign,
)
from repro.pipeline import engine
from repro.pipeline import shm as shm_transport
from repro.power import TraceSet
from repro.store import ChunkedTraceStore

N_TRACES = 200
CHUNK = 50
SEED = 17


class _Stop(Exception):
    pass


class _Fetches:
    """Hooks both chunk sources and records, per fetch, whether the
    previous chunk's trace array was still alive when it started."""

    def __init__(self, monkeypatch):
        self.previous = None
        self.kinds = []
        self.alive = []
        read = ChunkedTraceStore.chunk
        acquire = engine._acquire_chunk
        monkeypatch.setattr(
            ChunkedTraceStore, "chunk",
            lambda store, index: self._fetch("store", lambda: read(store, index)),
        )
        monkeypatch.setattr(
            engine, "_acquire_chunk",
            lambda *args: self._fetch("acquire", lambda: acquire(*args)),
        )

    def _fetch(self, kind, fetch):
        self.kinds.append(kind)
        self.alive.append(self.previous is not None and self.previous() is not None)
        out = fetch()
        chunk = out.chunk if kind == "acquire" else out
        self.previous = weakref.ref(chunk.traces)
        return out


def _consumers():
    return [CpaStreamConsumer(byte_index=0), CompletionTimeConsumer()]


def _spec():
    return CampaignSpec(target="unprotected")


def test_inline_run_holds_one_chunk(tmp_path, monkeypatch):
    fetches = _Fetches(monkeypatch)
    StreamingCampaign(_spec(), chunk_size=CHUNK, seed=SEED).run(
        N_TRACES, _consumers(), store=tmp_path / "store",
        checkpoint=tmp_path / "c.ckpt",
    )
    assert fetches.kinds == ["acquire"] * 4
    assert fetches.alive == [False] * 4


def test_resume_with_the_store_ahead_holds_one_chunk(tmp_path, monkeypatch):
    # The store keeps chunks 0-2, the checkpoint only chunk 0: the resume
    # replays chunks 1 and 2 from the store, then acquires chunk 3.
    checkpoint, early = tmp_path / "c.ckpt", tmp_path / "early.ckpt"

    def stop_after_three(update):
        if update.chunk_index == 0:
            shutil.copy(checkpoint, early)
        if update.chunk_index == 2:
            raise _Stop

    with pytest.raises(_Stop):
        StreamingCampaign(_spec(), chunk_size=CHUNK, seed=SEED).run(
            N_TRACES, _consumers(), store=tmp_path / "store",
            checkpoint=checkpoint, progress=stop_after_three,
        )
    assert CampaignCheckpoint.load(early).chunks_done == 1

    fetches = _Fetches(monkeypatch)
    report = StreamingCampaign.resume(
        tmp_path / "store", early, consumers=_consumers(),
        checkpoint_path=checkpoint,
    )
    assert report.replayed_chunks == 2
    assert fetches.kinds == ["store", "store", "acquire"]
    assert fetches.alive == [False] * 3


def test_replay_from_a_zero_chunk_checkpoint_holds_one_chunk(
    tmp_path, monkeypatch
):
    StreamingCampaign(_spec(), chunk_size=CHUNK, seed=SEED).run(
        N_TRACES, store=tmp_path / "store"
    )
    consumers = _consumers()
    zero = CampaignCheckpoint.capture(
        _spec(), SEED, CHUNK, N_TRACES, 0, consumers
    )

    fetches = _Fetches(monkeypatch)
    report = StreamingCampaign.resume(
        tmp_path / "store", zero, consumers=consumers
    )
    assert report.replayed_chunks == 4
    assert fetches.kinds == ["store"] * 4
    assert fetches.alive == [False] * 4


@pytest.mark.parametrize("transport", ["pickle", "shm-ring"])
def test_pooled_run_holds_no_folded_chunk(monkeypatch, transport):
    # What must be dead by the next receive is every folded chunk.
    if transport == "pickle":
        monkeypatch.setattr(shm_transport, "shm_available", lambda: False)
    elif not shm_transport.shm_available():
        pytest.skip("POSIX shared memory unavailable on this host")
    folded = []
    alive = []

    class Recording(CompletionTimeConsumer):
        def consume(self, chunk):
            folded.append(weakref.ref(chunk.traces))
            super().consume(chunk)

    receive = engine._receive

    def hooked(*args):
        alive.append(sum(ref() is not None for ref in folded))
        return receive(*args)

    monkeypatch.setattr(engine, "_receive", hooked)
    report = StreamingCampaign(
        _spec(), chunk_size=CHUNK, workers=2, seed=SEED
    ).run(N_TRACES, [Recording()])
    assert report.transport == transport
    assert len(folded) == 4
    assert alive == [0] * 4


def test_pickle_workers_run_at_most_one_chunk_ahead(monkeypatch):
    """A fold slower than acquisition must not pile chunks up in the
    parent: the pipe holds each worker back, so at every fold at most
    ``workers`` chunks that are not yet folded are alive."""
    monkeypatch.setattr(shm_transport, "shm_available", lambda: False)
    workers, n_chunks = 2, 8
    alive = []

    def trace_sets():
        return sum(type(obj) is TraceSet for obj in gc.get_objects())

    before = trace_sets()  # what earlier tests left alive

    class Slow(CompletionTimeConsumer):
        def consume(self, chunk):
            alive.append(trace_sets() - before)
            time.sleep(0.3)
            super().consume(chunk)

    report = StreamingCampaign(
        _spec(), chunk_size=CHUNK, workers=workers, seed=SEED
    ).run(CHUNK * n_chunks, [Slow()])
    assert report.transport == "pickle"
    assert len(alive) == n_chunks
    assert max(alive) <= workers, alive
