"""CPA cross-sums computed in the engine's workers, folded in the parent.

A pooled campaign runs each :class:`SummarizingConsumer`'s ``summarize``
in the worker that acquired the chunk and calls only ``fold`` in the
parent.  Nothing about that may show in the science: results, snapshots
and store bytes equal a one-worker run at any worker count, transport,
start method and dtype, across resume (including from a checkpoint the
pre-split in-place update wrote) and store replay.  Consumers that
cannot be split — a ``consume`` override, a wrapper — keep being fed
whole chunks in the parent, and a ``summarize`` that raises in a worker
fails the campaign with its own error, unretried and without
degradation — or, when that error does not pickle, with an
``AcquisitionError`` that names it.
"""

import multiprocessing
import os
import pickle
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.attacks.incremental import CpaChunkSummary
from repro.attacks.models import hd_pair_table
from repro.crypto.aes_tables import SHIFT_ROWS_MAP
from repro.errors import AcquisitionError, AttackError, PoolBrokenError
from repro.obs import Observability
from repro.pipeline import (
    CampaignCheckpoint,
    CampaignSpec,
    CompletionTimeConsumer,
    CpaBankConsumer,
    CpaStreamConsumer,
    StreamingCampaign,
)
from repro.pipeline import engine as engine_module
from repro.pipeline import shm as shm_transport
from repro.utils.blas import blas_threads

CHUNK = 100
N_CHUNKS = 4
N_TRACES = CHUNK * N_CHUNKS
SEED = 21

TRANSPORTS = [
    "pickle",
    pytest.param(
        "shm",
        marks=pytest.mark.skipif(
            not shm_transport.shm_available(),
            reason="POSIX shared memory unavailable on this host",
        ),
    ),
]


def _select_transport(monkeypatch, transport):
    """Force the pickle pipe; the engine takes shm whenever it can."""
    if transport == "pickle":
        monkeypatch.setattr(shm_transport, "shm_available", lambda: False)


def _spec(dtype="float64"):
    return CampaignSpec(target="unprotected", noise_std=1.0, dtype=dtype)


def _consumers():
    return [
        CpaBankConsumer(),
        CpaStreamConsumer(byte_index=4),
        CompletionTimeConsumer(),
    ]


def _run(root, workers=1, dtype="float64", consumers=None, **kwargs):
    consumers = _consumers() if consumers is None else consumers
    report = StreamingCampaign(
        _spec(dtype), chunk_size=CHUNK, workers=workers, seed=SEED, **kwargs
    ).run(
        N_TRACES, consumers, store=root / "store",
        checkpoint=root / "campaign.ckpt",
    )
    return report, consumers


def _store_bytes(root):
    store = root / "store"
    return {
        str(path.relative_to(store)): path.read_bytes()
        for path in sorted(store.rglob("*"))
        if path.is_file()
    }


def _assert_same_state(consumers, reference):
    assert [c.name for c in consumers] == [c.name for c in reference]
    for consumer, ref in zip(consumers, reference):
        state, ref_state = consumer.snapshot(), ref.snapshot()
        assert state.keys() == ref_state.keys()
        for key in state:
            assert np.array_equal(state[key], ref_state[key]), (ref.name, key)


@pytest.fixture(scope="module", params=["float64", "float32"])
def baseline(request, tmp_path_factory):
    """The one-worker ground truth (every consumer fed in the parent)."""
    root = tmp_path_factory.mktemp(f"baseline-{request.param}")
    report, consumers = _run(root, workers=1, dtype=request.param)
    assert report.transport == "inline"
    return request.param, report, consumers, _store_bytes(root)


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize(
    "workers, start_method",
    [(1, None), (2, "fork"), (4, "fork"), (2, "spawn")],
    ids=["w1", "w2-fork", "w4-fork", "w2-spawn"],
)
def test_pooled_summaries_equal_one_worker(
    tmp_path, baseline, workers, start_method, transport, monkeypatch
):
    dtype, base_report, base_consumers, base_bytes = baseline
    _select_transport(monkeypatch, transport)
    report, consumers = _run(
        tmp_path, workers=workers, dtype=dtype, start_method=start_method,
    )
    assert not report.degraded
    _assert_same_state(consumers, base_consumers)
    assert _store_bytes(tmp_path) == base_bytes
    bank, ref_bank = report.results["cpa_bank"], base_report.results["cpa_bank"]
    for byte, ref_byte in zip(bank.byte_results, ref_bank.byte_results):
        assert np.array_equal(byte.peak_corr, ref_byte.peak_corr)
    assert np.array_equal(
        report.results["cpa[4]"].peak_corr,
        base_report.results["cpa[4]"].peak_corr,
    )


class _Stop(Exception):
    pass


def _stop_after(chunk_index):
    def progress(update):
        if update.chunk_index == chunk_index:
            raise _Stop

    return progress


def test_resume_and_store_replay_equal_one_worker(tmp_path, baseline):
    """Chunks 0-1 are replayed from the store (folded whole in the
    parent) and chunks 2-3 acquired by a pool (folded from summaries)."""
    dtype, _, base_consumers, base_bytes = baseline
    spec = _spec(dtype)
    with pytest.raises(_Stop):
        StreamingCampaign(spec, chunk_size=CHUNK, workers=2, seed=SEED).run(
            N_TRACES, _consumers(), store=tmp_path / "store",
            checkpoint=tmp_path / "campaign.ckpt", progress=_stop_after(1),
        )
    # A checkpoint at chunk 0: the store's two chunks must be replayed.
    zero = CampaignCheckpoint.capture(
        spec, SEED, CHUNK, N_TRACES, 0, _consumers()
    )
    consumers = _consumers()
    report = StreamingCampaign.resume(
        tmp_path / "store", zero, consumers=consumers, workers=2,
        checkpoint_path=tmp_path / "resumed.ckpt",
    )
    assert report.replayed_chunks == 2
    assert report.transport != "inline"
    _assert_same_state(consumers, base_consumers)
    assert _store_bytes(tmp_path) == base_bytes


def _pre_split_update(bank, traces, data):
    """The fast bank update as it was before summaries existed: gather,
    augmented GEMM and ``+=`` into the running sums, all in place."""
    traces = np.asarray(traces)
    if traces.dtype != np.float32:
        traces = np.asarray(traces, dtype=np.float64)
    n, s = traces.shape
    if bank._sum_t is None:
        bank._sum_t, bank._sum_t2 = np.zeros(s), np.zeros(s)
        bank._sum_p, bank._sum_p2 = np.zeros(bank._n_hyp), np.zeros(bank._n_hyp)
        bank._sum_pt = np.zeros((bank._n_hyp, s))
    targets = np.asarray(bank.byte_indices, dtype=np.intp)
    ct = np.asarray(data, dtype=np.uint8)
    pair = (ct[:, targets].astype(np.uint16) << 8) | ct[:, SHIFT_ROWS_MAP[targets]]
    gathered = np.take(hd_pair_table(), pair.reshape(-1), axis=0)
    preds = gathered.reshape(n, bank._n_hyp).astype(traces.dtype)
    augmented = np.empty((n, s + 1), dtype=traces.dtype)
    augmented[:, :s] = traces
    augmented[:, s] = 1.0
    cross = preds.T @ augmented
    bank.n_traces += n
    if traces.dtype == np.float32:
        bank._sum_t += traces.sum(axis=0, dtype=np.float64)
        bank._sum_t2 += np.einsum("ns,ns->s", traces, traces, dtype=np.float64)
    else:
        bank._sum_t += traces.sum(axis=0)
        bank._sum_t2 += (traces * traces).sum(axis=0)
    bank._sum_p += cross[:, s]
    bank._sum_p2 += np.einsum("nk,nk->k", preds, preds)
    bank._sum_pt += cross[:, :s]


class PreSplitBank(CpaBankConsumer):
    """A bank consumer folding with the pre-split in-place update."""

    def consume(self, chunk):
        _pre_split_update(self._bank, chunk.traces, chunk.ciphertexts)


def test_pre_split_checkpoint_resumes_exactly(tmp_path, baseline):
    dtype, _, base_consumers, _ = baseline
    reference = PreSplitBank()
    StreamingCampaign(_spec(dtype), chunk_size=CHUNK, seed=SEED).run(
        N_TRACES, [reference]
    )
    _assert_same_state([base_consumers[0]], [reference])

    checkpoint = tmp_path / "pre-split.ckpt"
    with pytest.raises(_Stop):
        StreamingCampaign(_spec(dtype), chunk_size=CHUNK, seed=SEED).run(
            N_TRACES, [PreSplitBank()],
            checkpoint=checkpoint, progress=_stop_after(1),
        )
    resumed = CpaBankConsumer()
    report = StreamingCampaign.resume(
        None, checkpoint, consumers=[resumed], workers=2
    )
    assert report.transport != "inline"
    _assert_same_state([resumed], [reference])


class CountingBank(CpaBankConsumer):
    """Overrides ``consume`` only: the override must keep running."""

    def __init__(self):
        super().__init__()
        self.consumed = []

    def consume(self, chunk):
        self.consumed.append(chunk.metadata["chunk_index"])
        super().consume(chunk)


class Wrapper:
    """A proxy exposing no ``summarize`` (like a timing wrapper)."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.consumed = 0

    def consume(self, chunk):
        self.consumed += 1
        self.inner.consume(chunk)

    def snapshot(self):
        return self.inner.snapshot()

    def restore(self, state):
        self.inner.restore(state)

    def result(self):
        return self.inner.result()


def test_consume_overrides_and_wrappers_stay_in_the_parent(tmp_path, baseline):
    _, _, base_consumers, _ = baseline
    if baseline[0] != "float64":
        pytest.skip("dtype-independent")
    counting = CountingBank()
    wrapped = Wrapper(CpaStreamConsumer(byte_index=4))
    assert engine_module._summarizers([counting, wrapped]) == {}
    report, _ = _run(tmp_path, workers=2, consumers=[counting, wrapped])
    assert not report.degraded
    assert counting.consumed == list(range(N_CHUNKS))
    assert wrapped.consumed == N_CHUNKS
    _assert_same_state([counting, wrapped.inner], base_consumers[:2])


def test_only_plain_summarizing_consumers_are_offloaded():
    rng = np.random.default_rng(5)
    bank = CpaBankConsumer()
    bank._bank.update(
        rng.normal(size=(50, 20)),
        rng.integers(0, 256, size=(50, 16), dtype=np.uint8),
    )
    offered = engine_module._summarizers(
        [CompletionTimeConsumer(), bank, CpaStreamConsumer(byte_index=4)]
    )
    assert sorted(offered) == [1, 2]
    # A summarizer carries the config, never the running sums.
    twin = offered[1]
    assert twin._bank.byte_indices == tuple(range(16))
    assert twin._bank._sum_t is None and bank._bank._sum_t is not None
    assert len(pickle.dumps(twin)) < 4096


def test_summary_then_fold_is_the_update():
    rng = np.random.default_rng(3)
    traces = rng.normal(size=(50, 20))
    data = rng.integers(0, 256, size=(50, 16), dtype=np.uint8)
    consumer = CpaBankConsumer()
    summary = consumer.summarizer().summarize(
        SimpleNamespace(traces=traces, ciphertexts=data)
    )
    assert isinstance(summary, CpaChunkSummary)
    assert summary.n_traces == 50 and summary.sum_pt.shape == (4096, 20)
    consumer.fold(summary)
    direct = CpaBankConsumer()
    direct._bank.update(traces, data)
    _assert_same_state([consumer], [direct])
    empty = consumer._bank.chunk_summary(traces[:0], data[:0])
    assert empty is None
    consumer.fold(empty)
    _assert_same_state([consumer], [direct])


class _SummarizeFails(CpaBankConsumer):
    """``summarize`` raises on chunk 1 and logs every call to a file."""

    def __init__(self, log):
        super().__init__()
        self.log = str(log)

    def summarize(self, chunk):
        index = chunk.metadata["chunk_index"]
        with open(self.log, "a") as fh:
            fh.write(f"{os.getpid()} {index}\n")
        if index == 1:
            raise AttackError("summarize died")
        return super().summarize(chunk)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_summarize_error_is_the_consumers_own_and_kills_the_pool(
    tmp_path, transport, monkeypatch
):
    log = tmp_path / "calls.log"
    obs = Observability.create()
    _select_transport(monkeypatch, transport)
    engine = StreamingCampaign(
        _spec(), chunk_size=CHUNK, seed=SEED, workers=2, obs=obs,
    )
    before = set(multiprocessing.active_children())
    started = time.perf_counter()
    with pytest.raises(AttackError, match="summarize died"):
        engine.run(N_TRACES, [_SummarizeFails(log)])

    def pool_processes():
        return set(multiprocessing.active_children()) - before

    # The pool is torn down, not left running behind the dead campaign.
    deadline = time.perf_counter() + 30.0
    while pool_processes() and time.perf_counter() < deadline:
        time.sleep(0.05)
    assert pool_processes() == set()
    assert time.perf_counter() - started < 60.0
    calls = [line.split() for line in log.read_text().splitlines()]
    # Chunk 1 was summarized exactly once (no retry, no inline re-run
    # after a degrade), and only ever in a pool worker.
    assert [index for _, index in calls].count("1") == 1
    assert all(int(pid) != os.getpid() for pid, _ in calls)
    assert obs.metrics.counter_value("campaign_pool_failures_total") == 0


class _HoldsALock(Exception):
    """Does not pickle: it carries a lock."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class _TwoArgs(Exception):
    """Pickles, but does not unpickle: ``__init__`` wants two arguments."""

    def __init__(self, message, code):
        super().__init__(f"{message} (code {code})")


class _SummarizeFailsUnpicklably(CpaBankConsumer):
    def __init__(self, error):
        super().__init__()
        self.error = error

    def summarize(self, chunk):
        if chunk.metadata["chunk_index"] == 1:
            if self.error == "lock":
                raise _HoldsALock("summarize died")
            raise _TwoArgs("summarize died", 7)
        return super().summarize(chunk)


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("error", ["lock", "two-args"])
def test_summarize_error_that_does_not_pickle_still_fails_the_run(
    transport, error, monkeypatch
):
    """Not a dead worker and not a degrade: one error line that names
    the consumer's exception."""
    obs = Observability.create()
    _select_transport(monkeypatch, transport)
    engine = StreamingCampaign(
        _spec(), chunk_size=CHUNK, seed=SEED, workers=2, obs=obs,
    )
    with pytest.raises(AcquisitionError) as raised:
        engine.run(N_TRACES, [_SummarizeFailsUnpicklably(error)])
    assert not isinstance(raised.value, PoolBrokenError)
    message = str(raised.value)
    assert "\n" not in message
    assert message.startswith("chunk 1 failed in a worker")
    assert "summarize died" in message
    assert ("_HoldsALock" if error == "lock" else "_TwoArgs") in message
    assert obs.metrics.counter_value("campaign_pool_failures_total") == 0
    assert obs.metrics.counter_value("campaign_degraded_chunks_total") == 0


class _BlasProbe(CpaStreamConsumer):
    """Ships the worker's BLAS thread count home inside each summary."""

    def __init__(self):
        super().__init__(byte_index=4)
        self.seen = []

    def summarize(self, chunk):
        return blas_threads(), super().summarize(chunk)

    def fold(self, summary):
        threads, inner = summary
        self.seen.append(threads)
        super().fold(inner)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_pool_workers_run_one_blas_thread(start_method):
    before = blas_threads()
    if before is None:
        pytest.skip("no OpenBLAS thread count readable on this host")
    probe = _BlasProbe()
    StreamingCampaign(
        _spec(), chunk_size=CHUNK, seed=SEED, workers=2,
        start_method=start_method,
    ).run(N_TRACES, [probe])
    assert probe.seen == [1] * N_CHUNKS
    assert blas_threads() == before


def test_summaries_are_observed_on_both_sides(tmp_path):
    obs = Observability.create()
    _run(tmp_path, workers=2, obs=obs)
    m = obs.metrics
    assert m.counter_value("cpa_traces_folded_total", accumulator="cpa_bank") == N_TRACES
    assert m.counter_value("cpa_traces_folded_total", accumulator="cpa[4]") == N_TRACES
    _, _, _, count = m.snapshot().histograms[
        ("campaign_summarize_seconds", (("consumer", "cpa_bank"),))
    ]
    assert count == N_CHUNKS
    events = obs.tracer.events
    summarize = [e for e in events if e["name"] == "summarize"]
    assert sorted(
        (e["attrs"]["chunk"], e["attrs"]["consumer"]) for e in summarize
    ) == sorted(
        (k, name) for k in range(N_CHUNKS) for name in ("cpa_bank", "cpa[4]")
    )
    assert {e["origin"] for e in summarize} == {
        f"worker:chunk-{k}" for k in range(N_CHUNKS)
    }
    consume = [e for e in events if e["name"] == "consume"]
    assert len(consume) == N_CHUNKS * 3
