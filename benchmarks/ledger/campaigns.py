"""The three campaign workloads: cpa-campaign, attack-zoo, tvla-archive.

Each workload is a set-up (plan, consumers, profiling, store) and a
measured phase driven only through public entry points:
``StreamingCampaign.run``/``resume``, the consumers, ``ChunkedTraceStore``
and ``CampaignCheckpoint``.  None of ``transport=``, ``tile_samples=``,
``compression=``, ``obs=`` or ``faults=`` is ever passed and no consumer's
``merge()`` is called, so changes that delete those knobs leave this file
untouched and still show up in the numbers.

The measured phase starts with two short campaigns that warm the process
up (lazy imports, allocator, worker start).  Then comes the main
campaign, run in segments joined by checkpoint resume; its throughput is
the median over the segments (see :func:`main_campaign`).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from benchmarks.ledger.common import (
    Outcome,
    Scale,
    digest,
    fresh_dir,
    median,
    steady_rate,
)
from benchmarks.ledger.spans import (
    SpanRecorder,
    TimedConsumer,
    TimedStage,
    children_of,
    self_seconds,
    timed_class_method,
)

#: Keeps the attacker's clone stream disjoint from the victim stream.
PROFILE_SEED_OFFSET = 1_000_003
PROFILE_TRACES = 4000
#: The fixed TVLA plaintext (any constant works; this is FIPS-197's).
TVLA_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
#: Warm-up campaigns of two chunks each (so a 2-worker pool starts both).
WARMUP_CAMPAIGNS = 2
WARMUP_CHUNKS = 2
#: tvla-archive replays of the written store.
REPLAYS = 3
#: Chunks the power probe acquires with its stage proxies in place.
POWER_PROBE_CHUNKS = 3

#: The device stages ``ProtectedAesDevice.run`` calls, in order:
#: (stage, device attribute, method).
STAGES = (
    ("schedule", "countermeasure", "schedule"),
    ("crypto", "datapath", "batch_states"),
    ("leakage", "leakage", "cycle_amplitudes"),
    ("synth", "synthesizer", "synthesize"),
    ("capture", "scope", "capture"),
)


@dataclasses.dataclass(frozen=True)
class CampaignShape:
    spec_fields: dict
    chunk_size: int
    workers: int
    uses_store: bool

    def spec(self):
        from repro.pipeline import CampaignSpec

        return CampaignSpec(**self.spec_fields)


SHAPES = {
    # The paper's headline attack: full-key CPA on RFTC(1,16), float32,
    # on a noise-free scope so every key byte falls well inside the run.
    "cpa-campaign": CampaignShape(
        dict(target="rftc", m_outputs=1, p_configs=16, dtype="float32",
             noise_std=0.0),
        chunk_size=5000, workers=2, uses_store=True,
    ),
    "attack-zoo": CampaignShape(
        dict(target="rftc", m_outputs=2, p_configs=8),
        chunk_size=1000, workers=1, uses_store=False,
    ),
    # RFTC(3,P) with P=256 rather than the paper's 1024: planning 1024
    # configurations takes ~15 s, too long to repeat in every run.
    "tvla-archive": CampaignShape(
        dict(target="rftc", m_outputs=3, p_configs=256,
             fixed_plaintext=TVLA_PLAINTEXT),
        chunk_size=5000, workers=2, uses_store=True,
    ),
}


def n_traces(workload: str, scale: Scale) -> int:
    chunks = {
        "cpa-campaign": scale.cpa_chunks,
        "attack-zoo": scale.zoo_chunks,
        "tvla-archive": scale.tvla_chunks,
    }[workload]
    return chunks * SHAPES[workload].chunk_size


@dataclasses.dataclass
class Prepared:
    """Everything the measured phase needs, built by :func:`setup`."""

    workload: str
    seed: int
    spec: object
    workdir: Path
    new_consumers: Callable[[], list]
    sample_period_ns: float
    #: The main campaign's consumers and store, built during set-up.
    consumers: list
    store: Optional[object]
    plan_s: float
    profile_s: float

    def new_store(self, path: Path):
        from repro.store import ChunkedTraceStore

        if not SHAPES[self.workload].uses_store:
            return None
        return ChunkedTraceStore.create(
            path, key=self.spec.key, sample_period_ns=self.sample_period_ns
        )


def _consumer_factory(workload: str, spec, seed: int):
    """The workload's consumer-stack factory, and the seconds profiling took."""
    from repro.pipeline import (
        CompletionTimeConsumer,
        CpaBankConsumer,
        TvlaStreamConsumer,
    )

    if workload == "cpa-campaign":
        return (lambda: [CpaBankConsumer(), CompletionTimeConsumer()]), 0.0
    if workload == "tvla-archive":
        return (lambda: [TvlaStreamConsumer(), CompletionTimeConsumer()]), 0.0

    from repro.attacks import train_mlp_profile
    from repro.attacks.models import expand_last_round_key
    from repro.experiments.scenarios import cached_plan
    from repro.pipeline import (
        LatticeCpaConsumer,
        MiaStreamConsumer,
        MlpAttackConsumer,
        SuccessRateConsumer,
    )
    from repro.power.acquisition import AcquisitionCampaign

    started = time.perf_counter()
    profile_seed = seed + PROFILE_SEED_OFFSET
    clone = spec.build_device(
        np.random.default_rng(np.random.SeedSequence(profile_seed))
    )
    profile = AcquisitionCampaign(clone, seed=profile_seed).collect(
        PROFILE_TRACES
    )
    model = train_mlp_profile(
        profile.traces,
        profile.ciphertexts,
        int(expand_last_round_key(spec.key)[0]),
    )
    profile_s = time.perf_counter() - started
    plan = cached_plan(spec.m_outputs, spec.p_configs, spec.plan_seed, True)
    reference_ns = float(np.max(plan.all_completion_times_ns()))
    return (lambda: [
        CompletionTimeConsumer(),
        LatticeCpaConsumer(spec.key, reference_ns),
        MiaStreamConsumer(spec.key),
        SuccessRateConsumer(spec.key, n_replicas=8, seed=seed),
        MlpAttackConsumer(model, spec.key),
    ]), profile_s


def setup(workload: str, seed: int, workdir: Path) -> Prepared:
    """The work a user pays before ``run()``: plan, consumers, store."""
    spec = SHAPES[workload].spec()
    started = time.perf_counter()
    spec.warm_caches()
    plan_s = time.perf_counter() - started
    new_consumers, profile_s = _consumer_factory(workload, spec, seed)
    prep = Prepared(
        workload=workload,
        seed=seed,
        spec=spec,
        workdir=workdir,
        new_consumers=new_consumers,
        sample_period_ns=spec.build_device(
            np.random.default_rng(seed)
        ).sample_period_ns,
        consumers=new_consumers(),
        store=None,
        plan_s=plan_s,
        profile_s=profile_s,
    )
    prep.store = prep.new_store(workdir / "store")
    return prep


def _engine(prep: Prepared):
    from repro.pipeline import StreamingCampaign

    shape = SHAPES[prep.workload]
    return StreamingCampaign(
        prep.spec,
        chunk_size=shape.chunk_size,
        workers=shape.workers,
        seed=prep.seed,
    )


def warm_up(prep: Prepared, calls: "_EngineCalls") -> None:
    """Run short untimed campaigns that pay the process's one-off costs.

    Lazy imports, allocator growth and the first worker start would
    otherwise land on the first measured segment; in one process the
    first two short campaigns ran ~15% slower than the rest.
    """
    for _ in range(WARMUP_CAMPAIGNS):
        workdir = fresh_dir(prep.workdir / "warm-up")
        calls.call(
            lambda progress: _engine(prep).run(
                WARMUP_CHUNKS * SHAPES[prep.workload].chunk_size,
                consumers=prep.new_consumers(),
                store=prep.new_store(workdir / "store"),
                checkpoint=workdir / "campaign.ckpt",
                progress=progress,
            )
        )
        shutil.rmtree(workdir)


class _Pause(Exception):
    """Raised from the progress callback to end a segment of a campaign."""


class _EngineCalls:
    """Runs engine calls under ``engine.run`` spans with progress marks."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.chunks = 0
        self.retried = 0
        #: Seconds spent in the calls (a paused call up to its pause).
        self.wall = 0.0

    def call(self, start, stop_after: Optional[int] = None):
        """``start(progress)`` runs one engine call.

        With ``stop_after`` the call is paused once that many chunks of
        the campaign are folded (and checkpointed); the report is then
        ``None``.  Returns the report and a ``(seconds since the call,
        traces done)`` mark per chunk this call folded.
        """
        recorder = self.recorder
        marks: List[tuple] = []
        t0 = time.perf_counter()

        def progress(update) -> None:
            marks.append((time.perf_counter() - t0, update.done_traces))
            recorder.mark("engine.progress", chunk=update.chunk_index)
            recorder.chunk = update.chunk_index + 1
            if update.chunk_index + 1 == stop_after:
                raise _Pause

        recorder.chunk = 0
        report = None
        with recorder.span("engine.run") as run:
            try:
                report = start(progress)
            except _Pause:
                pass
        if report is None:
            # The engine's teardown after the pause is not campaign time.
            self.wall += marks[-1][0]
            if run is not None:
                run["end"] = t0 + marks[-1][0]
        else:
            self.wall += time.perf_counter() - t0
        recorder.chunk = None
        self.chunks += len(marks)
        self.retried += report.retried_chunks if report is not None else 0
        return report, marks


def _wrap(consumers, recorder: SpanRecorder, count_bytes: bool = False):
    if not recorder.enabled:
        return list(consumers)
    return [
        TimedConsumer(c, recorder, count_bytes=count_bytes and i == 0)
        for i, c in enumerate(consumers)
    ]


def _store_checksums(store) -> list:
    from repro.store import MANIFEST_NAME

    manifest = json.loads((store.path / MANIFEST_NAME).read_text())
    return [entry["files"] for entry in manifest["chunks"]]


def main_campaign(prep: Prepared, n: int, segments: int,
                  calls: _EngineCalls) -> "tuple[object, float, float]":
    """Run the main campaign in segments joined by checkpoint resume.

    Returns the campaign's report, its traces/s and the seconds from an
    engine call to its first result, both medians over the segments.
    Each segment but the last is paused after its share of chunks and the
    next resumes from the checkpoint, so every segment starts its own
    worker pool; its rate is taken from its first to its last folded
    chunk.  On the reference machine the rate of one pool varied by up
    to ±40% between pools in the same process while the median over five
    stayed within a few percent.  Resume is bit-identical, so the results
    equal one uninterrupted run.
    """
    from repro.pipeline import CampaignCheckpoint, StreamingCampaign

    shape = SHAPES[prep.workload]
    recorder = calls.recorder
    count_bytes = shape.workers > 1
    checkpoint = prep.workdir / "campaign.ckpt"
    per_segment = n // shape.chunk_size // segments
    rates, firsts = [], []
    for segment in range(segments):
        stop_after = None if segment == segments - 1 else (segment + 1) * per_segment
        consumers = _wrap(
            prep.new_consumers() if segment else prep.consumers,
            recorder, count_bytes,
        )

        def start(progress, consumers=consumers, resume=segment > 0):
            if resume:
                return StreamingCampaign.resume(
                    prep.store, checkpoint, consumers=consumers,
                    workers=shape.workers, progress=progress,
                )
            return _engine(prep).run(
                n, consumers=consumers, store=prep.store, progress=progress,
                checkpoint=checkpoint,
            )

        # A class-level wrap: the engine builds its checkpoints itself.
        with timed_class_method(
            CampaignCheckpoint, "save", recorder, "checkpoint.save",
            lambda path: recorder.count(
                "checkpoint.bytes", Path(path).stat().st_size
            ),
        ):
            report, marks = calls.call(start, stop_after)
        rates.append(steady_rate(marks))
        firsts.append(marks[0][0])
    return report, median(rates), median(firsts)


def measure(prep: Prepared, scale: Scale, recorder: SpanRecorder) -> Outcome:
    """The measured phase of one campaign workload."""
    from repro.attacks.models import expand_last_round_key
    from repro.pipeline import CampaignCheckpoint, StreamingCampaign

    shape = SHAPES[prep.workload]
    n = n_traces(prep.workload, scale)
    # Never traced: the ledger describes the main campaign.
    warm_calls = _EngineCalls(SpanRecorder(enabled=False))
    warm_up(prep, warm_calls)

    store = prep.store
    if store is not None:
        recorder.wrap(store, "append", "store.append")
        recorder.wrap(store, "chunk", "store.read")
    calls = _EngineCalls(recorder)
    report, traces_per_s, first_result_s = main_campaign(
        prep, n, scale.segments, calls
    )
    gates: Dict[str, bool] = {}
    layers: Dict[str, float] = {"engine.first_result_s": first_result_s}
    verifications = verify_failures = 0
    material: dict = {"results": report.results}
    results = report.results
    true_key = expand_last_round_key(prep.spec.key)

    if prep.workload == "cpa-campaign":
        ranks = [r.rank_of(int(true_key[r.byte_index]))
                 for r in results["cpa_bank"].byte_results]
        gates["all 16 key bytes at rank 0"] = ranks == [0] * 16
    elif prep.workload == "attack-zoo":
        lattice = results["lattice"]
        gates["lattice true byte at rank 0"] = lattice["true_byte_rank"] == 0
        gates["lattice disclosed"] = lattice["first_disclosure"] is not None
    else:
        t0 = time.perf_counter()
        with recorder.span("store.verify"):
            verification = store.verify()
        layers["store.verify_s"] = time.perf_counter() - t0
        calls.wall += layers["store.verify_s"]
        verifications, verify_failures = 1, int(not verification.ok)
        gates["store verifies"] = verification.ok
        gates["replays equal the write run"] = True
        replay_walls = []
        for _ in range(REPLAYS):
            fresh = prep.new_consumers()
            zero = CampaignCheckpoint.capture(
                prep.spec, prep.seed, shape.chunk_size, n, 0, fresh
            )
            before = calls.wall
            replay, _ = calls.call(
                lambda progress: StreamingCampaign.resume(
                    store, zero, consumers=_wrap(fresh, recorder),
                    progress=progress,
                )
            )
            replay_walls.append(calls.wall - before)
            if not np.array_equal(
                replay.results["tvla"].t_values, results["tvla"].t_values
            ):
                gates["replays equal the write run"] = False
        layers["store.replay_traces_per_s"] = n / median(replay_walls)

    if store is not None:
        material["store"] = _store_checksums(store)
        layers["store.mb_written"] = store.byte_counts()[1] / 1e6
    if recorder.enabled:
        layers.update(engine_layers(recorder.spans))
        layers["checkpoint.mb"] = recorder.counts.get("checkpoint.bytes", 0) / 1e6
        layers["transport.mb_moved"] = recorder.counts.get("transport.bytes", 0) / 1e6
    layers["engine.retried_chunks"] = float(calls.retried)
    return Outcome(
        wall_s=calls.wall,
        traces_per_s=traces_per_s,
        attempted=warm_calls.chunks + calls.chunks + verifications,
        failed=warm_calls.retried + calls.retried + verify_failures,
        gates=gates,
        digest=digest(material),
        layers=layers,
    )


def _starts_fold(name: str) -> bool:
    """Whether a span opens a chunk's fold (which ends the engine's fetch)."""
    return name == "store.append" or (
        name.startswith("consume.") and name != "consume.result"
    )


def engine_layers(spans: List[dict]) -> Dict[str, float]:
    """Split every ``engine.run`` span's wall into fetch, fold and residual.

    Within a run, the window after each progress mark (or after the run
    starts) up to the next fold's first layer call is *fetch*: waiting on
    the pool, the transport receive, inline acquisition, or a store read
    on replay.  Layer calls (consumer folds, snapshots, checkpoint saves,
    store appends, results) are *fold* time, and whatever neither covers
    is the *residual*, reported rather than hidden.
    """
    grouped = children_of(spans)
    wall = fetch = fold = 0.0
    chunks = 0
    for run in (s for s in spans if s["name"] == "engine.run"):
        wall += run["end"] - run["start"]
        window_start = run["start"]
        # Layer time spent before this window's fold began; it is not
        # fetch (e.g. the engine's up-front checkpoint validation).
        before_fold: Optional[float] = 0.0
        for child in grouped.get(run["id"], ()):
            if child["name"] == "engine.progress":
                chunks += 1
                window_start = child["end"]
                before_fold = 0.0
                continue
            if before_fold is not None and _starts_fold(child["name"]):
                fetch += child["start"] - window_start - before_fold
                before_fold = None
            if child["name"] == "store.read":
                continue  # a replay's read is the fetch it sits in
            duration = child["end"] - child["start"]
            fold += duration
            if before_fold is not None:
                before_fold += duration
    totals = self_seconds(spans)
    layers = {
        "engine.wall_s": wall,
        "engine.fetch_s": fetch,
        "engine.fold_s": fold,
        "engine.residual_s": wall - fetch - fold,
        "engine.parent_busy_frac": (wall - fetch) / wall if wall else 0.0,
        "engine.chunks": float(chunks),
        "checkpoint.snapshot_s": totals.get("checkpoint.snapshot", 0.0),
        "checkpoint.save_s": totals.get("checkpoint.save", 0.0),
        "store.append_s": totals.get("store.append", 0.0),
        "store.read_s": totals.get("store.read", 0.0),
    }
    for name, seconds in totals.items():
        if name.startswith("consume.") and name != "consume.result":
            layers[f"{name}_s"] = seconds
    return layers


def probe_power(spec, chunk_size: int, seed: int) -> Dict[str, float]:
    """Seconds per chunk of each acquisition stage, from timing proxies.

    Builds the device the way a campaign chunk does, wraps its five stage
    objects in :class:`TimedStage` proxies, and acquires
    :data:`POWER_PROBE_CHUNKS` chunks.  The first chunk is acquired again
    with no proxies; the proxies must not change a single byte.
    """
    recorder = SpanRecorder()

    def acquire(index: int, proxied: bool):
        device_seq, data_seq = np.random.SeedSequence([seed, index]).spawn(2)
        device = spec.build_device(np.random.default_rng(device_seq))
        if proxied:
            for stage, attr, method in STAGES:
                setattr(device, attr, TimedStage(
                    getattr(device, attr), method, recorder, f"power.{stage}"
                ))
        rng = np.random.default_rng(data_seq)
        plaintexts = rng.integers(0, 256, size=(chunk_size, 16), dtype=np.uint8)
        if spec.fixed_plaintext is not None:
            plaintexts[0::2] = np.frombuffer(spec.fixed_plaintext, dtype=np.uint8)
        return device.run(plaintexts, rng)

    first = acquire(0, proxied=True)
    for index in range(1, POWER_PROBE_CHUNKS):
        acquire(index, proxied=True)
    plain = acquire(0, proxied=False)
    if not (
        np.array_equal(first.traces, plain.traces)
        and np.array_equal(first.ciphertexts, plain.ciphertexts)
    ):
        raise AssertionError("stage proxies changed the acquired bytes")
    totals = self_seconds(recorder.spans)
    return {
        f"power.{stage}_s": totals.get(f"power.{stage}", 0.0) / POWER_PROBE_CHUNKS
        for stage, _, _ in STAGES
    }
