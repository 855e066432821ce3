"""Micro-kernel benchmarks: the library's hot paths under real timing.

Two modes:

* ``pytest benchmarks/bench_kernels.py --benchmark-only`` — statistical
  timing of each kernel via pytest-benchmark (as before).
* ``python benchmarks/bench_kernels.py [--scale S] [--out FILE]
  [--check --baseline FILE]`` — the perf-regression harness: times the
  new kernels *and* the pre-PR reference implementations they replaced,
  writes machine-readable throughput + speedup numbers to
  ``BENCH_kernels.json``, and (with ``--check``) fails when a measured
  speedup regresses more than ``--tolerance`` (default 30%) against a
  committed baseline.

The regression gate compares *speedups* (new vs. reference measured in
the same process, same data), not absolute throughput, so the committed
baseline stays meaningful across machines.  See ``docs/performance.md``.
"""

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from repro.attacks.cpa import CpaEngine, cpa_byte
from repro.attacks.models import last_round_hd_predictions
from repro.crypto.aes import AES, batch_expand_key
from repro.crypto.datapath import AesDatapath, batch_round_states
from repro.hw.clock import ClockSchedule
from repro.hw.drp import _encode_burst
from repro.leakage_assessment.tvla import IncrementalTvla
from repro.pipeline import CampaignSpec, CpaBankConsumer, StreamingCampaign
from repro.power.synth import TraceSynthesizer
from repro.preprocess.dtw import batch_dtw_align
from repro.preprocess.fft import fft_magnitude
from repro.utils.iir import rc_lowpass
from repro.rftc import RFTCParams, planner
from repro.rftc.planner import plan_overlap_free
from repro.utils.stats import RunningMoments, column_pearson

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
RNG = np.random.default_rng(1)

SCHEMA = "rftc-bench-kernels/2"
DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


# --------------------------------------------------------------------------
# Script mode: new-vs-reference kernel timing and the regression gate.
# --------------------------------------------------------------------------


def _time(fn, min_rounds=3, min_seconds=0.5):
    """Best-of-k wall time of ``fn()`` (k grows until both minima are met)."""
    fn()  # warm caches, allocators, BLAS threads
    best = float("inf")
    rounds = 0
    spent = 0.0
    while rounds < min_rounds or spent < min_seconds:
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
        spent += elapsed
        rounds += 1
        if rounds >= 50:
            break
    return best


def _time_interleaved(new, ref, rounds=20):
    """Best-of-``rounds`` wall times of ``new`` and ``ref``, alternated.

    Alternating the two puts drift in machine speed on both sides
    instead of on whichever ran later, which matters for kernels of a
    few milliseconds on a shared host.
    """
    new()
    ref()
    new_s = ref_s = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        new()
        new_s = min(new_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        ref()
        ref_s = min(ref_s, time.perf_counter() - t0)
    return new_s, ref_s


def _expand_keys_reference(keys):
    """The pre-PR per-trace key schedule: python expansion per unique key."""
    unique, inverse = np.unique(keys, axis=0, return_inverse=True)
    expanded = np.array(
        [
            [np.frombuffer(rk, dtype=np.uint8) for rk in AES(k.tobytes()).round_keys]
            for k in unique
        ]
    )
    return expanded[inverse]


def bench_synth(scale, rng):
    """Recursive-decay synthesis vs. the broadcast reference kernel."""
    n = max(64, int(2048 * scale))
    synth = TraceSynthesizer()
    sched = ClockSchedule.from_period_matrix(rng.uniform(21, 83, size=(n, 11)))
    amps = rng.uniform(40, 120, size=(n, 11))
    new_s = _time(lambda: synth.synthesize(sched, amps))
    ref_s = _time(lambda: synth.synthesize_reference(sched, amps))
    return {
        "shape": {"n_traces": n, "n_samples": synth.n_samples},
        "new_seconds": new_s,
        "ref_seconds": ref_s,
        "traces_per_second": n / new_s,
        "ref_traces_per_second": n / ref_s,
        "speedup": ref_s / new_s,
    }


def bench_cpa16(scale, rng):
    """Shared-moment 16-byte CPA vs. the per-byte ``cpa_byte`` loop."""
    n = max(256, int(8192 * scale))
    s = max(64, int(512 * scale))
    traces = rng.normal(size=(n, s))
    cts = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
    new_s = _time(lambda: CpaEngine(traces, cts).attack(), min_rounds=4)
    ref_s = _time(
        lambda: [cpa_byte(traces, cts, b) for b in range(16)], min_rounds=3
    )
    return {
        "shape": {"n_traces": n, "n_samples": s, "n_bytes": 16},
        "new_seconds": new_s,
        "ref_seconds": ref_s,
        "bytes_per_second": 16 / new_s,
        "ref_bytes_per_second": 16 / ref_s,
        "speedup": ref_s / new_s,
    }


def bench_key_schedule(scale, rng):
    """Vectorized AES-128 key schedule vs. per-key python expansion."""
    n = max(128, int(4096 * scale))
    keys = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
    new_s = _time(lambda: batch_expand_key(keys))
    ref_s = _time(lambda: _expand_keys_reference(keys), min_rounds=2)
    return {
        "shape": {"n_keys": n},
        "new_seconds": new_s,
        "ref_seconds": ref_s,
        "keys_per_second": n / new_s,
        "ref_keys_per_second": n / ref_s,
        "speedup": ref_s / new_s,
    }


def bench_datapath(scale, rng):
    """Absolute round-state throughput of the vectorized AES datapath."""
    n = max(256, int(8192 * scale))
    key = np.frombuffer(KEY, dtype=np.uint8)
    pts = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
    seconds = _time(lambda: batch_round_states(key, pts))
    return {
        "shape": {"n_traces": n},
        "new_seconds": seconds,
        "states_per_second": n * 11 / seconds,
    }


def bench_pipeline_e2e(scale, rng):
    """End-to-end campaign fold rate: float32 fast bank vs. float64 reference.

    Runs the full streaming pipeline — synthesis, acquisition, full-key
    ``CpaBankConsumer`` fold — at the paper's scale-1 noise
    (``noise_std = 2 * sqrt(10)``), once on the float32 fast path and
    once on the float64 reference bank.  The ratio is the e2e
    traces-folded-per-second speedup the 4M-trace campaigns ride on.
    """
    n = max(4000, int(16000 * scale))
    noise = 2.0 * math.sqrt(10.0)

    def run(dtype, engine):
        spec = CampaignSpec(
            target="rftc",
            m_outputs=1,
            p_configs=16,
            plan_seed=7,
            noise_std=noise,
            dtype=dtype,
        )
        campaign = StreamingCampaign(spec, chunk_size=2000, workers=1, seed=3)
        return campaign.run(n, consumers=[CpaBankConsumer(engine=engine)])

    # The two configurations are timed interleaved (new, ref, new, ref,
    # ...) so slow machine-speed drift — thermal throttling, co-tenant
    # load — cancels out of the ratio instead of landing entirely on
    # whichever side ran later.
    run("float32", "fast")  # warm caches, pair table, BLAS
    new_s = ref_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        run("float32", "fast")
        new_s = min(new_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run("float64", "reference")
        ref_s = min(ref_s, time.perf_counter() - t0)
    return {
        "shape": {"n_traces": n, "chunk_size": 2000, "noise_std": noise},
        "new_seconds": new_s,
        "ref_seconds": ref_s,
        "traces_folded_per_second": n / new_s,
        "ref_traces_folded_per_second": n / ref_s,
        "speedup": ref_s / new_s,
    }


def _welford_reference(moments, traces):
    """The per-population Welford row loop the fused fold replaced."""
    batch = np.atleast_2d(np.asarray(traces, dtype=np.float64))
    if moments._mean is None:
        moments._mean = np.zeros(batch.shape[1])
        moments._m2 = np.zeros(batch.shape[1])
    for row in batch:
        moments.count += 1
        delta = row - moments._mean
        moments._mean += delta / moments.count
        moments._m2 += delta * (row - moments._mean)


def bench_tvla_fold(scale, rng):
    """Both TVLA populations in one Welford pass vs. one pass each.

    One interleaved fixed-vs-random chunk of the ``tvla-archive`` ledger
    workload's shape (5000 x 256 float64) folded into fresh
    accumulators; the two folds must agree bit for bit.
    """
    n = max(500, int(5000 * scale))
    traces = rng.normal(100.0, 30.0, size=(n, 256))

    def new():
        tvla = IncrementalTvla()
        tvla.update_interleaved(traces)
        return tvla

    def ref():
        fixed, random_ = RunningMoments(), RunningMoments()
        _welford_reference(fixed, traces[0::2])
        _welford_reference(random_, traces[1::2])
        return fixed, random_

    fused, (fixed, random_) = new(), ref()
    for got, want in ((fused._fixed, fixed), (fused._random, random_)):
        assert np.array_equal(got._mean, want._mean)
        assert np.array_equal(got._m2, want._m2)
    new_s, ref_s = _time_interleaved(new, ref)
    return {
        "shape": {"n_traces": n, "n_samples": 256},
        "new_seconds": new_s,
        "ref_seconds": ref_s,
        "traces_per_second": n / new_s,
        "ref_traces_per_second": n / ref_s,
        "speedup": ref_s / new_s,
    }


def bench_rftc_device_build(scale, rng):
    """RFTC(3,256) device build on the warm ROM memo vs. a cold build.

    The cold build empties the DRP-burst memo and hands the builder a
    fresh copy of the plan, so all 256 configurations are converted and
    encoded again — what every chunk's device build did before the ROM
    was memoized.  Planning itself is cached in both cases.
    """
    spec = CampaignSpec(target="rftc", m_outputs=3, p_configs=256)
    spec.warm_caches()
    plan = planner.cached_plan(spec.m_outputs, spec.p_configs, spec.plan_seed)
    key = planner._plan_key(plan.params, spec.plan_seed, True)

    def new():
        spec.build_device(np.random.default_rng(0))

    def ref():
        _encode_burst.cache_clear()
        planner._PLAN_CACHE[key] = dataclasses.replace(plan)
        spec.build_device(np.random.default_rng(0))

    try:
        new_s, ref_s = _time_interleaved(new, ref)
    finally:
        planner._PLAN_CACHE[key] = plan
        spec.warm_caches()
    return {
        "shape": {"m_outputs": 3, "p_configs": 256},
        "new_seconds": new_s,
        "ref_seconds": ref_s,
        "builds_per_second": 1.0 / new_s,
        "ref_builds_per_second": 1.0 / ref_s,
        "speedup": ref_s / new_s,
    }


def bench_lowpass(scale, rng):
    """The scope's single-pole filter: samples-major recursion vs. lfilter.

    One chunk of the cpa-campaign ledger workload's shape (5000 x 256)
    through the 100 MHz pole, each side in its native layout: the numpy
    recursion reads the synthesizer's Fortran-ordered ``(n, S)`` output,
    ``scipy.signal.lfilter`` filters a C-ordered ``(n, S)`` copy along
    its rows.  The two must agree bit for bit.  scipy is imported here
    only: it is a test-time oracle, not a runtime dependency.
    """
    from scipy.signal import lfilter

    n = max(500, int(5000 * scale))
    analog = np.asfortranarray(rng.uniform(0.0, 100.0, size=(n, 256)))
    c_order = np.ascontiguousarray(analog)
    rate_msps, bandwidth_mhz = 250.0, 100.0
    dt_s = 1e-6 / rate_msps
    rc = 1.0 / (2.0 * np.pi * bandwidth_mhz * 1e6)
    alpha = dt_s / (rc + dt_s)

    def new():
        return rc_lowpass(analog, rate_msps, bandwidth_mhz)

    def ref():
        return lfilter(np.array([alpha]), np.array([1.0, alpha - 1.0]), c_order, axis=1)

    assert new().T.tobytes() == ref().tobytes()
    new_s, ref_s = _time_interleaved(new, ref)
    return {
        "shape": {"n_traces": n, "n_samples": 256},
        "new_seconds": new_s,
        "ref_seconds": ref_s,
        "traces_per_second": n / new_s,
        "ref_traces_per_second": n / ref_s,
        "speedup": ref_s / new_s,
    }


KERNELS = {
    "synth": bench_synth,
    "lowpass": bench_lowpass,
    "cpa16": bench_cpa16,
    "key_schedule": bench_key_schedule,
    "datapath": bench_datapath,
    "pipeline_e2e": bench_pipeline_e2e,
    "tvla_fold": bench_tvla_fold,
    "rftc_device_build": bench_rftc_device_build,
}


def run_suite(scale):
    kernels = {}
    for name, fn in KERNELS.items():
        kernels[name] = fn(scale, np.random.default_rng(1))
        line = f"{name:17s} new {kernels[name]['new_seconds'] * 1e3:9.2f} ms"
        if "ref_seconds" in kernels[name]:
            line += (
                f"   ref {kernels[name]['ref_seconds'] * 1e3:9.2f} ms"
                f"   speedup {kernels[name]['speedup']:.2f}x"
            )
        print(line)
    return {"schema": SCHEMA, "scale": scale, "kernels": kernels}


def check_regressions(measured, baseline, tolerance):
    """Compare measured speedups against a committed baseline.

    Returns a list of failure strings (empty == gate passes).  Only the
    speedup ratios are compared — absolute throughput is machine-bound —
    and only for kernels present in both reports at the same scale.
    """
    failures = []
    if baseline.get("schema") != SCHEMA:
        return [f"baseline schema mismatch: {baseline.get('schema')!r}"]
    if abs(baseline.get("scale", 1.0) - measured["scale"]) > 1e-9:
        return [
            "baseline recorded at scale "
            f"{baseline.get('scale')} but measured at {measured['scale']}; "
            "re-run with a matching --scale"
        ]
    for name, entry in measured["kernels"].items():
        base = baseline["kernels"].get(name)
        if base is None or "speedup" not in entry or "speedup" not in base:
            continue
        floor = base["speedup"] * (1.0 - tolerance)
        if entry["speedup"] < floor:
            failures.append(
                f"{name}: speedup {entry['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base['speedup']:.2f}x - "
                f"{tolerance:.0%} tolerance)"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Kernel throughput benchmark + regression gate"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="problem-size multiplier (default 1.0)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the JSON report here (e.g. BENCH_kernels.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) on speedup regression vs. --baseline",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="baseline JSON for --check (default: committed BENCH_kernels.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional speedup regression (default 0.30)",
    )
    args = parser.parse_args(argv)

    measured = run_suite(args.scale)
    if args.out is not None:
        args.out.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"wrote {args.out}")
    if args.check:
        if not args.baseline.exists():
            print(f"no baseline at {args.baseline}; cannot check", file=sys.stderr)
            return 1
        failures = check_regressions(
            measured, json.loads(args.baseline.read_text()), args.tolerance
        )
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("regression gate: ok")
    return 0


# --------------------------------------------------------------------------
# Pytest mode: statistical micro-kernel timing (pytest-benchmark).
# --------------------------------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - pytest always present in dev env
    pytest = None

if pytest is not None:

    @pytest.fixture(scope="module")
    def plaintexts():
        return RNG.integers(0, 256, size=(4096, 16), dtype=np.uint8)

    @pytest.fixture(scope="module")
    def traces():
        return RNG.normal(size=(2048, 256))

    def test_kernel_batch_aes(benchmark, plaintexts):
        key = np.frombuffer(KEY, dtype=np.uint8)
        out = benchmark(batch_round_states, key, plaintexts)
        assert out.shape == (4096, 11, 16)

    def test_kernel_batch_key_schedule(benchmark):
        keys = RNG.integers(0, 256, size=(4096, 16), dtype=np.uint8)
        out = benchmark(batch_expand_key, keys)
        assert out.shape == (4096, 11, 16)

    def test_kernel_batch_hamming(benchmark, plaintexts):
        dp = AesDatapath(KEY)
        out = benchmark(dp.batch_hamming_distances, plaintexts)
        assert out.shape == (4096, 11)

    def test_kernel_trace_synthesis(benchmark):
        synth = TraceSynthesizer()
        sched = ClockSchedule.from_period_matrix(
            RNG.uniform(21, 83, size=(2048, 11))
        )
        amps = RNG.uniform(40, 120, size=(2048, 11))
        out = benchmark(synth.synthesize, sched, amps)
        assert out.shape == (2048, 256)

    def test_kernel_cpa_correlation(benchmark, traces):
        cts = RNG.integers(0, 256, size=(2048, 16), dtype=np.uint8)
        preds = last_round_hd_predictions(cts, 0).astype(np.float64)

        out = benchmark(column_pearson, preds, traces)
        assert out.shape == (256, 256)

    def test_kernel_cpa_engine_full_key(benchmark, traces):
        cts = RNG.integers(0, 256, size=(2048, 16), dtype=np.uint8)

        def run():
            return CpaEngine(traces, cts).attack()

        result = benchmark(run)
        assert len(result.byte_results) == 16

    def test_kernel_batch_dtw(benchmark, traces):
        ref = traces[:256, ::2].mean(axis=0)
        out = benchmark(batch_dtw_align, traces[:256, ::2], ref, 32)
        assert out.shape == (256, 128)

    def test_kernel_fft_preprocess(benchmark, traces):
        out = benchmark(fft_magnitude, traces, 128)
        assert out.shape == (2048, 128)

    def test_kernel_tvla_update(benchmark, traces):
        def run():
            tvla = IncrementalTvla()
            tvla.update_interleaved(traces)
            return tvla.result()

        result = benchmark(run)
        assert result.t_values.shape == (256,)

    def test_kernel_frequency_planning(benchmark):
        params = RFTCParams(m_outputs=3, p_configs=32)

        def run():
            return plan_overlap_free(params, rng=np.random.default_rng(3))

        plan = benchmark(run)
        assert plan.n_sets == 32


if __name__ == "__main__":
    sys.exit(main())
