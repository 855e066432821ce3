"""Accumulator differential oracle: streaming vs. batch, under schedules.

Each streaming accumulator (:class:`~repro.attacks.IncrementalCpa`,
:class:`~repro.attacks.IncrementalCpaBank`,
:class:`~repro.leakage_assessment.IncrementalTvla`,
:class:`~repro.utils.stats.RunningMoments`) is exercised under randomized
schedules from :mod:`repro.verify.schedules` and held to two standards:

* **Bit-identity** where the contract is exact: any snapshot/restore/
  replay schedule must reproduce the plain sequential fold bit-for-bit,
  and zero-trace updates must be exact no-ops.
* **Batch agreement** where float associativity intervenes: the chunked
  sequential fold is compared against the batch reference
  (``column_pearson`` / ``welch_t`` / ``np.mean``/``np.var``) at
  tolerances far below any physical effect.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.attacks.incremental import IncrementalCpa, IncrementalCpaBank
from repro.attacks.models import last_round_hd_predictions
from repro.errors import ConfigurationError
from repro.leakage_assessment.tvla import IncrementalTvla
from repro.utils.stats import RunningMoments, column_pearson, welch_t
from repro.verify import Checks
from repro.verify.schedules import (
    ReplaySchedule,
    chunk_bounds,
    generate_replay_schedule,
)

#: Key bytes the bank oracle attacks (3 bytes keep the GEMM small while
#: still exercising the stacked-hypothesis layout).
_BANK_BYTES = (0, 3, 7)

_N_ROWS = 240
_N_SAMPLES = 12


def states_equal(a: dict, b: dict) -> bool:
    """Bit-exact equality of two snapshot dicts (arrays and scalars)."""
    if sorted(a) != sorted(b):
        return False
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            va, vb = np.asarray(va), np.asarray(vb)
            if va.shape != vb.shape or not np.array_equal(va, vb):
                return False
        elif va != vb:
            return False
    return True


class _Adapter:
    """Uniform driver interface over one accumulator type."""

    label: str

    def __init__(
        self,
        label: str,
        make: Callable[[], object],
        feed: Callable[[object, int, int], None],
        feed_empty: Callable[[object], None],
        compare_batch: Callable[[object], Tuple[bool, str]],
    ):
        self.label = label
        self.make = make
        self.feed = feed
        self.feed_empty = feed_empty
        self.compare_batch = compare_batch

    def fold_sequential(self, bounds: Sequence[Tuple[int, int]]):
        acc = self.make()
        for lo, hi in bounds:
            self.feed(acc, lo, hi)
        return acc

    def fold_replay(self, bounds: Sequence[Tuple[int, int]], schedule: ReplaySchedule):
        acc = self.make()
        saved = None
        for op in schedule.ops:
            if op[0] == "snapshot":
                saved = acc.snapshot()
            elif op[0] == "restore":
                acc.restore(saved)
            elif op[0] == "feed_empty":
                self.feed_empty(acc)
            else:
                lo, hi = bounds[op[1]]
                self.feed(acc, lo, hi)
        return acc


def _tolerance_detail(diff: float, atol: float) -> str:
    return f"max |diff| {diff:.3e} (budget {atol:.0e})"


def _build_adapters(seed: int) -> List[_Adapter]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xACC]))
    traces = rng.normal(50.0, 6.0, size=(_N_ROWS, _N_SAMPLES))
    data = rng.integers(0, 256, size=(_N_ROWS, 16), dtype=np.uint8)
    fixed = rng.normal(48.0, 5.0, size=(_N_ROWS, _N_SAMPLES))
    random_ = rng.normal(50.0, 5.0, size=(_N_ROWS, _N_SAMPLES))
    empty_traces = np.empty((0, _N_SAMPLES))
    empty_data = np.empty((0, 16), dtype=np.uint8)

    cpa_ref = column_pearson(
        last_round_hd_predictions(data, 0).astype(np.float64), traces
    )

    def cpa_compare(acc) -> Tuple[bool, str]:
        diff = float(np.abs(acc.correlation() - cpa_ref).max())
        return diff <= 1e-9, _tolerance_detail(diff, 1e-9)

    bank_refs = [
        column_pearson(
            last_round_hd_predictions(data, b).astype(np.float64), traces
        )
        for b in _BANK_BYTES
    ]

    def bank_compare(acc) -> Tuple[bool, str]:
        corr = acc.correlation()
        diff = max(
            float(np.abs(corr[i] - ref).max())
            for i, ref in enumerate(bank_refs)
        )
        return diff <= 1e-9, _tolerance_detail(diff, 1e-9)

    tvla_ref = welch_t(fixed, random_)

    def tvla_compare(acc) -> Tuple[bool, str]:
        diff = float(np.abs(acc.result().t_values - tvla_ref).max())
        return diff <= 1e-8, _tolerance_detail(diff, 1e-8)

    mean_ref = traces.mean(axis=0)
    var_ref = traces.var(axis=0, ddof=1)

    def moments_compare(acc) -> Tuple[bool, str]:
        diff = max(
            float(np.abs(acc.mean - mean_ref).max()),
            float(np.abs(acc.variance - var_ref).max()),
        )
        return diff <= 1e-8, _tolerance_detail(diff, 1e-8)

    def tvla_feed(acc, lo, hi):
        acc.update_fixed(fixed[lo:hi])
        acc.update_random(random_[lo:hi])

    def tvla_feed_empty(acc):
        acc.update_fixed(empty_traces)
        acc.update_random(empty_traces)

    return [
        _Adapter(
            label="cpa",
            make=lambda: IncrementalCpa(byte_index=0),
            feed=lambda acc, lo, hi: acc.update(traces[lo:hi], data[lo:hi]),
            feed_empty=lambda acc: acc.update(empty_traces, empty_data),
            compare_batch=cpa_compare,
        ),
        _Adapter(
            label="cpa_bank",
            make=lambda: IncrementalCpaBank(byte_indices=_BANK_BYTES),
            feed=lambda acc, lo, hi: acc.update(traces[lo:hi], data[lo:hi]),
            feed_empty=lambda acc: acc.update(empty_traces, empty_data),
            compare_batch=bank_compare,
        ),
        _Adapter(
            label="tvla",
            make=IncrementalTvla,
            feed=tvla_feed,
            feed_empty=tvla_feed_empty,
            compare_batch=tvla_compare,
        ),
        _Adapter(
            label="moments",
            make=RunningMoments,
            feed=lambda acc, lo, hi: acc.update(traces[lo:hi]),
            feed_empty=lambda acc: acc.update(empty_traces),
            compare_batch=moments_compare,
        ),
    ]


def _zero_guard_checks(checks: Checks, adapter: _Adapter) -> None:
    """Empty updates must be exact no-ops."""
    # Zero-row update on a fresh accumulator: nothing allocated, count 0.
    acc = adapter.make()
    adapter.feed_empty(acc)
    fresh_state = adapter.make().snapshot()
    ok = states_equal(acc.snapshot(), fresh_state)

    # Zero-row update on a populated accumulator: state untouched.
    acc = adapter.make()
    adapter.feed(acc, 0, 32)
    before = acc.snapshot()
    adapter.feed_empty(acc)
    ok = ok and states_equal(acc.snapshot(), before)
    checks.record(
        f"zero-guards:{adapter.label}:empty-update",
        ok,
        "zero-trace update is a bit-exact no-op",
    )


def run_accumulator_checks(
    checks: Checks, seed: int = 2019, schedules: int = 50
) -> None:
    """Append the accumulator oracle's verdicts to ``checks``."""
    if schedules < 1:
        # Zero schedules would report every replay check as passed.
        raise ConfigurationError(f"schedules must be >= 1, got {schedules}")
    adapters = _build_adapters(seed)
    for adapter_index, adapter in enumerate(adapters):
        _zero_guard_checks(checks, adapter)

        # Streaming (sequential chunked fold) vs. the batch reference.
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, 0x5EED, adapter_index])
        )
        bounds = chunk_bounds(_N_ROWS, 6, rng)
        seq = adapter.fold_sequential(bounds)
        ok, detail = adapter.compare_batch(seq)
        checks.record(f"streaming-vs-batch:{adapter.label}", ok, detail)

        replay_failures: List[str] = []
        for index in range(schedules):
            bounds = chunk_bounds(_N_ROWS, int(rng.integers(4, 9)), rng)
            seq_state = adapter.fold_sequential(bounds).snapshot()
            replay = generate_replay_schedule(rng, len(bounds))
            replayed = adapter.fold_replay(bounds, replay)
            if not states_equal(replayed.snapshot(), seq_state):
                replay_failures.append(
                    f"schedule {index}: replay state != sequential fold"
                )

        checks.record(
            f"replay-schedules:{adapter.label}",
            not replay_failures,
            "; ".join(replay_failures[:3])
            or f"{schedules} randomized snapshot/restore/replay schedules "
            "bit-identical to the sequential fold",
        )
