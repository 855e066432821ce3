"""The fast CPA-bank engine is exact, not approximate.

``engine="fast"`` replaces the per-byte model evaluation with one row
gather from the shared pair table and runs the cross-sum GEMM on an
augmented [T | 1] block.  None of that may change a single bit of the
float64 result relative to ``engine="reference"`` — asserted here at
the update, merge, snapshot/restore and result levels.
"""

import numpy as np
import pytest

from repro.attacks import IncrementalCpaBank
from repro.attacks.models import hd_pair_table, last_round_hd_predictions
from repro.crypto.aes_tables import SHIFT_ROWS_MAP
from repro.errors import AttackError


def _random_batch(rng, n=300, s=64):
    traces = rng.normal(size=(n, s))
    ciphertexts = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
    return traces, ciphertexts


def test_pair_table_matches_model_for_every_byte():
    rng = np.random.default_rng(7)
    ct = rng.integers(0, 256, size=(200, 16), dtype=np.uint8)
    table = hd_pair_table()
    for byte_index in range(16):
        partner = int(SHIFT_ROWS_MAP[byte_index])
        pair = ct[:, byte_index].astype(np.intp) * 256 + ct[:, partner]
        np.testing.assert_array_equal(
            table[pair], last_round_hd_predictions(ct, byte_index)
        )


def test_fast_float64_bit_identical_to_reference():
    rng = np.random.default_rng(11)
    fast = IncrementalCpaBank(engine="fast")
    ref = IncrementalCpaBank(engine="reference")
    for _ in range(3):
        traces, ct = _random_batch(rng)
        fast.update(traces, ct)
        ref.update(traces, ct)
    np.testing.assert_array_equal(fast.correlation(), ref.correlation())
    assert fast.result().recovered_bytes == ref.result().recovered_bytes


def test_merge_and_snapshot_preserve_fast_exactness():
    # Merging shards sums the float trace accumulators in a different
    # order than sequential folding, so the invariant is fast ==
    # reference under the *same* shard/merge schedule (one fast shard
    # additionally round-trips through snapshot/restore).
    rng = np.random.default_rng(17)
    batches = [_random_batch(rng) for _ in range(4)]

    def sharded(engine):
        left = IncrementalCpaBank(engine=engine)
        right = IncrementalCpaBank(engine=engine)
        for traces, ct in batches[:2]:
            left.update(traces, ct)
        for traces, ct in batches[2:]:
            right.update(traces, ct)
        merged = IncrementalCpaBank(engine=engine)
        merged.restore(left.snapshot())
        merged.merge(right)
        return merged

    fast, ref = sharded("fast"), sharded("reference")
    assert fast.n_traces == ref.n_traces == sum(t.shape[0] for t, _ in batches)
    np.testing.assert_array_equal(fast.correlation(), ref.correlation())


def test_float32_batches_stay_within_drift_budget():
    rng = np.random.default_rng(19)
    fast = IncrementalCpaBank(engine="fast")
    ref = IncrementalCpaBank(engine="reference")
    for _ in range(3):
        traces, ct = _random_batch(rng)
        fast.update(traces.astype(np.float32), ct)
        ref.update(traces, ct)
    # Budget from src/repro/verify/drift_manifest.json
    # (incremental_cpa_bank_float32), enforced by `repro verify`.
    drift = np.max(np.abs(fast.correlation() - ref.correlation()))
    assert drift < 5e-4
    assert fast.result().recovered_bytes == ref.result().recovered_bytes


def test_custom_model_falls_back_to_reference_path():
    def negated_hd(data, byte_index):
        return 8 - last_round_hd_predictions(data, byte_index)

    rng = np.random.default_rng(23)
    traces, ct = _random_batch(rng)
    custom_fast = IncrementalCpaBank(engine="fast", model=negated_hd)
    custom_ref = IncrementalCpaBank(engine="reference", model=negated_hd)
    custom_fast.update(traces, ct)
    custom_ref.update(traces, ct)
    np.testing.assert_array_equal(
        custom_fast.correlation(), custom_ref.correlation()
    )


def test_constructor_validation():
    with pytest.raises(AttackError):
        IncrementalCpaBank(engine="turbo")
