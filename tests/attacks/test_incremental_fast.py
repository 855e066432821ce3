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
    assert fast.result().recovered_key() == ref.result().recovered_key()


def test_snapshot_restore_preserves_fast_exactness():
    # A fast bank restored mid-stream from its own snapshot and fed the
    # rest of the batches stays bit-identical to the reference engine.
    rng = np.random.default_rng(17)
    batches = [_random_batch(rng) for _ in range(4)]

    def resumed(engine):
        first = IncrementalCpaBank(engine=engine)
        for traces, ct in batches[:2]:
            first.update(traces, ct)
        bank = IncrementalCpaBank(engine=engine)
        bank.restore(first.snapshot())
        for traces, ct in batches[2:]:
            bank.update(traces, ct)
        return bank

    fast, ref = resumed("fast"), resumed("reference")
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
    assert fast.result().recovered_key() == ref.result().recovered_key()


def test_constructor_validation():
    with pytest.raises(AttackError):
        IncrementalCpaBank(engine="turbo")


# -- the per-byte kernel vs the whole-chunk formula ----------------------
#
# ``_fast_sums`` multiplies one key byte's predictions at a time.  The
# oracle is the formula it replaced: one (n, B*256) gather and one GEMM
# over all S+1 columns of [traces | 1].  n = 1000 spans several of the
# BLAS's K-panels, so a per-byte GEMM that took a different kernel than
# the whole-chunk one would show here as a last-bit difference.  Zero
# sample columns (a noise-free scope quantizes decayed pulse tails to 0)
# must change nothing either.

N_DEEP = 1000
S_DEEP = 64
#: 1 byte as in verify/drift.py, (0, 3, 7) as in verify/accumulators.py,
#: and a 4-byte bank spanning all four ShiftRows rows.
BANKS = [(0,), (0, 3, 7), (0, 5, 10, 15)]


def _whole_chunk_sums(byte_indices, traces, ct):
    """The five addends as the whole-chunk fast update computed them."""
    n, s = traces.shape
    targets = np.asarray(byte_indices, dtype=np.intp)
    pair = (ct[:, targets].astype(np.uint16) << 8) | ct[:, SHIFT_ROWS_MAP[targets]]
    gathered = np.take(hd_pair_table(), pair.reshape(-1), axis=0)
    preds = gathered.reshape(n, 256 * len(targets)).astype(traces.dtype)
    augmented = np.empty((n, s + 1), dtype=traces.dtype)
    augmented[:, :s] = traces
    augmented[:, s] = 1.0
    cross = preds.T @ augmented
    if traces.dtype == np.float32:
        sum_t = traces.sum(axis=0, dtype=np.float64)
        sum_t2 = np.einsum("ns,ns->s", traces, traces, dtype=np.float64)
    else:
        sum_t = traces.sum(axis=0)
        sum_t2 = (traces * traces).sum(axis=0)
    return (sum_t, sum_t2, cross[:, s], np.einsum("nk,nk->k", preds, preds),
            cross[:, :s])


def _bits(array):
    array = np.asarray(array)
    return array.dtype.str, array.shape, np.ascontiguousarray(array).tobytes()


def _chunk(rng, dtype, n_live, negative_zero=False):
    traces = rng.normal(size=(N_DEEP, S_DEEP)).astype(dtype)
    ct = rng.integers(0, 256, size=(N_DEEP, 16), dtype=np.uint8)
    dead = rng.permutation(S_DEEP)[n_live:]
    traces[:, dead] = 0.0
    if negative_zero and dead.size:
        traces[:, dead[0]] = -0.0
    return traces, ct


def _assert_bank_matches_whole_chunk(byte_indices, chunks):
    bank = IncrementalCpaBank(byte_indices=byte_indices)
    folded = None
    for traces, ct in chunks:
        summary = bank.chunk_summary(traces, ct)
        expected = _whole_chunk_sums(byte_indices, traces, ct)
        assert summary.n_traces == traces.shape[0]
        got = (summary.sum_t, summary.sum_t2, summary.sum_p, summary.sum_p2,
               summary.sum_pt)
        for name, a, b in zip(("t", "t2", "p", "p2", "pt"), got, expected):
            assert _bits(a) == _bits(b), f"Σ{name} differs"
        bank.fold_summary(summary)
        if folded is None:
            folded = [np.zeros(np.shape(e)) for e in expected]
        for total, addend in zip(folded, expected):
            total += addend
    for name, total in zip(("t", "t2", "p", "p2", "pt"), folded):
        assert _bits(getattr(bank, f"_sum_{name}")) == _bits(total)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("byte_indices", BANKS)
def test_per_byte_kernel_bit_identical_to_whole_chunk(dtype, byte_indices):
    rng = np.random.default_rng(23)
    for n_live in [*range(18), S_DEEP - 1, S_DEEP]:
        chunks = [_chunk(rng, dtype, n_live) for _ in range(2)]
        _assert_bank_matches_whole_chunk(byte_indices, chunks)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_negative_zero_column_bit_identical_to_whole_chunk(dtype):
    rng = np.random.default_rng(29)
    chunks = [_chunk(rng, dtype, n_live, negative_zero=True)
              for n_live in (0, 5, S_DEEP - 1)]
    for byte_indices in BANKS:
        _assert_bank_matches_whole_chunk(byte_indices, chunks)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "byte_indices, n_samples, batch",
    [((0,), 6, 250), ((0, 3, 7), 12, 240)],
    ids=["verify-drift", "verify-accumulators"],
)
def test_callers_smallest_shapes_bit_identical(
    dtype, byte_indices, n_samples, batch
):
    # The smallest GEMMs any caller runs: verify/drift.py feeds a 1-byte
    # bank 6-sample traces in 250-trace batches, verify/accumulators.py a
    # 3-byte bank 12-sample traces in batches of up to 240.  On them the
    # per-byte kernel equals the whole-chunk formula and, in float64, the
    # reference engine.
    rng = np.random.default_rng(37)
    chunks = []
    for _ in range(3):
        traces = rng.normal(50.0, 6.0, size=(batch, n_samples)).astype(dtype)
        chunks.append((traces, rng.integers(0, 256, size=(batch, 16),
                                            dtype=np.uint8)))
    _assert_bank_matches_whole_chunk(byte_indices, chunks)
    if dtype == np.float64:
        fast = IncrementalCpaBank(byte_indices=byte_indices)
        ref = IncrementalCpaBank(byte_indices=byte_indices, engine="reference")
        for traces, ct in chunks:
            fast.update(traces, ct)
            ref.update(traces, ct)
        np.testing.assert_array_equal(fast.correlation(), ref.correlation())


def test_scratch_does_not_grow_with_the_attacked_bytes():
    # The cpa-campaign's chunk: 5000 float32 traces of 256 samples.  The
    # whole-chunk kernel kept a (5000, 4096) uint8 gather and its float32
    # copy, ~102 MB for 16 bytes; the per-byte kernel keeps one trace
    # block [traces | 1] plus one byte's predictions (uint8 and float32).
    n, s = 5000, 256
    rng = np.random.default_rng(31)
    traces = rng.normal(size=(n, s)).astype(np.float32)
    ct = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
    totals = []
    for byte_indices in ((0,), tuple(range(16))):
        bank = IncrementalCpaBank(byte_indices=byte_indices)
        bank.chunk_summary(traces, ct)
        totals.append(sum(buf.nbytes for buf in bank._scratch.values()))
    assert totals[0] == totals[1]
    one_block_one_byte = n * (s + 1) * 4 + n * 256 * (1 + 4)  # 11.5 MB
    assert totals[1] <= one_block_one_byte
