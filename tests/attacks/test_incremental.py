"""Streaming CPA accumulator."""

import numpy as np
import pytest

from repro.attacks.cpa import CpaEngine, cpa_byte
from repro.attacks.incremental import (
    CpaChunkSummary,
    IncrementalCpa,
    IncrementalCpaBank,
    _as_batch,
)
from repro.attacks.models import (
    expand_last_round_key,
    last_round_hd_predictions,
)
from repro.errors import AttackError


class TestEquivalence:
    def test_matches_batch_engine(self, unprotected_traceset):
        ts = unprotected_traceset
        batch = cpa_byte(ts.traces, ts.ciphertexts, 0)
        inc = IncrementalCpa(byte_index=0)
        for start in range(0, ts.n_traces, 700):
            stop = min(start + 700, ts.n_traces)
            inc.update(ts.traces[start:stop], ts.ciphertexts[start:stop])
        np.testing.assert_allclose(
            inc.correlation(),
            CpaEngine(ts.traces, ts.ciphertexts).correlation([0])[0],
            atol=1e-9,
        )
        result = inc.result()
        assert result.best_guess == batch.best_guess

    def test_single_batch_equals_many(self, unprotected_traceset):
        ts = unprotected_traceset
        one = IncrementalCpa()
        one.update(ts.traces, ts.ciphertexts)
        many = IncrementalCpa()
        for i in range(0, ts.n_traces, 123):
            j = min(i + 123, ts.n_traces)
            many.update(ts.traces[i:j], ts.ciphertexts[i:j])
        np.testing.assert_allclose(
            one.correlation(), many.correlation(), atol=1e-9
        )

    def test_recovers_key(self, unprotected_traceset):
        ts = unprotected_traceset
        rk10 = expand_last_round_key(ts.key)
        inc = IncrementalCpa(byte_index=12)
        inc.update(ts.traces, ts.ciphertexts)
        assert inc.result().best_guess == rk10[12]


class TestValidation:
    def test_bad_byte_index(self):
        with pytest.raises(AttackError):
            IncrementalCpa(byte_index=16)

    def test_result_needs_data(self):
        with pytest.raises(AttackError):
            IncrementalCpa().correlation()

    def test_batch_shape_mismatch(self, rng):
        inc = IncrementalCpa()
        cts = rng.integers(0, 256, size=(8, 16), dtype=np.uint8)
        inc.update(rng.normal(size=(8, 10)), cts)
        with pytest.raises(AttackError):
            inc.update(rng.normal(size=(8, 11)), cts)

    def test_data_length_mismatch(self, rng):
        inc = IncrementalCpa()
        with pytest.raises(AttackError):
            inc.update(
                rng.normal(size=(8, 10)),
                rng.integers(0, 256, size=(7, 16), dtype=np.uint8),
            )

    def test_count_tracked(self, rng):
        inc = IncrementalCpa()
        cts = rng.integers(0, 256, size=(5, 16), dtype=np.uint8)
        inc.update(rng.normal(size=(5, 4)), cts)
        assert inc.n_traces == 5


def _reference_correlation(acc) -> np.ndarray:
    """``incremental._correlation`` before it worked in place, verbatim."""
    if acc._sum_t is None or acc.n_traces < 2:
        raise AttackError("accumulate at least 2 traces first")
    n = acc.n_traces
    cov = acc._sum_pt - np.outer(acc._sum_p, acc._sum_t) / n
    var_p = acc._sum_p2 - acc._sum_p**2 / n
    var_t = acc._sum_t2 - acc._sum_t**2 / n
    var_p[var_p < 0] = 0.0
    var_t[var_t < 0] = 0.0
    denom = np.sqrt(np.outer(var_p, var_t))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0.0, cov / denom, 0.0)


FLAT = 5  # a trace column of zero variance: its Pearson column is 0


def _batch(dtype, n=400, s=64, seed=0):
    rng = np.random.default_rng(seed)
    traces = rng.normal(50.0, 4.0, size=(n, s)).astype(dtype)
    traces[:, FLAT] = 3.0
    ciphertexts = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
    return traces, ciphertexts


class TestCorrelationInPlace:
    """The in-place Pearson matrix equals the out-of-place form bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_single_byte(self, dtype):
        inc = IncrementalCpa(byte_index=4)
        for seed in range(3):
            inc.update(*_batch(dtype, seed=seed))
        expected = _reference_correlation(inc)
        assert np.all(expected[:, FLAT] == 0.0)
        corr = inc.correlation()
        assert corr.dtype == expected.dtype
        assert np.array_equal(corr, expected)

    @pytest.mark.parametrize("n_bytes", [1, 3, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bank(self, n_bytes, dtype):
        bank = IncrementalCpaBank(byte_indices=tuple(range(n_bytes)))
        for seed in range(3):
            bank.update(*_batch(dtype, seed=seed))
        expected = _reference_correlation(bank).reshape(n_bytes, 256, -1)
        assert np.all(expected[:, :, FLAT] == 0.0)
        corr = bank.correlation()
        assert corr.dtype == expected.dtype
        assert np.array_equal(corr, expected)

    def test_bank_transient_is_at_most_two_and_a_half_outputs(
        self, traced_peak
    ):
        # The out-of-place form peaked at ~4.1 outputs (33 MiB here).
        bank = IncrementalCpaBank()
        bank.update(*_batch(np.float64, n=50, s=256))
        corr, peak = traced_peak(bank.correlation)
        assert peak <= 2.5 * corr.nbytes


def _reference_chunk_summary(self, traces, data):
    """``IncrementalCpa.chunk_summary`` before the table fold, verbatim."""
    traces = _as_batch(traces, data, keep_float32=True)
    if traces.shape[0] == 0:
        return None  # zero traces: nothing to allocate or fold
    predictions = last_round_hd_predictions(data, self.byte_index).astype(
        traces.dtype
    )
    if traces.dtype == np.float32:
        # Prediction sums stay exact (integer-valued, < 2**24); the
        # trace sums reduce in float64 so only the GEMM loses bits.
        sum_t = traces.sum(axis=0, dtype=np.float64)
        sum_t2 = np.einsum("ns,ns->s", traces, traces, dtype=np.float64)
        sum_p = predictions.sum(axis=0, dtype=np.float64)
        sum_p2 = np.einsum(
            "nk,nk->k", predictions, predictions, dtype=np.float64
        )
    else:
        sum_t = traces.sum(axis=0)
        sum_t2 = (traces * traces).sum(axis=0)
        sum_p = predictions.sum(axis=0)
        sum_p2 = (predictions * predictions).sum(axis=0)
    return CpaChunkSummary(
        traces.shape[0], sum_t, sum_t2, sum_p, sum_p2,
        predictions.T @ traces,
    )


_ADDENDS = ("sum_t", "sum_t2", "sum_p", "sum_p2", "sum_pt")


def _fold_batch(kind, dtype, n, s=48, seed=0):
    """ADC-code traces (multiples of 1/16) or plain random floats."""
    rng = np.random.default_rng([seed, n])
    if kind == "codes":
        traces = rng.integers(0, 4096, size=(n, s)) / 16.0
    else:
        traces = rng.normal(50.0, 4.0, size=(n, s))
    ciphertexts = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
    return traces.astype(dtype), ciphertexts


class TestTableFold:
    """The table fold's addends equal the per-row prediction fold's."""

    @pytest.mark.parametrize("kind", ["codes", "floats"])
    @pytest.mark.parametrize("n", [1, 2, 499, 1000, 5000])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("byte_index", [0, 4, 8, 12])
    def test_addends_bit_identical(self, byte_index, dtype, n, kind):
        inc = IncrementalCpa(byte_index=byte_index)
        traces, ciphertexts = _fold_batch(kind, dtype, n, seed=byte_index)
        got = inc.chunk_summary(traces, ciphertexts)
        want = _reference_chunk_summary(inc, traces, ciphertexts)
        assert got.n_traces == want.n_traces == n
        for name in _ADDENDS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.shape == b.shape, name
            assert np.array_equal(a, b), name

    def test_empty_chunk_is_none(self):
        assert IncrementalCpa().chunk_summary(
            np.zeros((0, 8)), np.zeros((0, 16), dtype=np.uint8)
        ) is None

    @pytest.mark.parametrize(
        "byte_index", [b for b in range(16) if b % 4 != 0]
    )
    def test_bytes_shift_rows_moves_are_refused(self, byte_index):
        with pytest.raises(AttackError, match="ShiftRows"):
            IncrementalCpa(byte_index=byte_index)

    def test_bad_ciphertext_width_refused(self, rng):
        with pytest.raises(AttackError):
            IncrementalCpa().update(
                rng.normal(size=(8, 10)),
                rng.integers(0, 256, size=(8, 15), dtype=np.uint8),
            )
