"""CpaEngine / IncrementalCpaBank vs. the per-byte reference paths.

The shared-moment engine must reproduce ``cpa_byte`` — same peaks (to
float round-off), same rankings, same recovered key — and the streaming
bank must match both the per-byte streaming accumulator and the batch
engine.
"""

import numpy as np
import pytest

from repro.attacks import (
    CpaEngine,
    IncrementalCpa,
    IncrementalCpaBank,
    cpa_attack,
    cpa_byte,
    last_round_hd_predictions,
)
from repro.errors import AttackError
from repro.utils.stats import column_pearson

N, S = 900, 96


def _reference_corr(traces, cts, byte_index, model=last_round_hd_predictions):
    """``(256, S)`` Pearson matrix computed the way ``cpa_byte`` does."""
    return column_pearson(model(cts, byte_index).astype(np.float64), traces)


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(42)
    traces = rng.normal(size=(N, S))
    cts = rng.integers(0, 256, size=(N, 16), dtype=np.uint8)
    return traces, cts


class TestEngineEquivalence:
    def test_peaks_rankings_and_corr_match_cpa_byte(self, dataset):
        traces, cts = dataset
        engine = CpaEngine(traces, cts)
        for b in range(16):
            ref = cpa_byte(traces, cts, b)
            got = engine.attack_byte(b)
            np.testing.assert_allclose(
                got.peak_corr, ref.peak_corr, atol=1e-10, rtol=0.0
            )
            np.testing.assert_allclose(
                engine.correlation([b])[0],
                _reference_corr(traces, cts, b),
                atol=1e-10,
                rtol=0.0,
            )
            assert got.best_guess == ref.best_guess
            np.testing.assert_array_equal(got.ranking(), ref.ranking())

    def test_attack_matches_attack_byte(self, dataset):
        traces, cts = dataset
        engine = CpaEngine(traces, cts)
        result = engine.attack()
        assert result.recovered_key() == bytes(
            engine.attack_byte(b).best_guess for b in range(16)
        )

    def test_cpa_attack_delegates_to_engine(self, dataset):
        traces, cts = dataset
        result = cpa_attack(traces, cts, byte_indices=(0, 5, 11))
        engine = CpaEngine(traces, cts)
        for byte_result in result.byte_results:
            ref = engine.attack_byte(byte_result.byte_index)
            np.testing.assert_array_equal(byte_result.peak_corr, ref.peak_corr)

    def test_correlation_stack_matches_reference(self, dataset):
        traces, cts = dataset
        stack = CpaEngine(traces, cts).correlation([3, 9])
        assert stack.shape == (2, 256, S)
        for i, b in enumerate((3, 9)):
            ref = _reference_corr(traces, cts, b)
            np.testing.assert_allclose(stack[i], ref, atol=1e-10, rtol=0.0)

    def test_non_integer_model_path(self, dataset):
        # The engine takes its prediction norms from exact integer sums;
        # Pearson is scale-free, so a halved float model centered the
        # generic way must give the same peaks.
        traces, cts = dataset

        def float_model(data, byte_index):
            return last_round_hd_predictions(data, byte_index).astype(
                np.float64
            ) * 0.5

        ref_peak = np.abs(_reference_corr(traces, cts, 4, float_model)).max(
            axis=1
        )
        got = CpaEngine(traces, cts).attack_byte(4)
        np.testing.assert_allclose(got.peak_corr, ref_peak, atol=1e-10, rtol=0.0)
        assert got.best_guess == int(np.argmax(ref_peak))

    def test_constant_prediction_column_yields_zero(self, dataset):
        # One ciphertext repeated makes every guess's prediction column
        # constant: zero variance correlates as 0, not NaN.
        traces, cts = dataset
        repeated = np.repeat(cts[:1], len(cts), axis=0)
        got = CpaEngine(traces, repeated).attack_byte(0)
        np.testing.assert_array_equal(got.peak_corr, np.zeros(256))

    def test_tiled_gemm_matches_untiled(self, monkeypatch):
        # S = 257 splits into 128-sample tiles plus a 1-sample tail.
        rng = np.random.default_rng(7)
        traces = rng.normal(size=(2000, 257))
        cts = rng.integers(0, 256, size=(2000, 16), dtype=np.uint8)
        untiled = CpaEngine(traces, cts)
        monkeypatch.setattr(CpaEngine, "_AUTO_TILE_MIN_TRACES", 1)
        tiled = CpaEngine(traces, cts)
        for b in (0, 7, 15):
            np.testing.assert_allclose(
                tiled.correlation([b])[0],
                untiled.correlation([b])[0],
                atol=1e-12,
                rtol=0.0,
            )
            assert (
                tiled.attack_byte(b).best_guess
                == untiled.attack_byte(b).best_guess
            )

    def test_validation(self, dataset):
        traces, cts = dataset
        with pytest.raises(AttackError):
            CpaEngine(traces[:3], cts[:3])
        with pytest.raises(AttackError):
            CpaEngine(traces, cts[:-1])
        with pytest.raises(AttackError):
            CpaEngine(traces, cts).attack(byte_indices=())
        with pytest.raises(AttackError):
            CpaEngine(traces, cts).correlation([])


class TestBankEquivalence:
    def test_bank_matches_per_byte_incremental_and_batch(self, dataset):
        traces, cts = dataset
        bank = IncrementalCpaBank()
        # A single accumulator takes only the bytes ShiftRows leaves in
        # place; the bank and the batch engine cover all sixteen.
        singles = {b: IncrementalCpa(byte_index=b) for b in (0, 4, 8, 12)}
        for start in range(0, N, 250):
            chunk = slice(start, min(start + 250, N))
            bank.update(traces[chunk], cts[chunk])
            for single in singles.values():
                single.update(traces[chunk], cts[chunk])
        result = bank.result()
        batch = CpaEngine(traces, cts).attack()
        for b, single in singles.items():
            np.testing.assert_allclose(
                result.byte_results[b].peak_corr,
                single.result().peak_corr,
                atol=1e-10,
                rtol=0.0,
            )
        for b in range(16):
            np.testing.assert_allclose(
                result.byte_results[b].peak_corr,
                batch.byte_results[b].peak_corr,
                atol=1e-10,
                rtol=0.0,
            )

    def test_bank_validation(self, dataset):
        traces, cts = dataset
        with pytest.raises(AttackError):
            IncrementalCpaBank(byte_indices=())
        with pytest.raises(AttackError):
            IncrementalCpaBank(byte_indices=(0, 0))
        with pytest.raises(AttackError):
            IncrementalCpaBank(byte_indices=(16,))
        bank = IncrementalCpaBank()
        with pytest.raises(AttackError):
            bank.result()


class TestEngineRecoversKey(object):
    def test_full_key_on_unprotected_traces(self, unprotected_traceset):
        from repro.attacks.models import expand_last_round_key

        ts = unprotected_traceset
        result = CpaEngine(ts.traces, ts.ciphertexts).attack()
        assert result.recovered_key() == expand_last_round_key(ts.key)
