"""Lattice-alignment attack: realignment algebra and the RFTC break."""

import numpy as np
import pytest

from repro.attacks.cpa import cpa_attack
from repro.attacks.lattice import (
    lattice_align,
    lattice_cells,
    lattice_cpa_attack,
    lattice_reference_ns,
    lattice_shifts,
)
from repro.attacks.models import expand_last_round_key
from repro.errors import AttackError
from repro.pipeline import CampaignSpec
from repro.power.acquisition import AcquisitionCampaign


@pytest.fixture(scope="module")
def rftc_3k_traceset():
    """The acceptance campaign: RFTC(2, 8) where generic CPA fails."""
    device = CampaignSpec(
        target="rftc", m_outputs=2, p_configs=8, plan_seed=5
    ).build_device(np.random.default_rng(6))
    return AcquisitionCampaign(device, seed=2).collect(3000)


class TestLatticeCells:
    def test_quantizes_to_nearest_cell(self):
        cells = lattice_cells(np.array([0.0, 3.9, 4.1, 8.0]), 4.0)
        assert cells.tolist() == [0, 1, 1, 2]

    def test_same_cell_within_half_step(self):
        times = np.array([100.0, 100.4, 99.7])
        assert len(set(lattice_cells(times, 1.0))) == 1

    def test_rejects_bad_resolution(self):
        with pytest.raises(AttackError):
            lattice_cells(np.array([1.0]), 0.0)
        with pytest.raises(AttackError):
            lattice_cells(np.array([1.0]), float("nan"))

    def test_rejects_bad_times(self):
        with pytest.raises(AttackError):
            lattice_cells(np.array([[1.0]]), 1.0)
        with pytest.raises(AttackError):
            lattice_cells(np.array([1.0, -2.0]), 1.0)
        with pytest.raises(AttackError):
            lattice_cells(np.array([1.0, np.inf]), 1.0)


class TestLatticeShifts:
    def test_slowest_trace_never_moves(self):
        times = np.array([80.0, 96.0, 120.0])
        shifts = lattice_shifts(times, 8.0, reference_ns=120.0)
        assert shifts.tolist() == [5, 3, 0]
        # Aligning onto the slowest point only ever shifts right.
        assert (shifts >= 0).all()

    def test_validates_scalars(self):
        times = np.array([10.0])
        with pytest.raises(AttackError):
            lattice_shifts(times, 0.0, 10.0)
        with pytest.raises(AttackError):
            lattice_shifts(times, 8.0, -1.0)


class TestLatticeAlign:
    def test_restacks_known_offsets(self):
        # Two traces with the same pulse at different positions; alignment
        # by their completion times must put the pulse on one sample.
        traces = np.zeros((2, 16))
        traces[0, 10] = 1.0  # completes at 88 ns
        traces[1, 6] = 1.0  # completes at 56 ns
        aligned = lattice_align(
            traces, np.array([88.0, 56.0]), 8.0, reference_ns=88.0
        )
        np.testing.assert_array_equal(aligned[0], traces[0])
        assert aligned[1, 10] == 1.0 and aligned[1, 6] == 0.0

    def test_shifted_in_samples_are_zero(self):
        traces = np.ones((1, 8))
        aligned = lattice_align(traces, np.array([8.0]), 8.0, reference_ns=24.0)
        # Shift of 2 right: first two samples came from outside the window.
        np.testing.assert_array_equal(aligned[0, :2], [0.0, 0.0])
        np.testing.assert_array_equal(aligned[0, 2:], np.ones(6))

    def test_input_never_modified(self):
        rng = np.random.default_rng(0)
        traces = rng.normal(size=(4, 32))
        before = traces.copy()
        lattice_align(traces, np.full(4, 100.0), 8.0, reference_ns=200.0)
        np.testing.assert_array_equal(traces, before)

    def test_empty_input(self):
        aligned = lattice_align(
            np.empty((0, 8)), np.empty(0), 8.0, reference_ns=10.0
        )
        assert aligned.shape == (0, 8)

    def test_length_mismatch_rejected(self):
        with pytest.raises(AttackError):
            lattice_align(np.ones((3, 8)), np.ones(2), 8.0, 10.0)
        with pytest.raises(AttackError):
            lattice_align(np.ones(8), np.ones(1), 8.0, 10.0)


def _reference_lattice_align(
    traces, completion_times_ns, sample_period_ns, reference_ns
):
    """``lattice_align`` before the row-window gather: an int64 fancy
    index, a clip, a validity mask and ``np.where``."""
    traces = np.asarray(traces, dtype=np.float64)
    shifts = lattice_shifts(completion_times_ns, sample_period_ns, reference_ns)
    n, s = traces.shape
    if n == 0:
        return traces.copy()
    source = np.arange(s, dtype=np.int64)[None, :] - shifts[:, None]
    valid = (source >= 0) & (source < s)
    gathered = traces[
        np.arange(n, dtype=np.int64)[:, None], np.clip(source, 0, s - 1)
    ]
    return np.where(valid, gathered, 0.0)


class TestWindowGather:
    """The row-window gather equals the fancy-index form bit for bit."""

    S = 64

    @pytest.mark.parametrize("n", [0, 1, 1000])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_fancy_index_form(self, n, dtype):
        rng = np.random.default_rng(n)
        s = self.S
        traces = rng.normal(50.0, 4.0, size=(n, s)).astype(dtype)
        # Period 1 ns and reference 2S: completion times in [0, 4S] give
        # every shift in [-2S, 2S], past both edges of the window.
        times = rng.integers(0, 4 * s + 1, size=n).astype(np.float64)
        if n == 1000:
            times[: 4 * s + 1] = np.arange(4 * s + 1)
        before = traces.copy()
        got = lattice_align(traces, times, 1.0, reference_ns=2.0 * s)
        want = _reference_lattice_align(traces, times, 1.0, 2.0 * s)
        assert got.dtype == want.dtype == np.float64
        assert got.shape == (n, s)
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous and got.flags.owndata
        assert not np.shares_memory(got, traces)
        np.testing.assert_array_equal(traces, before)

    def test_nan_samples_travel_with_their_trace(self):
        traces = np.arange(16.0).reshape(2, 8)
        traces[0, 3] = np.nan
        times = np.array([5.0, 9.0])
        got = lattice_align(traces, times, 1.0, reference_ns=7.0)
        want = _reference_lattice_align(traces, times, 1.0, 7.0)
        np.testing.assert_array_equal(got, want)
        assert np.isnan(got[0, 5])


class TestReferenceAndOccupancy:
    def test_reference_is_slowest(self):
        assert lattice_reference_ns(np.array([3.0, 9.0, 4.0])) == 9.0

    def test_reference_rejects_degenerate(self):
        with pytest.raises(AttackError):
            lattice_reference_ns(np.array([]))
        with pytest.raises(AttackError):
            lattice_reference_ns(np.array([1.0, np.nan]))

    def test_rftc_occupancy_is_a_finite_lattice(self, rftc_3k_traceset):
        ts = rftc_3k_traceset
        cells, counts = np.unique(
            lattice_cells(ts.completion_times_ns, ts.sample_period_ns),
            return_counts=True,
        )
        # RFTC(2, 8) has at most P * C(R+M-1, R) = 8 * 11 completion
        # times; quantized to the scope grid they collapse further.
        assert cells.size <= 88
        assert counts.sum() == ts.n_traces


class TestRftcBreak:
    """The headline claim: realignment recovers the key where generic
    CPA fails on the same traces (paper's countermeasure vs the
    completion-time observable it leaves exposed)."""

    def test_lattice_breaks_where_generic_cpa_fails(self, rftc_3k_traceset):
        ts = rftc_3k_traceset
        true_byte = int(expand_last_round_key(ts.key)[0])

        generic = cpa_attack(ts.traces, ts.ciphertexts, byte_indices=(0,))
        generic_rank = generic.byte_results[0].rank_of(true_byte)

        aligned = lattice_cpa_attack(ts, byte_indices=(0,))
        aligned_rank = aligned.byte_results[0].rank_of(true_byte)

        assert aligned_rank == 0, "lattice alignment must recover the byte"
        assert generic_rank > 32, (
            "generic CPA should be lost on this build "
            f"(got rank {generic_rank})"
        )

    def test_attack_result_shape(self, rftc_3k_traceset):
        result = lattice_cpa_attack(rftc_3k_traceset, byte_indices=(0,))
        assert len(result.byte_results) == 1
        assert result.byte_results[0].peak_corr.shape == (256,)

    def test_explicit_reference_matches_default(self, rftc_3k_traceset):
        ts = rftc_3k_traceset
        reference = lattice_reference_ns(ts.completion_times_ns)
        a = lattice_cpa_attack(ts, byte_indices=(0,))
        b = lattice_cpa_attack(ts, byte_indices=(0,), reference_ns=reference)
        np.testing.assert_array_equal(
            a.byte_results[0].peak_corr, b.byte_results[0].peak_corr
        )
