"""The numpy recursion of synth, scope and cloud equals scipy's lfilter.

The measurement chain's three single-pole filters run as a samples-major
numpy recursion (:mod:`repro.utils.iir`).  The oracles here are the
``scipy.signal.lfilter`` formulations those filters replaced, run on the
usual ``(n, S)`` C-ordered layout.  Results are compared as raw bytes:
``np.array_equal`` would let a −0.0 stand in for a 0.0.
"""

import numpy as np
import pytest
from scipy.signal import lfilter

from repro.baselines import UnprotectedClock
from repro.hw.clock import ClockSchedule
from repro.pipeline import DEFAULT_KEY
from repro.power import CloudSensor
from repro.power.acquisition import AcquisitionCampaign, ProtectedAesDevice
from repro.power.drift import DriftProcess, DriftSpec
from repro.power.scope import Oscilloscope
from repro.power.synth import TraceSynthesizer
from repro.utils.iir import decay_rows
from tests.store.test_chunked import write_store

SIZES = (1, 2, 100, 1000, 5000)
DTYPES = ("float32", "float64")
TWO_TAPS = ((0.0, 0.6), (7.0, 0.4))


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# -- lfilter oracles: the (n, S) formulations the recursion replaced --------


def lfilter_synthesize(synth, schedule, amplitudes, rng=None):
    edge_times, amplitudes = synth._validated_edges(schedule, amplitudes, rng)
    n = edge_times.shape[0]
    s_count = synth.n_samples
    dt = synth.dt_ns
    grid = np.arange(s_count + 1) * dt
    impulses = np.zeros(n * s_count)
    row_base = np.broadcast_to(
        (np.arange(n) * s_count)[:, None], edge_times.shape
    )
    for delay_ns, fraction in synth.taps:
        e = edge_times + delay_ns
        s0 = np.ceil(e / dt).astype(np.int64)
        np.clip(s0, 0, s_count, out=s0)
        dec = (s0 > 0) & (grid[np.maximum(s0 - 1, 0)] >= e)
        s0[dec] -= 1
        inc = (s0 < s_count) & (grid[s0] < e)
        s0[inc] += 1
        keep = s0 < s_count
        if not np.any(keep):
            continue
        pre_decay = np.exp(-(grid[s0[keep]] - e[keep]) / synth.tau_ns)
        impulses += np.bincount(
            row_base[keep] + s0[keep],
            weights=fraction * amplitudes[keep] * pre_decay,
            minlength=n * s_count,
        )
    decay = np.exp(-dt / synth.tau_ns)
    traces = lfilter(
        np.array([1.0]), np.array([1.0, -decay]),
        impulses.reshape(n, s_count), axis=1,
    )
    return traces.astype(synth.dtype, copy=False)


def lfilter_rc(traces, sample_rate_msps, bandwidth_mhz):
    dt_s = 1e-6 / sample_rate_msps
    rc = 1.0 / (2.0 * np.pi * bandwidth_mhz * 1e6)
    alpha = dt_s / (rc + dt_s)
    b = np.array([alpha])
    a = np.array([1.0, alpha - 1.0])
    return lfilter(b, a, traces, axis=1).astype(traces.dtype, copy=False)


def lfilter_scope_capture(scope, analog, rng=None):
    out_dtype = np.dtype(scope.dtype)
    traces = np.ascontiguousarray(analog, dtype=out_dtype)
    if scope.bandwidth_mhz > 0:
        traces = lfilter_rc(traces, scope.sample_rate_msps, scope.bandwidth_mhz)
    if scope.noise_std > 0:
        noise = rng.normal(0.0, scope.noise_std, traces.shape)
        traces = traces + noise.astype(out_dtype, copy=False)
    if scope.adc_bits > 0:
        traces = scope._quantize(traces)
    return traces


def lfilter_cloud_capture(sensor, analog, rng):
    out_dtype = np.dtype(sensor.dtype)
    traces = np.ascontiguousarray(analog, dtype=out_dtype)
    traces = lfilter_rc(traces, sensor.sample_rate_msps, sensor.bandwidth_mhz)
    traces = np.ascontiguousarray(traces[:, :: sensor.decimation])
    if sensor.tenant_noise_std > 0:
        traces = traces + sensor._tenant_interference(traces.shape, rng)
    if sensor.noise_std > 0:
        noise = rng.normal(0.0, sensor.noise_std, traces.shape)
        traces = traces + noise.astype(out_dtype, copy=False)
    if sensor.tdc_bits > 0:
        traces = sensor._quantize(traces)
    return traces


def _pulse_train(n, seed=0):
    rng = np.random.default_rng(seed)
    schedule = ClockSchedule.from_period_matrix(rng.uniform(18.0, 30.0, (n, 11)))
    return schedule, rng.uniform(20.0, 70.0, (n, 11))


# -- the recursion itself ---------------------------------------------------


@pytest.mark.parametrize("n", SIZES)
def test_decay_rows_is_lfilter(n):
    x = np.random.default_rng(n).normal(size=(n, 64))
    expected = lfilter(np.array([0.25]), np.array([1.0, -0.75]), x, axis=1)
    y = np.ascontiguousarray((0.25 * x).T)
    assert decay_rows(y, 0.75) is y
    assert_same_bits(np.ascontiguousarray(y.T), expected)


def test_decay_rows_rejects_other_layouts():
    with pytest.raises(ValueError):
        decay_rows(np.zeros((4, 3)).T, 0.5)
    with pytest.raises(ValueError):
        decay_rows(np.zeros((4, 3), dtype=np.float32), 0.5)


# -- synthesizer ------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", SIZES)
def test_synth_matches_lfilter(n, dtype):
    schedule, amps = _pulse_train(n)
    for taps, jitter in (((0.0, 1.0),), 0.0), (TWO_TAPS, 0.0), (TWO_TAPS, 250.0):
        synth = TraceSynthesizer(dtype=dtype, taps=taps, jitter_ps_rms=jitter)
        got = synth.synthesize(schedule, amps, rng=np.random.default_rng(1))
        want = lfilter_synthesize(
            synth, schedule, amps, rng=np.random.default_rng(1)
        )
        assert_same_bits(got, want)


# -- oscilloscope -----------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", SIZES)
def test_scope_matches_lfilter(n, dtype):
    schedule, amps = _pulse_train(n)
    analog = TraceSynthesizer(dtype=dtype, taps=TWO_TAPS).synthesize(
        schedule, amps
    )
    for bandwidth in (100.0, 0.0):
        for noise_std in (0.0, 2.0):
            for adc_bits in (0, 8):
                scope = Oscilloscope(
                    bandwidth_mhz=bandwidth, noise_std=noise_std,
                    adc_bits=adc_bits, dtype=dtype,
                )
                got = scope.capture(analog, np.random.default_rng(2))
                want = lfilter_scope_capture(
                    scope, analog, np.random.default_rng(2)
                )
                assert_same_bits(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_drifted_capture_matches_lfilter(dtype):
    schedule, amps = _pulse_train(1000)
    analog = TraceSynthesizer(dtype=dtype).synthesize(schedule, amps)
    drift = DriftProcess(
        DriftSpec(temperature=1.0, voltage=0.5, jitter_samples=6)
    )
    drifted = drift.apply(analog, 300)
    scope = Oscilloscope(dtype=dtype)
    got = scope.capture(drifted, np.random.default_rng(4))
    want = lfilter_scope_capture(scope, drifted, np.random.default_rng(4))
    assert_same_bits(got, want)


# -- cloud sensor -----------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", SIZES)
def test_cloud_matches_lfilter(n, dtype):
    schedule, amps = _pulse_train(n)
    analog = TraceSynthesizer(dtype=dtype).synthesize(schedule, amps)
    for fields in (
        {},
        {"decimation": 1},
        {"decimation": 3, "noise_std": 0.0, "tenant_noise_std": 0.0},
        {"tdc_bits": 0},
    ):
        sensor = CloudSensor(dtype=dtype, **fields)
        got = sensor.capture(analog, np.random.default_rng(3))
        want = lfilter_cloud_capture(sensor, analog, np.random.default_rng(3))
        assert_same_bits(got, want)


# -- capture output contract ------------------------------------------------


def _layouts(n=12, s=40):
    base = np.random.default_rng(5).uniform(0.0, 100.0, (n, 2 * s))
    c_order = np.ascontiguousarray(base[:, :s])
    return {
        "C": c_order,
        "F": np.asfortranarray(c_order),
        "strided": base[:, ::2],
    }


FRONT_ENDS = {
    "scope-passthrough": Oscilloscope(bandwidth_mhz=0.0, noise_std=0.0, adc_bits=0),
    "scope-passthrough-f32": Oscilloscope(
        bandwidth_mhz=0.0, noise_std=0.0, adc_bits=0, dtype="float32"
    ),
    "scope-filter-only": Oscilloscope(noise_std=0.0, adc_bits=0),
    "scope-default": Oscilloscope(),
    "cloud-filter-only": CloudSensor(
        noise_std=0.0, tenant_noise_std=0.0, tdc_bits=0, decimation=1
    ),
    "cloud-default-f32": CloudSensor(dtype="float32"),
}


@pytest.mark.parametrize("name", FRONT_ENDS)
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_capture_returns_c_ordered_traces(name, layout):
    front_end = FRONT_ENDS[name]
    analog = _layouts()[layout]
    out = front_end.capture(analog, np.random.default_rng(6))
    samples = -(-analog.shape[1] // getattr(front_end, "decimation", 1))
    assert out.shape == (analog.shape[0], samples)
    assert out.dtype == np.dtype(front_end.dtype)
    assert out.flags.c_contiguous
    want = front_end.capture(
        np.ascontiguousarray(analog), np.random.default_rng(6)
    )
    assert_same_bits(out, want)


def test_capture_leaves_its_input_alone():
    for analog in _layouts().values():
        before = analog.copy()
        for front_end in FRONT_ENDS.values():
            front_end.capture(analog, np.random.default_rng(7))
        assert_same_bits(analog, before)


class _LfilterSynthesizer(TraceSynthesizer):
    def synthesize(self, schedule, amplitudes, rng=None):
        return lfilter_synthesize(self, schedule, amplitudes, rng)


class _LfilterScope(Oscilloscope):
    def capture(self, analog, rng=None):
        return lfilter_scope_capture(self, analog, rng)


def _stored_trace_files(tmp_path, name, synthesizer, scope):
    device = ProtectedAesDevice(
        DEFAULT_KEY, UnprotectedClock(48.0),
        synthesizer=synthesizer, scope=scope,
    )
    traces = AcquisitionCampaign(device, seed=11).collect(120)
    store = write_store(traces, tmp_path / name, chunk_size=50)
    return sorted(store.path.glob("*.traces.npy"))


@pytest.mark.parametrize(
    "scope_fields",
    [
        {},
        {"dtype": "float32"},
        {"bandwidth_mhz": 0.0, "noise_std": 0.0, "adc_bits": 0},
    ],
)
def test_store_chunk_bytes_unchanged(tmp_path, scope_fields):
    dtype = scope_fields.get("dtype", "float64")
    new = _stored_trace_files(
        tmp_path, "new", TraceSynthesizer(dtype=dtype),
        Oscilloscope(**scope_fields),
    )
    old = _stored_trace_files(
        tmp_path, "old", _LfilterSynthesizer(dtype=dtype),
        _LfilterScope(**scope_fields),
    )
    assert [f.name for f in new] == [f.name for f in old] and len(new) == 3
    for new_file, old_file in zip(new, old):
        with open(new_file, "rb") as handle:
            assert np.lib.format.read_magic(handle) == (1, 0)
            _, fortran_order, _ = np.lib.format.read_array_header_1_0(handle)
        assert fortran_order is False
        assert new_file.read_bytes() == old_file.read_bytes()
