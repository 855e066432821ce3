"""Cloud co-tenant sensor: an on-chip acquisition front-end.

Remote power analysis (arXiv 2307.02569 and the FPGA-sharing literature)
replaces the oscilloscope with a sensor the adversary can *instantiate in
fabric* next to the victim: a TDC delay line or ring oscillator whose
count tracks the supply voltage.  Compared to a bench scope it is

* **band-limited** — the sensor chain is a heavily damped RC observer of
  the power distribution network, not a 100 MHz front-end;
* **decimated** — one reading per sensor sampling window, a fraction of
  the scope's rate;
* **coarse** — a TDC yields a few bits per reading, not 8;
* **noisy in bursts** — other tenants' switching activity adds
  piecewise-constant interference on top of thermal noise.

:class:`CloudSensor` implements the same ``capture(analog, rng)``
contract as :class:`~repro.power.scope.Oscilloscope`, so it drops into
:class:`~repro.power.acquisition.ProtectedAesDevice` unchanged and is
selectable per campaign via ``CampaignSpec(acquisition="cloud")``.  The
output has ``ceil(S / decimation)`` samples per trace; the device
reports the widened sample period through
:attr:`CloudSensor.decimation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.iir import rc_lowpass


@dataclass(frozen=True)
class CloudSensor:
    """TDC/ring-oscillator-style co-tenant sensor front-end.

    Attributes
    ----------
    sample_rate_msps:
        Input (synthesizer) rate; must match the device's synthesizer,
        exactly like the scope.
    bandwidth_mhz:
        -3 dB bandwidth of the sensor's PDN observation path (single-pole
        low-pass, same recursion as the scope but an order of magnitude
        slower).
    decimation:
        Keep one reading per ``decimation`` input samples (applied after
        the filter, so the discarded samples still inform the kept ones).
    tdc_bits:
        Reading resolution; 0 disables quantization.
    full_scale:
        Sensor full-scale amplitude; inputs clip beyond it.
    noise_std:
        Thermal/readout Gaussian noise sigma per *kept* reading.
    tenant_noise_std:
        Co-tenant interference amplitude: piecewise-constant bursts,
        one level per ``tenant_burst_samples`` kept readings.  0 models
        an idle neighbour.
    tenant_burst_samples:
        Burst length of the interference, in kept readings.
    dtype:
        Captured sample dtype (``"float64"`` or ``"float32"``), same
        contract as the scope: noise is always drawn from the float64
        RNG stream and cast before the add.
    """

    sample_rate_msps: float = 250.0
    bandwidth_mhz: float = 10.0
    decimation: int = 4
    tdc_bits: int = 5
    full_scale: float = 400.0
    noise_std: float = 2.0
    tenant_noise_std: float = 1.0
    tenant_burst_samples: int = 8
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.sample_rate_msps <= 0:
            raise ConfigurationError("sample_rate_msps must be positive")
        if self.bandwidth_mhz <= 0:
            raise ConfigurationError("bandwidth_mhz must be positive")
        if self.decimation < 1:
            raise ConfigurationError("decimation must be >= 1")
        if self.tdc_bits < 0 or self.tdc_bits > 16:
            raise ConfigurationError("tdc_bits must be within [0, 16]")
        if self.full_scale <= 0:
            raise ConfigurationError("full_scale must be positive")
        if self.noise_std < 0 or self.tenant_noise_std < 0:
            raise ConfigurationError("noise sigmas must be >= 0")
        if self.tenant_burst_samples < 1:
            raise ConfigurationError("tenant_burst_samples must be >= 1")
        if self.dtype not in ("float64", "float32"):
            raise ConfigurationError(
                f"dtype must be 'float64' or 'float32', got {self.dtype!r}"
            )

    def output_samples(self, n_samples: int) -> int:
        """Kept readings per trace for ``n_samples`` input samples."""
        return -(-n_samples // self.decimation)

    def capture(
        self, analog: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Filter, decimate, add tenant + thermal noise, quantize.

        Returns C-contiguous ``(n, ceil(S / decimation))`` readings in the
        capture dtype, whatever the memory layout of ``analog``.
        """
        out_dtype = np.dtype(self.dtype)
        traces = np.asarray(analog, dtype=out_dtype)
        if traces.ndim != 2:
            raise ConfigurationError("analog traces must be a 2-D matrix")
        filtered = rc_lowpass(traces, self.sample_rate_msps, self.bandwidth_mhz)
        # Decimate the samples-major rows, then the one copy back to C
        # order, narrowing to the capture dtype.
        traces = np.ascontiguousarray(
            filtered[:: self.decimation].T, dtype=out_dtype
        )
        needs_rng = self.noise_std > 0 or self.tenant_noise_std > 0
        if needs_rng and rng is None:
            raise ConfigurationError("an rng is required when noise is enabled")
        if self.tenant_noise_std > 0:
            traces = traces + self._tenant_interference(traces.shape, rng)
        if self.noise_std > 0:
            noise = rng.normal(0.0, self.noise_std, traces.shape)
            noise = noise.astype(out_dtype, copy=False)
            np.add(traces, noise, out=noise)
            traces = noise
        if self.tdc_bits > 0:
            traces = self._quantize(traces)
        return traces

    def _tenant_interference(
        self, shape: "tuple[int, ...]", rng: np.random.Generator
    ) -> np.ndarray:
        """Piecewise-constant co-tenant activity, ``(n, S')`` in out dtype."""
        n, s = shape
        n_bursts = -(-s // self.tenant_burst_samples)
        levels = rng.normal(0.0, self.tenant_noise_std, (n, n_bursts))
        bursts = np.repeat(levels, self.tenant_burst_samples, axis=1)[:, :s]
        return bursts.astype(np.dtype(self.dtype), copy=False)

    def _quantize(self, traces: np.ndarray) -> np.ndarray:
        """Mid-rise quantization onto ``2**tdc_bits`` levels (in place)."""
        levels = 2**self.tdc_bits
        lsb = self.full_scale / levels
        clipped = np.clip(traces, 0.0, self.full_scale - lsb / 2)
        clipped /= lsb
        np.round(clipped, out=clipped)
        clipped *= lsb
        return clipped
