"""Oscilloscope model: bandwidth limit, additive noise, ADC quantization.

Models the Agilent DSO-X 2012A of the experimental setup: 100 MHz analog
bandwidth (single-pole low-pass here), Gaussian front-end noise, and an
8-bit ADC over a fixed full-scale range.  The bandwidth limit matters to
the attacks — it smears each current pulse over several samples, which is
what lets CPA work without sample-perfect edge alignment and what limits
how much information FFT preprocessing can recover at high frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.iir import rc_lowpass


@dataclass(frozen=True)
class Oscilloscope:
    """Scope front-end applied to analog traces.

    Attributes
    ----------
    sample_rate_msps:
        Must match the synthesizer's grid (the filter constant depends on it).
    bandwidth_mhz:
        -3 dB analog bandwidth; 0 disables the filter.
    noise_std:
        Additive Gaussian noise sigma, in the same arbitrary units as the
        leakage amplitudes (amplitude 1.0 == one register bit toggling).
    adc_bits:
        Quantizer resolution; 0 disables quantization.
    full_scale:
        ADC full-scale input amplitude; inputs clip beyond it.
    dtype:
        Captured sample dtype: ``"float64"`` (default) or ``"float32"``.
        The noise draws always come from the float64 RNG stream (so the
        randomness consumed is identical either way) and are cast before
        the add; the bandwidth filter recursion runs in float64 (see
        :func:`~repro.utils.iir.rc_lowpass`) and the noise add and
        quantizer then run in the output dtype.  Near a quantizer
        decision boundary the float32 rounding can land one LSB off the
        float64 result — that is part of the opt-in, bounded end to end
        by the float32 drift budgets.
    """

    sample_rate_msps: float = 250.0
    bandwidth_mhz: float = 100.0
    noise_std: float = 2.0
    adc_bits: int = 8
    full_scale: float = 400.0
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.sample_rate_msps <= 0:
            raise ConfigurationError("sample_rate_msps must be positive")
        if self.bandwidth_mhz < 0 or self.noise_std < 0:
            raise ConfigurationError("bandwidth and noise must be >= 0")
        if self.adc_bits < 0 or self.adc_bits > 16:
            raise ConfigurationError("adc_bits must be within [0, 16]")
        if self.full_scale <= 0:
            raise ConfigurationError("full_scale must be positive")
        if self.dtype not in ("float64", "float32"):
            raise ConfigurationError(
                f"dtype must be 'float64' or 'float32', got {self.dtype!r}"
            )

    def capture(
        self, analog: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Apply bandwidth, noise and quantization to ``(n, S)`` traces.

        Returns C-contiguous ``(n, S)`` traces in the capture dtype,
        whatever the memory layout of ``analog``: the store writes them
        with ``np.save``, whose header records the layout.
        """
        out_dtype = np.dtype(self.dtype)
        traces = np.asarray(analog, dtype=out_dtype)
        if traces.ndim != 2:
            raise ConfigurationError("analog traces must be a 2-D matrix")
        if self.bandwidth_mhz > 0:
            # float64, Fortran-ordered (n, S) view of the samples-major
            # filter output.
            traces = rc_lowpass(
                traces, self.sample_rate_msps, self.bandwidth_mhz
            ).T
        # Exactly one conversion back to C order, narrowing to the
        # capture dtype on the way (``dtype=`` casts before the add,
        # as ``astype`` would).
        if self.noise_std > 0:
            if rng is None:
                raise ConfigurationError(
                    "an rng is required when noise_std > 0"
                )
            noise = rng.normal(0.0, self.noise_std, traces.shape)
            noise = noise.astype(out_dtype, copy=False)
            # The freshly-drawn C-ordered noise buffer is ours: add into
            # it rather than allocating another (n, S) array per chunk.
            np.add(traces, noise, out=noise, dtype=out_dtype)
            traces = noise
        else:
            traces = np.ascontiguousarray(traces, dtype=out_dtype)
        if self.adc_bits > 0:
            traces = self._quantize(traces)
        return traces

    def _quantize(self, traces: np.ndarray) -> np.ndarray:
        """Mid-rise quantization onto ``2**adc_bits`` levels over the range."""
        levels = 2**self.adc_bits
        lsb = self.full_scale / levels
        # clip allocates the output buffer; scale, round and rescale then
        # run in place (same operation sequence, one allocation).
        clipped = np.clip(traces, 0.0, self.full_scale - lsb / 2)
        clipped /= lsb
        np.round(clipped, out=clipped)
        clipped *= lsb
        return clipped
