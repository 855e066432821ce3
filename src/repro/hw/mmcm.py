"""Xilinx 7-series MMCM (Mixed-Mode Clock Manager) behavioural model.

The MMCM multiplies its input clock into a VCO and divides the VCO down on
up to seven outputs (UG472):

    f_vco = f_in * mult / divclk          (mult fractional in 1/8 steps)
    f_out[k] = f_vco / odiv[k]            (odiv0 fractional, odiv1.. integer)

subject to the VCO and phase-frequency-detector operating ranges of the
device speed grade.  RFTC's entire randomization budget comes from which
frequencies this arithmetic can realize and how long the MMCM takes to lock
after dynamic reconfiguration, so both are modelled here.

:func:`synthesize_config` is the design-time search Xilinx's clocking wizard
performs: given target output frequencies, find counter settings minimizing
the realization error.  The RFTC frequency planner uses it to snap its
candidate grids onto realizable frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, FrequencyRangeError, LockError
from repro.utils.validation import check_positive

#: Number of CLKOUT ports on a 7-series MMCM (CLKOUT0..CLKOUT6); the paper
#: says "typically M is six" because CLKOUT6 is often reserved for the
#: cascade path.
MAX_OUTPUTS = 7

#: Largest output phase the DRP encoding can carry, in eighths of a VCO
#: period: the sub-cycle part uses PHASE_MUX (3 bits) and whole VCO cycles
#: the 6-bit DELAY_TIME field, so 0x3F * 8 + 7 = 511 eighths total.
MAX_PHASE_VCO_EIGHTHS = 0x3F * 8 + 7


@dataclass(frozen=True)
class MmcmTimingSpec:
    """Operating limits of an MMCM for one device/speed grade.

    Defaults are the Kintex-7 -1 speed grade (DS182), the device on the
    paper's SASEBO-GIII board.
    """

    f_in_min_mhz: float = 10.0
    f_in_max_mhz: float = 800.0
    f_vco_min_mhz: float = 600.0
    f_vco_max_mhz: float = 1200.0
    f_pfd_min_mhz: float = 10.0
    f_pfd_max_mhz: float = 450.0
    f_out_min_mhz: float = 4.69
    f_out_max_mhz: float = 800.0
    mult_min: float = 2.0
    mult_max: float = 64.0
    mult_step: float = 0.125
    divclk_min: int = 1
    divclk_max: int = 106
    # The DRP HIGH/LOW counter fields are 6 bits each, capping the
    # encodeable output division at 126 (the often-quoted "128" needs the
    # cascade path, which the DRP flow does not reprogram).
    odiv_min: float = 1.0
    odiv_max: float = 126.0
    odiv0_step: float = 0.125

    def validate_input(self, f_in_mhz: float) -> None:
        if not self.f_in_min_mhz <= f_in_mhz <= self.f_in_max_mhz:
            raise FrequencyRangeError(
                f"input frequency {f_in_mhz} MHz outside "
                f"[{self.f_in_min_mhz}, {self.f_in_max_mhz}] MHz"
            )


#: Spec of the Kintex-7 325T -1 on the SASEBO-GIII.
KINTEX7_SPEC = MmcmTimingSpec()

#: Faster 7-series speed grades widen the VCO ceiling (DS182/DS183).
KINTEX7_2_SPEC = MmcmTimingSpec(f_vco_max_mhz=1440.0)
VIRTEX7_3_SPEC = MmcmTimingSpec(f_vco_max_mhz=1600.0, f_pfd_max_mhz=550.0)
ARTIX7_1_SPEC = MmcmTimingSpec()

#: First-order model of an Intel/Altera IOPLL (Arria 10 class) — the
#: Sec. 8 portability claim: the same planning/controller machinery works
#: on Altera clock managers, whose dynamic reconfiguration the paper cites
#: [2].  The IOPLL's M counter is integer (no fractional feedback in the
#: reconfigurable mode) and its VCO tops out higher.
INTEL_IOPLL_SPEC = MmcmTimingSpec(
    f_in_min_mhz=10.0,
    f_in_max_mhz=800.0,
    f_vco_min_mhz=600.0,
    f_vco_max_mhz=1300.0,
    f_pfd_min_mhz=10.0,
    f_pfd_max_mhz=325.0,
    mult_min=1.0,
    mult_max=160.0,
    mult_step=1.0,
    divclk_max=80,
    odiv_min=1.0,
    odiv_max=126.0,
    odiv0_step=1.0,  # integer C counters; fine granularity comes from M
)

#: Named spec registry for configuration surfaces (CLI, scenario builders).
DEVICE_SPECS = {
    "kintex7-1": KINTEX7_SPEC,
    "kintex7-2": KINTEX7_2_SPEC,
    "virtex7-3": VIRTEX7_3_SPEC,
    "artix7-1": ARTIX7_1_SPEC,
    "intel-iopll": INTEL_IOPLL_SPEC,
}


@dataclass(frozen=True)
class OutputDivider:
    """One CLKOUT counter setting.

    ``divide`` is the output divider value; only CLKOUT0 supports fractional
    values (1/8 steps), all other outputs must be integers.

    ``phase_degrees`` rotates the output relative to CLKFBOUT.  The MMCM
    realizes phase with the PHASE_MUX field (eighths of a VCO period) plus
    whole-VCO-cycle delay, so the resolution is 45/divide degrees; values
    are snapped to that grid at validation time and must already lie on it.
    """

    divide: float
    enabled: bool = True
    phase_degrees: float = 0.0

    def __post_init__(self) -> None:
        check_positive("divide", self.divide)
        if not 0.0 <= self.phase_degrees < 360.0:
            raise ConfigurationError(
                f"phase must be in [0, 360) degrees, got {self.phase_degrees}"
            )
        # Phase granularity: 1/8 VCO period = 45/divide degrees of output.
        step = 45.0 / self.divide
        eighths = self.phase_degrees / step
        if abs(eighths - round(eighths)) > 1e-6:
            raise ConfigurationError(
                f"phase {self.phase_degrees} deg is not a multiple of the "
                f"{step:.4f} deg resolution at divide {self.divide}"
            )
        # Large dividers can push an in-range phase beyond what the DRP
        # registers can express (6-bit whole-cycle delay + 3-bit mux);
        # reject at construction instead of failing later in encode_config.
        if round(eighths) > MAX_PHASE_VCO_EIGHTHS:
            raise ConfigurationError(
                f"phase {self.phase_degrees} deg at divide {self.divide} "
                f"needs {round(eighths)} VCO eighths of delay, beyond the "
                f"DRP encoding limit of {MAX_PHASE_VCO_EIGHTHS}"
            )

    @property
    def phase_vco_eighths(self) -> int:
        """The phase expressed in eighths of a VCO period (DRP encoding)."""
        return int(round(self.phase_degrees * self.divide / 45.0))


@dataclass(frozen=True)
class MmcmConfig:
    """A complete MMCM counter configuration.

    Attributes
    ----------
    f_in_mhz:
        Reference input frequency.
    mult:
        CLKFBOUT multiplier (fractional, 1/8 steps).
    divclk:
        DIVCLK_DIVIDE input divider (integer).
    outputs:
        Up to seven :class:`OutputDivider` entries; index 0 is CLKOUT0 and
        may be fractional.
    """

    f_in_mhz: float
    mult: float
    divclk: int
    outputs: Tuple[OutputDivider, ...]
    spec: MmcmTimingSpec = field(default=KINTEX7_SPEC, compare=False)

    def __post_init__(self) -> None:
        spec = self.spec
        spec.validate_input(self.f_in_mhz)
        if not spec.mult_min <= self.mult <= spec.mult_max:
            raise ConfigurationError(
                f"mult {self.mult} outside [{spec.mult_min}, {spec.mult_max}]"
            )
        steps = self.mult / spec.mult_step
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigurationError(
                f"mult {self.mult} is not a multiple of {spec.mult_step}"
            )
        if not spec.divclk_min <= self.divclk <= spec.divclk_max:
            raise ConfigurationError(
                f"divclk {self.divclk} outside [{spec.divclk_min}, {spec.divclk_max}]"
            )
        if not 1 <= len(self.outputs) <= MAX_OUTPUTS:
            raise ConfigurationError(
                f"an MMCM has 1..{MAX_OUTPUTS} outputs, got {len(self.outputs)}"
            )
        for idx, out in enumerate(self.outputs):
            if not out.enabled:
                continue
            if not spec.odiv_min <= out.divide <= spec.odiv_max:
                raise ConfigurationError(
                    f"CLKOUT{idx} divider {out.divide} outside "
                    f"[{spec.odiv_min}, {spec.odiv_max}]"
                )
            if idx == 0:
                frac_steps = out.divide / spec.odiv0_step
                if abs(frac_steps - round(frac_steps)) > 1e-9:
                    raise ConfigurationError(
                        f"CLKOUT0 divider {out.divide} is not a multiple of "
                        f"{spec.odiv0_step}"
                    )
            elif abs(out.divide - round(out.divide)) > 1e-9:
                raise ConfigurationError(
                    f"CLKOUT{idx} divider {out.divide} must be an integer"
                )
        f_pfd = self.f_in_mhz / self.divclk
        if not spec.f_pfd_min_mhz <= f_pfd <= spec.f_pfd_max_mhz:
            raise FrequencyRangeError(
                f"PFD frequency {f_pfd:.3f} MHz outside "
                f"[{spec.f_pfd_min_mhz}, {spec.f_pfd_max_mhz}] MHz"
            )
        vco = self.f_vco_mhz
        if not spec.f_vco_min_mhz <= vco <= spec.f_vco_max_mhz:
            raise FrequencyRangeError(
                f"VCO frequency {vco:.3f} MHz outside "
                f"[{spec.f_vco_min_mhz}, {spec.f_vco_max_mhz}] MHz"
            )

    @property
    def f_pfd_mhz(self) -> float:
        return self.f_in_mhz / self.divclk

    @property
    def f_vco_mhz(self) -> float:
        return self.f_in_mhz * self.mult / self.divclk

    def output_freq_mhz(self, index: int) -> float:
        """Frequency of CLKOUT ``index``."""
        out = self._output(index)
        return self.f_vco_mhz / out.divide

    def output_freqs_mhz(self) -> Tuple[float, ...]:
        """Frequencies of all enabled outputs, in port order."""
        return tuple(
            self.f_vco_mhz / out.divide for out in self.outputs if out.enabled
        )

    def _output(self, index: int) -> OutputDivider:
        if not 0 <= index < len(self.outputs):
            raise ConfigurationError(f"no CLKOUT{index} in this configuration")
        out = self.outputs[index]
        if not out.enabled:
            raise ConfigurationError(f"CLKOUT{index} is disabled")
        return out


def lock_time_cycles(mult: float) -> int:
    """PFD cycles the MMCM needs to assert LOCKED after reset.

    Functional form of the XAPP888 lock-table ROM: the lock counter shrinks
    roughly inversely with the feedback multiplier, saturating at 250
    cycles.  The constant is calibrated so a full dynamic reconfiguration
    at a 24 MHz DRP/input clock (the SASEBO-GIII setting, divclk = 1,
    mult ~ 40) takes the 34 us the paper measured.
    """
    if mult <= 0:
        raise ConfigurationError("mult must be positive")
    return int(min(1000, max(250, round(250 + 18600 / mult))))


def lock_time_seconds(config: MmcmConfig) -> float:
    """Wall-clock lock time for a configuration."""
    return lock_time_cycles(config.mult) / (config.f_pfd_mhz * 1e6)


class Mmcm:
    """Runtime MMCM instance: holds a configuration and a lock state.

    The lock state is time-indexed rather than event-driven: callers tell
    the MMCM *when* a reconfiguration starts, and any output query carries
    the query time, raising :class:`~repro.errors.LockError` while the
    MMCM has not re-locked.  This matches how the RFTC controller reasons
    about its reconfiguration pipeline.
    """

    def __init__(self, config: MmcmConfig, name: str = "mmcm"):
        self.name = str(name)
        self._config = config
        self._locked_at_s = 0.0
        self._reconfig_count = 0

    @property
    def config(self) -> MmcmConfig:
        return self._config

    @property
    def reconfig_count(self) -> int:
        return self._reconfig_count

    @property
    def locked_at_s(self) -> float:
        """Absolute time at which the current configuration (re)locked."""
        return self._locked_at_s

    def output_period_ns(self, index: int, at_time_s: float) -> float:
        """Period of CLKOUT ``index``; raises LockError before lock."""
        if at_time_s < self._locked_at_s:
            raise LockError(
                f"{self.name}: output queried at t={at_time_s:.3e}s but "
                f"locked only at t={self._locked_at_s:.3e}s"
            )
        return 1000.0 / self._config.output_freq_mhz(index)

    def apply_reconfiguration(
        self, config: MmcmConfig, start_time_s: float, write_time_s: float
    ) -> float:
        """Reconfigure: registers written over ``write_time_s``, then re-lock.

        Returns the absolute time at which LOCKED re-asserts.  Invoked by
        :class:`repro.hw.drp.MmcmDrpController`, which models the write
        timing.
        """
        if start_time_s < 0 or write_time_s < 0:
            raise ConfigurationError("times must be non-negative")
        self._config = config
        self._locked_at_s = start_time_s + write_time_s + lock_time_seconds(config)
        self._reconfig_count += 1
        return self._locked_at_s


def synthesize_config(
    f_in_mhz: float,
    target_freqs_mhz: Sequence[float],
    spec: MmcmTimingSpec = KINTEX7_SPEC,
    fractional_output0: bool = True,
) -> MmcmConfig:
    """Find MMCM counter settings realizing the target output frequencies.

    Mirrors the clocking-wizard search: sweep the (divclk, mult) plane,
    snap each target's output divider to its legal grid, and keep the
    configuration with the smallest worst-case relative error.

    Raises
    ------
    FrequencyRangeError
        If no legal VCO setting can reach every target.
    """
    spec.validate_input(f_in_mhz)
    targets = [check_positive("target frequency", f) for f in target_freqs_mhz]
    if not 1 <= len(targets) <= MAX_OUTPUTS:
        raise ConfigurationError(
            f"1..{MAX_OUTPUTS} target frequencies required, got {len(targets)}"
        )
    for f in targets:
        if not spec.f_out_min_mhz <= f <= spec.f_out_max_mhz:
            raise FrequencyRangeError(
                f"target {f} MHz outside output range "
                f"[{spec.f_out_min_mhz}, {spec.f_out_max_mhz}] MHz"
            )

    mult_grid = np.arange(
        spec.mult_min, spec.mult_max + spec.mult_step / 2, spec.mult_step
    )
    best: Optional[Tuple[float, MmcmConfig]] = None
    max_divclk = min(
        spec.divclk_max, int(math.floor(f_in_mhz / spec.f_pfd_min_mhz))
    )
    for divclk in range(spec.divclk_min, max(spec.divclk_min, max_divclk) + 1):
        f_pfd = f_in_mhz / divclk
        if not spec.f_pfd_min_mhz <= f_pfd <= spec.f_pfd_max_mhz:
            continue
        f_vco = f_pfd * mult_grid
        valid = (f_vco >= spec.f_vco_min_mhz) & (f_vco <= spec.f_vco_max_mhz)
        if not valid.any():
            continue
        vco = f_vco[valid]
        mults = mult_grid[valid]
        worst_err = np.zeros_like(vco)
        snapped_divs = []
        for idx, target in enumerate(targets):
            raw = vco / target
            step = spec.odiv0_step if (idx == 0 and fractional_output0) else 1.0
            snapped = np.clip(
                np.round(raw / step) * step, spec.odiv_min, spec.odiv_max
            )
            realized = vco / snapped
            err = np.abs(realized - target) / target
            worst_err = np.maximum(worst_err, err)
            snapped_divs.append(snapped)
        pick = int(np.argmin(worst_err))
        candidate_err = float(worst_err[pick])
        if best is not None and candidate_err >= best[0]:
            continue
        outputs = tuple(
            OutputDivider(divide=float(divs[pick])) for divs in snapped_divs
        )
        config = MmcmConfig(
            f_in_mhz=f_in_mhz,
            mult=float(mults[pick]),
            divclk=divclk,
            outputs=outputs,
            spec=spec,
        )
        best = (candidate_err, config)
    if best is None:
        raise FrequencyRangeError(
            f"no legal MMCM setting reaches {targets} MHz from {f_in_mhz} MHz"
        )
    return best[1]


def achievable_frequencies_mhz(
    f_in_mhz: float,
    f_lo_mhz: float,
    f_hi_mhz: float,
    spec: MmcmTimingSpec = KINTEX7_SPEC,
    fractional: bool = True,
    divclk: int = 1,
) -> np.ndarray:
    """All distinct CLKOUT0 frequencies realizable inside ``[f_lo, f_hi]``.

    Enumerates the (mult, odiv) lattice for a fixed input divider.  This is
    the design-time menu the RFTC frequency planner draws from; for the
    paper's 12–48 MHz window at 24 MHz input it contains tens of thousands
    of distinct values, far more than the 3,072 the paper stores.
    """
    spec.validate_input(f_in_mhz)
    if f_lo_mhz <= 0 or f_hi_mhz <= f_lo_mhz:
        raise ConfigurationError("need 0 < f_lo < f_hi")
    f_pfd = f_in_mhz / divclk
    if not spec.f_pfd_min_mhz <= f_pfd <= spec.f_pfd_max_mhz:
        raise FrequencyRangeError(f"PFD frequency {f_pfd} MHz out of range")
    mult_grid = np.arange(
        spec.mult_min, spec.mult_max + spec.mult_step / 2, spec.mult_step
    )
    f_vco = f_pfd * mult_grid
    mask = (f_vco >= spec.f_vco_min_mhz) & (f_vco <= spec.f_vco_max_mhz)
    f_vco = f_vco[mask]
    step = spec.odiv0_step if fractional else 1.0
    odivs = np.arange(spec.odiv_min, spec.odiv_max + step / 2, step)
    freqs = (f_vco[:, None] / odivs[None, :]).ravel()
    freqs = freqs[(freqs >= f_lo_mhz) & (freqs <= f_hi_mhz)]
    return np.unique(np.round(freqs, 9))
