"""MMCM Dynamic Reconfiguration Port (DRP): register map and state machine.

Models XAPP888's ``mmcm_drp`` module: a configuration is flattened into
16-bit register writes (ClkReg1/ClkReg2 per counter, plus lock and filter
registers), clocked into the MMCM over the DRP while the MMCM is held in
reset, after which the MMCM re-locks.  The *timing* of this sequence is what
matters to RFTC — it bounds how often a fresh frequency set can be swapped
in (the paper measures 34 us at a 24 MHz DRP clock, during which ~82
encryptions run on the other MMCM).

The bit layout follows XAPP888: ClkReg1 holds the HIGH/LOW counter halves,
ClkReg2 the EDGE/NO_COUNT flags and the fractional field for the counters
that support it.  ``encode_config``/``decode_transactions`` are exact
inverses, which the test suite exercises exhaustively.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError, ReconfigurationError
from repro.hw.mmcm import (
    KINTEX7_SPEC,
    Mmcm,
    MmcmConfig,
    MmcmTimingSpec,
    OutputDivider,
    lock_time_seconds,
)

#: DRP addresses of the ClkReg1/ClkReg2 pairs (XAPP888 table 2).
CLKOUT_REG_ADDRS: Dict[int, Tuple[int, int]] = {
    0: (0x08, 0x09),
    1: (0x0A, 0x0B),
    2: (0x0C, 0x0D),
    3: (0x0E, 0x0F),
    4: (0x10, 0x11),
    5: (0x06, 0x07),
    6: (0x12, 0x13),
}
CLKFBOUT_REG_ADDRS: Tuple[int, int] = (0x14, 0x15)
DIVCLK_REG_ADDR: int = 0x16
LOCK_REG_ADDRS: Tuple[int, int, int] = (0x18, 0x19, 0x1A)
FILTER_REG_ADDRS: Tuple[int, int] = (0x4E, 0x4F)
POWER_REG_ADDR: int = 0x28

#: DCLK cycles per DRP write transaction (address/data setup, DEN pulse,
#: wait for DRDY) in the XAPP888 state machine.
CYCLES_PER_WRITE = 4
#: Extra DCLK cycles for asserting/deasserting the MMCM reset around the
#: write burst.
RESET_OVERHEAD_CYCLES = 6


@dataclass(frozen=True)
class DrpTransaction:
    """One 16-bit DRP write: ``(register & ~mask) | (data & mask)``."""

    addr: int
    data: int
    mask: int = 0xFFFF

    def __post_init__(self) -> None:
        if not 0 <= self.addr <= 0x7F:
            raise ConfigurationError(f"DRP address {self.addr:#x} out of range")
        if not 0 <= self.data <= 0xFFFF:
            raise ConfigurationError(f"DRP data {self.data:#x} is not 16-bit")
        if not 0 <= self.mask <= 0xFFFF:
            raise ConfigurationError(f"DRP mask {self.mask:#x} is not 16-bit")


def _split_counter(divide: int) -> Tuple[int, int, int, int]:
    """Return (high_time, low_time, edge, no_count) for an integer divider.

    The HIGH/LOW fields are 6 bits each (XAPP888), so the largest
    encodeable integer division is 63 + 63 = 126.
    """
    if divide < 1 or divide > 126:
        raise ConfigurationError(f"counter divide {divide} outside [1, 126]")
    if divide == 1:
        return 1, 1, 0, 1
    high = (divide + 1) // 2
    low = divide // 2
    edge = divide % 2
    return high, low, edge, 0


def _encode_counter(
    divide: float, fractional: bool, phase_eighths: int = 0
) -> Tuple[int, int]:
    """Encode one counter into its (ClkReg1, ClkReg2) contents.

    ``phase_eighths`` is the output phase in eighths of a VCO period:
    the sub-cycle part lands in PHASE_MUX (ClkReg1 [15:13]), whole VCO
    cycles in DELAY_TIME (ClkReg2 [5:0]).
    """
    eighths = round(divide * 8)
    if abs(divide * 8 - eighths) > 1e-6:
        raise ConfigurationError(
            f"divider {divide} is not representable in 1/8 steps"
        )
    frac = eighths % 8
    int_part = eighths // 8
    if frac and not fractional:
        raise ConfigurationError(
            f"divider {divide} is fractional but this counter is integer-only"
        )
    if phase_eighths < 0:
        raise ConfigurationError("phase must be non-negative")
    if frac and phase_eighths:
        raise ConfigurationError(
            "the MMCM cannot combine fractional division with phase shift"
        )
    phase_mux = phase_eighths % 8
    delay_time = phase_eighths // 8
    if delay_time > 0x3F:
        raise ConfigurationError(
            f"phase of {phase_eighths} VCO eighths exceeds the 6-bit delay field"
        )
    high, low, edge, no_count = _split_counter(int_part if int_part >= 1 else 1)
    reg1 = (phase_mux << 13) | ((high & 0x3F) << 6) | (low & 0x3F)
    reg2 = (
        ((frac & 0x7) << 12)
        | ((1 if frac else 0) << 11)
        | (edge << 7)
        | (no_count << 6)
        | (delay_time & 0x3F)
    )
    return reg1, reg2


def _decode_counter(reg1: int, reg2: int) -> float:
    """Invert the divide part of :func:`_encode_counter`."""
    high = (reg1 >> 6) & 0x3F
    low = reg1 & 0x3F
    frac = (reg2 >> 12) & 0x7
    frac_en = (reg2 >> 11) & 0x1
    no_count = (reg2 >> 6) & 0x1
    int_part = 1 if no_count else high + low
    if frac_en:
        return int_part + frac / 8.0
    return float(int_part)


def _decode_phase_eighths(reg1: int, reg2: int) -> int:
    """Invert the phase part of :func:`_encode_counter`."""
    phase_mux = (reg1 >> 13) & 0x7
    delay_time = reg2 & 0x3F
    return delay_time * 8 + phase_mux


def _encode_divclk(divclk: int) -> int:
    """DIVCLK register: EDGE at bit 13, NO_COUNT at bit 12, HT/LT below.

    Unlike the CLKOUT counters, DIVCLK packs its flags into the single
    register at 0x16 (XAPP888 table 6).
    """
    high, low, edge, no_count = _split_counter(divclk)
    return (edge << 13) | (no_count << 12) | ((high & 0x3F) << 6) | (low & 0x3F)


def _decode_divclk(reg: int) -> int:
    """Invert :func:`_encode_divclk`."""
    no_count = (reg >> 12) & 1
    if no_count:
        return 1
    return ((reg >> 6) & 0x3F) + (reg & 0x3F)


def encode_config(config: MmcmConfig) -> List[DrpTransaction]:
    """Flatten an :class:`MmcmConfig` into the XAPP888 write sequence.

    Writes, in order: power register, every CLKOUT counter pair, the
    CLKFBOUT pair, DIVCLK, the three lock registers and two filter
    registers — 23 transactions for a fully populated MMCM, matching the
    XAPP888 state-machine ROM length.

    Like the design-time ROM it models, each distinct configuration is
    encoded once per process: the burst is memoized on the (frozen,
    hashable) config, so block-RAM builds and every runtime DRP swap
    reuse it.  The burst only depends on the counter fields, never on
    the timing spec the config was validated against.  Each call
    returns a fresh list; the frozen transactions are shared.  The memo
    holds one burst per distinct configuration encoded, so it grows
    with the plans built in the process, as their cache does.
    """
    return list(_encode_burst(config))


@functools.lru_cache(maxsize=None)
def _encode_burst(config: MmcmConfig) -> Tuple[DrpTransaction, ...]:
    writes = [DrpTransaction(POWER_REG_ADDR, 0xFFFF)]
    for idx in range(len(config.outputs)):
        out = config.outputs[idx]
        divide = out.divide if out.enabled else 1.0
        phase = out.phase_vco_eighths if out.enabled else 0
        reg1, reg2 = _encode_counter(
            divide, fractional=(idx == 0), phase_eighths=phase
        )
        addr1, addr2 = CLKOUT_REG_ADDRS[idx]
        writes.append(DrpTransaction(addr1, reg1))
        writes.append(DrpTransaction(addr2, reg2))
    fb1, fb2 = _encode_counter(config.mult, fractional=True)
    writes.append(DrpTransaction(CLKFBOUT_REG_ADDRS[0], fb1))
    writes.append(DrpTransaction(CLKFBOUT_REG_ADDRS[1], fb2))
    writes.append(DrpTransaction(DIVCLK_REG_ADDR, _encode_divclk(config.divclk)))
    lock_regs = _lock_register_values(config.mult)
    for addr, value in zip(LOCK_REG_ADDRS, lock_regs):
        writes.append(DrpTransaction(addr, value))
    filt_regs = _filter_register_values(config.mult)
    for addr, value in zip(FILTER_REG_ADDRS, filt_regs):
        writes.append(DrpTransaction(addr, value))
    return tuple(writes)


def decode_transactions(
    writes: Sequence[DrpTransaction],
    f_in_mhz: float,
    n_outputs: int,
    spec: MmcmTimingSpec = KINTEX7_SPEC,
) -> MmcmConfig:
    """Rebuild an :class:`MmcmConfig` from a DRP write burst (encode inverse).

    ``spec`` must be the timing spec the encoded configuration was built
    against: the registers carry no device identity, and the rebuilt config
    re-validates its VCO/PFD ranges on construction, so decoding e.g. a
    Virtex-7 -3 burst (VCO up to 1600 MHz) against the default Kintex-7 -1
    limits would spuriously reject a perfectly valid register image.
    """
    regs = {w.addr: w.data for w in writes}
    outputs = []
    for idx in range(n_outputs):
        addr1, addr2 = CLKOUT_REG_ADDRS[idx]
        if addr1 not in regs or addr2 not in regs:
            raise ReconfigurationError(f"write burst lacks CLKOUT{idx} registers")
        divide = _decode_counter(regs[addr1], regs[addr2])
        eighths = _decode_phase_eighths(regs[addr1], regs[addr2])
        outputs.append(
            OutputDivider(
                divide=divide, phase_degrees=(eighths * 45.0 / divide) % 360.0
            )
        )
    if CLKFBOUT_REG_ADDRS[0] not in regs or CLKFBOUT_REG_ADDRS[1] not in regs:
        raise ReconfigurationError("write burst lacks CLKFBOUT registers")
    mult = _decode_counter(
        regs[CLKFBOUT_REG_ADDRS[0]], regs[CLKFBOUT_REG_ADDRS[1]]
    )
    if DIVCLK_REG_ADDR not in regs:
        raise ReconfigurationError("write burst lacks the DIVCLK register")
    divclk = _decode_divclk(regs[DIVCLK_REG_ADDR])
    return MmcmConfig(
        f_in_mhz=f_in_mhz,
        mult=mult,
        divclk=divclk,
        outputs=tuple(outputs),
        spec=spec,
    )


def _lock_register_values(mult: float) -> Tuple[int, int, int]:
    """XAPP888-style lock ROM entries (LockRefDly/LockFBDly/LockCnt fields).

    Encoded so the lock *count* (register 3, low 10 bits) matches
    :func:`repro.hw.mmcm.lock_time_cycles`, which is the quantity the
    timing model consumes.
    """
    from repro.hw.mmcm import lock_time_cycles

    cnt = lock_time_cycles(mult)
    ref_dly = min(31, max(1, int(round(mult / 2))))
    fb_dly = ref_dly
    reg1 = ((ref_dly & 0x1F) << 10) | (cnt & 0x3FF)
    reg2 = ((fb_dly & 0x1F) << 10) | (min(cnt, 0x3FF) & 0x3FF)
    reg3 = cnt & 0x3FF
    return reg1, reg2, reg3


def _filter_register_values(mult: float) -> Tuple[int, int]:
    """Loop-filter ROM entries (CP/RES fields), bandwidth OPTIMIZED row.

    The functional dependence on the multiplier follows the XAPP888 table's
    monotone trend; the exact analog values do not affect any modelled
    observable except through :func:`lock_time_cycles`.
    """
    idx = min(63, max(0, int(round(mult)) - 1))
    cp = min(15, 1 + idx // 4)
    res = min(15, 15 - idx // 5)
    reg1 = (cp << 12) | (res << 4)
    reg2 = ((cp ^ 0xF) << 12) | ((res ^ 0xF) << 4)
    return reg1, reg2


class DrpInterface:
    """Raw DRP register file of one MMCM (a 128 x 16-bit address space).

    The controller writes through this; the register file remembers every
    word so tests can assert exact burst contents.
    """

    def __init__(self) -> None:
        self._regs: Dict[int, int] = {}
        self.write_count = 0

    def write(self, transaction: DrpTransaction) -> None:
        old = self._regs.get(transaction.addr, 0)
        self._regs[transaction.addr] = (old & ~transaction.mask) | (
            transaction.data & transaction.mask
        )
        self.write_count += 1

    def read(self, addr: int) -> int:
        return self._regs.get(addr, 0)


class MmcmDrpController:
    """XAPP888 ``mmcm_drp`` state machine with cycle-accurate timing.

    Drives one :class:`~repro.hw.mmcm.Mmcm`: asserts reset, bursts the
    register writes at the DRP clock rate, deasserts reset and waits for
    lock.  ``start`` returns the absolute completion (re-lock) time.
    """

    def __init__(self, mmcm: Mmcm, dclk_freq_mhz: float):
        if dclk_freq_mhz <= 0:
            raise ConfigurationError("DRP clock frequency must be positive")
        self.mmcm = mmcm
        self.dclk_freq_mhz = float(dclk_freq_mhz)
        self.interface = DrpInterface()
        self._busy_until_s = 0.0

    @property
    def busy_until_s(self) -> float:
        """Absolute time the current (or last) reconfiguration completes."""
        return self._busy_until_s

    def is_busy(self, at_time_s: float) -> bool:
        return at_time_s < self._busy_until_s

    def write_burst_seconds(self, n_writes: int) -> float:
        """Wall-clock duration of the register write burst."""
        cycles = n_writes * CYCLES_PER_WRITE + RESET_OVERHEAD_CYCLES
        return cycles / (self.dclk_freq_mhz * 1e6)

    def reconfiguration_seconds(self, config: MmcmConfig) -> float:
        """Total reconfiguration latency: write burst + lock time."""
        n_writes = len(_encode_burst(config))
        return self.write_burst_seconds(n_writes) + lock_time_seconds(config)

    def start(self, config: MmcmConfig, at_time_s: float) -> float:
        """Begin reconfiguring to ``config`` at ``at_time_s``.

        Raises :class:`~repro.errors.ReconfigurationError` if a previous
        reconfiguration is still in flight — the hardware state machine has
        no queue.
        """
        if self.is_busy(at_time_s):
            raise ReconfigurationError(
                f"DRP controller busy until t={self._busy_until_s:.3e}s, "
                f"start requested at t={at_time_s:.3e}s"
            )
        writes = _encode_burst(config)
        for w in writes:
            self.interface.write(w)
        write_time = self.write_burst_seconds(len(writes))
        locked_at = self.mmcm.apply_reconfiguration(config, at_time_s, write_time)
        self._busy_until_s = locked_at
        return locked_at
