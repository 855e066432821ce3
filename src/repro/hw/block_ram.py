"""Block RAM (RAMB36E1) model storing precomputed MMCM configurations.

RFTC precomputes the DRP write bursts for all P frequency sets at design
time and stores them in block RAM; at runtime the LFSR indexes a set and the
DRP controller streams it out.  The paper reports 20 RAMB36E1 instances for
RFTC(3, 1024) — the :func:`bram_count_for_bits` accounting reproduces that
order from first principles (23 registers x 16 bits per MMCM configuration,
stored for both MMCMs).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.hw.drp import DrpTransaction, encode_config
from repro.hw.mmcm import MmcmConfig
from repro.utils.validation import check_positive_int

#: Usable bits in one RAMB36E1 (36 Kb including parity; 32 Kb data-only).
RAMB36E1_BITS = 36864
RAMB36E1_DATA_BITS = 32768

#: Bits per stored DRP word: 16 data + 7 address.
BITS_PER_DRP_WORD = 23


def bram_count_for_bits(total_bits: int, use_parity_bits: bool = True) -> int:
    """Number of RAMB36E1s needed to hold ``total_bits``."""
    if total_bits < 0:
        raise ConfigurationError("total_bits must be >= 0")
    if total_bits == 0:
        return 0
    capacity = RAMB36E1_BITS if use_parity_bits else RAMB36E1_DATA_BITS
    return -(-total_bits // capacity)


class BlockRam:
    """Configuration store: P precomputed DRP write bursts.

    The bursts are the design-time ROM contents: each comes from
    :func:`~repro.hw.drp.encode_config`, which encodes a configuration
    once per process, so building a ROM over an already-encoded plan
    costs P memo lookups rather than P encodings.  Each instance keeps
    its own :attr:`read_count`; bursts handed out by :meth:`read_burst`
    are private copies.

    Parameters
    ----------
    configs:
        The P MMCM configurations (one per storable frequency set).
    name:
        Instance label for error messages.
    """

    def __init__(self, configs: Sequence[MmcmConfig], name: str = "config_rom"):
        if not configs:
            raise ConfigurationError("BlockRam requires at least one configuration")
        self.name = str(name)
        self._configs: List[MmcmConfig] = list(configs)
        self._bursts: List[List[DrpTransaction]] = [
            encode_config(c) for c in self._configs
        ]
        self.read_count = 0

    def __len__(self) -> int:
        return len(self._configs)

    @property
    def depth(self) -> int:
        """Number of stored configurations (P)."""
        return len(self._configs)

    def config(self, index: int) -> MmcmConfig:
        """The decoded configuration at ``index`` (design-time view)."""
        self._check_index(index)
        return self._configs[index]

    def read_burst(self, index: int) -> List[DrpTransaction]:
        """The DRP write burst at ``index`` (what the hardware streams out)."""
        self._check_index(index)
        self.read_count += 1
        return list(self._bursts[index])

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self._configs):
            raise ConfigurationError(
                f"{self.name}: index {index} out of range [0, {len(self._configs)})"
            )

    def storage_bits(self) -> int:
        """Total bits the stored bursts occupy."""
        return sum(len(burst) * BITS_PER_DRP_WORD for burst in self._bursts)

    def bram_count(self, n_mmcms: int = 1) -> int:
        """RAMB36E1 instances to store these bursts for ``n_mmcms`` MMCMs.

        Both MMCMs of an RFTC(·, P) design need access to all P bursts and
        XAPP888 DRP controllers each need a private port, so the paper
        replicates the ROM per MMCM.
        """
        check_positive_int("n_mmcms", n_mmcms)
        return bram_count_for_bits(self.storage_bits() * n_mmcms)
