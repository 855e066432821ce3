"""Cycle-accurate model of the Hodjat et al. AES-128 coprocessor datapath.

The circuit evaluated in the paper (Hodjat et al., GLSVLSI'05) computes one
AES round per clock cycle: a 128-bit round register is loaded with the
plaintext (XOR round key 0) and then updated ten times.  The power trace of
the FPGA is dominated by the switching activity of this register at each
rising clock edge, i.e. by the Hamming distance between consecutive round
states — this is the channel every attack in the paper exploits.

:class:`AesDatapath` exposes exactly those register transitions, both for a
single encryption (``transitions``) and vectorized over a whole campaign
(``batch_hamming_distances``), which is what the trace synthesizer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.crypto.aes import (
    AES,
    BlockLike,
    _as_block,
    _round_key_array,
    batch_expand_key,
)
from repro.crypto.aes_tables import MUL2, MUL3, SBOX, SHIFT_ROWS_MAP
from repro.errors import ConfigurationError
from repro.utils.bitops import HW8

#: Clock cycles per encryption: 1 load cycle + 10 round cycles.
LOAD_CYCLES = 1
ROUND_CYCLES = 10
CYCLES_PER_ENCRYPTION = LOAD_CYCLES + ROUND_CYCLES


@dataclass(frozen=True)
class RoundTransition:
    """One clock edge of the AES datapath.

    Attributes
    ----------
    cycle:
        0 for the plaintext-load edge, 1..10 for round edges.
    before, after:
        16-byte round-register contents before and after the edge.
    hamming_distance:
        Number of register bits that toggled at the edge.
    """

    cycle: int
    before: bytes
    after: bytes

    @property
    def hamming_distance(self) -> int:
        return int(
            HW8[
                np.frombuffer(self.before, dtype=np.uint8)
                ^ np.frombuffer(self.after, dtype=np.uint8)
            ].sum()
        )


def batch_round_states(keys: np.ndarray, plaintexts: np.ndarray) -> np.ndarray:
    """Vectorized AES-128 round states for a batch of encryptions.

    Parameters
    ----------
    keys:
        Either a single 16-byte key (shape ``(16,)``, applied to every
        plaintext; its schedule is memoized per key) or per-trace keys
        of shape ``(n, 16)``.
    plaintexts:
        ``(n, 16)`` uint8 array.

    Returns
    -------
    ``(n, 11, 16)`` uint8 array: state after initial AddRoundKey (index 0)
    through the ciphertext (index 10).  Matches ``AES.round_states``.
    """
    pts = np.asarray(plaintexts, dtype=np.uint8)
    if pts.ndim != 2 or pts.shape[1] != 16:
        raise ConfigurationError("plaintexts must have shape (n, 16)")
    n = pts.shape[0]
    keys = np.asarray(keys, dtype=np.uint8)
    if keys.ndim == 1:
        if keys.shape[0] != 16:
            raise ConfigurationError("key must be 16 bytes")
        rk_batch = np.broadcast_to(
            _round_key_array(keys.tobytes()), (n, 11, 16)
        )
    elif keys.ndim == 2 and keys.shape == (n, 16):
        rk_batch = batch_expand_key(keys)
    else:
        raise ConfigurationError("keys must have shape (16,) or (n, 16)")

    states = np.empty((n, 11, 16), dtype=np.uint8)
    state = pts ^ rk_batch[:, 0]
    states[:, 0] = state
    for r in range(1, 10):
        sub = SBOX[state]
        shifted = sub[:, SHIFT_ROWS_MAP]
        cols = shifted.reshape(n, 4, 4)
        a0 = cols[:, :, 0]
        a1 = cols[:, :, 1]
        a2 = cols[:, :, 2]
        a3 = cols[:, :, 3]
        mixed = np.empty_like(cols)
        mixed[:, :, 0] = MUL2[a0] ^ MUL3[a1] ^ a2 ^ a3
        mixed[:, :, 1] = a0 ^ MUL2[a1] ^ MUL3[a2] ^ a3
        mixed[:, :, 2] = a0 ^ a1 ^ MUL2[a2] ^ MUL3[a3]
        mixed[:, :, 3] = MUL3[a0] ^ a1 ^ a2 ^ MUL2[a3]
        state = mixed.reshape(n, 16) ^ rk_batch[:, r]
        states[:, r] = state
    sub = SBOX[state]
    shifted = sub[:, SHIFT_ROWS_MAP]
    state = shifted ^ rk_batch[:, 10]
    states[:, 10] = state
    return states


class AesDatapath:
    """Register-transfer model of the 10-cycle AES-128 circuit.

    Parameters
    ----------
    key:
        16-byte AES-128 key.
    idle_value:
        Register contents before the plaintext load (the circuit of the
        paper holds the previous ciphertext between encryptions; the default
        of all-zeros models a freshly reset core, and the acquisition layer
        threads the previous ciphertext through when simulating
        back-to-back encryptions).
    """

    def __init__(self, key: BlockLike, idle_value: Optional[BlockLike] = None):
        key = bytes(key)
        if len(key) != 16:
            raise ConfigurationError(
                f"the Hodjat datapath is AES-128: key must be 16 bytes, got {len(key)}"
            )
        self._aes = AES(key)
        self._idle = (
            _as_block("idle_value", idle_value) if idle_value is not None else bytes(16)
        )

    @property
    def key(self) -> bytes:
        return self._aes.key

    @property
    def cycles_per_encryption(self) -> int:
        return CYCLES_PER_ENCRYPTION

    def encrypt(self, plaintext: BlockLike) -> bytes:
        """Ciphertext of one block (convenience passthrough to :class:`AES`)."""
        return self._aes.encrypt(plaintext)

    def transitions(
        self, plaintext: BlockLike, previous_ciphertext: Optional[BlockLike] = None
    ) -> List[RoundTransition]:
        """All 11 register transitions of one encryption.

        ``previous_ciphertext`` overrides the idle register value for the
        load edge, modelling back-to-back encryptions.
        """
        initial = (
            _as_block("previous_ciphertext", previous_ciphertext)
            if previous_ciphertext is not None
            else self._idle
        )
        states = self._aes.round_states(plaintext)
        transitions = [RoundTransition(cycle=0, before=initial, after=states[0])]
        for r in range(1, len(states)):
            transitions.append(
                RoundTransition(cycle=r, before=states[r - 1], after=states[r])
            )
        return transitions

    def hamming_distances(
        self, plaintext: BlockLike, previous_ciphertext: Optional[BlockLike] = None
    ) -> List[int]:
        """Per-cycle register Hamming distances for one encryption."""
        return [
            t.hamming_distance for t in self.transitions(plaintext, previous_ciphertext)
        ]

    def batch_states(self, plaintexts: np.ndarray) -> np.ndarray:
        """Vectorized round states, shape ``(n, 11, 16)`` uint8.

        One pass over the AES rounds yields both the ciphertexts
        (``states[:, -1]``) and the register transitions
        (:meth:`batch_hamming_distances` with ``states=``), so acquisition
        runs the datapath once per chunk instead of once per consumer of
        its outputs.
        """
        return batch_round_states(
            np.frombuffer(self._aes.key, dtype=np.uint8),
            np.asarray(plaintexts, dtype=np.uint8),
        )

    def batch_hamming_distances(
        self,
        plaintexts: np.ndarray,
        previous_ciphertexts: Optional[np.ndarray] = None,
        states: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized per-cycle Hamming distances for a campaign.

        Parameters
        ----------
        plaintexts:
            ``(n, 16)`` uint8 array.
        previous_ciphertexts:
            Optional ``(n, 16)`` uint8 array of register values before the
            load edge; defaults to the idle value for every trace.
        states:
            Optional precomputed :meth:`batch_states` result for these
            plaintexts, to avoid re-running the round function.

        Returns
        -------
        ``(n, 11)`` float64 array: column 0 is the load edge, columns 1..10
        the round edges.
        """
        pts = np.asarray(plaintexts, dtype=np.uint8)
        if pts.ndim != 2 or pts.shape[1] != 16:
            raise ConfigurationError("plaintexts must have shape (n, 16)")
        n = pts.shape[0]
        if states is None:
            states = batch_round_states(
                np.frombuffer(self._aes.key, dtype=np.uint8), pts
            )
        elif states.shape != (n, 11, 16):
            raise ConfigurationError(
                "precomputed states must have shape (n, 11, 16)"
            )
        if previous_ciphertexts is None:
            prev = np.broadcast_to(
                np.frombuffer(self._idle, dtype=np.uint8), (n, 16)
            )
        else:
            prev = np.asarray(previous_ciphertexts, dtype=np.uint8)
            if prev.shape != (n, 16):
                raise ConfigurationError(
                    "previous_ciphertexts must have shape (n, 16)"
                )
        hd = np.empty((n, CYCLES_PER_ENCRYPTION), dtype=np.float64)
        hd[:, 0] = HW8[prev ^ states[:, 0]].sum(axis=1)
        hd[:, 1:] = HW8[states[:, 1:] ^ states[:, :-1]].sum(axis=2)
        return hd

    def batch_ciphertexts(self, plaintexts: np.ndarray) -> np.ndarray:
        """Vectorized ciphertexts, shape ``(n, 16)`` uint8."""
        states = batch_round_states(
            np.frombuffer(self._aes.key, dtype=np.uint8),
            np.asarray(plaintexts, dtype=np.uint8),
        )
        return states[:, -1]
