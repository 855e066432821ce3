"""AES block cipher (FIPS-197): AES-128/192/256 encrypt, decrypt, key schedule.

The implementation keeps the state as a 16-byte ``bytes`` object in the
standard column-major order, which is also what the datapath model and the
leakage models index into.  It is a reference implementation: clarity over
speed (the hot attack paths never run the cipher per trace — they use the
vectorized helpers in :mod:`repro.attacks.models`).
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.crypto.aes_tables import (
    INV_SBOX,
    INV_SHIFT_ROWS_MAP,
    MUL2,
    MUL3,
    MUL9,
    MUL11,
    MUL13,
    MUL14,
    RCON,
    SBOX,
    SHIFT_ROWS_MAP,
)
from repro.errors import ConfigurationError

_KEY_ROUNDS = {16: 10, 24: 12, 32: 14}

BlockLike = Union[bytes, bytearray, Sequence[int]]


def _as_block(name: str, data: BlockLike) -> bytes:
    block = bytes(data)
    if len(block) != 16:
        raise ConfigurationError(f"{name} must be 16 bytes, got {len(block)}")
    return block


def _checked_key(key: BlockLike) -> bytes:
    key = bytes(key)
    if len(key) not in _KEY_ROUNDS:
        raise ConfigurationError(
            f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
        )
    return key


def expand_key(key: BlockLike) -> List[bytes]:
    """Expand an AES key into the per-round 16-byte round keys.

    Returns ``rounds + 1`` round keys (11 for AES-128).  A campaign
    builds a device, and so expands its one key, for every chunk: the
    schedule is memoized per key, and each call returns a fresh list of
    the shared (immutable) round keys.
    """
    return list(_expand_key(_checked_key(key)))


#: Keys whose schedules stay memoized.  Campaigns reuse one key; bounding
#: the memo keeps per-trace-key callers from growing it without limit.
_KEY_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_KEY_MEMO_SIZE)
def _expand_key(key: bytes) -> Tuple[bytes, ...]:
    nk = len(key) // 4
    rounds = _KEY_ROUNDS[len(key)]
    words: List[List[int]] = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        temp = list(words[i - 1])
        if i % nk == 0:
            temp = temp[1:] + temp[:1]
            temp = [int(SBOX[b]) for b in temp]
            temp[0] ^= RCON[i // nk]
        elif nk > 6 and i % nk == 4:
            temp = [int(SBOX[b]) for b in temp]
        words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
    return tuple(
        bytes(b for w in words[4 * r : 4 * r + 4] for b in w)
        for r in range(rounds + 1)
    )


@functools.lru_cache(maxsize=_KEY_MEMO_SIZE)
def _round_key_array(key: bytes) -> np.ndarray:
    """Memoized read-only ``(rounds + 1, 16)`` uint8 schedule of ``key``."""
    schedule = np.frombuffer(
        b"".join(_expand_key(_checked_key(key))), dtype=np.uint8
    )
    return schedule.reshape(-1, 16)


def batch_expand_key(keys: np.ndarray) -> np.ndarray:
    """Vectorized AES-128 key schedule for a batch of keys.

    Numpy twin of :func:`expand_key`, looping over the 44 schedule words
    instead of over keys: each step applies RotWord/SubWord/Rcon to the
    whole batch at once, so expanding ``n`` keys costs 40 small vectorized
    steps rather than ``n`` python key schedules.  Byte-identical to
    :func:`expand_key` (asserted by the test suite).

    Parameters
    ----------
    keys:
        ``(16,)`` or ``(n, 16)`` uint8 AES-128 keys.

    Returns
    -------
    ``(11, 16)`` (for a single key) or ``(n, 11, 16)`` uint8 round keys,
    round key ``r`` at index ``r``.
    """
    arr = np.asarray(keys, dtype=np.uint8)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 16:
        raise ConfigurationError(
            f"batch_expand_key expects (n, 16) uint8 AES-128 keys, got {arr.shape}"
        )
    n = arr.shape[0]
    words = np.empty((n, 44, 4), dtype=np.uint8)
    words[:, :4] = arr.reshape(n, 4, 4)
    for i in range(4, 44):
        temp = words[:, i - 1]
        if i % 4 == 0:
            temp = SBOX[np.roll(temp, -1, axis=1)]
            temp[:, 0] ^= RCON[i // 4]
        words[:, i] = words[:, i - 4] ^ temp
    round_keys = words.reshape(n, 11, 16)
    return round_keys[0] if single else round_keys


def sub_bytes(state: bytes) -> bytes:
    """Apply the S-box to every byte of the state."""
    return bytes(int(SBOX[b]) for b in state)


def inv_sub_bytes(state: bytes) -> bytes:
    """Apply the inverse S-box to every byte of the state."""
    return bytes(int(INV_SBOX[b]) for b in state)


def shift_rows(state: bytes) -> bytes:
    """Cyclically shift row r of the state left by r positions."""
    return bytes(state[int(SHIFT_ROWS_MAP[i])] for i in range(16))


def inv_shift_rows(state: bytes) -> bytes:
    """Cyclically shift row r of the state right by r positions."""
    return bytes(state[int(INV_SHIFT_ROWS_MAP[i])] for i in range(16))


def mix_columns(state: bytes) -> bytes:
    """MixColumns over all four state columns."""
    out = bytearray(16)
    for c in range(4):
        a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
        out[4 * c + 0] = MUL2[a0] ^ MUL3[a1] ^ a2 ^ a3
        out[4 * c + 1] = a0 ^ MUL2[a1] ^ MUL3[a2] ^ a3
        out[4 * c + 2] = a0 ^ a1 ^ MUL2[a2] ^ MUL3[a3]
        out[4 * c + 3] = MUL3[a0] ^ a1 ^ a2 ^ MUL2[a3]
    return bytes(out)


def inv_mix_columns(state: bytes) -> bytes:
    """Inverse MixColumns over all four state columns."""
    out = bytearray(16)
    for c in range(4):
        a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
        out[4 * c + 0] = MUL14[a0] ^ MUL11[a1] ^ MUL13[a2] ^ MUL9[a3]
        out[4 * c + 1] = MUL9[a0] ^ MUL14[a1] ^ MUL11[a2] ^ MUL13[a3]
        out[4 * c + 2] = MUL13[a0] ^ MUL9[a1] ^ MUL14[a2] ^ MUL11[a3]
        out[4 * c + 3] = MUL11[a0] ^ MUL13[a1] ^ MUL9[a2] ^ MUL14[a3]
    return bytes(out)


def add_round_key(state: bytes, round_key: bytes) -> bytes:
    """XOR the state with a round key."""
    return bytes(s ^ k for s, k in zip(state, round_key))


class AES:
    """AES block cipher bound to one expanded key.

    >>> cipher = AES(bytes(range(16)))
    >>> cipher.decrypt(cipher.encrypt(b"\\x00" * 16)) == b"\\x00" * 16
    True
    """

    def __init__(self, key: BlockLike):
        key = _checked_key(key)
        self._key = key
        self._round_keys = _expand_key(key)
        self.rounds = _KEY_ROUNDS[len(key)]

    @property
    def key(self) -> bytes:
        """The raw cipher key."""
        return self._key

    @property
    def round_keys(self) -> Tuple[bytes, ...]:
        """All ``rounds + 1`` round keys."""
        return self._round_keys

    def encrypt(self, plaintext: BlockLike) -> bytes:
        """Encrypt one 16-byte block."""
        return self.round_states(plaintext)[-1]

    def round_states(self, plaintext: BlockLike) -> List[bytes]:
        """Return the state after every round, including the initial AddRoundKey.

        Index 0 is ``plaintext ^ round_key[0]``; index ``rounds`` is the
        ciphertext.  These are exactly the values the round register of the
        Hodjat et al. circuit holds after each clock cycle, which is what
        the Hamming-distance leakage model consumes.
        """
        state = _as_block("plaintext", plaintext)
        states = [add_round_key(state, self._round_keys[0])]
        state = states[0]
        for r in range(1, self.rounds):
            state = sub_bytes(state)
            state = shift_rows(state)
            state = mix_columns(state)
            state = add_round_key(state, self._round_keys[r])
            states.append(state)
        state = sub_bytes(state)
        state = shift_rows(state)
        state = add_round_key(state, self._round_keys[self.rounds])
        states.append(state)
        return states

    def decrypt(self, ciphertext: BlockLike) -> bytes:
        """Decrypt one 16-byte block."""
        state = _as_block("ciphertext", ciphertext)
        state = add_round_key(state, self._round_keys[self.rounds])
        for r in range(self.rounds - 1, 0, -1):
            state = inv_shift_rows(state)
            state = inv_sub_bytes(state)
            state = add_round_key(state, self._round_keys[r])
            state = inv_mix_columns(state)
        state = inv_shift_rows(state)
        state = inv_sub_bytes(state)
        return add_round_key(state, self._round_keys[0])


def aes128_encrypt(key: BlockLike, plaintext: BlockLike) -> bytes:
    """One-shot AES-128 encryption of a single block."""
    key = bytes(key)
    if len(key) != 16:
        raise ConfigurationError(f"AES-128 key must be 16 bytes, got {len(key)}")
    return AES(key).encrypt(plaintext)


def aes128_decrypt(key: BlockLike, ciphertext: BlockLike) -> bytes:
    """One-shot AES-128 decryption of a single block."""
    key = bytes(key)
    if len(key) != 16:
        raise ConfigurationError(f"AES-128 key must be 16 bytes, got {len(key)}")
    return AES(key).decrypt(ciphertext)
