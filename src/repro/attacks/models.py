"""Attack hypothesis models: intermediate predictions per key guess.

The paper attacks the *last* AES round (Sec. 6, following [13]): the final
register transition is S9 -> ciphertext, where

    ct[i] = SBOX[ S9[ SR(i) ] ] ^ K10[i]

so guessing one byte of the last round key K10 predicts the Hamming
distance of one register byte:

    HD = HW( INV_SBOX[ ct[i] ^ k ] ^ ct[ SR(i) ] )

This is a known-ciphertext model — exactly the threat model of Sec. 2.
Recovering all 16 bytes of K10 then inverts the key schedule back to the
AES-128 master key.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crypto.aes_tables import INV_SBOX, RCON, SBOX, SHIFT_ROWS_MAP
from repro.errors import AttackError
from repro.utils.bitops import HW8

_GUESSES = np.arange(256, dtype=np.uint8)

# Last-round HD predictions depend on the ciphertext only through the
# byte pair (ct[byte], ct[SR(byte)]), so one 65536x256 table indexed by
# ct[byte]*256 + ct[SR(byte)] serves *every* key byte: the byte index
# only selects which ciphertext columns form the pair.  Built lazily
# (16.7 MB uint8) and shared by the incremental CPA bank, where a
# single row gather replaces the xor/SBOX/xor/HW chain per key byte.
_HD_PAIR_TABLE: "list[np.ndarray]" = []


def hd_pair_table() -> np.ndarray:
    """``(65536, 256)`` uint8: ``T[x*256 + y, k] = HW(INV_SBOX[x^k] ^ y)``."""
    if not _HD_PAIR_TABLE:
        x = np.arange(256, dtype=np.uint8)
        before = INV_SBOX[x[:, None] ^ _GUESSES[None, :]]  # (x, k)
        table = HW8[before[:, None, :] ^ x[None, :, None]]  # (x, y, k)
        _HD_PAIR_TABLE.append(np.ascontiguousarray(table.reshape(65536, 256)))
    return _HD_PAIR_TABLE[0]


# For the key bytes ShiftRows leaves in place (SR(b) == b) the pair is
# (ct[b], ct[b]), so the predictions are one row of a 256x256 table
# indexed by ct[b] alone — 64 KiB, against the pair table's 16.7 MB.
_HD_TABLE: "list[np.ndarray]" = []

#: Key bytes whose last-round HD depends on one ciphertext byte.
SHIFT_ROWS_FIXED_BYTES = tuple(
    int(b) for b in np.flatnonzero(SHIFT_ROWS_MAP == np.arange(16))
)


def last_round_hd_table() -> np.ndarray:
    """``(256, 256)`` uint8: ``T[c, g] = HW(INV_SBOX[c ^ g] ^ c)``.

    Row ``c`` is :func:`last_round_hd_predictions` of a ciphertext whose
    attacked byte is ``c``, for any byte in ``SHIFT_ROWS_FIXED_BYTES``.
    """
    if not _HD_TABLE:
        c = np.arange(256, dtype=np.uint8)[:, None]
        _HD_TABLE.append(HW8[INV_SBOX[c ^ _GUESSES[None, :]] ^ c])
    return _HD_TABLE[0]


def check_shift_rows_fixed(byte_index: int, what: str) -> int:
    """``byte_index`` as an int, or :class:`AttackError` naming ``what``
    if ShiftRows moves that byte (its HD needs two ciphertext bytes)."""
    if byte_index not in SHIFT_ROWS_FIXED_BYTES:
        raise AttackError(
            f"{what} needs a key byte ShiftRows leaves in place "
            f"{SHIFT_ROWS_FIXED_BYTES}, got {byte_index}"
        )
    return int(byte_index)


def last_round_hd_predictions(
    ciphertexts: np.ndarray, byte_index: int
) -> np.ndarray:
    """Hamming-distance predictions for every guess of ``K10[byte_index]``.

    Parameters
    ----------
    ciphertexts:
        ``(n, 16)`` uint8.
    byte_index:
        Which byte of the last round key is guessed (0..15).

    Returns
    -------
    ``(n, 256)`` uint8: predicted register-byte Hamming distance of the
    final round transition under each key guess.
    """
    ct = np.asarray(ciphertexts, dtype=np.uint8)
    if ct.ndim != 2 or ct.shape[1] != 16:
        raise AttackError("ciphertexts must be (n, 16) uint8")
    if not 0 <= byte_index < 16:
        raise AttackError(f"byte_index must be in [0, 16), got {byte_index}")
    partner = int(SHIFT_ROWS_MAP[byte_index])
    before = INV_SBOX[ct[:, byte_index, None] ^ _GUESSES[None, :]]
    after = ct[:, partner, None]
    return HW8[before ^ after]


def _last_round_hd_into(
    ciphertexts: np.ndarray, byte_index: int, out: np.ndarray
) -> np.ndarray:
    """:func:`last_round_hd_predictions` into a caller-owned uint8 buffer.

    Skips validation and allocation — the CPA engine calls this once per
    key byte on pre-validated ciphertexts, reusing one ``(n, 256)`` scratch
    so the model stage stays out of the allocator on the hot path.  The
    returned array *is* ``out``.
    """
    partner = int(SHIFT_ROWS_MAP[byte_index])
    np.bitwise_xor(ciphertexts[:, byte_index, None], _GUESSES[None, :], out=out)
    INV_SBOX.take(out, out=out)
    np.bitwise_xor(out, ciphertexts[:, partner, None], out=out)
    HW8.take(out, out=out)
    return out


def expand_last_round_key(master_key: bytes) -> bytes:
    """The 10th round key of AES-128 — ground truth for last-round attacks."""
    from repro.crypto.aes import expand_key

    if len(master_key) != 16:
        raise AttackError("master key must be 16 bytes")
    return expand_key(master_key)[10]


def recover_master_key_from_last_round(last_round_key: Sequence[int]) -> bytes:
    """Invert the AES-128 key schedule from round key 10 to the master key.

    The schedule is invertible round by round:
    ``w[i-4] = w[i] ^ f(w[i-1])`` where f is the rotate/sub/rcon transform
    on every 4th word.
    """
    rk = list(bytes(last_round_key))
    if len(rk) != 16:
        raise AttackError("last round key must be 16 bytes")
    words = [rk[4 * i : 4 * i + 4] for i in range(4)]
    # Walk backwards: round r words from round r+1 words.
    for rnd in range(10, 0, -1):
        w0, w1, w2, w3 = words[0], words[1], words[2], words[3]
        prev3 = [w3[j] ^ w2[j] for j in range(4)]
        prev2 = [w2[j] ^ w1[j] for j in range(4)]
        prev1 = [w1[j] ^ w0[j] for j in range(4)]
        temp = prev3[1:] + prev3[:1]
        temp = [int(SBOX[b]) for b in temp]
        temp[0] ^= RCON[rnd]
        prev0 = [w0[j] ^ temp[j] for j in range(4)]
        words = [prev0, prev1, prev2, prev3]
    return bytes(b for w in words for b in w)
