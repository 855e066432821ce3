"""AES lookup tables, generated from first principles at import time.

The S-box is derived from the multiplicative inverse in GF(2^8) followed by
the FIPS-197 affine transform, rather than pasted as literals, so a typo
cannot silently corrupt the cipher; the test suite additionally pins the
well-known spot values (``SBOX[0x00] == 0x63`` etc.).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.utils.bitops import gf_mul, xtime


def _build_gf_inverse() -> List[int]:
    """Multiplicative inverse table for GF(2^8); inverse of 0 is defined as 0.

    Walks the powers of the generator 0x03 once: ``a = 3^k`` has inverse
    ``3^(255 - k)``, so no product search is needed.
    """
    exp = [0] * 255
    log = [0] * 256
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        value ^= xtime(value)  # value * 3 = value * 2 + value
    return [0] + [exp[(255 - log[a]) % 255] for a in range(1, 256)]


def _affine(value: int) -> int:
    """FIPS-197 affine transform: b'_i = b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6} ^ b_{i+7} ^ c_i."""
    result = 0
    for i in range(8):
        bit = (
            (value >> i)
            ^ (value >> ((i + 4) % 8))
            ^ (value >> ((i + 5) % 8))
            ^ (value >> ((i + 6) % 8))
            ^ (value >> ((i + 7) % 8))
            ^ (0x63 >> i)
        ) & 1
        result |= bit << i
    return result


def _build_sbox() -> np.ndarray:
    inverse = _build_gf_inverse()
    return np.array([_affine(inverse[i]) for i in range(256)], dtype=np.uint8)


#: Forward AES S-box (SubBytes).
SBOX: np.ndarray = _build_sbox()

#: Inverse AES S-box (InvSubBytes).
INV_SBOX: np.ndarray = np.zeros(256, dtype=np.uint8)
INV_SBOX[SBOX] = np.arange(256, dtype=np.uint8)

#: Round constants for the key schedule (RCON[1] used by round 1).
RCON: List[int] = [0x00]
_value = 0x01
for _ in range(14):
    RCON.append(_value)
    _value = gf_mul(_value, 0x02)
del _value

#: GF(2^8) multiply-by-2 and multiply-by-3 tables for MixColumns.
MUL2: np.ndarray = np.array([gf_mul(i, 2) for i in range(256)], dtype=np.uint8)
MUL3: np.ndarray = np.array([gf_mul(i, 3) for i in range(256)], dtype=np.uint8)

#: GF(2^8) tables for InvMixColumns.
MUL9: np.ndarray = np.array([gf_mul(i, 9) for i in range(256)], dtype=np.uint8)
MUL11: np.ndarray = np.array([gf_mul(i, 11) for i in range(256)], dtype=np.uint8)
MUL13: np.ndarray = np.array([gf_mul(i, 13) for i in range(256)], dtype=np.uint8)
MUL14: np.ndarray = np.array([gf_mul(i, 14) for i in range(256)], dtype=np.uint8)

#: ShiftRows permutation over the 16-byte column-major block layout:
#: output byte i comes from input byte SHIFT_ROWS_MAP[i].
SHIFT_ROWS_MAP: np.ndarray = np.array(
    [(i + 4 * (i % 4)) % 16 for i in range(16)], dtype=np.intp
)

#: Inverse ShiftRows permutation.
INV_SHIFT_ROWS_MAP: np.ndarray = np.zeros(16, dtype=np.intp)
INV_SHIFT_ROWS_MAP[SHIFT_ROWS_MAP] = np.arange(16, dtype=np.intp)
