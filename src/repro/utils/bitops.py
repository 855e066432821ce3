"""Bit- and byte-level helpers used across the crypto and attack code.

The attack code leans on precomputed Hamming-weight tables (:data:`HW8`)
because CPA evaluates millions of byte hypotheses; table lookups vectorize
through numpy fancy indexing.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError

#: Hamming weight of every 8-bit value, as a numpy uint8 array.
HW8: np.ndarray = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

#: Hamming weight of every 16-bit value (used by wide-register leakage models):
#: entry ``hi << 8 | lo`` is ``HW8[hi] + HW8[lo]``.
HW16: np.ndarray = (HW8[:, None] + HW8[None, :]).ravel()

_IntArray = Union[int, np.ndarray]


def hamming_weight(value: _IntArray) -> _IntArray:
    """Return the Hamming weight (number of set bits) of ``value``.

    Accepts a Python int of arbitrary width, or a numpy array of unsigned
    integers up to 64 bits (computed bytewise via :data:`HW8`).
    """
    if isinstance(value, (int, np.integer)):
        if value < 0:
            raise ConfigurationError("hamming_weight requires a non-negative value")
        return bin(int(value)).count("1")
    arr = np.asarray(value)
    if arr.dtype.kind not in "ui":
        raise ConfigurationError(
            f"hamming_weight requires integer arrays, got dtype {arr.dtype}"
        )
    if arr.dtype.itemsize == 1:
        return HW8[arr]
    view = arr.astype(np.uint64).view(np.uint8).reshape(arr.shape + (8,))
    return HW8[view].sum(axis=-1)


def hamming_distance(a: _IntArray, b: _IntArray) -> _IntArray:
    """Return the Hamming distance between ``a`` and ``b`` (bitwise XOR weight)."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        return hamming_weight(int(a) ^ int(b))
    return hamming_weight(np.bitwise_xor(a, b))


def rotl32(value: int, count: int) -> int:
    """Rotate a 32-bit word left by ``count`` bits."""
    count %= 32
    value &= 0xFFFFFFFF
    return ((value << count) | (value >> (32 - count))) & 0xFFFFFFFF


def rotr32(value: int, count: int) -> int:
    """Rotate a 32-bit word right by ``count`` bits."""
    return rotl32(value, 32 - (count % 32))


def xtime(value: int) -> int:
    """Multiply ``value`` by x in GF(2^8) with the AES polynomial 0x11B."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) under the AES polynomial 0x11B."""
    result = 0
    a &= 0xFF
    b &= 0xFF
    while b:
        if b & 1:
            result ^= a
        a = xtime(a)
        b >>= 1
    return result


def bytes_to_state(block: Union[bytes, Sequence[int]]) -> List[List[int]]:
    """Convert a 16-byte block into a 4x4 AES state matrix (column-major).

    AES fills the state column by column: byte ``i`` lands at row ``i % 4``,
    column ``i // 4`` (FIPS-197 Sec. 3.4).
    """
    data = bytes(block)
    if len(data) != 16:
        raise ConfigurationError(f"AES state requires 16 bytes, got {len(data)}")
    return [[data[row + 4 * col] for col in range(4)] for row in range(4)]


def state_to_bytes(state: Sequence[Sequence[int]]) -> bytes:
    """Convert a 4x4 AES state matrix back into a 16-byte block."""
    if len(state) != 4 or any(len(row) != 4 for row in state):
        raise ConfigurationError("AES state must be a 4x4 matrix")
    return bytes(state[row][col] & 0xFF for col in range(4) for row in range(4))


def int_to_bytes(value: int, length: int) -> bytes:
    """Big-endian fixed-width byte representation of a non-negative int."""
    if value < 0:
        raise ConfigurationError("int_to_bytes requires a non-negative value")
    return int(value).to_bytes(length, "big")


def bytes_to_int(data: Union[bytes, Iterable[int]]) -> int:
    """Big-endian integer from bytes."""
    return int.from_bytes(bytes(data), "big")


def parity(value: int) -> int:
    """Return the XOR of all bits of ``value`` (0 or 1)."""
    if value < 0:
        raise ConfigurationError("parity requires a non-negative value")
    p = 0
    while value:
        p ^= value & 1
        value >>= 1
    return p
