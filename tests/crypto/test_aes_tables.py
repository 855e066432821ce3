"""Generated AES tables pinned against FIPS-197 constants.

The module finds GF(2^8) inverses through exp/log tables;
``TestBruteForceDefinitions`` rebuilds every table from the textbook
definition (exhaustive inverse search, bitwise affine map, schoolbook
GF(2^8) products) so that shortcut stays checked against the spec.
"""

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
from repro.utils.bitops import gf_mul


def _brute_force_inverse(a):
    return 0 if a == 0 else next(b for b in range(1, 256) if gf_mul(a, b) == 1)


def _fips197_affine(value):
    """FIPS-197 eq. 5.1: b'_i = b_i ^ b_(i+4) ^ b_(i+5) ^ b_(i+6) ^ b_(i+7) ^ c_i."""
    b = [(value >> i) & 1 for i in range(8)]
    c = [(0x63 >> i) & 1 for i in range(8)]
    return sum(
        (b[i] ^ b[(i + 4) % 8] ^ b[(i + 5) % 8] ^ b[(i + 6) % 8] ^ b[(i + 7) % 8] ^ c[i])
        << i
        for i in range(8)
    )


class TestSbox:
    def test_spot_values(self):
        # FIPS-197 Figure 7 corners and well-known entries.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_is_permutation(self):
        assert sorted(SBOX.tolist()) == list(range(256))

    def test_inverse_inverts(self):
        assert (INV_SBOX[SBOX] == np.arange(256)).all()
        assert (SBOX[INV_SBOX] == np.arange(256)).all()

    def test_no_fixed_points(self):
        # The AES S-box has no fixed points and no anti-fixed points.
        assert (SBOX != np.arange(256)).all()
        assert (SBOX != np.arange(256) ^ 0xFF).all()


class TestRcon:
    def test_first_eleven(self):
        expected = [0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]
        assert RCON[:11] == expected


class TestMulTables:
    def test_mul2_is_xtime(self):
        for a in range(256):
            assert MUL2[a] == gf_mul(a, 2)

    def test_mul3(self):
        for a in (0, 1, 0x57, 0xFF):
            assert MUL3[a] == gf_mul(a, 3)

    def test_inverse_mix_tables(self):
        for table, factor in ((MUL9, 9), (MUL11, 11), (MUL13, 13), (MUL14, 14)):
            for a in (0, 1, 2, 0x80, 0xFF):
                assert table[a] == gf_mul(a, factor)


class TestShiftRows:
    def test_row_zero_unmoved(self):
        # Row 0 = byte indices 0, 4, 8, 12 in column-major order.
        for i in (0, 4, 8, 12):
            assert SHIFT_ROWS_MAP[i] == i

    def test_row_one_shifts_by_one_column(self):
        # out[row1, col0] comes from in[row1, col1] = byte 5.
        assert SHIFT_ROWS_MAP[1] == 5

    def test_is_permutation(self):
        assert sorted(SHIFT_ROWS_MAP.tolist()) == list(range(16))

    def test_inverse(self):
        assert (INV_SHIFT_ROWS_MAP[SHIFT_ROWS_MAP] == np.arange(16)).all()


class TestBruteForceDefinitions:
    def test_sbox_is_affine_of_inverse(self):
        expected = [_fips197_affine(_brute_force_inverse(a)) for a in range(256)]
        assert np.array_equal(SBOX, np.array(expected, dtype=np.uint8))
        assert SBOX.dtype == np.uint8

    def test_inv_sbox_inverts_the_definition(self):
        expected = np.zeros(256, dtype=np.uint8)
        for a in range(256):
            expected[_fips197_affine(_brute_force_inverse(a))] = a
        assert np.array_equal(INV_SBOX, expected)
        assert INV_SBOX.dtype == np.uint8

    def test_mul_tables(self):
        for table, factor in (
            (MUL2, 2), (MUL3, 3), (MUL9, 9), (MUL11, 11), (MUL13, 13), (MUL14, 14)
        ):
            expected = np.array([gf_mul(a, factor) for a in range(256)], dtype=np.uint8)
            assert np.array_equal(table, expected)
            assert table.dtype == np.uint8

    def test_rcon_is_powers_of_two(self):
        expected, value = [0x00], 1
        for _ in range(14):
            expected.append(value)
            value = gf_mul(value, 2)
        assert RCON == expected
