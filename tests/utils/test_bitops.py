"""Bit-manipulation helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.utils.bitops import (
    HW8,
    HW16,
    bytes_to_int,
    bytes_to_state,
    gf_mul,
    hamming_distance,
    hamming_weight,
    int_to_bytes,
    parity,
    rotl32,
    rotr32,
    state_to_bytes,
    xtime,
)


class TestHammingWeight:
    def test_table_spot_values(self):
        assert HW8[0] == 0
        assert HW8[0xFF] == 8
        assert HW8[0b10101010] == 4

    def test_table_16bit(self):
        assert HW16[0xFFFF] == 16
        assert HW16[0x8001] == 2

    def test_tables_match_bit_counts(self):
        expected8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
        expected16 = np.array([bin(i).count("1") for i in range(65536)], dtype=np.uint8)
        assert np.array_equal(HW8, expected8) and HW8.dtype == np.uint8
        assert np.array_equal(HW16, expected16) and HW16.dtype == np.uint8

    def test_scalar(self):
        assert hamming_weight(0) == 0
        assert hamming_weight(0b1011) == 3
        assert hamming_weight(2**128 - 1) == 128

    def test_scalar_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            hamming_weight(-1)

    def test_uint8_array(self):
        arr = np.array([0, 1, 3, 255], dtype=np.uint8)
        assert list(hamming_weight(arr)) == [0, 1, 2, 8]

    def test_uint64_array(self):
        arr = np.array([2**63, 2**64 - 1], dtype=np.uint64)
        assert list(hamming_weight(arr)) == [1, 64]

    def test_float_array_rejected(self):
        with pytest.raises(ConfigurationError):
            hamming_weight(np.array([1.0]))

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_matches_bin_count(self, value):
        assert hamming_weight(value) == bin(value).count("1")


class TestHammingDistance:
    def test_scalar(self):
        assert hamming_distance(0b1100, 0b1010) == 2
        assert hamming_distance(0, 0) == 0

    def test_array(self):
        a = np.array([0x0F, 0xFF], dtype=np.uint8)
        b = np.array([0xF0, 0xFF], dtype=np.uint8)
        assert list(hamming_distance(a, b)) == [8, 0]

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_symmetry(self, a, b):
        assert hamming_distance(a, b) == hamming_distance(b, a)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_identity(self, a):
        assert hamming_distance(a, a) == 0


class TestRotations:
    def test_rotl32(self):
        assert rotl32(0x80000000, 1) == 1
        assert rotl32(0x12345678, 0) == 0x12345678
        assert rotl32(0x12345678, 32) == 0x12345678

    def test_rotr32_inverts_rotl32(self):
        for count in (0, 1, 7, 31, 33):
            assert rotr32(rotl32(0xDEADBEEF, count), count) == 0xDEADBEEF


class TestGf:
    def test_xtime(self):
        assert xtime(0x57) == 0xAE
        assert xtime(0xAE) == 0x47  # reduction applies

    def test_gf_mul_fips_example(self):
        # FIPS-197 Sec. 4.2: {57} x {13} = {fe}
        assert gf_mul(0x57, 0x13) == 0xFE

    def test_gf_mul_identity(self):
        for a in range(256):
            assert gf_mul(a, 1) == a
            assert gf_mul(a, 0) == 0

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_gf_mul_commutes(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_gf_mul_distributes_over_xor(self, a, b, c):
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


class TestStateConversions:
    def test_column_major_layout(self):
        block = bytes(range(16))
        state = bytes_to_state(block)
        # byte 1 is row 1 col 0; byte 4 is row 0 col 1 (FIPS-197 3.4)
        assert state[1][0] == 1
        assert state[0][1] == 4

    def test_roundtrip(self):
        block = bytes(range(16))
        assert state_to_bytes(bytes_to_state(block)) == block

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigurationError):
            bytes_to_state(b"\x00" * 15)

    def test_bad_state_rejected(self):
        with pytest.raises(ConfigurationError):
            state_to_bytes([[0] * 4] * 3)


class TestIntBytes:
    def test_roundtrip(self):
        assert bytes_to_int(int_to_bytes(0xDEADBEEF, 4)) == 0xDEADBEEF

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            int_to_bytes(-1, 4)

    @given(st.integers(min_value=0, max_value=2**128 - 1))
    def test_roundtrip_wide(self, value):
        assert bytes_to_int(int_to_bytes(value, 16)) == value


class TestParity:
    def test_values(self):
        assert parity(0) == 0
        assert parity(1) == 1
        assert parity(0b11) == 0
        assert parity(0b111) == 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            parity(-1)
