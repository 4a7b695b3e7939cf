"""GF(2^16) arithmetic and CRC-16 unit tests."""

import os
import random
import sys
from array import array

import pytest
from hypothesis import given, strategies as st

from irisvault import fields
from irisvault.errors import DomainError
from irisvault.fields import _GF_EXP, _GF_LOG, append_crc, check_crc, crc16, gf_add, gf_inv, gf_mul

from oracles import crc16_shift_register, gf_mul_oracle, gf_tables_oracle

elements = st.integers(min_value=0, max_value=0xFFFF)
nonzero = st.integers(min_value=1, max_value=0xFFFF)


class TestGfTables:
    """The exp/log tables loaded from gf65536.bin against the generator."""

    def test_file_matches_generator(self):
        exp, log = gf_tables_oracle()
        assert list(_GF_EXP) == exp
        assert list(_GF_LOG) == log

    def test_typed_arrays(self):
        assert isinstance(_GF_EXP, array) and isinstance(_GF_LOG, array)
        assert (_GF_EXP.typecode, _GF_LOG.typecode) == ("H", "H")
        assert (len(_GF_EXP), len(_GF_LOG)) == (131070, 65536)

    def test_exp_doubled_and_log_inverts_exp(self):
        assert _GF_EXP[:65535] == _GF_EXP[65535:]
        assert [_GF_LOG[e] for e in _GF_EXP[:65535]] == list(range(65535))

    def test_file_is_little_endian(self):
        # exp[0] = 1 and exp[1] = x = 2 pin the on-disk byte order on any host.
        with open(os.path.join(os.path.dirname(fields.__file__), "gf65536.bin"), "rb") as f:
            data = f.read()
        assert data[:4] == bytes((0x01, 0x00, 0x02, 0x00))
        assert len(data) == 2 * (65535 + 65536)

    def test_footprint(self):
        # Lists of ints take over 1 MB for exp alone.
        assert sys.getsizeof(_GF_EXP) + sys.getsizeof(_GF_LOG) < 512 * 1024


class TestGfAdd:
    def test_self_inverse(self):
        assert gf_add(0x1234, 0x1234) == 0x0000

    def test_identity(self):
        assert gf_add(0xABCD, 0x0000) == 0xABCD

    def test_known_xor(self):
        assert gf_add(0x1234, 0x00FF) == 0x12CB

    @given(elements, elements, elements)
    def test_associative_commutative(self, a, b, c):
        assert gf_add(a, b) == gf_add(b, a)
        assert gf_add(gf_add(a, b), c) == gf_add(a, gf_add(b, c))


class TestGfMul:
    def test_identity(self):
        assert gf_mul(0x5A5A, 0x0001) == 0x5A5A

    def test_zero_annihilates(self):
        assert gf_mul(0x0000, 0x7777) == 0x0000

    def test_reduction_step(self):
        # x * x^15 wraps to the low terms of the reduction polynomial.
        assert gf_mul(0x0002, 0x8000) == 0x100B

    @given(elements, elements)
    def test_matches_oracle(self, a, b):
        assert gf_mul(a, b) == gf_mul_oracle(a, b)

    @given(elements, elements, elements)
    def test_field_axioms(self, a, b, c):
        assert gf_mul(a, b) == gf_mul(b, a)
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))
        assert gf_mul(a, gf_add(b, c)) == gf_add(gf_mul(a, b), gf_mul(a, c))


class TestGfInv:
    def test_one(self):
        assert gf_inv(0x0001) == 0x0001

    def test_known_value(self):
        # Frozen from the exhaustive-search oracle.
        assert gf_inv(0x1234) == 0x2CE9
        assert gf_mul(0x1234, 0x2CE9) == 1

    def test_zero_rejected(self):
        with pytest.raises(DomainError, match="no multiplicative inverse"):
            gf_inv(0)

    @given(nonzero)
    def test_inverse_property(self, a):
        assert gf_mul(a, gf_inv(a)) == 1


class TestCrc16:
    def test_zero_message(self):
        assert crc16(bytes(16)) == 0x0000

    def test_single_byte(self):
        # Frozen from the shift-register oracle: 0x01 followed by 16 zero
        # bits reduces to the generator's low terms.
        assert crc16(bytes([0x01])) == 0x8005

    def test_catalog_vector(self):
        # Standard check input for this polynomial with these conventions.
        assert crc16(b"123456789") == 0xFEE8

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="at least one byte"):
            crc16(b"")

    @given(st.binary(min_size=1, max_size=64))
    def test_appended_crc_divides(self, message):
        check = crc16(message)
        assert crc16(message + bytes((check >> 8, check & 0xFF))) == 0

    def test_agrees_with_shift_register(self):
        rng = random.Random(2024)
        for _ in range(10_000):
            message = rng.randbytes(rng.randint(1, 40))
            assert crc16(message) == crc16_shift_register(message)


class TestAppendCheck:
    def test_zero_secret(self):
        assert append_crc(bytes(16)) == bytes(18)

    def test_frozen_sample(self):
        # Sample and checksum frozen from the shift-register oracle.
        secret = bytes.fromhex("e13b032e112a32b579080f08b1f7ed4c")
        assert append_crc(secret) == bytes.fromhex(
            "e13b032e112a32b579080f08b1f7ed4cddbf"
        )

    def test_wrong_lengths(self):
        with pytest.raises(DomainError, match="secret must be 16 bytes"):
            append_crc(bytes(15))
        with pytest.raises(DomainError, match="payload must be 18 bytes"):
            check_crc(bytes(17))

    def test_zero_payload_valid(self):
        assert check_crc(bytes(18)) is True

    @given(st.binary(min_size=16, max_size=16))
    def test_round_trip_valid(self, secret):
        assert check_crc(append_crc(secret)) is True

    @given(st.binary(min_size=16, max_size=16), st.integers(0, 143))
    def test_single_bit_flip_detected(self, secret, bit):
        payload = bytearray(append_crc(secret))
        payload[bit // 8] ^= 1 << (bit % 8)
        assert check_crc(bytes(payload)) is False
