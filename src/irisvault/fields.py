"""GF(2^16) arithmetic and the 16-bit CRC used for secret payloads.

Field elements are plain ints in [0, 0xFFFF] whose binary digits are the
coefficients of a polynomial over GF(2); 0 and 1 are the additive and
multiplicative identities.  Arithmetic is reduced modulo the primitive
polynomial

    x^16 + x^12 + x^3 + x + 1   (0x1100B)

under which x (= 0x0002) generates the full multiplicative group, so
multiplication and inversion run off log/antilog tables loaded at import
from ``gf65536.bin``, which ``TestGfTables`` checks against its generator.

The CRC divides MSB-first by

    a^16 + a^15 + a^2 + 1       (0x8005, top term implicit)

with an all-zero initial register, no bit reflection and no final xor.
Those conventions make ``crc16(m + crc16(m))`` vanish, which is exactly
the divisibility check the vault decoder relies on.
"""

from __future__ import annotations

import os
import sys
from array import array

from .errors import DomainError, check_bytes

GF_ORDER = 1 << 16

CRC_POLY = 0x8005

SECRET_BYTES = 16
PAYLOAD_BYTES = SECRET_BYTES + 2  # secret plus appended 16-bit CRC


def _load_gf_tables() -> tuple[array, array]:
    # The file beside this module holds exp[0..65534] then log[0..65535] as
    # little-endian uint16, generated by tests/oracles.py:gf_tables_oracle.
    with open(os.path.join(os.path.dirname(__file__), "gf65536.bin"), "rb") as f:
        tables = array("H", f.read())
    if sys.byteorder == "big":
        tables.byteswap()
    # exp is doubled so gf_mul can index log[a] + log[b] without a mod.
    return tables[: GF_ORDER - 1] * 2, tables[GF_ORDER - 1 :]


_GF_EXP, _GF_LOG = _load_gf_tables()


def gf_add(a: int, b: int) -> int:
    """Field addition: bitwise xor (its own inverse in characteristic 2)."""
    return a ^ b


def gf_mul(a: int, b: int) -> int:
    """Field multiplication modulo the fixed reduction polynomial."""
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


def gf_inv(a: int) -> int:
    """Multiplicative inverse of a nonzero element."""
    if a == 0:
        raise DomainError("0 has no multiplicative inverse")
    return _GF_EXP[GF_ORDER - 1 - _GF_LOG[a]]


def _build_crc_table() -> list[int]:
    table = []
    for byte in range(256):
        reg = byte << 8
        for _ in range(8):
            if reg & 0x8000:
                reg = ((reg << 1) ^ CRC_POLY) & 0xFFFF
            else:
                reg = (reg << 1) & 0xFFFF
        table.append(reg)
    return table


_CRC_TABLE = _build_crc_table()


def crc16(data: bytes) -> int:
    """MSB-first CRC over bytes-like ``data``, bytes consumed in order."""
    data = check_bytes("crc16 data", data)
    if len(data) == 0:
        raise DomainError("crc16 data must hold at least one byte")
    return _crc16(data)


def _crc16(data: bytes) -> int:
    """:func:`crc16` of ``data`` already checked."""
    reg = 0
    for byte in data:
        reg = ((reg << 8) & 0xFFFF) ^ _CRC_TABLE[(reg >> 8) ^ byte]
    return reg


def append_crc(secret: bytes) -> bytes:
    """Append the big-endian CRC of a 16-byte secret, yielding 18 bytes."""
    secret = bytes(check_bytes("secret", secret, SECRET_BYTES))
    return secret + _crc16(secret).to_bytes(2, "big")


def check_crc(payload: bytes) -> bool:
    """True iff the 18-byte payload divides cleanly by the CRC polynomial: a
    zero remainder over message plus checksum means the payload is intact."""
    return _crc16(check_bytes("payload", payload, PAYLOAD_BYTES)) == 0
