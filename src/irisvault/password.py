"""Combined user and soft-biometric passwords.

The 64-bit combined password concatenates three soft-biometric bytes
(height, an eye-color character code, a gender character) with a 5-character
user password.  Split big-endian into four 16-bit blocks, it drives the
per-quadrant template translation; whole, it masks the vault secret, and
:mod:`irisvault.vault` keys the vault's keystream with it.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .errors import DomainError

USER_PASSWORD_LEN = 5
COMBINED_LEN = 8


class EyeColor(enum.Enum):
    AMBER = "amber"
    BLUE = "blue"
    BROWN = "brown"
    GRAY = "gray"
    GREEN = "green"
    HAZEL = "hazel"


# One-character codes for each eye color, stored as their ASCII values.
_EYE_COLOR_CODES = {
    EyeColor.AMBER: ord("A"),
    EyeColor.BLUE: ord("E"),
    EyeColor.BROWN: ord("B"),
    EyeColor.GRAY: ord("G"),
    EyeColor.GREEN: ord("N"),
    EyeColor.HAZEL: ord("H"),
}


class SoftBiometrics(namedtuple("SoftBiometrics", "height_cm eye_color gender")):
    """Height in cm (one byte), eye color, and gender ('M' or 'F')."""

    __slots__ = ()

    def __new__(cls, height_cm: int, eye_color: EyeColor, gender: str) -> SoftBiometrics:
        if not isinstance(height_cm, int) or isinstance(height_cm, bool):
            raise DomainError(f"height must be an int, not {type(height_cm).__name__}")
        if not 0 <= height_cm <= 255:
            raise DomainError(f"height {height_cm} does not fit in one byte")
        if not isinstance(eye_color, EyeColor):
            raise DomainError(f"unknown eye color {eye_color!r}")
        if gender not in ("M", "F"):
            raise DomainError(f"gender must be 'M' or 'F', got {gender!r}")
        return super().__new__(cls, height_cm, eye_color, gender)


class UserPassword(namedtuple("UserPassword", "chars")):
    """Exactly five printable ASCII characters."""

    __slots__ = ()

    def __new__(cls, chars: str) -> UserPassword:
        if not isinstance(chars, str):
            raise DomainError(f"user password must be a str, not {type(chars).__name__}")
        if len(chars) != USER_PASSWORD_LEN:
            raise DomainError(
                f"user password must be {USER_PASSWORD_LEN} characters, got {len(chars)}"
            )
        for ch in chars:
            if not 32 <= ord(ch) <= 126:
                raise DomainError(f"non-printable-ASCII character {ch!r} in password")
        return super().__new__(cls, chars)


class CombinedPassword(namedtuple("CombinedPassword", "data")):
    """The 8-byte concatenation of soft-biometric and user password bytes."""

    __slots__ = ()

    def __new__(cls, data: bytes) -> CombinedPassword:
        if not isinstance(data, bytes):
            raise DomainError(f"combined password must be bytes, not {type(data).__name__}")
        if len(data) != COMBINED_LEN:
            raise DomainError(
                f"combined password must be {COMBINED_LEN} bytes, got {len(data)}"
            )
        return super().__new__(cls, data)


class TranslationBlock(namedtuple("TranslationBlock", "tu tv")):
    """Horizontal (7-bit) and vertical (9-bit) translation amounts."""

    __slots__ = ()


def combine_password(soft: SoftBiometrics, user: UserPassword) -> CombinedPassword:
    """Concatenate [height, eye-color code, gender] with the user password."""
    head = bytes((soft.height_cm, _EYE_COLOR_CODES[soft.eye_color], ord(soft.gender)))
    return CombinedPassword(head + user.chars.encode("ascii"))


def derive_blocks(cp: CombinedPassword) -> list[TranslationBlock]:
    """Split the password into four 16-bit blocks, each 7/9 into (tu, tv).

    Block i comes from bytes (2i, 2i+1) read big-endian; the top 7 bits are
    the horizontal translation and the low 9 bits the vertical one.  Block i
    is assigned to quadrant i.
    """
    blocks = []
    for i in range(4):
        word = (cp.data[2 * i] << 8) | cp.data[2 * i + 1]
        # Built as VaultParams.__new__ does: TranslationBlock checks nothing.
        blocks.append(tuple.__new__(TranslationBlock, (word >> 9, word & 0x1FF)))
    return blocks


def mask_secret(secret: bytes, cp: CombinedPassword) -> bytes:
    """Xor a 16-byte secret with the password repeated twice.

    Involutive: masking a masked secret restores the original.
    """
    if len(secret) != 16:
        raise DomainError(f"secret must be 16 bytes, got {len(secret)}")
    pad = int.from_bytes(cp.data * 2, "big")
    return (int.from_bytes(secret, "big") ^ pad).to_bytes(16, "big")
