"""Combined user and soft-biometric passwords.

The 64-bit combined password concatenates three soft-biometric bytes
(height, an eye-color character code, a gender character) with a 5-character
user password.  Split big-endian into four 16-bit blocks, it drives the
per-quadrant template translation; whole, it masks the vault secret and
seeds the vault cipher.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError

USER_PASSWORD_LEN = 5
COMBINED_LEN = 8

# Keystream states must be nonzero, so an all-zero password falls back to
# this documented constant.
ZERO_SEED_FALLBACK = 0x9E3779B97F4A7C15


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


def eye_color_code(color: EyeColor) -> int:
    """ASCII value of the single-character code assigned to ``color``."""
    return _EYE_COLOR_CODES[color]


@dataclass(frozen=True)
class SoftBiometrics:
    """Height in cm (one byte), eye color, and gender ('M' or 'F')."""

    height_cm: int
    eye_color: EyeColor
    gender: str

    def __post_init__(self) -> None:
        if not 0 <= self.height_cm <= 255:
            raise DomainError(f"height {self.height_cm} does not fit in one byte")
        if not isinstance(self.eye_color, EyeColor):
            raise DomainError(f"unknown eye color {self.eye_color!r}")
        if self.gender not in ("M", "F"):
            raise DomainError(f"gender must be 'M' or 'F', got {self.gender!r}")


@dataclass(frozen=True)
class UserPassword:
    """Exactly five printable ASCII characters."""

    chars: str

    def __post_init__(self) -> None:
        if len(self.chars) != USER_PASSWORD_LEN:
            raise DomainError(
                f"user password must be {USER_PASSWORD_LEN} characters, got {len(self.chars)}"
            )
        for ch in self.chars:
            if not 32 <= ord(ch) <= 126:
                raise DomainError(f"non-printable-ASCII character {ch!r} in password")


@dataclass(frozen=True)
class CombinedPassword:
    """The 8-byte concatenation of soft-biometric and user password bytes."""

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) != COMBINED_LEN:
            raise DomainError(
                f"combined password must be {COMBINED_LEN} bytes, got {len(self.data)}"
            )


class TranslationBlock(NamedTuple):
    """Horizontal (7-bit) and vertical (9-bit) translation amounts."""

    tu: int
    tv: int


def combine_password(soft: SoftBiometrics, user: UserPassword) -> CombinedPassword:
    """Concatenate [height, eye-color code, gender] with the user password."""
    head = bytes((soft.height_cm, eye_color_code(soft.eye_color), ord(soft.gender)))
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
        blocks.append(TranslationBlock(tu=word >> 9, tv=word & 0x1FF))
    return blocks


def mask_secret(secret: bytes, cp: CombinedPassword) -> bytes:
    """Xor a 16-byte secret with the password repeated twice.

    Involutive: masking a masked secret restores the original.
    """
    if len(secret) != 16:
        raise DomainError(f"secret must be 16 bytes, got {len(secret)}")
    pad = cp.data * 2
    return bytes(s ^ p for s, p in zip(secret, pad))


def seed_from_password(cp: CombinedPassword) -> int:
    """Big-endian 64-bit seed for the vault cipher; never zero."""
    seed = int.from_bytes(cp.data, "big")
    return seed if seed != 0 else ZERO_SEED_FALLBACK
