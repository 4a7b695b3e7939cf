"""Exception hierarchy for the irisvault package.

Callers tell two cases apart.  ``IrisVaultError`` is the root;
``DomainError`` marks input outside what an operation accepts, a malformed
template file or vault byte stream among it, and ``UnlockError`` a vault
decode that came up empty.  The message says which check failed.  The CLI
maps ``UnlockError`` to exit code 1 (authentication failure) and every
other error to exit code 2 (bad input or parameters).

Every int taken from outside passes one of two rules, written once here:
:func:`check_int` for one value in a range, :func:`check_words` for 16-bit words.
"""

from collections.abc import Sequence


class IrisVaultError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(IrisVaultError):
    """An argument falls outside what the operation accepts: a wrong byte
    length, an invalid password, too few template points, a full abscissa
    space, repeated interpolation abscissas, an impossible point spacing, or
    a malformed template line or vault header field, which the message
    names."""


class UnlockError(IrisVaultError):
    """A vault decode came up empty: too few candidates matched, the decode
    cap allowed no attempt, or no polynomial passed the agreement and
    checksum tests."""


def check_int(name: str, value: object, lo: int, hi: int) -> None:
    """DomainError naming ``name`` unless ``value`` is an int, not a subclass, in [lo, hi]."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an int, not {type(value).__name__}")
    if not lo <= value <= hi:
        raise DomainError(f"{name}={value} must be in [{lo}, {hi}]")


def check_words(name: str, values: Sequence[object]) -> None:
    """:func:`check_int` on each of ``values`` with the range [0, 65535],
    after one C-level pass that settles the common case of valid words."""
    if (not set(map(type, values)) <= {int}
            or values and not 0 <= min(values) <= max(values) <= 0xFFFF):
        for value in values:
            check_int(name, value, 0, 0xFFFF)
