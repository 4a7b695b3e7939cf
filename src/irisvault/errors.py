"""Exception hierarchy for the irisvault package.

Callers tell two cases apart.  ``IrisVaultError`` is the root;
``DomainError`` marks input outside what an operation accepts, a malformed
template file or vault byte stream among it, and ``UnlockError`` a vault
decode that came up empty.  The message says which check failed.  The CLI
maps ``UnlockError`` to exit code 1 (authentication failure) and every
other error to exit code 2 (bad input or parameters).
"""


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
    """DomainError naming ``name`` unless ``value`` is an int, not a bool, in [lo, hi]."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an int, not {type(value).__name__}")
    if not lo <= value <= hi:
        raise DomainError(f"{name}={value} must be in [{lo}, {hi}]")
