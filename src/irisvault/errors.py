"""Exception hierarchy for the irisvault package.

``IrisVaultError`` is the root; the CLI maps ``UnlockError`` subclasses to
exit code 1 (authentication failure) and everything else to exit code 2
(bad input or parameters).
"""


class IrisVaultError(Exception):
    """Base class for all errors raised by this package."""


class LengthError(IrisVaultError):
    """A byte sequence does not have the required length."""


class EmptyInputError(IrisVaultError):
    """An operation that needs at least one byte received none."""


class ZeroInverseError(IrisVaultError):
    """The zero field element has no multiplicative inverse."""


class InvalidPasswordError(IrisVaultError):
    """A password component violates its structural constraints."""


class InsufficientPointsError(IrisVaultError):
    """A template yields fewer distinct lock units than requested."""


class SpaceExhaustedError(IrisVaultError):
    """The 16-bit abscissa space cannot host the requested point count."""


class DuplicateAbscissaError(IrisVaultError):
    """Interpolation points share an abscissa."""


class DomainError(IrisVaultError):
    """Arguments fall outside an operation's mathematical domain."""


class ParseError(IrisVaultError):
    """A template file is malformed; the message names the offending line."""


class FormatError(IrisVaultError):
    """A vault byte stream has a bad magic, version, or truncated body."""


class PlacementFailed(IrisVaultError):
    """Synthetic point placement exceeded its rejection-sampling cap."""


class UnlockError(IrisVaultError):
    """Base class for the ways a vault decode can come up empty."""


class AuthenticationFailed(UnlockError):
    """The candidates did not decode to a polynomial that enough of them
    agree with, or its payload failed the checksum."""


class InsufficientCandidates(UnlockError):
    """Fewer candidate points matched than a decode needs."""


class SearchExhausted(UnlockError):
    """The cap on decode attempts allowed none."""
