"""Vault security analysis via exact combinatorics.

An attacker who must find an all-genuine (n+1)-subset among t = r + c
points faces C(t, n+1) / C(r, n+1) expected polynomial reconstructions;
the vault's min-entropy is the log2 of that ratio.  Binomials are kept as
exact integers (C(220, 9) is only ~2.8e15) and converted to bits at the
end, so reported figures carry no accumulated rounding.

Password hardening adds the guessing entropy of the combined password,
taken as the fixed range 18 to 30 bits.  :func:`analyze` returns every
figure at once, as the fields of one :class:`EntropyReport`.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError

# Guessing-entropy bounds, in bits, credited to the combined password.
GUESSING_ENTROPY_BITS = (18.0, 30.0)


def _check_domain(r: int, c: int, n: int) -> None:
    for name, value in (("genuine count r", r), ("chaff count c", c), ("polynomial degree n", n)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainError(f"{name} must be an int, not {type(value).__name__}")
    if n < 0:
        raise DomainError(f"polynomial degree must be non-negative, got {n}")
    if r < n + 1:
        raise DomainError(f"need r >= n + 1 genuine points, got r={r}, n={n}")
    if c < 0:
        raise DomainError(f"chaff count must be non-negative, got {c}")
    if max(r, c) > 0xFFFF or r + c > 1 << 16:  # a header's counts, as in VaultParams
        raise DomainError(f"need r, c <= 65535 and r + c <= 65536 distinct abscissas, "
                          f"got r={r}, c={c}")


class EntropyReport(namedtuple("EntropyReport", "r c t n total_combinations required_combinations "
                                "evaluations min_entropy_bits hardened_range_bits")):
    """One row of the security analysis for a vault shape: t = r + c, the
    binomials C(t, n+1) and C(r, n+1) exact, hardened_range_bits (low, high)."""

    __slots__ = ()

    @property
    def hardened_range_rounded(self) -> tuple[int, int]:
        """Whole-bit presentation: min-entropy rounded, then the password
        bounds added.  This is the form security tables quote."""
        rounded = round(self.min_entropy_bits)
        return (rounded + round(GUESSING_ENTROPY_BITS[0]),
                rounded + round(GUESSING_ENTROPY_BITS[1]))


def analyze(r: int, c: int, n: int) -> EntropyReport:
    """Assemble the full entropy report for a vault shape, computing each
    binomial once."""
    _check_domain(r, c, n)
    total = math.comb(r + c, n + 1)
    required = math.comb(r, n + 1)
    try:
        ratio = total / required
    except OverflowError:
        ratio = math.inf
    bits = math.log2(total) - math.log2(required)  # math.log2 takes ints of any size
    return EntropyReport(
        r=r,
        c=c,
        t=r + c,
        n=n,
        total_combinations=total,
        required_combinations=required,
        evaluations=ratio,
        min_entropy_bits=bits,
        hardened_range_bits=(bits + GUESSING_ENTROPY_BITS[0], bits + GUESSING_ENTROPY_BITS[1]),
    )
