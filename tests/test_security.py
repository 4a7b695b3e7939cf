"""Entropy analysis tests."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from irisvault.errors import DomainError
from irisvault.security import GUESSING_ENTROPY_BITS, analyze


def pascal_binom(n, k):
    """Additive Pascal-row oracle: no multiplication or division anywhere."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


class TestBinom:
    """The report's binomials C(t, n+1) and C(r, n+1), kept exact."""

    def test_known_values(self):
        report = analyze(20, 200, 8)
        assert report.required_combinations == 167960 == pascal_binom(20, 9)
        # Exact value, confirmed by the additive oracle; rounds to
        # 2.8187e15 at five significant figures.
        assert report.total_combinations == 2818651865383860 == pascal_binom(220, 9)
        assert float(f"{report.total_combinations:.4e}") == 2.8187e15
        assert analyze(10, 0, 0).required_combinations == 10

    @given(st.integers(2, 40), st.integers(0, 40), st.integers(1, 8))
    def test_pascal_rule(self, r, c, n):
        # C(t + 1, n + 1) = C(t, n + 1) + C(t, n) for t = r + c.
        if r >= n + 1:
            assert (analyze(r, c + 1, n).total_combinations
                    == analyze(r, c, n).total_combinations + analyze(r, c, n - 1).total_combinations)


class TestMinEntropy:
    def test_reference_shape(self):
        assert abs(analyze(20, 200, 8).min_entropy_bits - 34) <= 0.5

    def test_no_chaff_is_zero(self):
        assert analyze(20, 0, 8).min_entropy_bits == 0.0
        assert analyze(9, 0, 8).min_entropy_bits == 0.0

    def test_tiny_exact(self):
        assert analyze(2, 2, 0).min_entropy_bits == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError, match=r"^genuine count r=8 must be in \[9, 65535\]$"):
            analyze(8, 200, 8)
        with pytest.raises(DomainError, match=r"^chaff count c=-1 must be in \[0, 65535\]$"):
            analyze(20, -1, 8)

    @given(st.integers(9, 40), st.integers(0, 300))
    def test_monotone_in_chaff(self, r, c):
        assert analyze(r, c + 1, 8).min_entropy_bits > analyze(r, c, 8).min_entropy_bits

    @given(st.integers(9, 40), st.integers(1, 300))
    def test_zero_iff_no_chaff(self, r, c):
        assert analyze(r, c, 8).min_entropy_bits > 0.0


class TestEvaluations:
    def test_reference_shape(self):
        assert analyze(20, 200, 8).evaluations == pytest.approx(1.6782e10, rel=1e-3)

    def test_trivial(self):
        assert analyze(20, 0, 8).evaluations == 1.0
        assert analyze(2, 2, 0).evaluations == 2.0

    @given(st.integers(9, 50), st.integers(0, 400), st.integers(0, 8))
    def test_exact_identity(self, r, c, n):
        # evaluations * C(r, n+1) == C(r+c, n+1), checked in exact arithmetic.
        ratio = Fraction(math.comb(r + c, n + 1), math.comb(r, n + 1))
        report = analyze(r, c, n)
        assert report.evaluations == pytest.approx(float(ratio), rel=1e-12)
        assert math.log2(float(ratio)) == pytest.approx(report.min_entropy_bits, abs=1e-9)


class TestHardenedRange:
    def test_reference_shape(self):
        lo, hi = analyze(20, 200, 8).hardened_range_bits
        assert lo == pytest.approx(analyze(20, 200, 8).min_entropy_bits + 18)
        assert hi == pytest.approx(analyze(20, 200, 8).min_entropy_bits + 30)

    def test_no_chaff(self):
        assert analyze(20, 0, 8).hardened_range_bits == (18.0, 30.0)

    @given(st.integers(9, 40), st.integers(0, 200))
    def test_monotone_in_chaff(self, r, c):
        lo1, hi1 = analyze(r, c, 8).hardened_range_bits
        lo2, hi2 = analyze(r, c + 1, 8).hardened_range_bits
        assert lo2 > lo1 and hi2 > hi1


class TestReport:
    def test_fields(self):
        report = analyze(20, 200, 8)
        assert (report.r, report.c, report.t, report.n) == (20, 200, 220, 8)
        assert report.total_combinations == math.comb(220, 9)
        assert report.required_combinations == 167960
        assert report.min_entropy_bits == math.log2(math.comb(220, 9)) - math.log2(167960)
        assert report.hardened_range_rounded == (52, 64)

    def test_rounding_only_presents(self):
        report = analyze(20, 200, 8)
        lo, hi = report.hardened_range_bits
        assert lo == pytest.approx(report.min_entropy_bits + GUESSING_ENTROPY_BITS[0])
        assert hi == pytest.approx(report.min_entropy_bits + GUESSING_ENTROPY_BITS[1])


def test_subset_counting_model_small_instances():
    """The all-genuine-subset probability equals C(r,n+1)/C(t,n+1) exactly."""
    for r, c, n in [(3, 4, 1), (4, 4, 2), (5, 7, 2), (2, 10, 0), (9, 3, 2)]:
        labels = ["genuine"] * r + ["chaff"] * c
        total = 0
        all_genuine = 0
        for subset in combinations(range(r + c), n + 1):
            total += 1
            all_genuine += all(labels[i] == "genuine" for i in subset)
        assert Fraction(all_genuine, total) == Fraction(math.comb(r, n + 1), math.comb(r + c, n + 1))


@pytest.mark.parametrize("args, message", [
    ((20, True, 8), "chaff count c must be an int, not bool"),
    ((20.0, 200, 8), "genuine count r must be an int, not float"),
    ((20, 200, 8.0), "polynomial degree n must be an int, not float"),
    ((False, 200, 0), "genuine count r must be an int, not bool"),
])
def test_shape_must_be_ints(args, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        analyze(*args)


BEYOND_A_HEADER = {
    (65536, 0): r"genuine count r=65536 must be in \[9, 65535\]",
    (20, 65536): r"chaff count c=65536 must be in \[0, 65535\]",
    (100000, 1): r"genuine count r=100000 must be in \[9, 65535\]",
    (65535, 2): r"r \+ c = 65537 points exceed the 65536 distinct abscissas",
    (30000, 35537): r"r \+ c = 65537 points exceed the 65536 distinct abscissas",
}


@pytest.mark.parametrize("r, c", list(BEYOND_A_HEADER))
def test_shape_beyond_a_vault_header(r, c):
    # The bounds of VaultParams, in its words: 16-bit counts, one GF(2^16)
    # abscissa each.
    with pytest.raises(DomainError, match=f"^{BEYOND_A_HEADER[r, c]}$"):
        analyze(r, c, 8)


def test_largest_vault_shape():
    assert analyze(65535, 1, 8).t == 65536
    assert analyze(9, 65527, 8).t == 65536


def test_negative_degree():
    with pytest.raises(DomainError, match=r"^polynomial degree n=-1 must be in \[0, 65534\]$"):
        analyze(20, 200, -1)


def test_beyond_float_range():
    # C(62000, 1001) has thousands of bits: the ratio overflows a float,
    # and the bits come from the exact binomials.
    def log2_binom(t, k):
        return (math.lgamma(t + 1) - math.lgamma(k + 1) - math.lgamma(t - k + 1)) / math.log(2)

    report = analyze(2000, 60000, 1000)
    assert report.total_combinations.bit_length() > 1024
    assert report.evaluations == math.inf
    assert report.min_entropy_bits == pytest.approx(
        log2_binom(62000, 1001) - log2_binom(2000, 1001), abs=1e-6)
