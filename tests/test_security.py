"""Entropy analysis tests."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from irisvault.errors import DomainError
from irisvault.security import (
    GUESSING_ENTROPY_BITS,
    analyze,
    binom,
    evaluations,
    hardened_range,
    min_entropy,
)


def pascal_binom(n, k):
    """Additive Pascal-row oracle: no multiplication or division anywhere."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


class TestBinom:
    def test_known_values(self):
        assert binom(20, 9) == 167960
        assert binom(10, 0) == 1
        # Exact value, confirmed by the additive oracle; rounds to
        # 2.8187e15 at five significant figures.
        assert binom(220, 9) == 2818651865383860
        assert pascal_binom(220, 9) == 2818651865383860
        assert float(f"{binom(220, 9):.4e}") == 2.8187e15
        assert pascal_binom(20, 9) == 167960

    def test_domain(self):
        with pytest.raises(DomainError):
            binom(5, -1)
        with pytest.raises(DomainError):
            binom(5, 6)

    @given(st.integers(0, 60), st.integers(0, 60))
    def test_pascal_rule(self, n, k):
        if 1 <= k <= n:
            assert binom(n + 1, k) == binom(n, k) + binom(n, k - 1)


class TestMinEntropy:
    def test_reference_shape(self):
        assert abs(min_entropy(20, 200, 8) - 34) <= 0.5

    def test_no_chaff_is_zero(self):
        assert min_entropy(20, 0, 8) == 0.0
        assert min_entropy(9, 0, 8) == 0.0

    def test_tiny_exact(self):
        assert min_entropy(2, 2, 0) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            min_entropy(8, 200, 8)
        with pytest.raises(DomainError):
            min_entropy(20, -1, 8)

    @given(st.integers(9, 40), st.integers(0, 300))
    def test_monotone_in_chaff(self, r, c):
        assert min_entropy(r, c + 1, 8) > min_entropy(r, c, 8)

    @given(st.integers(9, 40), st.integers(1, 300))
    def test_zero_iff_no_chaff(self, r, c):
        assert min_entropy(r, c, 8) > 0.0


class TestEvaluations:
    def test_reference_shape(self):
        assert evaluations(20, 200, 8) == pytest.approx(1.6782e10, rel=1e-3)

    def test_trivial(self):
        assert evaluations(20, 0, 8) == 1.0
        assert evaluations(2, 2, 0) == 2.0

    @given(st.integers(9, 50), st.integers(0, 400), st.integers(0, 8))
    def test_exact_identity(self, r, c, n):
        # evaluations * C(r, n+1) == C(r+c, n+1), checked in exact arithmetic.
        ratio = Fraction(binom(r + c, n + 1), binom(r, n + 1))
        assert evaluations(r, c, n) == pytest.approx(float(ratio), rel=1e-12)
        assert math.log2(float(ratio)) == pytest.approx(min_entropy(r, c, n), abs=1e-9)


class TestHardenedRange:
    def test_reference_shape(self):
        lo, hi = hardened_range(20, 200, 8)
        assert lo == pytest.approx(min_entropy(20, 200, 8) + 18)
        assert hi == pytest.approx(min_entropy(20, 200, 8) + 30)

    def test_no_chaff(self):
        assert hardened_range(20, 0, 8) == (18.0, 30.0)

    @given(st.integers(9, 40), st.integers(0, 200))
    def test_monotone_in_chaff(self, r, c):
        lo1, hi1 = hardened_range(r, c, 8)
        lo2, hi2 = hardened_range(r, c + 1, 8)
        assert lo2 > lo1 and hi2 > hi1


class TestReport:
    def test_fields(self):
        report = analyze(20, 200, 8)
        assert (report.r, report.c, report.t, report.n) == (20, 200, 220, 8)
        assert report.total_combinations == binom(220, 9)
        assert report.required_combinations == 167960
        assert report.min_entropy_bits == min_entropy(20, 200, 8)
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
        assert Fraction(all_genuine, total) == Fraction(binom(r, n + 1), binom(r + c, n + 1))


@pytest.mark.parametrize("args, message", [
    ((20, True, 8), "chaff count c must be an int, not bool"),
    ((20.0, 200, 8), "genuine count r must be an int, not float"),
    ((20, 200, 8.0), "polynomial degree n must be an int, not float"),
    ((False, 200, 0), "genuine count r must be an int, not bool"),
])
def test_shape_must_be_ints(args, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        analyze(*args)


def test_negative_degree():
    with pytest.raises(DomainError, match=r"^polynomial degree must be non-negative, got -1$"):
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
