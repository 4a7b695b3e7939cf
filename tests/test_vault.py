"""Fuzzy vault encode/decode tests."""

import hashlib
import importlib.util
import os
import random
import struct
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from irisvault.errors import DomainError, UnlockError
from irisvault.fields import _GF_EXP, GF_ORDER, append_crc
from irisvault.password import CombinedPassword, derive_blocks, mask_secret
from irisvault.templates import synth_template
from irisvault.transform import MinutiaPoint, prune_close, transform_template
from irisvault.vault import (
    POINT_RECORD,
    Vault,
    VaultParams,
    _LANES_MIN,
    _drop_close_pairs,
    _eval_poly_many,
    _rs_decode,
    _scramble,
    _template_units,
    _times_linear,
    build_vault,
    decode_secret,
    decrypt_vault,
    encode_secret,
    encrypt_vault,
    eval_poly,
    generate_chaff,
    interpolate,
    match_candidates,
    open_vault,
    read_vault,
    write_vault,
)

from oracles import (
    drop_close_pairs_oracle,
    eval_poly_oracle,
    generate_chaff_oracle,
    lock_units_oracle,
    match_candidates_oracle,
    root_product_oracle,
    rs_decode_oracle,
    rs_decode_residual_oracle,
)
from portability_check import core_decode, decoder_digest
from vectors import FUZZY, TOKEN, VAULT

coeff_tuples = st.tuples(*[st.integers(0, 0xFFFF)] * 9)
# Grid coordinates with the edges of the 256 x 256 grid drawn often.
grid = st.one_of(st.sampled_from((0, 1, 254, 255)), st.integers(0, 255))


def unit(x: int, y: int) -> int:
    """The lock unit of grid point (x, y)."""
    return x << 8 | y


grid_units = st.builds(unit, grid, grid)
SECRET = bytes.fromhex("00112233445566778899aabbccddeeff")


# The all-zero password translates no point, so with d = 0 the template's
# lock units are those of its raw points.
IDENTITY = CombinedPassword(bytes(8))


def raw_units(points, r):
    return _template_units(points, IDENTITY, VaultParams(r=r, d=0))


def region(points):
    """``(a, b)`` points as big-endian records, the layout of a vault's point
    region, clear or stored, and of generate_chaff's draws."""
    return b"".join(POINT_RECORD.pack(a, b) for a, b in points)


def pairs_of(clear):
    """The ``(a, b)`` points of a clear region, as the oracles take them."""
    return list(POINT_RECORD.iter_unpack(clear))


class TestLockUnits:
    def test_positional_encoding_and_sort(self):
        pts = [MinutiaPoint(1, 2), MinutiaPoint(0, 5)]
        assert raw_units(pts, 9) == lock_units_oracle(pts, 9) == [0x0005, 0x0102]

    def test_duplicates_collapse(self):
        pts = [MinutiaPoint(0, 1), MinutiaPoint(0, 1), MinutiaPoint(0, 2)]
        assert raw_units(pts, 9) == lock_units_oracle(pts, 9) == [0x0001, 0x0002]
        many = [MinutiaPoint(0, y) for y in (9, 1, 1, 8, 2, 7, 3, 6, 4, 5, 5, 0)]
        assert raw_units(many, 9) == lock_units_oracle(many, 9) == list(range(9))

    def test_synthetic_template_matches_plain_sort(self):
        pts = synth_template(11, 20, 4)
        units = raw_units(pts, 20)
        assert units == lock_units_oracle(pts, 20) == sorted(p.x * 256 + p.y for p in pts)
        assert len(units) == 20

    def test_insufficient(self):
        # Short of r is build_vault's error to raise; a query matches with
        # what it has.
        assert raw_units([MinutiaPoint(0, 1)], 9) == [0x0001]

    @pytest.mark.parametrize("x, y", [(300, 5), (5, 256), (-1, 0)])
    def test_point_off_the_grid(self, x, y):
        # (300, 5) would give unit 76805, beyond 16 bits; (5, 256) would
        # alias (6, 0).
        template, vault = make_vault(3)
        bad = template + [MinutiaPoint(x, y)]
        message = rf"^point \({x}, {y}\) outside the 256x256 grid$"
        with pytest.raises(DomainError, match=message):
            build_vault(bad, SECRET, FUZZY, rng=random.Random(0))
        with pytest.raises(DomainError, match=message):
            open_vault(vault, bad, FUZZY)

    def test_point_not_int(self):
        template, vault = make_vault(3)
        bad = [MinutiaPoint(1.5, 2)] + template
        message = r"^point \(1\.5, 2\) must have int coordinates$"
        with pytest.raises(DomainError, match=message):
            build_vault(bad, SECRET, FUZZY, rng=random.Random(0))
        with pytest.raises(DomainError, match=message):
            open_vault(vault, bad, FUZZY)


class TestVaultParams:
    @pytest.mark.parametrize("r, c", [(9, 65527), (20, 65516), (65535, 1)])
    def test_at_most_one_point_per_abscissa(self, r, c):
        assert VaultParams(r=r, c=c).total == GF_ORDER
        with pytest.raises(DomainError,
                           match=r"^r \+ c = 65537 points exceed the 65536 distinct abscissas$"):
            VaultParams(r=r, c=c + 1)


class TestSecretCodec:
    def test_zero_payload(self):
        assert encode_secret(bytes(18)) == (0,) * 9

    def test_repeated_segment(self):
        assert encode_secret(bytes.fromhex("0001" * 9)) == (1,) * 9

    def test_wrong_length(self):
        with pytest.raises(DomainError, match="payload must be 18 bytes"):
            encode_secret(bytes(17))

    NOT_NINE_WORDS = {
        (1, 2): "need 9 coefficients, got 2",
        (0,) * 10: "need 9 coefficients, got 10",
        (70000,) * 9: r"coefficient=70000 must be in \[0, 65535\]",
        (-1,) + (0,) * 8: r"coefficient=-1 must be in \[0, 65535\]",
        (1.5,) * 9: "coefficient must be an int, not float",
    }

    @pytest.mark.parametrize("coeffs", list(NOT_NINE_WORDS))
    def test_decode_not_nine_words(self, coeffs):
        # These once raised struct.error, whose text varies by interpreter.
        with pytest.raises(DomainError, match=f"^{self.NOT_NINE_WORDS[coeffs]}$"):
            decode_secret(coeffs)

    @given(st.binary(min_size=18, max_size=18))
    def test_round_trip(self, payload):
        assert decode_secret(encode_secret(payload)) == payload


# The degrees whose terms _eval_poly_many takes from its byte tables, and
# abscissas with 0 and every bit of both bytes among them.
LINEAR = (1, 2, 4, 8, 16)
SPREAD = [0, 1, 0x80, 0xFF, 0x100, 0x8000, 0xFFFF] + list(range(0x1234, 0x1234 + 7 * 40, 7))


class TestEvalPoly:
    def test_constant(self):
        assert eval_poly((0,) * 8 + (0x1234,), 0xBEEF) == 0x1234

    @given(coeff_tuples)
    def test_at_zero_gives_constant_term(self, coeffs):
        assert eval_poly(coeffs, 0) == coeffs[-1]

    @pytest.mark.parametrize("u", [-1, -0x10000, 0x10000, 70000])
    def test_abscissa_outside_the_field(self, u):
        # log[-1] once wrapped: eval_poly((1, 2, 3), -1) gave 59589.
        with pytest.raises(DomainError, match=rf"^abscissa u={u} must be in \[0, 65535\]$"):
            eval_poly((1, 2, 3), u)

    OUTSIDE_THE_FIELD = {(70000, 1, 2): 70000, (-3, 1, 2): -3, (1, 2, 0x10000): 65536, (1, -1): -1}

    @pytest.mark.parametrize("coeffs", list(OUTSIDE_THE_FIELD))
    @pytest.mark.parametrize("u", [0, 5])
    def test_coefficient_outside_the_field(self, coeffs, u):
        # (70000, 1, 2) once raised IndexError from the log table, and
        # (-3, 1, 2) gave 61507 at 5.
        bad = self.OUTSIDE_THE_FIELD[coeffs]
        with pytest.raises(DomainError, match=rf"^coefficient={bad} must be in \[0, 65535\]$"):
            eval_poly(coeffs, u)

    @pytest.mark.parametrize("u", [0, 1, 5, 0xFFFF])
    def test_empty_polynomial_is_zero_everywhere(self, u):
        # interpolate([]) gives (), the zero polynomial, at u = 0 as elsewhere.
        assert eval_poly(interpolate([]), u) == 0
        assert _eval_poly_many((), [u] * _LANES_MIN) == [0] * _LANES_MIN

    def test_frozen_oracle_value(self):
        # Coefficients drawn once with seed 77; values frozen from the
        # term-by-term oracle.
        coeffs = (0x8165, 0xA6DD, 0x6506, 0x7B21, 0x62E1, 0x3AE9, 0x95AB, 0xF3D5, 0x79C2)
        assert eval_poly(coeffs, 0x0002) == 0xD888
        assert eval_poly(coeffs, 0xBEEF) == 0x13E9

    @given(coeff_tuples, st.integers(0, 0xFFFF))
    @settings(max_examples=50)
    def test_matches_oracle(self, coeffs, u):
        assert eval_poly(coeffs, u) == eval_poly_oracle(coeffs, u)

    # Zero coefficients and abscissas are drawn often, and abscissas repeat.
    # None (the zero polynomial) up to 17 coefficients, so that degree 16
    # joins the byte tables' terms.
    @given(st.lists(st.one_of(st.just(0), st.integers(0, 0xFFFF)), max_size=17),
           st.lists(st.one_of(st.just(0), st.integers(0, 15), st.integers(0, 0xFFFF)),
                    max_size=300))
    @settings(max_examples=200)
    @example([0] * 9, [0, 1, 0xFFFF] * 12)
    # Only the linear terms, of degree 1, 2, 4, 8 (and 16), are zero, then
    # only they are nonzero, at log 65534 for the tables' largest exp index.
    @example([0 if k in LINEAR else 0x1234 + k for k in range(8, -1, -1)], SPREAD)
    @example([_GF_EXP[65534] if k in LINEAR else 0 for k in range(8, -1, -1)], SPREAD)
    @example([0 if k in LINEAR else 0xBEEF ^ k for k in range(16, -1, -1)], SPREAD)
    @example([_GF_EXP[65534] if k in LINEAR else 0 for k in range(16, -1, -1)], SPREAD)
    # Top degrees 9 and 15 are lane terms: the lanes run through the top.
    @example([0xBEEF ^ k for k in range(9, -1, -1)], SPREAD)
    @example([0xBEEF ^ k for k in range(15, -1, -1)], SPREAD)
    @example([0] + [0x1234] * 8, list(range(_LANES_MIN)))
    @example([0x1234] * 9, list(range(1, _LANES_MIN)))
    # At x = exp[21845] the lane's power reaches 3 * 21845 = 65535 for c3,
    # and log c3 = 65534 makes its exp index 131069, the table's last.
    @example([1] * 5 + [_GF_EXP[65534]] + [1] * 3, [_GF_EXP[21845]] * _LANES_MIN + [0])
    # 7 * 56173 = 5 * 65536 + 65531: one fold leaves 65536, and with log c7
    # = 65534 the index would pass the table's end; the second fold gives 1.
    @example([1, _GF_EXP[65534]] + [1] * 7, [_GF_EXP[56173]] * _LANES_MIN)
    def test_lane_kernel_matches_scalar(self, coeffs, xs):
        assert _eval_poly_many(coeffs, xs) == [eval_poly(coeffs, x) for x in xs]


class TestLagrange:
    def test_constant_polynomial(self):
        pts = [(i, 0x0007) for i in range(9)]
        assert interpolate(pts) == (0,) * 8 + (0x0007,)

    @given(coeff_tuples, st.sets(st.integers(0, 0xFFFF), min_size=9, max_size=9))
    @settings(max_examples=200)
    def test_recovers_random_polynomial(self, coeffs, xs):
        pts = [(x, eval_poly(coeffs, x)) for x in sorted(xs)]
        assert interpolate(pts) == coeffs

    @given(st.lists(st.integers(0, 0xFFFF), max_size=40, unique=True), st.data())
    @settings(max_examples=100)
    def test_any_point_count(self, xs, data):
        # k points give the k coefficients of the polynomial of degree
        # below k through them.
        coeffs = tuple(data.draw(st.lists(st.integers(0, 0xFFFF),
                                          min_size=len(xs), max_size=len(xs))))
        assert interpolate([(x, eval_poly_oracle(coeffs, x)) for x in xs]) == coeffs

    def test_duplicate_abscissa(self):
        pts = [(0, 1), (0, 2)] + [(i, 0) for i in range(2, 9)]
        with pytest.raises(DomainError, match="pairwise distinct"):
            interpolate(pts)

    @pytest.mark.parametrize("xs", [[-1, 3], [3, 0x10000], list(range(8)) + [70000]])
    def test_abscissa_outside_the_field(self, xs):
        # [(-1, 2), (3, 4)] once gave a polynomial, through log[-1].
        bad = xs[0] if xs[0] < 0 else xs[-1]
        with pytest.raises(DomainError,
                           match=rf"^interpolation abscissa={bad} must be in \[0, 65535\]$"):
            interpolate([(x, 2) for x in xs])

    @pytest.mark.parametrize("points", [[(1, 70000), (3, 4)], [(1, -5), (3, 4)],
                                        [(0, 0), (1, 0x10000)], [(7, -1)]])
    def test_ordinate_outside_the_field(self, points):
        # [(1, 70000), (3, 4)] once raised IndexError from the log table,
        # and [(1, -5), (3, 4)] gave (63482, -63487).
        [bad] = [y for _, y in points if not 0 <= y <= 0xFFFF]
        with pytest.raises(DomainError,
                           match=rf"^interpolation ordinate={bad} must be in \[0, 65535\]$"):
            interpolate(points)


class Scripted(random.Random):
    """A Random whose randbytes returns the given draws in turn, each of the
    size asked for."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = list(draws)

    def randbytes(self, n):
        assert n == len(self.draws[0])
        return self.draws.pop(0)


def records(pairs):
    """``(a, b)`` points as the records ``a << 16 | b`` that generate_chaff
    returns."""
    return [a << 16 | b for a, b in pairs]


def on_curve(units, poly):
    """The records of the genuine units on the polynomial, in order."""
    return records((u, eval_poly(poly, u)) for u in units)


class TestChaff:
    def test_empty(self):
        poly = encode_secret(bytes(18))
        assert generate_chaff([], poly, 0, random.Random(0)) == []

    def test_count_zero_makes_no_draw(self):
        # The genuine records alone, in the order given, and no randbytes call.
        poly = encode_secret(append_crc(SECRET))
        units = [0x5000, 7, 0, 0xFFFF]
        expect = records((u, eval_poly_oracle(poly, u)) for u in units)
        assert generate_chaff(units, poly, 0, Scripted([])) == expect

    def test_default_scale(self):
        poly = encode_secret(append_crc(SECRET))
        genuine = list(range(1900, -1, -100))
        got = generate_chaff(genuine, poly, 200, random.Random(5))
        assert len(got) == 220
        assert got[:20] == on_curve(genuine, poly)
        assert len({rec >> 16 for rec in got}) == 220

    def test_never_on_curve(self):
        poly = encode_secret(append_crc(SECRET))
        chaff = generate_chaff([], poly, 500, random.Random(6))
        assert all(rec & 0xFFFF != eval_poly(poly, rec >> 16) for rec in chaff)

    @given(st.integers(0, 2**32), st.lists(st.integers(0, 0xFFFF), max_size=60, unique=True),
           st.integers(0, 300), coeff_tuples)
    @settings(max_examples=100, deadline=None)
    def test_rules_hold_for_any_draw(self, seed, genuine, count, poly):
        got = generate_chaff(genuine, poly, count, random.Random(seed))
        assert got[:len(genuine)] == records((u, eval_poly_oracle(poly, u)) for u in genuine)
        chaff = got[len(genuine):]
        assert len(chaff) == count
        abscissas = {rec >> 16 for rec in chaff}
        assert len(abscissas) == count
        assert not abscissas & set(genuine)
        assert all(rec & 0xFFFF != eval_poly_oracle(poly, rec >> 16) for rec in chaff)
        assert generate_chaff(genuine, poly, count, random.Random(seed)) == got

    def test_rejected_pairs_are_drawn_again(self):
        # A genuine abscissa, a point on the curve and a repeated abscissa
        # each cost their whole record, and only the shortfall is drawn again.
        poly = encode_secret(append_crc(SECRET))
        y7, y12 = eval_poly(poly, 7), eval_poly(poly, 12)
        rng = Scripted([struct.pack(">6H", 5, 1, 7, y7, 9, 2), struct.pack(">4H", 9, 3, 11, 4),
                        struct.pack(">2H", 12, y12 ^ 1)])
        assert generate_chaff([5], poly, 3, rng) == on_curve([5], poly) + records(
            [(9, 2), (11, 4), (12, y12 ^ 1)])
        assert rng.draws == []

    def test_one_draw_keeps_every_pair_in_draw_order(self):
        # Distinct abscissas, none taken and every pair off the curve: one
        # randbytes call, and every record kept in draw order.
        poly = encode_secret(append_crc(SECRET))
        pairs = [(a, eval_poly_oracle(poly, a) ^ a) for a in range(100, 300, 5)]
        rng = Scripted([region(pairs)])
        assert generate_chaff([5], poly, len(pairs), rng) == on_curve([5], poly) + records(pairs)
        assert rng.draws == []
        assert generate_chaff_oracle({5}, poly, len(pairs), Scripted([region(pairs)])) == pairs

    def test_one_on_curve_pair_is_drawn_again(self):
        # No repeat and no taken abscissa, but one pair on the curve: that
        # record alone is rejected, and a draw of one record replaces it.
        poly = encode_secret(append_crc(SECRET))
        first = [(a, eval_poly_oracle(poly, a) ^ 1) for a in range(100, 300, 5)]
        first[17] = (first[17][0], eval_poly_oracle(poly, first[17][0]))
        again = [(7, eval_poly_oracle(poly, 7) ^ 2)]
        rng = Scripted([region(first), region(again)])
        got = generate_chaff([5], poly, len(first), rng)
        assert got == on_curve([5], poly) + records(first[:17] + first[18:] + again)
        assert rng.draws == []
        oracle_rng = Scripted([region(first), region(again)])
        assert records(generate_chaff_oracle({5}, poly, len(first), oracle_rng)) == got[1:]

    def test_genuine_units_and_first_draw_share_one_evaluation(self, monkeypatch):
        # The genuine units go through the first draw's kernel call; a
        # rejected record costs a call on the redraw alone.
        poly = encode_secret(append_crc(SECRET))
        sizes = []

        def counted(coeffs, xs):
            sizes.append(len(xs))
            return _eval_poly_many(coeffs, xs)

        monkeypatch.setattr("irisvault.vault._eval_poly_many", counted)
        genuine = list(range(20))
        first = [(a, eval_poly_oracle(poly, a) ^ 1) for a in range(100, 300, 5)]
        first[3] = first[2]
        again = [(400, eval_poly_oracle(poly, 400) ^ 1)]
        rng = Scripted([region(first), region(again)])
        got = generate_chaff(genuine, poly, len(first), rng)
        assert sizes == [20 + len(first), 1]
        assert got == on_curve(genuine, poly) + records(first[:3] + first[4:] + again)

    def test_lane_draw_keeps_first_copy_and_fixes_abscissa_zero(self):
        # One draw long enough for the lane kernel holds abscissa 0 on the
        # curve, then off it, and a free abscissa twice: the record on the
        # curve and the second copy are rejected, and only those two are
        # drawn again.  A lane with x = 0 holds f(1) before its fix-up, so
        # these coefficients (those of test_frozen_oracle_value) must not
        # xor to zero, as SECRET's do.
        poly = (0x8165, 0xA6DD, 0x6506, 0x7B21, 0x62E1, 0x3AE9, 0x95AB, 0xF3D5, 0x79C2)
        c0 = poly[-1]
        filler = [(1000 + i, eval_poly_oracle(poly, 1000 + i) ^ 1) for i in range(_LANES_MIN)]
        first = [(0, c0), (77, 5), (0, c0 ^ 1), (77, 6)] + filler
        again = [(3, eval_poly_oracle(poly, 3) ^ 2), (4, eval_poly_oracle(poly, 4) ^ 2)]
        rng = Scripted([region(first), region(again)])
        chaff = generate_chaff([], poly, len(first), rng)
        assert chaff == records([(77, 5), (0, c0 ^ 1)] + filler + again)
        assert rng.draws == []

    def test_genuine_abscissa_zero_in_a_lane_draw(self):
        # A genuine unit 0 shares the lane kernel's call with the draw, so
        # its ordinate is c0 after the fix-up, and a drawn 0 is taken.
        poly = (0x8165, 0xA6DD, 0x6506, 0x7B21, 0x62E1, 0x3AE9, 0x95AB, 0xF3D5, 0x79C2)
        filler = [(1000 + i, eval_poly_oracle(poly, 1000 + i) ^ 1) for i in range(_LANES_MIN)]
        again = [(3, eval_poly_oracle(poly, 3) ^ 2)]
        rng = Scripted([region([(0, 1)] + filler), region(again)])
        got = generate_chaff([9, 0], poly, len(filler) + 1, rng)
        assert got == records([(9, eval_poly_oracle(poly, 9)), (0, poly[-1])] + filler + again)

    # Genuine lists are sparse, 0 included, or a dense run that leaves few
    # abscissas free, so draws collide and the redraws fall below the lane
    # crossover.
    @given(st.integers(0, 2**32),
           st.one_of(st.lists(st.one_of(st.just(0), st.integers(0, 0xFFFF)), max_size=60,
                              unique=True),
                     st.builds(lambda lo, width: list(range(lo, lo + width)),
                               st.integers(0, 500), st.integers(0, 65_000))),
           st.integers(0, 400), coeff_tuples)
    @settings(max_examples=100, deadline=None)
    def test_matches_pair_by_pair_oracle(self, seed, genuine, count, poly):
        oracle = generate_chaff_oracle(genuine, poly, count, random.Random(seed))
        assert (generate_chaff(genuine, poly, count, random.Random(seed))
                == on_curve(genuine, poly) + records(oracle))

    def test_fills_the_whole_space(self):
        # The last free abscissas are hit rarely, so this shows that the
        # redraw loop ends with every one of the 65,536 taken.
        poly = encode_secret(append_crc(SECRET))
        genuine = sorted(set(range(0, GF_ORDER, 2)) | set(range(1, 60_000, 2)))
        count = GF_ORDER - len(genuine)
        got = generate_chaff(genuine, poly, count, random.Random(9))
        assert got[:len(genuine)] == on_curve(genuine, poly)
        assert sorted(rec >> 16 for rec in got) == list(range(GF_ORDER))
        assert all(rec & 0xFFFF != eval_poly(poly, rec >> 16) for rec in got[len(genuine):])

    def test_space_exhausted(self):
        poly = encode_secret(bytes(18))
        with pytest.raises(DomainError, match="exceed 65536 abscissas"):
            generate_chaff(list(range(100)), poly, 65537 - 100, random.Random(0))

    NOT_A_COUNT = {
        -3: r"chaff count c=-3 must be in \[0, 65535\]",
        2.0: "chaff count c must be an int, not float",
        True: "chaff count c must be an int, not bool",
        None: "chaff count c must be an int, not NoneType",
    }

    @pytest.mark.parametrize("count", list(NOT_A_COUNT))
    def test_count_must_be_an_int_at_least_zero(self, count):
        poly = encode_secret(bytes(18))
        with pytest.raises(DomainError, match=f"^{self.NOT_A_COUNT[count]}$"):
            generate_chaff([], poly, count, random.Random(0))

    NOT_DISTINCT_WORDS = {
        (5, 5): "genuine units must be distinct",
        (3, 9, 3): "genuine units must be distinct",
        (-1,): r"genuine unit=-1 must be in \[0, 65535\]",
        (65536,): r"genuine unit=65536 must be in \[0, 65535\]",
        (7, 0x10000 + 7): r"genuine unit=65543 must be in \[0, 65535\]",
    }

    @pytest.mark.parametrize("genuine", [list(units) for units in NOT_DISTINCT_WORDS])
    def test_genuine_units_must_be_distinct_and_16_bit(self, genuine):
        # Evaluated and emitted as records, a repeat would give two points
        # one abscissa, and a unit past 16 bits would spill into another
        # record's half; a unit 0x10000 + u also aliases u in a record.
        poly = encode_secret(bytes(18))
        with pytest.raises(DomainError, match=f"^{self.NOT_DISTINCT_WORDS[tuple(genuine)]}$"):
            generate_chaff(genuine, poly, 3, Scripted([]))

    @pytest.mark.parametrize("genuine, message", [
        ([5.0], "genuine unit must be an int, not float"),
        ([True], "genuine unit must be an int, not bool"),
        ([3, 9, False], "genuine unit must be an int, not bool"),
    ])
    def test_genuine_units_must_be_ints(self, genuine, message):
        # As in VaultParams: a float once raised TypeError from the table
        # lookup, and True was taken as the unit 1.
        poly = encode_secret(bytes(18))
        with pytest.raises(DomainError, match=f"^{message}$"):
            generate_chaff(genuine, poly, 0, Scripted([]))

    NOT_WORDS = {
        (1, 2, 3, 4, 5, 6, 7, 8, 70000): r"=70000 must be in \[0, 65535\]",
        (0x10000,): r"=65536 must be in \[0, 65535\]",
        (-1, 2): r"=-1 must be in \[0, 65535\]",
        (1, True, 3): " must be an int, not bool",
        (1, 2.0): " must be an int, not float",
        (None,): " must be an int, not NoneType",
    }

    @pytest.mark.parametrize("poly", list(NOT_WORDS))
    def test_polynomial_coefficients_must_be_16_bit_ints(self, poly):
        # A coefficient past 16 bits once spilled into the record's abscissa
        # half: with the first poly below, unit 2's record read back as
        # abscissa 3, and the call returned [70008, 201052, ...].
        with pytest.raises(DomainError, match=f"^polynomial coefficient{self.NOT_WORDS[poly]}$"):
            generate_chaff([1, 2], poly, 3, random.Random(0))


def make_vault(seed=0, params=None, secret=SECRET, cp=FUZZY):
    template = synth_template(seed, 20, 4)
    vault = build_vault(template, secret, cp, params, random.Random(seed))
    return template, vault


@given(st.integers(0, 300), st.integers(0, 2**64))
@settings(max_examples=100)
@example(0, 0)
@example(1, 0)
@example(257, 7)  # a draw of 9 bits below 257 is often rejected
def test_scramble_draws_as_random_shuffle(n, seed):
    points, expect = list(range(n)), list(range(n))
    rng, ref = random.Random(seed), random.Random(seed)
    _scramble(points, rng)
    ref.shuffle(expect)
    assert points == expect
    assert rng.getstate() == ref.getstate()


class TestBuildVault:
    def test_shape(self):
        _, vault = make_vault()
        assert len(vault.records) == 880

    def test_deterministic(self):
        _, a = make_vault(3)
        _, b = make_vault(3)
        assert a == b

    def test_distinct_abscissas_and_genuine_count(self):
        _, vault = make_vault(4)
        clear = decrypt_vault(vault, FUZZY)
        assert type(clear) is bytes and len(clear) == 880
        points = pairs_of(clear)
        assert len({a for a, _ in points}) == 220
        payload = append_crc(mask_secret(SECRET, FUZZY))
        poly = encode_secret(payload)
        on_curve = sum(1 for a, b in points if eval_poly(poly, a) == b)
        assert on_curve == 20

    def test_secret_must_be_bytes_like(self):
        # Once a bare TypeError from int.from_bytes in mask_secret.
        template = synth_template(0, 20, 4)
        with pytest.raises(DomainError, match="^secret must be bytes-like, not str$"):
            build_vault(template, "x" * 16, FUZZY, rng=random.Random(0))

    def test_insufficient_template(self):
        template = synth_template(0, 5, 4)
        with pytest.raises(DomainError, match="insufficient points"):
            build_vault(template, SECRET, FUZZY, rng=random.Random(0))

    def test_default_rng_draws_a_fresh_vault(self):
        template = synth_template(16, 20, 4)
        a = build_vault(template, SECRET, FUZZY)
        b = build_vault(template, SECRET, FUZZY)
        assert a != b
        assert open_vault(a, template, FUZZY) == open_vault(b, template, FUZZY) == SECRET

    def test_template_point_off_the_grid(self):
        # The quadrant wrap would fold (300, 5) back onto the grid, so the
        # raw template is checked before it is transformed.
        template = synth_template(0, 20, 4) + [MinutiaPoint(300, 5)]
        with pytest.raises(DomainError, match=r"^point \(300, 5\) outside the 256x256 grid$"):
            build_vault(template, SECRET, FUZZY, rng=random.Random(0))

    def test_any_nine_genuine_points_interpolate_back(self):
        _, vault = make_vault(15)
        clear = decrypt_vault(vault, FUZZY)
        poly = encode_secret(append_crc(mask_secret(SECRET, FUZZY)))
        genuine = [(a, b) for a, b in pairs_of(clear) if eval_poly(poly, a) == b]
        assert len(genuine) == 20
        rng = random.Random(15)
        for _ in range(20):
            subset = rng.sample(genuine, 9)
            assert interpolate(subset) == poly

    def test_cipher_round_trip_preserves_content(self):
        _, vault = make_vault(5)
        clear = decrypt_vault(vault, FUZZY)
        assert encrypt_vault(vault.params, clear, FUZZY) == vault
        # Ciphertext actually differs from plaintext.
        assert vault.records != clear

    @given(st.binary(min_size=8, max_size=8),
           st.lists(st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)),
                    min_size=9, max_size=300).flatmap(lambda pairs: st.tuples(st.builds(
                        lambda r, d, epsilon: VaultParams(r, len(pairs) - r, d, epsilon),
                        st.integers(9, len(pairs)), st.integers(0, 255), st.integers(0, 255)),
                        st.just(pairs))))
    @example(bytes(8), (VaultParams(r=21), [(0, 0)] * 221))
    def test_ifv2_records_are_shake_keystream(self, password, case):
        # hashlib's SHAKE-128 comes from OpenSSL where the package's may not,
        # so this also checks that the two agree.  The params split the
        # points between r and c: encrypt_vault refuses a region of another size.
        params, pairs = case
        cp = CombinedPassword(password)
        header = struct.pack(">4sBBHHBBI", b"IFV2", 2, 8, params.r, params.c,
                             params.d, params.epsilon, 0)
        stream = hashlib.shake_128(header + password).digest(4 * len(pairs))
        clear = b"".join(struct.pack(">HH", *p) for p in pairs)
        vault = encrypt_vault(params, clear, cp)
        assert vault.records == bytes(x ^ k for x, k in zip(clear, stream))
        assert decrypt_vault(vault, cp) == clear

    @given(st.binary(min_size=8, max_size=8), st.integers(9, 300),
           st.integers(0, 300).flatmap(lambda n: st.binary(min_size=4 * n, max_size=4 * n)))
    @example(bytes(8), 20, bytes(range(256)) * 3 + bytes(12))
    def test_decrypt_is_the_xored_records(self, password, r, records):
        # Any stored records, not only encrypt_vault's: the clear region is
        # records xor keystream, byte for byte, whatever the host's byte order.
        params = VaultParams(r=r, c=len(records) // 4)
        header = struct.pack(">4sBBHHBBI", b"IFV2", 2, 8, r, params.c, 4, 0, 0)
        stream = hashlib.shake_128(header + password).digest(len(records))
        clear = decrypt_vault(Vault(params, records), CombinedPassword(password))
        assert type(clear) is bytes
        assert clear == bytes(x ^ k for x, k in zip(records, stream))


# Templates on the whole grid, or crowded into a 16 x 16 corner, where the
# prune acts on most of them.
crowded = st.integers(0, 15)
templates = st.one_of(st.lists(st.builds(MinutiaPoint, grid, grid), max_size=40),
                      st.lists(st.builds(MinutiaPoint, crowded, crowded), max_size=40))


def points_at(*xys):
    return [MinutiaPoint(x, y) for x, y in xys]


@given(templates, st.binary(min_size=8, max_size=8), st.integers(9, 30),
       st.one_of(st.integers(0, 8), st.integers(0, 255)))
# With the zero password, which moves no point: a close pair whose first
# point in template order sorts second; a chain where (20, 20) prunes
# (20, 23), which no longer prunes (20, 26); a repeated point with no other
# close pair, at d = 4 and at d = 0.
@example(points_at((10, 12), (10, 10), (90, 90)), bytes(8), 9, 4)
@example(points_at((20, 20), (20, 23), (20, 26)), bytes(8), 9, 4)
@example(points_at((5, 5), (100, 100), (5, 5)), bytes(8), 9, 4)
@example(points_at((5, 5), (100, 100), (5, 5)), bytes(8), 9, 0)
@settings(max_examples=200)
def test_template_units_compose_transform_prune_and_lock(template, password, r, d):
    cp, params = CombinedPassword(password), VaultParams(r=r, d=d)
    ready = prune_close(transform_template(template, derive_blocks(cp)), d)
    units = _template_units(template, cp, params)
    assert units == lock_units_oracle(ready, r)
    # Pruned at d, no two lock units are closer than d: open_vault's
    # candidate order relies on it.
    for i, u in enumerate(units):
        for v in units[i + 1:]:
            dx, dy = (u >> 8) - (v >> 8), (u & 0xFF) - (v & 0xFF)
            assert dx * dx + dy * dy >= d * d
    if len(units) < r:
        with pytest.raises(DomainError) as got:
            build_vault(template, SECRET, cp, params, random.Random(0))
        assert str(got.value) == (f"insufficient points: template yields {len(units)} "
                                  f"distinct lock units, need {r}")


def test_only_points_with_a_close_neighbour_are_pruned(monkeypatch):
    # The benchmark's enrolment shape: 20 points drawn 4 apart, under
    # (FUZZY, VAULT, TOKEN)[u % 3], gives prune_close no point.  Under every
    # password, one of the 300 has a close pair, which the quadrant wrap
    # makes: prune_close gets those two points and no other.
    seen = []
    prune = prune_close
    monkeypatch.setattr("irisvault.vault.prune_close",
                        lambda points, d: seen.append(list(points)) or prune(points, d))
    rotation = (FUZZY, VAULT, TOKEN)
    for u in range(100):
        _template_units(synth_template(u, 20, 4), rotation[u % 3], VaultParams())
    assert sum(map(len, seen)) == 0
    for u in range(100):
        for cp in rotation:
            _template_units(synth_template(u, 20, 4), cp, VaultParams())
    assert seen == [points_at((247, 127), (247, 128))]
    template = synth_template(17, 20, 4)
    units = _template_units(template, VAULT, VaultParams(r=20))
    assert units == lock_units_oracle(prune(transform_template(
        template, derive_blocks(VAULT)), 4), 20)
    assert len(units) == 19


class TestMatchCandidates:
    def test_exact_units_select_genuine(self):
        template, vault = make_vault(7)
        clear = decrypt_vault(vault, FUZZY)
        payload = append_crc(mask_secret(SECRET, FUZZY))
        poly = encode_secret(payload)
        genuine = sorted((a, b) for a, b in pairs_of(clear) if eval_poly(poly, a) == b)
        assert len(genuine) == 20
        hits = match_candidates(clear, [a for a, _ in genuine], epsilon=0)
        assert hits == genuine

    def test_empty_query(self):
        _, vault = make_vault(8)
        assert match_candidates(decrypt_vault(vault, FUZZY), [], 0) == []

    def test_perturbed_unit_within_epsilon(self):
        clear = region(((10 + i) << 8 | 100, i) for i in range(9))
        # Query unit decodes to (12, 101): distance 1 from vault point (12, 100).
        hits = match_candidates(clear, [12 << 8 | 101], epsilon=2)
        assert (12 << 8 | 100, 2) in hits
        assert match_candidates(clear, [12 << 8 | 101], epsilon=0) == []

    @given(st.lists(grid_units, max_size=80), st.lists(grid_units, max_size=25),
           st.sampled_from((0, 1, 2, 3, 8, 40, 254, 255)))
    @settings(max_examples=300, deadline=None)
    # Discs that cross y = 0 and y = 255, into the padding bits on both sides.
    @example([unit(100, y) for y in (0, 1, 11, 12, 243, 244, 255)]
             + [unit(99, 0), unit(101, 255), unit(101, 0), unit(99, 255)],
             [unit(100, 3), unit(100, 252)], 8)
    # Discs that cross rows x < 0 and x > 255, which must not wrap round the grid.
    @example([unit(x, y) for x in (0, 1, 2, 3, 252, 253, 254, 255) for y in (50, 200)],
             [unit(0, 50), unit(255, 200)], 3)
    # Epsilon 255 from (0, 0) reaches (255, 0) and (180, 180) but not (180, 181).
    @example([unit(x, y) for x, y in ((255, 0), (0, 255), (180, 180), (180, 181),
                                      (255, 255), (128, 128), (0, 0))],
             [unit(0, 0)], 255)
    # Units on the first and the last column at epsilon 255: the full reach of
    # padding on both sides, in rows and in bits.
    @example([unit(x, y) for x in (0, 1, 127, 128, 254, 255) for y in (0, 1, 254, 255)],
             [unit(0, 0), unit(255, 255), unit(0, 200), unit(255, 60)], 255)
    # One abscissa twice, ordinates descending: only a stable sort on the
    # abscissa alone keeps the list order.
    @example([unit(5, 5), unit(5, 5), unit(3, 3)], [unit(5, 5), unit(3, 3)], 0)
    @example([unit(5, 5), unit(5, 5), unit(3, 3)], [unit(5, 6), unit(3, 3)], 1)
    def test_agrees_with_brute_force_scan(self, abscissas, query, epsilon):
        # Ordinates descend along the list, so ties on the abscissa are told apart.
        clear = region((a, len(abscissas) - i) for i, a in enumerate(abscissas))
        assert (match_candidates(clear, query, epsilon)
                == match_candidates_oracle(pairs_of(clear), query, epsilon))

    @given(st.lists(grid_units, min_size=1, max_size=6).flatmap(lambda pool: st.tuples(
               st.lists(st.tuples(st.sampled_from(pool), st.integers(0, 0xFFFF)), max_size=60),
               st.lists(st.one_of(st.sampled_from(pool), grid_units), max_size=8))),
           st.sampled_from((0, 1, 3, 8)))
    @settings(max_examples=200, deadline=None)
    def test_repeated_abscissas_agree_with_oracle(self, case, epsilon):
        # Records drawn from a few abscissas, so most repeat: every copy a
        # query reaches comes back, in record order among equal abscissas.
        points, query = case
        clear = region(points)
        hits = match_candidates(clear, query, epsilon)
        assert hits == match_candidates_oracle(points, query, epsilon)
        assert all(type(p) is tuple and len(p) == 2 for p in hits)

    def test_shared_wanted_abscissa_returns_both_and_open_drops_both(self, monkeypatch):
        # Eleven genuine records and a second record at the fourth one's
        # abscissa: both copies match at epsilon 0, in record order, and
        # open_vault decodes the other ten.
        cp = CombinedPassword(bytes(8))
        poly = encode_secret(append_crc(mask_secret(SECRET, cp)))
        abscissas = [unit(20 * i + 5, (40 * i + 7) % 256) for i in range(11)]
        points = [(a, eval_poly(poly, a)) for a in abscissas]
        twin = (abscissas[3], points[3][1] ^ 1)
        clear = region(points + [twin])
        hits = match_candidates(clear, abscissas, 0)
        assert hits == sorted(points)[:4] + [twin] + sorted(points)[4:]
        seen = []
        decode = _rs_decode
        monkeypatch.setattr("irisvault.vault._rs_decode",
                            lambda candidates, spare: seen.append(list(candidates))
                            or decode(candidates, spare))
        vault = encrypt_vault(VaultParams(r=12, c=0, d=0, epsilon=0), clear, cp)
        query = [MinutiaPoint(a >> 8, a & 0xFF) for a in abscissas]
        assert open_vault(vault, query, cp) == SECRET
        [candidates] = seen
        assert candidates == [p for p in sorted(points) if p[0] != abscissas[3]]

    # epsilon is the vault header's byte, checked in VaultParams' words.
    @pytest.mark.parametrize("query, epsilon, message", [
        ([unit(3, 3)], float("inf"), "epsilon must be an int, not float"),
        ([unit(3, 3)], float("nan"), "epsilon must be an int, not float"),
        ([-1], 2, r"query unit=-1 must be in \[0, 65535\]"),
        ([unit(3, 3), 65536], 2, r"query unit=65536 must be in \[0, 65535\]"),
        ([unit(3, 3)], -2, r"epsilon=-2 must be in \[0, 255\]"),
        ([unit(3, 3)], -0.5, "epsilon must be an int, not float"),
        ([unit(3, 3)], -0.0, "epsilon must be an int, not float"),
        ([unit(3, 3)], 2.5, "epsilon must be an int, not float"),
        ([unit(3, 3)], True, "epsilon must be an int, not bool"),
        ([unit(3, 3)], 256, r"epsilon=256 must be in \[0, 255\]"),
        # A unit that is not an int once raised TypeError from u >> 8.
        ([1.5], 2, "query unit must be an int, not float"),
        # At epsilon 0 the set lookup once took 3.0 as unit 3, and True
        # passed as unit 1 at epsilon 0 and 2 alike.
        ([3.0], 0, "query unit must be an int, not float"),
        ([True], 0, "query unit must be an int, not bool"),
        ([True], 2, "query unit must be an int, not bool"),
        ([unit(3, 3), False], 2, "query unit must be an int, not bool"),
        ([unit(3, 3), "7"], 0, "query unit must be an int, not str"),
    ])
    def test_domain(self, query, epsilon, message):
        # Unit -1 decodes to (-1, 255), off the grid; a unit further below 0
        # would index the padded row table from its far end.
        with pytest.raises(DomainError, match=message):
            match_candidates(region([(unit(0, 255), 1), (unit(3, 3), 2)]), query, epsilon)

    @given(st.lists(grid_units, max_size=60), st.lists(grid_units, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_disc_memo_agrees_with_oracle_across_epsilons(self, abscissas, query):
        # One disc table per epsilon, built on first use and kept: calls at
        # epsilons in turn, each repeated, must each match the brute-force scan.
        clear = region((a, i) for i, a in enumerate(abscissas))
        for epsilon in (8, 2, 8, 0, 255, 1, 2):
            assert (match_candidates(clear, query, epsilon)
                    == match_candidates_oracle(pairs_of(clear), query, epsilon))

    @pytest.mark.parametrize("size", [1, 2, 6, 7, 882])
    @pytest.mark.parametrize("epsilon", [0, 2])
    def test_domain_partial_record(self, size, epsilon):
        # A region cut inside a record; three words once raised IndexError
        # from the last record's missing ordinate.
        clear = region([(unit(3, 3), 2)] * 221)[:size]
        with pytest.raises(DomainError, match=rf"^clear region of {size} bytes "
                                              r"is not whole 4-byte records$"):
            match_candidates(clear, [unit(3, 3)], epsilon)

    @pytest.mark.parametrize("clear", [[0x0305, 7, 0x0102, 9], (0x0305, 7, 0x0102, 9), "\x03\x05\x00\x07"])
    def test_domain_clear_not_bytes_like(self, clear):
        # Words in a list or tuple were once read as the region's words, and
        # matched the wrong points without an error.
        with pytest.raises(DomainError, match=rf"^clear region must be bytes-like, "
                                              rf"not {type(clear).__name__}$"):
            match_candidates(clear, [unit(3, 5)], 0)

    @pytest.mark.parametrize("wrap", [bytearray, memoryview, lambda b: array("I", b)])
    def test_any_bytes_like_region(self, wrap):
        # The region is read as bytes whatever its item size.
        clear = region([(unit(3, 5), 7), (unit(1, 2), 9)])
        assert match_candidates(wrap(clear), [unit(3, 5)], 0) == [(unit(3, 5), 7)]
        assert match_candidates(wrap(clear), [unit(3, 4)], 1) == [(unit(3, 5), 7)]


def corrupt(points, where, deltas):
    out = list(points)
    for i, delta in zip(where, deltas):
        out[i] = (out[i][0], out[i][1] ^ delta)
    return out


@st.composite
def noisy_codewords(draw, extra_errors):
    """A random degree-8 polynomial and its values at m distinct abscissas,
    with floor((m - 9) / 2) + extra_errors of the ordinates changed; with
    extra_errors 0, any number of them up to floor((m - 9) / 2)."""
    coeffs = draw(coeff_tuples)
    m = draw(st.integers(9, 60))
    xs = draw(st.lists(st.integers(0, 0xFFFF), min_size=m, max_size=m, unique=True))
    radius = (m - 9) // 2
    errors = radius + extra_errors if extra_errors else draw(st.integers(0, radius))
    where = draw(st.lists(st.integers(0, m - 1), min_size=errors, max_size=errors,
                          unique=True))
    deltas = draw(st.lists(st.integers(1, 0xFFFF), min_size=errors, max_size=errors))
    points = [(x, eval_poly_oracle(coeffs, x)) for x in xs]
    return coeffs, corrupt(points, where, deltas)


@st.composite
def candidate_sets(draw, max_m):
    """m = 9..max_m candidates with distinct abscissas, 0 and small ones
    often among them: either on a polynomial of any degree up to 8, zero
    included, with any number of the ordinates changed, or with every
    ordinate random."""
    m = draw(st.integers(9, max_m))
    xs = draw(st.lists(st.one_of(st.integers(0, 15), st.integers(0, 0xFFFF)),
                       min_size=m, max_size=m, unique=True))
    if draw(st.booleans()):
        return [(x, draw(st.integers(0, 0xFFFF))) for x in xs]
    coeffs = draw(st.tuples(*[st.one_of(st.just(0), st.integers(0, 0xFFFF))] * 9))
    where = draw(st.lists(st.integers(0, m - 1), max_size=m, unique=True))
    deltas = draw(st.lists(st.integers(1, 0xFFFF), min_size=len(where), max_size=len(where)))
    return corrupt([(x, eval_poly_oracle(coeffs, x)) for x in xs], where, deltas)


SPARSE = (7, 0, 0, 0, 0, 0, 0, 1, 0x1234)


def sparse_points(xs, off=()):
    """SPARSE's points at ``xs``, with the ordinates at positions ``off``
    moved off the curve."""
    return corrupt([(x, eval_poly_oracle(SPARSE, x)) for x in xs], off, [1] * len(off))


class TestRsDecode:
    def test_errors_among_the_first_nine(self):
        # The first nine candidates' interpolant is wrong, so the decode
        # must go through Euclid: 20 points correct up to 5 errors.
        coeffs = (7, 0, 0, 0, 0, 0, 0, 1, 0x1234)
        points = [(x, eval_poly_oracle(coeffs, x)) for x in range(1, 21)]
        assert _rs_decode(corrupt(points, range(5), [1] * 5)) == coeffs
        assert _rs_decode(corrupt(points, range(6), [1] * 6)) != coeffs

    @given(noisy_codewords(extra_errors=0), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_corrects_up_to_half_the_redundancy(self, case, rnd):
        coeffs, points = case
        rnd.shuffle(points)
        assert _rs_decode(points) == coeffs

    @given(noisy_codewords(extra_errors=1))
    @settings(max_examples=100, deadline=None)
    def test_beyond_the_radius_only_a_majority_polynomial(self, case):
        coeffs, points = case
        got = _rs_decode(points)
        assert got != coeffs
        if got is not None:
            need = (len(points) + 10) // 2
            assert sum(eval_poly_oracle(got, x) == y for x, y in points) >= need

    def test_golden_decodes_in_both_orders(self):
        # The answers on the 400 fixed candidate sets, as drawn and sorted,
        # hash to GOLDEN_DECODES, and the core decode's to GOLDEN_CORE_DECODES
        # at d = 4 and to GOLDEN_CORE_DECODES_D2 at d = 2.
        assert decoder_digest(400)

    @given(st.lists(st.one_of(st.just(0), st.integers(0, 0xFFFF)), min_size=1, max_size=60,
                    unique=True))
    @settings(deadline=None)
    def test_root_product_agrees_with_oracle(self, roots):
        prod = [1]
        for a in roots:
            _times_linear(prod, a)
        assert prod == root_product_oracle(roots)

    @given(candidate_sets(max_m=13))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_every_nine_subset_oracle(self, points):
        assert _rs_decode(points) == rs_decode_oracle(points)

    @given(candidate_sets(max_m=60), st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    # Abscissa 0 among the first nine, as the one error of the zero polynomial,
    # so Euclid must find it; then as a later candidate on it, and as the spare
    # point that gives it the agreement; then later, off the line h = x; then
    # nine zeros, m = 9.
    @example([(0, 5)] + [(x, 0) for x in range(1, 20)], 0)
    @example([(x, 0) for x in range(1, 10)] + [(0, 0)] + [(x, 1) for x in range(10, 20)], 0)
    @example([(x, 0) for x in range(1, 13)] + [(x, 1) for x in range(13, 16)]
             + [(0, 0), (40, 0)], 2)
    @example([(x, x) for x in range(1, 10)] + [(0, 7)] + [(x, 0) for x in range(10, 22)], 3)
    @example([(x, 0) for x in range(9)], 0)
    # The spare points settle h: two of four on it, abscissa 0 among them,
    # then one; then, after Euclid, one of four, then none.
    @example(sparse_points(list(range(1, 11)) + [0, 40, 41, 42], off=(12, 13)), 4)
    @example(sparse_points(list(range(1, 11)) + [0, 40, 41, 42], off=(11, 12, 13)), 4)
    @example(sparse_points(list(range(1, 16)) + [0, 40, 41, 42], off=(2, 5, 16, 17, 18)), 4)
    @example(sparse_points(list(range(1, 16)) + [0, 40, 41, 42], off=(2, 5, 15, 16, 17, 18)), 4)
    def test_agrees_with_residual_oracle(self, points, spare_count):
        # The residues come from the first nine's Newton table; the oracle
        # evaluates h by Horner and W(a) as a product, on its own tables.
        split = max(9, len(points) - spare_count)
        candidates, spare = points[:split], points[split:]
        assert _rs_decode(candidates, spare) == rs_decode_residual_oracle(candidates, spare)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_order_gives_the_same_answer(self, data):
        # Gao runs on the residual from the first nine candidates' interpolant,
        # so which nine come first changes every step but not the answer.
        points = data.draw(candidate_sets(max_m=60))
        assert _rs_decode(data.draw(st.permutations(points))) == _rs_decode(points)

    @pytest.mark.parametrize("zeros, expect", [(15, (0,) * 9), (14, None)])
    def test_euclid_remainder_reaches_zero(self, zeros, expect):
        # The nonzero ordinates sit on the lowest abscissas, so the first
        # nine are off the zero polynomial and Gao runs on the residual from
        # their interpolant h.  With 15 zeros, the zero polynomial agrees
        # with the 15 candidates m = 20 needs and is h plus Gao's answer,
        # not a zero remainder: that would need ceil((m - 9) / 2) later
        # candidates on h, and the scan returns h first.  With 14 it falls
        # one short.
        points = [(x, 0x1234 if x <= 20 - zeros else 0) for x in range(1, 21)]
        assert _rs_decode(points) == expect

    def test_ten_candidates_one_off_the_curve(self):
        # At m = 10 no error is correctable: whether the bad point is among
        # the first nine or is the tenth, no polynomial agrees with all ten.
        # Gao then runs on one later residual, a constant T, takes no
        # Euclid step and rejects because deg r = deg v = 0.
        coeffs = (7, 0, 0, 0, 0, 0, 0, 1, 0x1234)
        points = [(x, eval_poly_oracle(coeffs, x)) for x in range(10)]
        assert _rs_decode(points) == coeffs
        for bad in (0, 3, 9):
            assert _rs_decode(corrupt(points, [bad], [1])) is None

    @pytest.mark.parametrize("on_curve, expect", [(2, True), (1, False)])
    def test_spare_points_count_on_the_nine_point_path(self, on_curve, expect):
        # Ten candidates on the polynomial and four spare, of M = 14 that
        # need 12 agreements: h has ten, so two spare must be on it.  With
        # one, h goes through every candidate and Gao has nothing to fix.
        coeffs = (7, 0, 0, 0, 0, 0, 0, 1, 0x1234)
        points = [(x, eval_poly_oracle(coeffs, x)) for x in range(1, 15)]
        spare = corrupt(points[10:], range(4 - on_curve), [1] * 4)
        assert _rs_decode(points[:10], spare) == (coeffs if expect else None)
        assert _rs_decode(points[:10] + spare) == (coeffs if expect else None)

    @pytest.mark.parametrize("on_curve, expect", [(1, True), (0, False)])
    def test_spare_points_checked_after_euclid(self, on_curve, expect):
        # Fifteen candidates with two errors among the first nine, so only
        # Euclid finds the polynomial, with 13 agreements; M = 19 needs 14,
        # so one of the four spare points must be on it.
        coeffs = (7, 0, 0, 0, 0, 0, 0, 1, 0x1234)
        points = [(x, eval_poly_oracle(coeffs, x)) for x in range(1, 20)]
        candidates = corrupt(points[:15], (2, 5), (1, 1))
        spare = corrupt(points[15:], range(4 - on_curve), [1] * 4)
        assert _rs_decode(candidates) == coeffs
        assert _rs_decode(candidates, spare) == (coeffs if expect else None)
        assert _rs_decode(candidates + spare) == (coeffs if expect else None)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_spare_decode_is_the_all_candidates_answer_or_none(self, data):
        # The spare points only count, so the decode finds nothing the rule
        # over all M would reject, and it finds that rule's polynomial
        # whenever it agrees with ceil((m + 9) / 2) of the m candidates.
        points = data.draw(candidate_sets(max_m=40))
        split = data.draw(st.integers(9, len(points)))
        candidates, spare = points[:split], points[split:]
        every = _rs_decode(points)
        got = _rs_decode(candidates, spare)
        assert got is None or got == every
        if every is not None:
            agree = sum(eval_poly_oracle(every, x) == y for x, y in candidates)
            if 2 * agree >= len(candidates) + 9:
                assert got == every


@st.composite
def pruned_candidates(draw):
    """A polynomial, d, and the sorted candidates of a vault whose genuine
    units lie pairwise at least d apart, as pruning leaves them: genuine
    points, then chaff off the polynomial, some of it within d of a genuine
    point, with every abscissa distinct."""
    coeffs = draw(coeff_tuples)
    d = draw(st.integers(1, 8))
    units = draw(st.lists(grid_units, min_size=9, max_size=24, unique=True))
    kept = prune_close([MinutiaPoint(u >> 8, u & 0xFF) for u in units], d)
    genuine = [unit(*p) for p in kept]
    near = st.sampled_from(genuine).flatmap(lambda g: st.tuples(
        st.just(g), st.integers(-d + 1, d - 1), st.integers(-d + 1, d - 1)))
    offsets = draw(st.lists(near, max_size=8))
    chaff = []
    for g, dx, dy in offsets:
        x, y = (g >> 8) + dx, (g & 0xFF) + dy
        if 0 <= x < 256 and 0 <= y < 256 and dx * dx + dy * dy < d * d:
            chaff.append(unit(x, y))
    chaff += draw(st.lists(grid_units, max_size=8))
    points = {a: eval_poly_oracle(coeffs, a) for a in genuine}
    for a in chaff:
        if a not in points:
            points[a] = eval_poly_oracle(coeffs, a) ^ draw(st.integers(1, 0xFFFF))
    return coeffs, d, sorted(points.items())


class TestDropClosePairs:
    """The one pass open_vault makes before decoding, at every epsilon: it
    drops every copy of a repeated abscissa, then sets aside the close
    pairs, whose points the decoder counts only after the core's."""

    def test_conflict_free_list_comes_back_unchanged(self):
        points = [(unit(x, (7 * x) % 256), x) for x in range(0, 250, 10)]
        assert _drop_close_pairs(points, 4) == (points, [])

    def test_close_pair_goes_last_in_abscissa_order(self):
        # (30, 50) and (31, 52) lie sqrt(5) apart, closer than 4.
        points = [(unit(10, 10), 1), (unit(30, 50), 2), (unit(31, 52), 3),
                  (unit(60, 0), 4), (unit(90, 9), 5)]
        assert _drop_close_pairs(points, 4) == ([points[i] for i in (0, 3, 4)],
                                                [points[1], points[2]])

    def test_chain_of_three_keeps_the_third(self):
        # (40, 40), (41, 41), (42, 42): the first pairs with the second, and
        # the third, close only to the second, stays in the core.  Of the
        # four in a row, the pairs are the first two and the last two.
        chain3 = [(unit(40 + i, 40 + i), i) for i in range(3)]
        assert _drop_close_pairs(chain3, 2) == (chain3[2:], chain3[:2])
        chain4 = [(unit(40 + 2 * i, 40), i) for i in range(4)]
        assert _drop_close_pairs(chain4, 3) == ([], chain4)

    def test_pairs_with_the_first_close_candidate_not_yet_dropped(self):
        # (10, 54) is 4 from (10, 50), not closer than 3, but close to
        # (11, 52), which (10, 50) takes first, and to (11, 56), which it
        # takes instead; (90, 90) is far from all.
        points = [(unit(x, y), i) for i, (x, y) in
                  enumerate([(10, 50), (10, 54), (11, 52), (11, 56), (90, 90)])]
        assert _drop_close_pairs(points, 3) == ([points[4]], [points[i] for i in (0, 2, 1, 3)])

    # Each list holds a point far from the rest, which would move ahead of
    # them if they moved.
    @pytest.mark.parametrize("points, d", [
        # A 3-4-5 triangle, then a step along x and one along y.
        ([(10, 10), (13, 14), (18, 14), (18, 19), (90, 90)], 5),
        # Fewer than d << 8 abscissas apart, yet d columns on: the scan
        # compares them and keeps both.
        ([(20, 200), (24, 197), (90, 90)], 4),
        # Steps of d at the grid's corners.
        ([(0, 0), (0, 4), (4, 4), (128, 128), (255, 251), (255, 255)], 4),
    ])
    def test_pair_exactly_d_apart_stays(self, points, d):
        points = [(unit(x, y), i) for i, (x, y) in enumerate(points)]
        assert _drop_close_pairs(points, d) == (points, [])

    def test_zero_moves_nothing(self):
        # Neighbouring cells: at d = 0 and 1 no pair is closer than d, at 2
        # the diagonal one is.
        points = [(unit(5, 5), 1), (unit(5, 6), 2), (unit(6, 5), 3), (unit(6, 6), 4)]
        assert _drop_close_pairs(points, 0) == (points, [])
        assert _drop_close_pairs(points, 1) == (points, [])
        far = (unit(9, 0), 5)
        assert _drop_close_pairs([points[0], points[3], far], 2) == ([far], [points[0], points[3]])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_brute_force_oracle(self, data):
        points = sorted(data.draw(candidate_sets(max_m=60)))
        if data.draw(st.booleans()):  # crowded into four grid columns
            points = sorted({a & 0x3FF: b for a, b in points}.items())
        # Some abscissas two or three times, the copies with any ordinate,
        # as a wrong key decrypts them: every copy goes before pairing.
        again = data.draw(st.lists(st.sampled_from(points), max_size=6, unique=True))
        copies = [(a, data.draw(st.integers(0, 0xFFFF)))
                  for a, _ in again for _ in range(data.draw(st.integers(1, 2)))]
        points = sorted(points + copies)
        seen = Counter(a for a, _ in points)
        lone = [p for p in points if seen[p[0]] == 1]
        d = data.draw(st.integers(0, 16))
        core, spare = _drop_close_pairs(points, d)
        assert (core, spare) == drop_close_pairs_oracle(lone, d)
        assert sorted(core + spare) == lone and core == sorted(core)
        abscissas = [a for a, _ in core + spare]
        assert len(set(abscissas)) == len(abscissas)

        def close(p, q):
            return ((p[0] >> 8) - (q[0] >> 8)) ** 2 + ((p[0] & 0xFF) - (q[0] & 0xFF)) ** 2 < d * d

        assert all(close(p, q) for p, q in zip(spare[0::2], spare[1::2]))
        assert not any(close(p, q) for i, p in enumerate(core) for q in core[i + 1:])

    @given(pruned_candidates())
    @settings(max_examples=200, deadline=None)
    def test_core_decode_finds_the_enrolled_polynomial_as_all_candidates_do(self, case):
        # A close pair holds at most one genuine point, so dropping it costs
        # the polynomial one agreement of the two the rule over all needs.
        coeffs, d, points = case
        every = _rs_decode(points) if len(points) >= 9 else None
        got = core_decode(points, d)
        assert (got == coeffs) == (every == coeffs)
        assert got is None or got == every

    def test_open_vault_decodes_conflict_free_candidates_first(self, monkeypatch):
        # Twelve lock units far apart and one chaff point a pixel off the
        # third, which matches at epsilon 2.  The chaff and that unit are
        # dropped as a pair: the decoder sees the other eleven units as its
        # candidates and the pair, in abscissa order, as spare points.
        cp = CombinedPassword(bytes(8))
        poly = encode_secret(append_crc(mask_secret(SECRET, cp)))
        units = [unit(20 * i + 5, (40 * i + 7) % 256) for i in range(12)]
        genuine = [(a, eval_poly(poly, a)) for a in units]
        chaff = (unit(46, 87), eval_poly(poly, unit(46, 87)) ^ 1)
        assert units[2] == unit(45, 87) and units[1] < chaff[0] < units[8]
        vault = encrypt_vault(VaultParams(r=12, c=1, d=4, epsilon=2), region(genuine + [chaff]), cp)
        seen = []
        decode = _rs_decode
        monkeypatch.setattr("irisvault.vault._rs_decode",
                            lambda candidates, spare: seen.append((candidates, spare))
                            or decode(candidates, spare))
        query = [MinutiaPoint(a >> 8, a & 0xFF) for a in units]
        assert open_vault(vault, query, cp) == SECRET
        [(candidates, spare)] = seen
        assert candidates == genuine[:2] + genuine[3:]
        assert spare == [genuine[2], chaff]

    def test_too_few_left_once_pairs_are_dropped(self):
        # Nine units far apart and chaff a pixel off two of them: eleven
        # candidates, five left once the two pairs go.  No polynomial
        # through both points of a pair is wanted, so the decode stops
        # before nine points are interpolated into fewer coefficients.
        cp = CombinedPassword(bytes(8))
        poly = encode_secret(append_crc(mask_secret(SECRET, cp)))
        units = [unit(20 * i + 5, (40 * i + 7) % 256) for i in range(9)]
        points = [(a, eval_poly(poly, a)) for a in units]
        points += [(a + 1, eval_poly(poly, a + 1) ^ 1) for a in units[:2]]
        vault = encrypt_vault(VaultParams(r=9, c=2, d=4, epsilon=2), region(points), cp)
        query = [MinutiaPoint(a >> 8, a & 0xFF) for a in units]
        with pytest.raises(UnlockError, match=r"^7 of 11 candidate points left after dropping 0 "
                                              r"with repeated abscissas and 4 in pairs closer "
                                              r"than d=4, need at least 9$"):
            open_vault(vault, query, cp)


class TestOpenVault:
    def test_round_trip(self):
        template, vault = make_vault(10)
        assert open_vault(vault, template, FUZZY) == SECRET

    def test_wrong_password_rejected(self):
        template, vault = make_vault(11)
        with pytest.raises(UnlockError):
            open_vault(vault, template, TOKEN)

    def test_query_point_not_int(self):
        template, vault = make_vault(14)
        with pytest.raises(DomainError, match=r"^point \(1\.5, 2\) must have int coordinates$"):
            open_vault(vault, template + [MinutiaPoint(1.5, 2)], FUZZY)

    def test_small_query_insufficient_candidates(self):
        template, vault = make_vault(12)
        with pytest.raises(UnlockError, match=r"^8 of 8 candidate points left after dropping 0 "
                                              r"with repeated abscissas and 0 in pairs closer "
                                              r"than d=4, need at least 9$"):
            open_vault(vault, template[:8], FUZZY)

    def test_search_cap(self):
        template, vault = make_vault(13)
        with pytest.raises(UnlockError, match="capped"):
            open_vault(vault, template, FUZZY, max_combinations=0)

    def test_authentication_failed_when_no_clean_subset(self):
        # Nine candidates, one of them off the polynomial: the single
        # 9-subset fails the checksum and the search runs out honestly.
        cp = CombinedPassword(bytes(8))
        payload = append_crc(mask_secret(SECRET, cp))
        poly = encode_secret(payload)
        abscissas = [(20 * i + 5) << 8 | (40 * i + 7) % 256 for i in range(9)]
        points = [(a, eval_poly(poly, a)) for a in abscissas]
        points[4] = (points[4][0], points[4][1] ^ 1)
        vault = encrypt_vault(VaultParams(r=9, c=0, d=0, epsilon=0), region(points), cp)
        query = [MinutiaPoint(a >> 8, a & 0xFF) for a in abscissas]
        with pytest.raises(UnlockError, match="fails the checksum"):
            open_vault(vault, query, cp)

    @given(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=40, unique=True),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_decrypted_points_unlock_or_raise_unlock_error(self, pool, data):
        # The zero password translates nothing, so query points are the
        # drawn abscissas; ordinates are on the secret's polynomial or not,
        # and abscissas may repeat.
        cp = CombinedPassword(bytes(8))
        poly = encode_secret(append_crc(mask_secret(SECRET, cp)))
        records = data.draw(st.lists(
            st.tuples(st.sampled_from(pool), st.one_of(st.none(), st.integers(0, 0xFFFF))),
            min_size=9, max_size=60))
        points = [(a, eval_poly(poly, a) if b is None else b) for a, b in records]
        epsilon = data.draw(st.sampled_from((0, 1, 3)))
        # r counts the records, the size encrypt_vault asks of the region,
        # and a query of more units is cut to r.
        params = VaultParams(r=len(points), c=0, d=0, epsilon=epsilon)
        vault = encrypt_vault(params, region(points), cp)
        query = [MinutiaPoint(a >> 8, a & 0xFF) for a in data.draw(st.permutations(pool))]
        try:
            secret = open_vault(vault, query, cp)
        except UnlockError:
            return
        assert isinstance(secret, bytes) and len(secret) == 16

    def test_duplicate_abscissas_dropped(self):
        # Eleven genuine points plus a second record at one of their
        # abscissas: both copies go, and the ten left still decode.
        cp = CombinedPassword(bytes(8))
        poly = encode_secret(append_crc(mask_secret(SECRET, cp)))
        abscissas = [(20 * i + 5) << 8 | (40 * i + 7) % 256 for i in range(11)]
        points = [(a, eval_poly(poly, a)) for a in abscissas]
        points.append((abscissas[3], points[3][1] ^ 1))
        params = VaultParams(r=12, c=0, d=0, epsilon=0)
        query = [MinutiaPoint(a >> 8, a & 0xFF) for a in abscissas]
        assert open_vault(encrypt_vault(params, region(points), cp), query, cp) == SECRET
        # Without the first two points, dropping both copies leaves eight;
        # two records no query unit matches keep the region 12 records long.
        with pytest.raises(UnlockError, match=r"^8 of 10 candidate points left after dropping 2 "
                                              r"with repeated abscissas and 0 in pairs closer "
                                              r"than d=0, need at least 9$"):
            open_vault(encrypt_vault(params, region(points[2:] + [(0, 0), (1, 0)]), cp), query, cp)

    def test_edited_header_decrypts_to_noise(self):
        # Widening the stored epsilon (byte 11) is what would let a jittered
        # query match; the header keys the IFV2 keystream, so the edited
        # vault decrypts to noise and opens for no query.
        template, vault = make_vault(14)
        jittered = [MinutiaPoint(min(255, p.x + 1), p.y) for p in template]
        blob = bytearray(write_vault(vault))
        blob[11] = 2
        edited = read_vault(bytes(blob))
        assert edited.params == VaultParams(epsilon=2)
        # An override widens matching but decrypts under the stored header.
        assert open_vault(vault, jittered, FUZZY, epsilon=2) == SECRET
        for query in (jittered, template):
            with pytest.raises(UnlockError):
                open_vault(edited, query, FUZZY)

    def test_params_override_epsilon(self):
        template, vault = make_vault(14)
        jittered = [MinutiaPoint(min(255, p.x + 1), p.y) for p in template]
        assert open_vault(vault, jittered, FUZZY, epsilon=2) == SECRET

    @pytest.mark.parametrize("epsilon", [256, -1])
    def test_epsilon_out_of_range(self, epsilon):
        template, vault = make_vault(14)
        with pytest.raises(DomainError, match=rf"^epsilon={epsilon} must be in \[0, 255\]$"):
            open_vault(vault, template, FUZZY, epsilon=epsilon)

    def test_epsilon_must_be_an_int(self):
        # A header stores epsilon as one byte, so no fractional tolerance is
        # matched that the vault could not carry.
        template, vault = make_vault(14)
        with pytest.raises(DomainError, match="^epsilon must be an int, not float$"):
            open_vault(vault, template, FUZZY, epsilon=2.5)


@pytest.mark.skipif(importlib.util.find_spec("_sha3") is None,
                    reason="SHAKE-128 can only come from hashlib here")
def test_import_leaves_openssl_unloaded():
    # hashlib loads OpenSSL's _hashlib, which adds megabytes of resident memory.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, irisvault; print('_hashlib' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_loads_no_dataclasses_inspect_typing_or_pathlib():
    # Each CLI call is a fresh process, so these modules would cost every
    # call; the CLI reads and writes its files with open().  -S keeps site
    # from loading any of them first.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; before = set(sys.modules); import irisvault.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'pathlib'}"
            " & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
