"""The two input rules of irisvault.errors, and every public entry that
takes an int or 16-bit words held to them.

check_int decides what a legal int is: an int, not a bool, in a range.
check_words applies it to a sequence of GF(2^16) words, with a C-level
pass in front that must not change which input fails or how.
"""

import random

import pytest
from hypothesis import example, given, strategies as st

from irisvault import (
    SoftBiometrics,
    VaultParams,
    analyze,
    decode_secret,
    eval_poly,
    generate_chaff,
    interpolate,
    match_candidates,
    prune_close,
    synth_template,
)
from irisvault.errors import DomainError, check_int, check_words
from irisvault.password import EyeColor

POLY = (1, 2, 3)

# Each entry: its id, the call with the value under test in place, the name
# its message gives, and the inclusive range it accepts.
ENTRIES = [
    ("VaultParams.r", lambda v: VaultParams(r=v), "genuine count r", 9, 0xFFFF),
    ("VaultParams.c", lambda v: VaultParams(c=v), "chaff count c", 0, 0xFFFF),
    ("VaultParams.d", lambda v: VaultParams(d=v), "pruning distance d", 0, 0xFF),
    ("VaultParams.epsilon", lambda v: VaultParams(epsilon=v), "epsilon", 0, 0xFF),
    ("SoftBiometrics.height", lambda v: SoftBiometrics(v, EyeColor.BROWN, "M"), "height", 0, 0xFF),
    ("analyze.r", lambda v: analyze(v, 200, 8), "genuine count r", 9, 0xFFFF),
    ("analyze.c", lambda v: analyze(20, v, 8), "chaff count c", 0, 0xFFFF),
    ("analyze.n", lambda v: analyze(20, 200, v), "polynomial degree n", 0, 0xFFFE),
    ("synth_template.count", lambda v: synth_template(0, v, 4), "count", 0, 0x10000),
    ("prune_close.d", lambda v: prune_close([], v), "pruning distance d", 0, 0xFF),
    ("match_candidates.epsilon", lambda v: match_candidates(b"", [], v), "epsilon", 0, 0xFF),
    ("match_candidates.units", lambda v: match_candidates(b"", [7, v], 2),
     "query unit", 0, 0xFFFF),
    ("generate_chaff.count", lambda v: generate_chaff([], POLY, v, random.Random(0)),
     "chaff count c", 0, 0xFFFF),
    ("generate_chaff.poly", lambda v: generate_chaff([], POLY + (v,), 0, random.Random(0)),
     "polynomial coefficient", 0, 0xFFFF),
    ("generate_chaff.units", lambda v: generate_chaff([7, v], POLY, 0, random.Random(0)),
     "genuine unit", 0, 0xFFFF),
    ("eval_poly.u", lambda v: eval_poly(POLY, v), "abscissa u", 0, 0xFFFF),
    ("eval_poly.coeffs", lambda v: eval_poly(POLY + (v,), 5), "coefficient", 0, 0xFFFF),
    ("interpolate.abscissas", lambda v: interpolate([(7, 1), (v, 2)]),
     "interpolation abscissa", 0, 0xFFFF),
    ("interpolate.ordinates", lambda v: interpolate([(7, 1), (8, v)]),
     "interpolation ordinate", 0, 0xFFFF),
    ("decode_secret", lambda v: decode_secret((0,) * 8 + (v,)), "coefficient", 0, 0xFFFF),
]


def bad_values(lo, hi):
    """A bool, a float, -1 and the first int past the range, each with the
    end of its message."""
    bounds = rf"must be in \[{lo}, {hi}\]"
    return [(True, " must be an int, not bool"), (1.5, " must be an int, not float"),
            (-1, f"=-1 {bounds}"), (hi + 1, f"={hi + 1} {bounds}")]


CASES = [pytest.param(call, value, f"^{name}{rule}$", id=f"{entry}-{value!r}")
         for entry, call, name, lo, hi in ENTRIES for value, rule in bad_values(lo, hi)]


@pytest.mark.parametrize("call, value, message", CASES)
def test_bad_int_is_a_domain_error_naming_the_argument(call, value, message):
    # eval_poly, interpolate, decode_secret and synth_template once took True
    # as 1, and eval_poly and interpolate raised a bare TypeError for 1.5.
    with pytest.raises(DomainError, match=message):
        call(value)


class Word(int):
    """An int subclass that is not a bool: check_int takes it, and the
    C-level pass of check_words, which wants exact ints, hands it over."""


words = st.one_of(
    st.integers(0, 0xFFFF),
    st.booleans(),
    st.floats(),
    st.integers(max_value=-1),
    st.integers(min_value=0x10000),
    st.builds(Word, st.integers(-2, 0x10001)),
    st.none(),
)


def first_failure(values):
    """check_int's message for the first value that fails it, or None."""
    for value in values:
        try:
            check_int("w", value, 0, 0xFFFF)
        except DomainError as exc:
            return str(exc)
    return None


# Lists of 16-bit words alone pass the C-level pass, and mixed ones mostly
# fail it; ints one step either side of the range decide its min and max.
sequences = (st.lists(st.integers(0, 0xFFFF), max_size=12) | st.lists(words, max_size=12)
             | st.lists(st.integers(-1, 0x10000), max_size=12))


@given(sequences | sequences.map(tuple))
@example([])
@example([0, 0xFFFF])
@example([3, True])
@example([0x10000, 2.5])
@example([Word(5), 70000])
@example([5, 0x10000])
@example([7, -1])
@example([float("nan"), -1])
def test_check_words_fails_as_check_int_on_its_first_failure(values):
    expected = first_failure(values)
    if expected is None:
        check_words("w", values)
    else:
        with pytest.raises(DomainError) as info:
            check_words("w", values)
        assert str(info.value) == expected
