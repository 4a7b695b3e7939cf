"""The three input rules of irisvault.errors, and every public entry that
takes an int, 16-bit words or bytes held to them.

check_int decides what a legal int is: an int itself, not a bool or any
other int subclass, in a range.
check_words applies it to a sequence of GF(2^16) words, with a C-level
pass in front that must not change which input fails or how.
check_bytes decides what legal bytes are: any bytes-like value, its
length counted in bytes whatever its item size, of a given length or any.
"""

import random
from array import array, typecodes
from enum import IntEnum

import pytest
from hypothesis import example, given, strategies as st

from irisvault import (
    CombinedPassword,
    SoftBiometrics,
    VaultParams,
    analyze,
    build_vault,
    decode_secret,
    decrypt_vault,
    encode_secret,
    encrypt_vault,
    eval_poly,
    generate_chaff,
    interpolate,
    mask_secret,
    match_candidates,
    open_vault,
    prune_close,
    read_vault,
    synth_template,
    write_vault,
)
from irisvault.errors import DomainError, check_bytes, check_int, check_words
from irisvault.fields import append_crc, check_crc, crc16
from irisvault.password import EyeColor

from vectors import FUZZY

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


class Level(IntEnum):
    """An int subclass whose member 9 lies in every entry's range."""
    NINE = 9


def bad_values(lo, hi):
    """A bool, an IntEnum member, a float, -1 and the first int past the
    range, each with the end of its message."""
    bounds = rf"must be in \[{lo}, {hi}\]"
    return [(True, " must be an int, not bool"), (Level.NINE, " must be an int, not Level"),
            (1.5, " must be an int, not float"),
            (-1, f"=-1 {bounds}"), (hi + 1, f"={hi + 1} {bounds}")]


CASES = [pytest.param(call, value, f"^{name}{rule}$", id=f"{entry}-{value!r}")
         for entry, call, name, lo, hi in ENTRIES for value, rule in bad_values(lo, hi)]


@pytest.mark.parametrize("call, value, message", CASES)
def test_bad_int_is_a_domain_error_naming_the_argument(call, value, message):
    # eval_poly, interpolate, decode_secret and synth_template once took True
    # as 1, and eval_poly and interpolate raised a bare TypeError for 1.5.
    # Every entry once took the IntEnum member, and VaultParams stored it.
    with pytest.raises(DomainError, match=message):
        call(value)


class Word(int):
    """An int subclass that is not a bool: check_int refuses it, and the
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


# Each entry: its id, the call with the value under test in place, the name
# its message gives, and a value of the wrong length with its whole message.
# encrypt_vault takes a clear region of any length, so it has none.
BYTES_ENTRIES = [
    ("mask_secret", lambda v: mask_secret(v, FUZZY), "secret",
     bytes(15), "secret must be 16 bytes, got 15"),
    ("append_crc", append_crc, "secret", bytes(17), "secret must be 16 bytes, got 17"),
    ("check_crc", check_crc, "payload", bytes(17), "payload must be 18 bytes, got 17"),
    ("encode_secret", encode_secret, "payload", bytes(19), "payload must be 18 bytes, got 19"),
    ("CombinedPassword", CombinedPassword, "combined password",
     bytes(7), "combined password must be 8 bytes, got 7"),
    ("crc16", crc16, "crc16 data", b"", "crc16 data must hold at least one byte"),
    ("read_vault", read_vault, "vault stream",
     bytes(10), "stream of 10 bytes is shorter than the header"),
    ("match_candidates", lambda v: match_candidates(v, [7], 2), "clear region",
     bytes(5), "clear region of 5 bytes is not whole 4-byte records"),
    ("encrypt_vault", lambda v: encrypt_vault(VaultParams(r=9, c=0), v, FUZZY), "clear region",
     None, None),
]

NOT_BYTES = ["12345678", None, list(range(18)), 16]

BYTES_CASES = [pytest.param(call, value, f"^{name} must be bytes-like, not {type(value).__name__}$",
                            id=f"{entry}-{type(value).__name__}")
               for entry, call, name, _, _ in BYTES_ENTRIES for value in NOT_BYTES]
BYTES_CASES += [pytest.param(call, value, f"^{message}$", id=f"{entry}-length")
                for entry, call, _, value, message in BYTES_ENTRIES if value is not None]


@pytest.mark.parametrize("call, value, message", BYTES_CASES)
def test_bad_bytes_is_a_domain_error_naming_the_argument(call, value, message):
    # None or an int once raised a bare TypeError at every entry but
    # mask_secret, CombinedPassword and match_candidates, and so did a str
    # of the right length; crc16, check_crc and encrypt_vault took a list of
    # ints as its bytes.
    with pytest.raises(DomainError, match=message):
        call(value)


def as_words(data):
    """``data`` as a cast view of 16-bit items, half as many as its bytes."""
    return memoryview(data).cast("H")


SECRET = bytes(range(16))
PAYLOAD = append_crc(SECRET)


def test_frame_of_words_opens_to_the_enrolled_secret():
    # A valid 896-byte frame as 448 words was once refused: "point region
    # holds 432 bytes, expected 880".
    template = synth_template(0, 20, 4)
    frame = write_vault(build_vault(template, SECRET, FUZZY, rng=random.Random(0)))
    vault = read_vault(as_words(frame))
    assert vault == read_vault(frame)
    assert open_vault(vault, template, FUZZY) == SECRET


def test_words_count_as_their_bytes():
    # encode_secret once counted an 18-byte array('H') as 9 long, crc16 ran
    # past the end of one, append_crc could not append to one, and
    # encrypt_vault kept 18 bytes of a 36-byte view.
    assert encode_secret(array("H", PAYLOAD)) == encode_secret(PAYLOAD)
    assert crc16(array("H", b"123456789\0")) == crc16(b"123456789\0")
    assert append_crc(array("H", SECRET)) == PAYLOAD
    assert check_crc(as_words(PAYLOAD))
    vault = build_vault(synth_template(0, 20, 4), SECRET, FUZZY, rng=random.Random(0))
    clear = decrypt_vault(vault, FUZZY)
    assert encrypt_vault(vault.params, as_words(clear), FUZZY) == encrypt_vault(
        vault.params, clear, FUZZY) == vault


# Codes whose items are plain numbers: "u" and "w" hold characters, and "u"
# is deprecated.
NUMERIC_CODES = sorted(set(typecodes) - {"u", "w"})


@st.composite
def buffers(draw):
    """A bytes-like value and the bytes it holds: bytes, a bytearray, an
    array of any numeric typecode, or a view cast to another item size or
    to two dimensions."""
    kind = draw(st.sampled_from(["bytes", "bytearray", "array", "view", "matrix"]))
    if kind == "array":
        code = draw(st.sampled_from(NUMERIC_CODES))
        data = draw(st.binary(max_size=8).map(lambda b: b * array(code).itemsize))
        value = array(code)
        value.frombytes(data)
        return value, data
    data = draw(st.binary(max_size=48))
    if kind == "view":
        code = draw(st.sampled_from("BHILQd"))
        data = data[:len(data) - len(data) % array(code).itemsize]
        return memoryview(data).cast(code), data
    if kind == "matrix":
        data = data[:len(data) - len(data) % 2] or bytes(2)
        return memoryview(data).cast("B", [2, len(data) // 2]), data
    return (bytearray(data) if kind == "bytearray" else data), data


@given(buffers(), st.none() | st.integers(0, 50))
def test_check_bytes_takes_every_buffer_as_its_bytes(buffer, size):
    value, data = buffer
    if size is None or size == len(data):
        got = check_bytes("v", value, size)
        assert bytes(got) == data and len(got) == len(data)
        assert (got is value) == (type(value) is bytes)
    else:
        with pytest.raises(DomainError, match=f"^v must be {size} bytes, got {len(data)}$"):
            check_bytes("v", value, size)


@given(st.one_of(st.text(), st.none(), st.integers(), st.floats(), st.booleans(),
                 st.lists(st.integers(0, 255)), st.tuples(st.integers(0, 255)),
                 st.just(memoryview(bytes(8))[::2])),
       st.none() | st.integers(0, 8))
def test_check_bytes_refuses_every_non_buffer(value, size):
    # A strided view has no flat bytes to count, so it is refused as well.
    with pytest.raises(DomainError, match=f"^v must be bytes-like, not {type(value).__name__}$"):
        check_bytes("v", value, size)
