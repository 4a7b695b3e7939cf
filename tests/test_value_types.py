"""The value types: construction, repr, equality, hashing, immutability,
pickling and the type checks of their constructors."""

import pickle

import pytest

from irisvault.errors import DomainError
from irisvault.password import (
    CombinedPassword,
    EyeColor,
    SoftBiometrics,
    TranslationBlock,
    UserPassword,
)
from irisvault.security import EntropyReport, analyze
from irisvault.transform import MinutiaPoint
from irisvault.vault import Vault, VaultParams

# One instance of each value type, built twice by make(), and its exact repr.
CASES = {
    "VaultParams": (lambda: VaultParams(),
                    "VaultParams(r=20, c=200, d=4, epsilon=0)"),
    "SoftBiometrics": (lambda: SoftBiometrics(155, EyeColor.BROWN, "M"),
                       "SoftBiometrics(height_cm=155, eye_color=<EyeColor.BROWN: 'brown'>, "
                       "gender='M')"),
    "UserPassword": (lambda: UserPassword("FUZZY"), "UserPassword(chars='FUZZY')"),
    "CombinedPassword": (lambda: CombinedPassword(b"\x9bBMFUZZY"),
                         "CombinedPassword(data=b'\\x9bBMFUZZY')"),
    "TranslationBlock": (lambda: TranslationBlock(77, 322), "TranslationBlock(tu=77, tv=322)"),
    "MinutiaPoint": (lambda: MinutiaPoint(4, 123), "MinutiaPoint(x=4, y=123)"),
    "EntropyReport": (lambda: analyze(9, 0, 8),
                      "EntropyReport(r=9, c=0, t=9, n=8, total_combinations=1, "
                      "required_combinations=1, evaluations=1.0, min_entropy_bits=0.0, "
                      "hardened_range_bits=(18.0, 30.0))"),
    "Vault": (lambda: Vault(VaultParams(r=9, c=0), b"\x00\x01\xff"),
              "Vault(params=VaultParams(r=9, c=0, d=4, epsilon=0), records=b'\\x00\\x01\\xff')"),
}


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    make, expected = CASES[name]
    assert repr(make()) == expected


@pytest.mark.parametrize("name", CASES)
def test_equal_instances_hash_alike(name):
    make, _ = CASES[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned(name):
    make, _ = CASES[name]
    value = make()
    for field in type(value).__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", CASES)
def test_pickle_round_trip(name):
    make, _ = CASES[name]
    value = make()
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is type(value) and again == value


def test_keyword_positional_and_default_construction():
    assert VaultParams() == VaultParams(20, 200, 4, 0) == VaultParams(r=20, c=200, d=4, epsilon=0)
    assert VaultParams(r=9, epsilon=3) == VaultParams(9, 200, 4, 3)
    assert VaultParams().total == 220
    assert SoftBiometrics(height_cm=155, eye_color=EyeColor.BROWN, gender="M") == \
        SoftBiometrics(155, EyeColor.BROWN, "M")
    assert UserPassword(chars="FUZZY") == UserPassword("FUZZY")
    assert CombinedPassword(data=bytes(8)) == CombinedPassword(bytes(8))
    assert TranslationBlock(tu=1, tv=2) == TranslationBlock(1, 2)
    assert MinutiaPoint(x=1, y=2) == MinutiaPoint(1, 2)
    params = VaultParams(r=9, c=0)
    assert Vault(params, b"") == Vault(params=params, records=b"")
    assert analyze(20, 200, 8).hardened_range_rounded == (52, 64)


def test_instances_are_tuples_of_their_fields():
    r, c, d, epsilon = VaultParams(epsilon=2)
    assert (r, c, d, epsilon) == (20, 200, 4, 2)
    assert VaultParams(epsilon=2) == (20, 200, 4, 2)
    assert MinutiaPoint(3, 4) == (3, 4)
    report = analyze(20, 200, 8)
    assert EntropyReport(*report) == report


@pytest.mark.parametrize("build, message", [
    (lambda: VaultParams(r=20.0), "genuine count r must be an int, not float"),
    (lambda: VaultParams(c=200.0), "chaff count c must be an int, not float"),
    (lambda: VaultParams(d=True), "pruning distance d must be an int, not bool"),
    (lambda: VaultParams(epsilon=2.5), "epsilon must be an int, not float"),
    (lambda: VaultParams(epsilon="2"), "epsilon must be an int, not str"),
    (lambda: SoftBiometrics("150", EyeColor.BROWN, "M"), "height must be an int, not str"),
    (lambda: SoftBiometrics(True, EyeColor.BROWN, "M"), "height must be an int, not bool"),
    (lambda: UserPassword(b"ABCDE"), "user password must be a str, not bytes"),
    (lambda: CombinedPassword("12345678"), "combined password must be bytes, not str"),
    (lambda: CombinedPassword(bytearray(8)), "combined password must be bytes, not bytearray"),
])
def test_wrong_typed_fields_fail_at_construction(build, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        build()
