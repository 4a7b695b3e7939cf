"""Combined password construction and derivation tests."""

from array import array

import pytest
from hypothesis import given, strategies as st

from irisvault.errors import DomainError
from irisvault.password import (
    CombinedPassword,
    EyeColor,
    SoftBiometrics,
    UserPassword,
    combine_password,
    derive_blocks,
    mask_secret,
)

from vectors import FUZZY, TOKEN, VAULT

raw_passwords = st.binary(min_size=8, max_size=8).map(CombinedPassword)


def test_eye_color_codes():
    # The combined password's second byte is the eye color's character code.
    codes = {color: combine_password(SoftBiometrics(155, color, "M"), UserPassword("FUZZY")).data[1]
             for color in EyeColor}
    assert codes == {EyeColor.AMBER: ord("A"), EyeColor.BLUE: ord("E"),
                     EyeColor.BROWN: ord("B"), EyeColor.GRAY: ord("G"),
                     EyeColor.GREEN: ord("N"), EyeColor.HAZEL: ord("H")}
    assert (codes[EyeColor.BROWN], codes[EyeColor.GRAY], codes[EyeColor.AMBER]) == (66, 71, 65)


def test_combine_known_vectors():
    assert tuple(FUZZY.data) == (155, 66, 77, 70, 85, 90, 90, 89)
    assert tuple(TOKEN.data) == (170, 71, 70, 84, 79, 75, 69, 78)
    assert tuple(VAULT.data) == (146, 65, 77, 86, 65, 85, 76, 84)


def test_invalid_inputs():
    with pytest.raises(DomainError, match="must be 5 characters, got 6"):
        UserPassword("LONGER")
    with pytest.raises(DomainError, match="must be 5 characters, got 3"):
        UserPassword("FUZ")
    with pytest.raises(DomainError, match="non-printable-ASCII"):
        UserPassword("FU\tZY")
    with pytest.raises(DomainError, match=r"^height=300 must be in \[0, 255\]$"):
        SoftBiometrics(300, EyeColor.BROWN, "M")
    with pytest.raises(DomainError, match="gender must be"):
        SoftBiometrics(155, EyeColor.BROWN, "X")
    with pytest.raises(DomainError, match="^unknown eye color 'brown'$"):
        SoftBiometrics(150, "brown", "M")
    with pytest.raises(DomainError, match="combined password must be 8 bytes"):
        CombinedPassword(bytes(7))


@pytest.mark.parametrize("wrap", [bytearray, memoryview, lambda s: array("H", s)])
def test_combined_password_stores_any_bytes_like_as_bytes(wrap):
    # A bytearray was once refused; a mutable buffer is copied, so the
    # password stays immutable and hashes as the bytes one does.
    buffer = wrap(FUZZY.data)
    cp = CombinedPassword(buffer)
    assert type(cp.data) is bytes and cp == FUZZY and hash(cp) == hash(FUZZY)
    if isinstance(buffer, bytearray):
        buffer[0] ^= 1
        assert cp == FUZZY


def test_derive_blocks_known_vectors():
    from vectors import KNOWN_BLOCKS, PASSWORDS

    for name, cp in PASSWORDS.items():
        got = [(b.tu, b.tv) for b in derive_blocks(cp)]
        assert got == KNOWN_BLOCKS[name]
    # Fourth block of FUZZY follows the same uniform 7/9 split as the
    # others: (90 << 8 | 89) >> 9 = 45, low nine bits 89.
    assert (derive_blocks(FUZZY)[3].tu, derive_blocks(FUZZY)[3].tv) == (45, 89)


def test_derive_blocks_zero():
    assert all(b == (0, 0) for b in derive_blocks(CombinedPassword(bytes(8))))


@given(raw_passwords)
def test_blocks_reconstruct_password(cp):
    rebuilt = bytearray()
    for block in derive_blocks(cp):
        word = (block.tu << 9) | block.tv
        rebuilt += bytes((word >> 8, word & 0xFF))
    assert bytes(rebuilt) == cp.data


@given(st.integers(0, 255), st.sampled_from(list(EyeColor)), st.sampled_from("MF"),
       st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=5, max_size=5),
       st.integers(0, 255), st.sampled_from(list(EyeColor)), st.sampled_from("MF"),
       st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=5, max_size=5))
def test_combine_injective(h1, e1, g1, p1, h2, e2, g2, p2):
    a = combine_password(SoftBiometrics(h1, e1, g1), UserPassword(p1))
    b = combine_password(SoftBiometrics(h2, e2, g2), UserPassword(p2))
    if (h1, e1, g1, p1) != (h2, e2, g2, p2):
        assert a.data != b.data
    else:
        assert a.data == b.data


class TestMaskSecret:
    def test_zero_password_is_identity(self):
        secret = bytes(range(16))
        assert mask_secret(secret, CombinedPassword(bytes(8))) == secret

    def test_zero_secret_exposes_pad(self):
        assert mask_secret(bytes(16), FUZZY) == FUZZY.data * 2

    def test_length_checked(self):
        with pytest.raises(DomainError, match="secret must be 16 bytes"):
            mask_secret(bytes(15), FUZZY)

    @pytest.mark.parametrize("secret", ["y" * 16, [0] * 16, 16, None])
    def test_secret_must_be_bytes_like(self, secret):
        # A str once raised TypeError from int.from_bytes, and a list of 16
        # ints was taken as 16 bytes.
        with pytest.raises(DomainError,
                           match=f"^secret must be bytes-like, not {type(secret).__name__}$"):
            mask_secret(secret, FUZZY)

    @pytest.mark.parametrize("wrap", [bytearray, memoryview, lambda s: array("H", s)])
    def test_any_bytes_like_secret(self, wrap):
        secret = bytes(range(16))
        assert mask_secret(wrap(secret), FUZZY) == mask_secret(secret, FUZZY)

    @given(st.binary(min_size=16, max_size=16), raw_passwords)
    def test_involution(self, secret, cp):
        assert mask_secret(mask_secret(secret, cp), cp) == secret

    @given(raw_passwords, st.binary(min_size=16, max_size=16),
           st.binary(min_size=16, max_size=16))
    def test_injective_per_password(self, cp, s1, s2):
        if s1 != s2:
            assert mask_secret(s1, cp) != mask_secret(s2, cp)
