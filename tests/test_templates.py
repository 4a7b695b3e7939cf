"""Template text format, synthetic generation, and vault frame tests."""

import hashlib
import random
import re
import struct
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from irisvault.errors import DomainError, UnlockError
from irisvault.templates import parse_template, synth_template, write_template
from irisvault.transform import MinutiaPoint
from irisvault.vault import Vault, VaultParams, build_vault, open_vault, read_vault, write_vault

from vectors import FUZZY, GOLDEN_IFV2, GOLDEN_IFV2_NEXT_DRAW, TOKEN

DATA = Path(__file__).parent / "data"

points = st.builds(MinutiaPoint, st.integers(0, 255), st.integers(0, 255))


@st.composite
def vault_like_frames(draw):
    """Frames with the IFV1 or IFV2 magic, either version, and a body near
    the size r and c call for, so that parsing of an IFV2 frame gets past
    the magic to its later checks and meets a wrong version."""
    r, c = draw(st.integers(0, 12)), draw(st.integers(0, 3))
    head = struct.pack(">4sBBHHBB4s", draw(st.sampled_from((b"IFV1", b"IFV2"))),
                       draw(st.sampled_from((1, 2))),
                       draw(st.sampled_from((8, 7))), r, c,
                       draw(st.integers(0, 255)), draw(st.integers(0, 255)),
                       draw(st.one_of(st.just(bytes(4)), st.binary(min_size=4, max_size=4))))
    size = max(0, 4 * (r + c) + draw(st.sampled_from((0, 0, -1, 1))))
    return head + draw(st.binary(min_size=size, max_size=size))


@st.composite
def vaults(draw):
    """Vaults of any valid shape with few points, their records drawn at
    random."""
    params = draw(st.builds(VaultParams, st.integers(9, 40), st.integers(0, 40),
                            st.integers(0, 255), st.integers(0, 255)))
    records = draw(st.binary(min_size=4 * params.total, max_size=4 * params.total))
    return Vault(params, records)


class TestTemplateText:
    def test_parse_basic(self):
        assert parse_template("4 123\n135 114\n") == [
            MinutiaPoint(4, 123),
            MinutiaPoint(135, 114),
        ]

    def test_comments_and_blanks(self):
        assert parse_template("# c\n\n") == []
        assert parse_template("  # indented comment\n7 9\n") == [MinutiaPoint(7, 9)]

    def test_out_of_range(self):
        with pytest.raises(DomainError, match="line 1"):
            parse_template("4 300\n")

    def test_malformed_line_number(self):
        with pytest.raises(DomainError, match="line 3"):
            parse_template("1 2\n3 4\nfive six\n")
        with pytest.raises(DomainError, match="line 2"):
            parse_template("1 2\n3\n")

    @pytest.mark.parametrize("text", ["1_0 2\n", "3 \u0663\n", "+7 9\n", "\uff14 4\n"])
    def test_non_ascii_decimal_coordinate(self, text):
        # int() takes each of these: an underscore, a sign, an Arabic-Indic
        # and a fullwidth digit.
        with pytest.raises(DomainError, match="line 2: non-decimal coordinate"):
            parse_template("1 2\n" + text)

    def test_write_trivial(self):
        assert write_template([]) == ""
        assert write_template([MinutiaPoint(0, 0)]) == "0 0\n"

    @given(st.lists(points, max_size=60))
    def test_round_trip(self, template):
        text = write_template(template)
        assert parse_template(text) == template
        assert write_template(parse_template(text)) == text


class TestSynth:
    def test_empty(self):
        assert synth_template(123, 0, 4) == []

    def test_count_and_spacing(self):
        template = synth_template(42, 20, 4)
        assert len(template) == 20
        for i, p in enumerate(template):
            for q in template[:i]:
                assert (p.x - q.x) ** 2 + (p.y - q.y) ** 2 >= 16

    def test_deterministic(self):
        assert synth_template(9, 20, 4) == synth_template(9, 20, 4)
        assert synth_template(9, 20, 4) != synth_template(10, 20, 4)

    def test_placement_failure(self):
        # 256x256 cannot hold ten points pairwise 400 apart.
        with pytest.raises(DomainError, match="could not place point"):
            synth_template(0, 10, 400)

    def test_negative_count(self):
        with pytest.raises(DomainError, match=r"^count=-1 must be in \[0, 65536\]$"):
            synth_template(0, -1, 4)

    @pytest.mark.parametrize("count", [0, 1, 2])
    @pytest.mark.parametrize("min_dist", [float("nan"), float("inf"), -float("inf"), -4, -0.5,
                                          True, "4", None, Fraction(4)])
    def test_bad_spacing_fails_before_any_draw(self, min_dist, count):
        # NaN and infinity once burned 10,000 draws before failing, a NaN
        # spacing with one point returned it, and -4 acted as 4.
        with pytest.raises(DomainError,
                           match=rf"^min_dist must be a finite int or float >= 0, "
                                 rf"got {re.escape(repr(min_dist))}$"):
            synth_template(0, count, min_dist)

    @pytest.mark.parametrize("min_dist", [0, 0.0, 4, 4.5, pytest.param(10**400, id="10**400")])
    def test_spacing_accepts_finite_ints_and_floats(self, min_dist):
        assert len(synth_template(0, 1, min_dist)) == 1


class TestVaultFrame:
    def make(self, seed=0):
        template = synth_template(seed, 20, 4)
        secret = random.Random(seed).randbytes(16)
        return build_vault(template, secret, FUZZY, rng=random.Random(seed))

    def test_default_length(self):
        blob = write_vault(self.make())
        assert len(blob) == 16 + 220 * 4 == 896

    def test_round_trip(self):
        for seed in range(5):
            vault = self.make(seed)
            blob = write_vault(vault)
            again = read_vault(blob)
            assert again == vault
            assert write_vault(again) == blob

    def test_bad_magic(self):
        blob = bytearray(write_vault(self.make()))
        blob[:4] = b"XXXX"
        with pytest.raises(DomainError, match="magic"):
            read_vault(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(write_vault(self.make()))
        blob[4] = 9
        with pytest.raises(DomainError, match="version"):
            read_vault(bytes(blob))

    def test_truncated(self):
        blob = write_vault(self.make())
        with pytest.raises(DomainError, match="^point region holds 877 bytes, expected 880 "):
            read_vault(blob[:-3])
        with pytest.raises(DomainError, match="^stream of 10 bytes is shorter than the header$"):
            read_vault(blob[:10])
        with pytest.raises(DomainError, match="^point region holds 881 bytes, expected 880 "):
            read_vault(blob + b"\x00")

    def test_bad_degree(self):
        blob = bytearray(write_vault(self.make()))
        blob[5] = 7
        with pytest.raises(DomainError, match="degree"):
            read_vault(bytes(blob))

    @pytest.mark.parametrize("seed, cp, digest, count, r", [
        (0, FUZZY, "aa1a32df8d7ac70a21340ac0244d41c3ccdf00032e37e55d41d6dd5a3f48a957", 20, 20),
        (7, TOKEN, "affa51c958426d67578c295e21261aedd0d24ae82b4fe629100e4c718e0dbb19", 20, 20),
        # 221 records: an odd record count.
        (3, FUZZY, "e54193a970032afdbd8314d46f1b64e78f33fe019d9fbcb15d7ab9cfb6e6cb32", 25, 21),
    ])
    def test_golden_bytes(self, seed, cp, digest, count, r):
        # IFV1 files written before IFV2 existed, kept under tests/data,
        # are refused with a message that asks for a new enrolment.
        blob = (DATA / f"ifv1-seed{seed}.vault").read_bytes()
        assert len(blob) == 16 + 4 * (r + 200)
        assert hashlib.sha256(blob).hexdigest() == digest
        with pytest.raises(DomainError, match="^IFV1 vaults are no longer read; enrol again$"):
            read_vault(blob)
        # Read as IFV2, their records are noise even under the template and
        # password they were enrolled with: refusing is the only answer.
        as_ifv2 = read_vault(b"IFV2\x02" + blob[5:])
        with pytest.raises(UnlockError):
            open_vault(as_ifv2, synth_template(seed, count, 4), cp)

    @pytest.mark.parametrize("seed, cp, digest, count, r", GOLDEN_IFV2)
    def test_golden_bytes_ifv2(self, seed, cp, digest, count, r):
        # Frozen IFV2 frames: a change to chaff, encoding or cipher that
        # alters the bytes would also stop existing vault files opening.
        # The generator's next draw pins the draws enrolment made.
        template = synth_template(seed, count, 4)
        params = VaultParams(r=r, c=200)
        rng = random.Random(seed)
        blob = write_vault(build_vault(template, bytes(16), cp, params, rng))
        assert rng.getrandbits(64) == GOLDEN_IFV2_NEXT_DRAW[seed]
        assert blob[:5] == b"IFV2\x02"
        assert len(blob) == 16 + 4 * (r + 200)
        assert hashlib.sha256(blob).hexdigest() == digest
        assert open_vault(read_vault(blob), template, cp) == bytes(16)

    def test_bytes_like_input(self):
        blob = write_vault(self.make())
        vault = read_vault(blob)
        for data in (bytearray(blob), memoryview(blob)):
            again = read_vault(data)
            assert again == vault
            assert type(again.records) is bytes
        assert type(vault.records) is bytes
        # The records do not alias the caller's buffer.
        buffer = bytearray(blob)
        held = read_vault(buffer)
        buffer[16:] = bytes(len(buffer) - 16)
        assert held == vault

    @given(st.one_of(st.binary(max_size=64), vault_like_frames()))
    # A frame that parses but for its reserved bytes: drawn frames reach one
    # only now and then.
    @example(struct.pack(">4sBBHHBB4s", b"IFV2", 2, 8, 9, 0, 0, 0, b"\0\0\0\xab") + bytes(36))
    def test_any_bytes_parse_or_raise_domain_error(self, data):
        try:
            vault = read_vault(data)
        except DomainError:
            return
        assert isinstance(vault, Vault)
        assert write_vault(vault) == data
        assert read_vault(write_vault(vault)) == vault

    def test_nonzero_reserved_bytes(self):
        blob = bytearray(write_vault(self.make()))
        blob[12] = 0xAB
        with pytest.raises(DomainError, match="reserved"):
            read_vault(bytes(blob))

    @given(st.one_of(vault_like_frames(), st.binary(min_size=16, max_size=64))
           .map(lambda frame: b"IFV1" + frame[4:]))
    def test_ifv1_frame_is_refused(self, data):
        # Whatever its version, header and body.
        with pytest.raises(DomainError, match="no longer read"):
            read_vault(data)

    @pytest.mark.parametrize("magic, version", [(b"IFV2", 1)])
    def test_magic_version_mismatch(self, magic, version):
        blob = bytearray(write_vault(self.make()))
        blob[:5] = magic + bytes([version])
        with pytest.raises(DomainError, match="version"):
            read_vault(bytes(blob))

    def test_bad_params(self):
        blob = bytearray(write_vault(self.make()))
        blob[6:8] = (0).to_bytes(2, "big")  # r = 0 is below the minimum
        with pytest.raises(DomainError, match="parameters"):
            read_vault(bytes(blob))

    @given(vaults())
    @example(Vault(VaultParams(r=20, c=65516, d=255, epsilon=255), bytes(4 * 65536)))
    def test_frame_round_trip(self, vault):
        assert read_vault(write_vault(vault)) == vault

    def test_header_beyond_the_abscissa_count(self):
        # Full length for its header, so that only the bound rejects it.
        blob = struct.pack(">4sBBHHBBI", b"IFV2", 2, 8, 9, 65528, 4, 0, 0) + bytes(4 * 65537)
        with pytest.raises(DomainError, match=r"^invalid parameters in header: r \+ c = 65537 "):
            read_vault(blob)
