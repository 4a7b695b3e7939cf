"""Command-line behavior: exit codes, output formats, determinism."""

import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from irisvault.cli import main
from irisvault.templates import parse_template, synth_template, write_template
from irisvault.vault import build_vault, write_vault

from vectors import FUZZY, KNOWN_BLOCKS, KNOWN_TRANSFORMS, REFERENCE_POINTS

NOT_UTF8 = b"\xff\xfe 1 2\n"
DATA = Path(__file__).parent / "data"

PASSWORD_FLAGS = {
    "FUZZY": ["--height", "155", "--eye-color", "brown", "--gender", "M",
              "--password", "FUZZY"],
    "TOKEN": ["--height", "170", "--eye-color", "gray", "--gender", "F",
              "--password", "TOKEN"],
    "VAULT": ["--height", "146", "--eye-color", "amber", "--gender", "M",
              "--password", "VAULT"],
}


@pytest.fixture
def workspace(tmp_path):
    template = tmp_path / "points.txt"
    vault = tmp_path / "vault.bin"
    rc = main(["synth", "--out", str(template), "--seed", "5",
               "--count", "20", "--min-dist", "4"])
    assert rc == 0
    return template, vault


def enroll(template, vault, extra=(), password="FUZZY"):
    return main(["enroll", "--template", str(template), "--vault", str(vault),
                 "--seed", "77", *extra, *PASSWORD_FLAGS[password]])


def verify(template, vault, extra=(), password="FUZZY"):
    return main(["verify", "--template", str(template), "--vault", str(vault),
                 *extra, *PASSWORD_FLAGS[password]])


class TestEnrollVerify:
    def test_round_trip(self, workspace, capsys):
        template, vault = workspace
        assert enroll(template, vault) == 0
        secret = capsys.readouterr().out.strip()
        assert len(secret) == 32 and int(secret, 16) >= 0
        assert vault.stat().st_size == 896
        assert verify(template, vault) == 0
        assert capsys.readouterr().out.strip() == secret

    def test_supplied_secret(self, workspace, capsys):
        template, vault = workspace
        hexsecret = "00112233445566778899aabbccddeeff"
        assert enroll(template, vault, ["--secret", hexsecret]) == 0
        assert capsys.readouterr().out.strip() == hexsecret
        assert verify(template, vault) == 0
        assert capsys.readouterr().out.strip() == hexsecret

    def test_deterministic_vault_file(self, workspace, capsys, tmp_path):
        template, _ = workspace
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        assert enroll(template, a) == 0
        assert enroll(template, b) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_password_exits_1(self, workspace, capsys):
        template, vault = workspace
        assert enroll(template, vault) == 0
        capsys.readouterr()
        assert verify(template, vault, password="TOKEN") == 1
        err = capsys.readouterr().err
        assert "error" in err

    def test_insufficient_points_exits_2(self, tmp_path, capsys):
        template = tmp_path / "small.txt"
        vault = tmp_path / "vault.bin"
        rc = main(["synth", "--out", str(template), "--seed", "1", "--count", "5"])
        assert rc == 0
        assert enroll(template, vault) == 2
        assert "insufficient points" in capsys.readouterr().err

    def test_truncated_vault_exits_2(self, workspace, capsys):
        template, vault = workspace
        assert enroll(template, vault) == 0
        vault.write_bytes(vault.read_bytes()[:100])
        assert verify(template, vault) == 2
        capsys.readouterr()

    def test_ifv1_vault_exits_2(self, tmp_path, capsys):
        # The file was enrolled from this template and password.
        template = tmp_path / "seed0.txt"
        template.write_text(write_template(synth_template(0, 20, 4)))
        assert verify(template, DATA / "ifv1-seed0.vault") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: IFV1 vaults are no longer read; enrol again\n"

    def test_edited_epsilon_exits_1(self, workspace, capsys):
        # The header keys the keystream: a widened epsilon (byte 11) leaves
        # a well-formed vault that no query opens.
        template, vault = workspace
        assert enroll(template, vault) == 0
        capsys.readouterr()
        blob = bytearray(vault.read_bytes())
        assert blob[:4] == b"IFV2"
        blob[11] = 8
        vault.write_bytes(bytes(blob))
        assert verify(template, vault) == 1
        assert capsys.readouterr().out == ""

    def test_bad_secret_flag_exits_2(self, workspace, capsys):
        template, vault = workspace
        assert enroll(template, vault, ["--secret", "zz"]) == 2
        capsys.readouterr()

    def test_non_utf8_template_exits_2(self, workspace, capsys):
        template, vault = workspace
        assert enroll(template, vault) == 0
        capsys.readouterr()
        template.write_bytes(NOT_UTF8)
        assert verify(template, vault) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_non_ascii_decimal_template_exits_2(self, workspace, capsys):
        template, vault = workspace
        assert enroll(template, vault) == 0
        capsys.readouterr()
        template.write_text("1_0 2\n" + template.read_text())
        assert verify(template, vault) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 1") and captured.err.count("\n") == 1

    def test_max_combinations_flag_is_gone(self, workspace, capsys):
        # It only refused to decode at 0 or less; the decoder makes one attempt.
        template, vault = workspace
        assert enroll(template, vault) == 0
        with pytest.raises(SystemExit) as exc:
            verify(template, vault, ["--max-combinations", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-combinations 1" in capsys.readouterr().err

    def test_custom_shape(self, workspace, capsys):
        template, vault = workspace
        assert enroll(template, vault, ["--r", "15"]) == 0
        capsys.readouterr()
        assert vault.stat().st_size == 16 + (15 + 150) * 4
        assert verify(template, vault) == 0
        capsys.readouterr()


class TestDecoderRegressions:
    """Vaults at epsilon 10, where a query matches many chaff points."""

    @staticmethod
    def enrolled(tmp_path, capsys, seed):
        template = tmp_path / f"t{seed}.txt"
        vault = tmp_path / f"v{seed}.bin"
        assert main(["synth", "--out", str(template), "--seed", str(seed),
                     "--count", "20", "--min-dist", "4"]) == 0
        assert main(["enroll", "--template", str(template), "--vault", str(vault),
                     "--seed", str(seed), "--epsilon", "10",
                     *PASSWORD_FLAGS["FUZZY"]]) == 0
        secret = capsys.readouterr().out.strip()
        return template, vault, secret

    @staticmethod
    def verify_as(template, vault, password, extra=()):
        flags = PASSWORD_FLAGS["FUZZY"][:-1] + [password]
        return main(["verify", "--template", str(template), "--vault", str(vault),
                     *extra, *flags])

    def test_duplicate_abscissas_exit_1(self, tmp_path, capsys):
        # Under this wrong password two decrypted candidates share an
        # abscissa; interpolating through both divided by zero (exit 2).
        template, vault, _ = self.enrolled(tmp_path, capsys, 39)
        assert self.verify_as(template, vault, 'FUZZ"') == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "multiplicative inverse" not in captured.err

    def test_wrong_password_at_default_cap_exits_1(self, tmp_path, capsys):
        # A CRC-only search over two million subsets accepted this wrong
        # password with a garbage secret.
        template, vault, _ = self.enrolled(tmp_path, capsys, 3)
        assert self.verify_as(template, vault, "FUZ^Y") == 1
        assert capsys.readouterr().out == ""

    def test_genuine_query_never_returns_another_secret(self, tmp_path, capsys):
        # About as many chaff as genuine points match here; a CRC-only
        # search returned e86e52aa... instead of the enrolled secret.
        template, vault, secret = self.enrolled(tmp_path, capsys, 3)
        assert secret == "fd3feb3c9250b7974a9b528b69636321"
        rc = self.verify_as(template, vault, "FUZZY")
        out = capsys.readouterr().out.strip()
        assert (rc, out) in {(1, ""), (0, secret)}


class TestTransform:
    def test_known_rows(self, tmp_path, capsys):
        template = tmp_path / "ref.txt"
        template.write_text(write_template(REFERENCE_POINTS))
        for name in ("FUZZY", "TOKEN", "VAULT"):
            rc = main(["transform", "--template", str(template), *PASSWORD_FLAGS[name]])
            assert rc == 0
            out = capsys.readouterr().out
            rows = [line.split() for line in out.splitlines() if not line.startswith("#")]
            assert len(rows) == 4
            for q, (row, point) in enumerate(zip(rows, REFERENCE_POINTS)):
                assert row[0] == ["I", "II", "III", "IV"][q]
                assert (int(row[1]), int(row[2])) == point
                assert (int(row[3]), int(row[4])) == KNOWN_BLOCKS[name][q]
                assert (int(row[5]), int(row[6])) == KNOWN_TRANSFORMS[name][q]

    def test_bad_template_exits_2(self, tmp_path, capsys):
        template = tmp_path / "bad.txt"
        template.write_text("not a template\n")
        rc = main(["transform", "--template", str(template), *PASSWORD_FLAGS["FUZZY"]])
        assert rc == 2
        capsys.readouterr()

    def test_non_utf8_template_exits_2(self, tmp_path, capsys):
        template = tmp_path / "bad.txt"
        template.write_bytes(NOT_UTF8)
        rc = main(["transform", "--template", str(template), *PASSWORD_FLAGS["FUZZY"]])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestAnalyze:
    @staticmethod
    def report(capsys, *flags):
        assert main(["analyze", *flags]) == 0
        out = capsys.readouterr().out
        return {line.split(":")[0]: line.split(":", 1)[1].strip()
                for line in out.splitlines()}

    def test_default_report(self, capsys):
        got = self.report(capsys)
        assert got["required combinations"] == "167960"
        assert got["total combinations"] == "2818651865383860"
        assert got["hardened range (bits)"] == "52 to 64"
        assert abs(float(got["min-entropy (bits)"]) - 34) <= 0.5

    def test_chaff_defaults_to_ten_per_genuine_point(self, capsys):
        # As enroll does: --r 30 alone is the 330-point vault enroll writes.
        got = self.report(capsys, "--r", "30")
        assert (got["chaff points (c)"], got["total points (t)"]) == ("300", "330")
        assert self.report(capsys, "--r", "30", "--c", "200")["chaff points (c)"] == "200"

    def test_no_chaff(self, capsys):
        got = self.report(capsys, "--c", "0")
        assert float(got["min-entropy (bits)"]) == 0.0
        assert got["hardened range (bits)"] == "18 to 30"

    def test_domain_error_exits_2(self, capsys):
        assert main(["analyze", "--r", "5"]) == 2
        capsys.readouterr()

    def test_shape_beyond_a_vault_header_exits_2(self, capsys):
        # r = 100000 fits neither a header's 16-bit count nor, with c, the
        # 65536 abscissas of GF(2^16).
        assert main(["analyze", "--r", "100000", "--c", "1", "--n", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestSynth:
    def test_deterministic_file(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert main(["synth", "--out", str(a), "--seed", "3"]) == 0
        assert main(["synth", "--out", str(b), "--seed", "3"]) == 0
        capsys.readouterr()
        assert a.read_text() == b.read_text()
        assert len(parse_template(a.read_text())) == 20

    def test_zero_count(self, tmp_path, capsys):
        out = tmp_path / "empty.txt"
        assert main(["synth", "--out", str(out), "--count", "0"]) == 0
        capsys.readouterr()
        assert out.read_text() == ""

    def test_placement_failure_exits_2(self, tmp_path, capsys):
        out = tmp_path / "never.txt"
        assert main(["synth", "--out", str(out), "--count", "10",
                     "--min-dist", "400"]) == 2
        capsys.readouterr()

    def test_negative_count_exits_2(self, tmp_path, capsys):
        out = tmp_path / "negative.txt"
        assert main(["synth", "--out", str(out), "--count", "-1"]) == 2
        assert "count must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()


def test_module_entry_point(tmp_path):
    out = tmp_path / "t.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "irisvault.cli", "synth", "--out", str(out),
         "--seed", "2", "--count", "12"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert len(parse_template(out.read_text())) == 12

    proc = subprocess.run([sys.executable, "-m", "irisvault.cli", "analyze"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "167960" in proc.stdout


def test_missing_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["enroll"])
    assert exc.value.code == 2


def one_byte_changed(data):
    return st.builds(lambda i, v: data[:i] + bytes([v]) + data[i + 1:],
                     st.integers(0, len(data) - 1), st.integers(0, 255))


ENROLLED_TEMPLATE = synth_template(5, 20, 4)
ENROLLED_SECRET = bytes(range(16))
TEMPLATE_TEXT = write_template(ENROLLED_TEMPLATE).encode()
VAULT_BLOB = write_vault(build_vault(ENROLLED_TEMPLATE, ENROLLED_SECRET, FUZZY,
                                     None, random.Random(5)))


@given(st.one_of(st.binary(max_size=200), st.just(TEMPLATE_TEXT),
                 one_byte_changed(TEMPLATE_TEXT)),
       st.one_of(st.binary(max_size=200), st.just(VAULT_BLOB), one_byte_changed(VAULT_BLOB)))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_verify_any_file_contents_exits_0_1_or_2(tmp_path, capsys, template_bytes, vault_bytes):
    template = tmp_path / "query.txt"
    vault = tmp_path / "vault.bin"
    template.write_bytes(template_bytes)
    vault.write_bytes(vault_bytes)
    rc = verify(template, vault)
    captured = capsys.readouterr()
    assert rc in (0, 1, 2)
    if rc == 0:
        assert captured.out == ENROLLED_SECRET.hex() + "\n"
    else:
        assert captured.out == "" and captured.err.startswith("error: ")


def run_main_checked(argv, capsys):
    """Run ``main(argv)`` and check the contract every input must keep: exit
    0, 1 or 2 (argparse's own exit counted), no traceback, and on a failure
    that ``main`` reports, an empty stdout and exactly one ``error:`` line.
    Returns the exit code, whether ``main`` returned it, and stdout."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc, from_main = exc.code, False
    else:
        from_main = True
    captured = capsys.readouterr()
    event(f"{argv[0]} exit {rc}" + ("" if from_main else " from argparse"))
    assert rc in (0, 1, 2)
    assert "Traceback" not in captured.err
    if from_main and rc != 0:
        assert captured.out == ""
        assert len([line for line in captured.err.splitlines()
                    if line.startswith("error: ")]) == 1
    return rc, from_main, captured.out


# Where enroll is told to write its vault, relative to tmp_path: a file in
# place, in a missing directory, under a regular file, in a read-only
# directory (writable all the same for root), and a directory itself.
VAULT_TARGETS = ("vault.bin", "nodir/vault.bin", "file.txt/vault.bin",
                 "readonly/vault.bin", ".")
HEX_SECRET = "00112233445566778899aabbccddeeff"


# Half the examples keep the enrolled template, so that enroll often gets
# past parsing to its secret and vault-path checks.
@given(st.booleans(), st.one_of(st.binary(max_size=200), one_byte_changed(TEMPLATE_TEXT)),
       st.sampled_from(["transform", "enroll"]),
       st.sampled_from(VAULT_TARGETS),
       st.one_of(st.none(), st.just(HEX_SECRET), st.text(max_size=40),
                 st.binary(max_size=20).map(bytes.hex)))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_enroll_and_transform_any_input_exits_0_1_or_2(tmp_path, capsys, enrolled,
                                                       template_bytes, command, target, secret):
    template = tmp_path / "query.txt"
    template.write_bytes(TEMPLATE_TEXT if enrolled else template_bytes)
    (tmp_path / "file.txt").write_text("")
    (tmp_path / "readonly").mkdir(mode=0o500, exist_ok=True)
    argv = [command, "--template", str(template), *PASSWORD_FLAGS["FUZZY"]]
    if command == "enroll":
        argv += ["--vault", str(tmp_path / target), "--seed", "5"]
        if secret is not None:
            argv += ["--secret", secret]
    rc, from_main, out = run_main_checked(argv, capsys)
    if from_main and rc == 0 and command == "transform":
        assert out.startswith("# quadrant")
    elif from_main and rc == 0:
        expect = random.Random(5).randbytes(16) if secret is None else bytes.fromhex(secret)
        assert out == expect.hex() + "\n"


# Flag pools for the argv property: each flag maps to (valid, invalid)
# values.  A drawn flag is absent one time in twenty, invalid one in twenty
# and valid otherwise.  File names resolve inside tmp_path; "nodir/..." names a
# file in a directory that does not exist, "." the directory itself.
# Counts stay at a few hundred so no example is slow.
PASSWORD_POOL = {
    "--height": (["155", "170"], ["300", "-1", "x"]),
    "--eye-color": (["brown", "gray"], ["purple"]),
    "--gender": (["M", "F"], ["X"]),
    "--password": (["FUZZY", "TOKEN"], ["FUZ", "FU\tZY", "FUZZYY"]),
}
TEMPLATE_POOL = (["template.txt", "small.txt"], ["binary.txt", "missing.txt", "."])
FLAG_POOLS = {
    "enroll": {
        "--template": TEMPLATE_POOL,
        "--vault": (["new.bin"], ["nodir/new.bin", "."]),
        "--secret": (["00112233445566778899aabbccddeeff"], ["zz", "00", ""]),
        "--seed": (["0", "77", "-1"], ["x"]),
        "--r": (["9", "15", "20"], ["200", "0", "-1", "x"]),
        "--c": (["0", "10", "200"], ["-1", "70000", "x"]),
        "--d": (["0", "4", "255"], ["256", "-1"]),
        "--epsilon": (["0", "2", "255"], ["256", "-1"]),
    },
    "verify": {
        "--template": TEMPLATE_POOL,
        "--vault": (["vault.bin"], ["garbage.bin", "missing.bin", "."]),
        "--epsilon": (["0", "2", "255"], ["256", "-1", "x"]),
    },
    "transform": {"--template": TEMPLATE_POOL},
    "analyze": {
        "--r": (["9", "20", "300"], ["5", "-1", "x"]),
        "--c": (["0", "200", "300"], ["-1", "x"]),
        "--n": (["0", "8"], ["300", "-1", "x"]),
    },
    "synth": {
        "--out": (["out.txt"], ["nodir/out.txt", "."]),
        "--seed": (["0", "3", "-1"], ["x"]),
        "--count": (["0", "1", "20", "200"], ["-1", "x"]),
        "--min-dist": (["0", "4", "4.5"], ["400", "-1", "nan", "x"]),
    },
}
PATH_FLAGS = {"--template", "--vault", "--out"}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(FLAG_POOLS)))
    pools = dict(FLAG_POOLS[command])
    argv = [command]
    if command in ("enroll", "verify", "transform"):
        name = draw(st.sampled_from(["FUZZY", "TOKEN", None]))
        if name is None:
            pools.update(PASSWORD_POOL)
        else:
            argv += PASSWORD_FLAGS[name]
    for flag, (valid, invalid) in pools.items():
        kind = draw(st.integers(0, 19))
        if kind:
            argv += [flag, draw(st.sampled_from(invalid if kind == 1 else valid))]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--r"])))
    return argv


@given(cli_argvs())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_main_any_argv_exits_0_1_or_2(tmp_path, capsys, argv):
    (tmp_path / "template.txt").write_bytes(TEMPLATE_TEXT)
    (tmp_path / "small.txt").write_text(write_template(synth_template(1, 5, 4)))
    (tmp_path / "binary.txt").write_bytes(NOT_UTF8)
    (tmp_path / "vault.bin").write_bytes(VAULT_BLOB)
    (tmp_path / "garbage.bin").write_bytes(VAULT_BLOB[:100])
    argv = [str(tmp_path / arg) if prev in PATH_FLAGS else arg
            for prev, arg in zip([None, *argv], argv)]
    run_main_checked(argv, capsys)
