"""Command-line front end: enroll, verify, transform, analyze, synth.

Exit codes: 0 success, 1 authentication failure, 2 usage or input error.
Data goes to stdout (secrets as 32 lowercase hex digits, reports as
"key: value" lines), diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import security, templates
from .errors import DomainError, IrisVaultError, UnlockError
from .password import (
    CombinedPassword,
    EyeColor,
    SoftBiometrics,
    UserPassword,
    combine_password,
    derive_blocks,
)
from .transform import quadrant_of, transform_template
from .vault import (DEFAULT_CHAFF_FACTOR, DEFAULT_GENUINE, DEFAULT_PRUNE_DIST, POLY_DEGREE,
                    VaultParams, build_vault, open_vault, read_vault, write_vault)

QUADRANT_NAMES = ("I", "II", "III", "IV")


def _add_password_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("password")
    group.add_argument("--height", type=int, required=True,
                       help="height in cm, 0-255")
    group.add_argument("--eye-color", required=True,
                       choices=[c.value for c in EyeColor])
    group.add_argument("--gender", required=True, choices=["M", "F"])
    group.add_argument("--password", required=True,
                       help="user password, exactly 5 printable ASCII characters")


def _password_from_args(args: argparse.Namespace) -> CombinedPassword:
    soft = SoftBiometrics(args.height, EyeColor(args.eye_color), args.gender)
    return combine_password(soft, UserPassword(args.password))


def _chaff_from_args(args: argparse.Namespace) -> int:
    """--c, or DEFAULT_CHAFF_FACTOR * r when it is not given: enroll and analyze alike."""
    return args.c if args.c is not None else DEFAULT_CHAFF_FACTOR * args.r


def _read_template(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return templates.parse_template(text)


def cmd_enroll(args: argparse.Namespace) -> int:
    cp = _password_from_args(args)
    params = VaultParams(args.r, _chaff_from_args(args), args.d, args.epsilon)
    points = _read_template(args.template)
    rng = random.Random(args.seed)
    if args.secret is not None:
        try:
            secret = bytes.fromhex(args.secret)
        except ValueError:
            raise DomainError(f"--secret must be hex, got {args.secret!r}") from None
        if len(secret) != 16:
            raise DomainError(f"--secret must be 32 hex digits, got {len(secret) * 2}")
    else:
        secret = rng.randbytes(16)
    vault = build_vault(points, secret, cp, params, rng)
    with open(args.vault, "wb") as f:
        f.write(write_vault(vault))
    print(f"vault written: {args.vault} ({params.total} points)", file=sys.stderr)
    print(secret.hex())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cp = _password_from_args(args)
    with open(args.vault, "rb") as f:
        vault = read_vault(f.read())
    points = _read_template(args.template)
    secret = open_vault(vault, points, cp, epsilon=args.epsilon)
    print(secret.hex())
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    cp = _password_from_args(args)
    blocks = derive_blocks(cp)
    points = _read_template(args.template)
    print("# quadrant x y tu tv x' y'")
    for p, moved in zip(points, transform_template(points, blocks)):
        q = quadrant_of(p)
        block = blocks[q]
        print(f"{QUADRANT_NAMES[q]} {p.x} {p.y} {block.tu} {block.tv} {moved.x} {moved.y}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    report = security.analyze(args.r, _chaff_from_args(args), args.n)
    lo, hi = report.hardened_range_rounded
    print(f"genuine points (r): {report.r}")
    print(f"chaff points (c): {report.c}")
    print(f"total points (t): {report.t}")
    print(f"polynomial degree (n): {report.n}")
    print(f"total combinations: {report.total_combinations}")
    print(f"required combinations: {report.required_combinations}")
    print(f"evaluations: {report.evaluations:.4e}")
    print(f"min-entropy (bits): {report.min_entropy_bits:.4f}")
    print(f"hardened range (bits): {lo} to {hi}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    points = templates.synth_template(args.seed, args.count, args.min_dist)
    with open(args.out, "w") as f:
        f.write(templates.write_template(points))
    print(f"template written: {args.out} ({len(points)} points)", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irisvault",
        description="Lock and recover secrets in a password-hardened fuzzy vault "
                    "over biometric point templates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enroll = sub.add_parser("enroll", help="lock a secret in a new vault")
    enroll.add_argument("--template", required=True, help="enrollment template file")
    enroll.add_argument("--vault", required=True, help="output vault file")
    enroll.add_argument("--secret", help="32 hex digits; generated from --seed if omitted")
    enroll.add_argument("--seed", type=int, default=None,
                        help="seed for chaff, scramble, and secret generation")
    enroll.add_argument("--r", type=int, default=DEFAULT_GENUINE, help="genuine point count")
    enroll.add_argument("--c", type=int, default=None,
                        help=f"chaff point count (default {DEFAULT_CHAFF_FACTOR}*r)")
    enroll.add_argument("--d", type=int, default=DEFAULT_PRUNE_DIST,
                        help="pruning distance in pixels")
    enroll.add_argument("--epsilon", type=int, default=0,
                        help="match tolerance stored in the vault header")
    _add_password_flags(enroll)
    enroll.set_defaults(func=cmd_enroll)

    verify = sub.add_parser("verify", help="recover the secret from a vault")
    verify.add_argument("--template", required=True, help="query template file")
    verify.add_argument("--vault", required=True, help="vault file")
    verify.add_argument("--epsilon", type=int, default=None,
                        help="override the vault's stored match tolerance")
    _add_password_flags(verify)
    verify.set_defaults(func=cmd_verify)

    transform = sub.add_parser(
        "transform", help="show the password transformation of each template point")
    transform.add_argument("--template", required=True, help="template file")
    _add_password_flags(transform)
    transform.set_defaults(func=cmd_transform)

    analyze = sub.add_parser("analyze", help="report vault min-entropy")
    analyze.add_argument("--r", type=int, default=DEFAULT_GENUINE, help="genuine point count")
    analyze.add_argument("--c", type=int, default=None,
                         help=f"chaff point count (default {DEFAULT_CHAFF_FACTOR}*r)")
    analyze.add_argument("--n", type=int, default=POLY_DEGREE, help="polynomial degree")
    analyze.set_defaults(func=cmd_analyze)

    synth = sub.add_parser("synth", help="generate a synthetic template")
    synth.add_argument("--out", required=True, help="output template file")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--count", type=int, default=20)
    synth.add_argument("--min-dist", type=float, default=4.0)
    synth.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IrisVaultError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
