"""Persistence for templates and vaults, plus a synthetic point generator.

Templates travel as plain text, one "x y" pair of ASCII decimal numbers
per line, with '#' comments and blank lines ignored; hand-editable and
diff-friendly.
Vaults travel as a small binary frame so the keystream-xored point
region stays bit-exact:

    magic "IFV2" | version 0x02 | n | r (BE16) | c (BE16) | d | epsilon |
    4 reserved zero bytes | (r + c) point records of (a BE16, b BE16)

The header is plaintext, but it keys the keystream over the point records
together with the password, so a header edited after enrolment leaves the
records undecryptable.  IFV1 frames ("IFV1", version 0x01, same layout,
keystream keyed by the password alone) are still read and written back
unchanged.  The synthetic generator stands in for an upstream feature
extractor, emitting seeded, well-separated points in the 256x256 canonical
space.
"""

from __future__ import annotations

import random

from .errors import DomainError, FormatError
from .transform import GRID_SIZE, MinutiaPoint, Template
from .vault import (
    POINT_RECORD,
    POLY_DEGREE,
    VAULT_HEADER,
    VAULT_MAGICS,
    Vault,
    VaultParams,
    vault_header,
)

PLACEMENT_TRIES = 10_000


def parse_template(text: str) -> Template:
    """Read points in file order; malformed lines, coordinates other than
    ASCII digits among them, fail with their number."""
    points: Template = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'x y', got {raw!r}")
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise FormatError(f"line {lineno}: non-decimal coordinate in {raw!r}")
        x, y = int(parts[0]), int(parts[1])
        if not (0 <= x < GRID_SIZE and 0 <= y < GRID_SIZE):
            raise FormatError(
                f"line {lineno}: point ({x}, {y}) outside the {GRID_SIZE}x{GRID_SIZE} space"
            )
        points.append(MinutiaPoint(x, y))
    return points


def write_template(points: Template) -> str:
    """Inverse of parse_template; empty templates serialize to "" ."""
    return "".join(f"{p.x} {p.y}\n" for p in points)


def synth_template(seed: int, count: int, min_dist: float) -> Template:
    """``count`` seeded random points, pairwise at least ``min_dist`` apart.

    Rejection-samples the grid; gives up with DomainError once a single
    point burns through 10,000 rejected draws, which in practice means the
    (count, min_dist) combination does not fit.
    """
    if count < 0:
        raise DomainError(f"count must be non-negative, got {count}")
    rng = random.Random(seed)
    threshold = min_dist * min_dist
    points: Template = []
    for _ in range(count):
        for _ in range(PLACEMENT_TRIES):
            cand = MinutiaPoint(rng.randrange(GRID_SIZE), rng.randrange(GRID_SIZE))
            if all((cand.x - p.x) ** 2 + (cand.y - p.y) ** 2 >= threshold for p in points):
                points.append(cand)
                break
        else:
            raise DomainError(
                f"could not place point {len(points) + 1} of {count} at spacing {min_dist}"
            )
    return points


def write_vault(vault: Vault) -> bytes:
    """Serialize a vault to the frame of its version: the header, then its
    records."""
    return vault_header(vault.params, vault.version) + vault.records


def read_vault(data: bytes) -> Vault:
    """Check an IFV2 or IFV1 frame and return it as a :class:`Vault` of that
    version, holding the point region as stored, copied to ``bytes`` and not
    parsed.  Nonzero reserved bytes are a FormatError, so every accepted
    frame is what write_vault gives back."""
    if len(data) < VAULT_HEADER.size:
        raise FormatError(f"stream of {len(data)} bytes is shorter than the header")
    magic, version, n, r, c, d, epsilon, reserved = VAULT_HEADER.unpack_from(data)
    if magic not in VAULT_MAGICS.values():
        raise FormatError(f"bad magic {magic!r}, expected b'IFV2' or b'IFV1'")
    if VAULT_MAGICS.get(version) != magic:
        raise FormatError(f"unsupported version {version} for magic {magic!r}")
    if n != POLY_DEGREE:
        raise FormatError(f"unsupported polynomial degree {n}")
    if reserved:
        raise FormatError(f"reserved header bytes must be zero, got {reserved:08x}")
    try:
        params = VaultParams(r=r, c=c, d=d, epsilon=epsilon)
    except DomainError as exc:
        raise FormatError(f"invalid parameters in header: {exc}") from None
    expected = VAULT_HEADER.size + POINT_RECORD.size * params.total
    if len(data) != expected:
        raise FormatError(
            f"point region holds {len(data) - VAULT_HEADER.size} bytes, "
            f"expected {expected - VAULT_HEADER.size} for {params.total} points"
        )
    return Vault(params, bytes(data[VAULT_HEADER.size:]), version)
