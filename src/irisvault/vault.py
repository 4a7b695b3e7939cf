"""Fuzzy vault core: lock a 128-bit secret under a point template.

Encoding masks the secret with the combined password, appends a 16-bit CRC,
splits the 144-bit payload into nine GF(2^16) coefficients of a degree-8
polynomial, evaluates it at the template's lock units, buries the genuine
points among uniformly random chaff, scrambles the list, packs it into 4-byte
records and xors a keystream over them: SHAKE-128 of the vault's 16-byte
header and the password, so a vault whose header was edited decrypts to
noise.  A :class:`Vault` only ever holds those stored bytes, the point
region of a vault file.  The clear points have the same layout: one
big-endian record a << 16 | b per point, from the chaff draw through the
cipher and back, and only :func:`match_candidates` reads them as numbers,
building ``(a, b)`` tuples only for the points it keeps.
A polynomial is a plain tuple of nine coefficients, highest degree first.

A vault file is one frame, which :func:`write_vault` writes and
:func:`read_vault` checks, so that the records stay bit-exact:

    magic "IFV2" | version 0x02 | n | r (BE16) | c (BE16) | d | epsilon |
    4 reserved zero bytes | (r + c) point records of (a BE16, b BE16)

The header is plaintext.  r + c is at most 65536, the number of distinct
abscissas.  IFV1 frames, keyed by the password alone, are refused.

No chaff point may lie on the polynomial, so every drawn abscissa is
evaluated, a whole draw at once, the first with the genuine units, by
:func:`_eval_poly_many`.  In characteristic 2, (a + b)^2 = a^2 + b^2, so the
terms of degree 1, 2, 4, 8 are GF(2)-linear in x: the xor of their images of
x's set bits, where 1 << i = exp[i] needs no log.  Four 256-byte tables per
polynomial map each byte of x to each byte of that sum, applied by
bytes.translate.  The terms of degree 3, 5, 6, 7, exp[(log ck + k log x) mod
65535], are summed with each abscissa in a 32-bit little-endian lane of one
Python int: one multiplication gives k log x in every lane, below 2^29 since
k < 8192, and two folds as (s & 0xFFFF) + (s >> 16), since 2^16 = 1 mod
65535, bring it into [0, 65535].  With log ck added an exp index is at most
131069, inside the doubled table, so no lane carries into the next.  Each is
gathered with one itemgetter call and xored in as packed 16-bit lanes.
log[0] is only a placeholder, so lanes with x = 0 are set to c0 at the end.

Decoding reverses the path: decrypt, transform the query with the same
password, match its lock units against the vault (within epsilon, a header
byte, in a row bitmask table padded by epsilon, from discs built once per
epsilon), and decode the candidates as a Reed-Solomon code.  Genuine points
are codeword symbols and matched chaff are errors, so the first nine
candidates' interpolant h, or else Gao's algorithm on the residual y - h at
degree m - 9, recovers the polynomial from m candidates with distinct
abscissas when at most floor((m - 9) / 2) are chaff.  h stays the first
nine's Newton table: a later candidate's residual (y - h(a)) / W(a) is the
table's one-point extension, 0 exactly where h agrees, so h is expanded into
coefficients only when it is returned.  A decode is accepted only when the
polynomial agrees with at least ceil((m + 9) / 2) of all m candidates and its
payload passes the CRC.  Within that radius the polynomial is unique, so the
candidates' order does not matter.  Before decoding, at every epsilon, one
pass drops each copy of a repeated abscissa, which only a wrong key decrypts,
then a maximal set of disjoint pairs closer than d, chosen greedily in
abscissa order: lock units are pruned at d and no chaff lies on the
polynomial, so a pair holds at most one genuine point, and dropping it costs
the enrolled polynomial one agreement of the two more the radius would ask.
At epsilon 0 every candidate left is a query unit, pruned at d, so none
pairs.  The decoder runs on the conflict-free rest, the core, and counts the
pairs only toward the agreement; with fewer than nine left, only a polynomial
through both points of a pair could pass, so none is sought.
"""

from __future__ import annotations

import random
import struct
import sys
from array import array
from collections import namedtuple
from collections.abc import Sequence
from functools import cache
from itertools import chain, compress
from math import isqrt
from operator import itemgetter, ne, xor

from .errors import DomainError, UnlockError, check_bytes, check_int, check_words
from .fields import (
    _GF_EXP,
    _GF_LOG,
    GF_ORDER,
    SECRET_BYTES,
    PAYLOAD_BYTES,
    check_crc,
    append_crc,
)
from .password import CombinedPassword, derive_blocks, mask_secret
from .transform import GRID_SIZE, Template, prune_close, transform_template

# As random.py does for _sha512: the builtin module gives the same bytes as
# hashlib without loading OpenSSL, which costs some 3.6 MB of resident memory.
try:
    from _sha3 import shake_128
except ImportError:
    from hashlib import shake_128

POLY_DEGREE = 8
N_COEFFS = POLY_DEGREE + 1

DEFAULT_GENUINE = 20
DEFAULT_CHAFF_FACTOR = 10
DEFAULT_PRUNE_DIST = 4
DEFAULT_MAX_COMBINATIONS = 2_000_000


# Each VaultParams field: its name in messages, and its inclusive range.
_PARAM_RANGES = (
    ("genuine count r", N_COEFFS, 0xFFFF),
    ("chaff count c", 0, 0xFFFF),
    ("pruning distance d", 0, 0xFF),
    ("epsilon", 0, 0xFF),
)


class VaultParams(namedtuple("VaultParams", "r c d epsilon")):
    """Vault shape: genuine count r, chaff count c, pruning distance d, and
    the match tolerance epsilon (0 = exact lock units), each an int, not a
    subclass, in the range of its header field, or DomainError names the field;
    r + c, one abscissa per point, is at most GF_ORDER.  The polynomial
    degree is fixed at POLY_DEGREE."""

    __slots__ = ()

    def __new__(cls, r: int = DEFAULT_GENUINE, c: int = DEFAULT_GENUINE * DEFAULT_CHAFF_FACTOR,
                d: int = DEFAULT_PRUNE_DIST, epsilon: int = 0) -> VaultParams:
        fields = (r, c, d, epsilon)
        for (name, lo, hi), value in zip(_PARAM_RANGES, fields):
            check_int(name, value, lo, hi)
        if r + c > GF_ORDER:
            raise DomainError(f"r + c = {r + c} points exceed the {GF_ORDER} distinct abscissas")
        return tuple.__new__(cls, fields)  # as the namedtuple's own __new__ does

    @property
    def total(self) -> int:
        return self.r + self.c


POINT_RECORD = struct.Struct(">HH")  # abscissa, ordinate: big-endian 16-bit words

# magic, version, degree, r, c, d, epsilon, 4 reserved zero bytes
VAULT_HEADER = struct.Struct(">4sBBHHBBI")
VAULT_MAGIC = b"IFV2"
VAULT_VERSION = 2


def vault_header(params: VaultParams) -> bytes:
    """The 16-byte header that starts a vault file."""
    return VAULT_HEADER.pack(VAULT_MAGIC, VAULT_VERSION, POLY_DEGREE,
                             params.r, params.c, params.d, params.epsilon, 0)


class Vault(namedtuple("Vault", "params records")):
    """Parameters and points as stored: ``records`` holds one
    :data:`POINT_RECORD` per point, the vault file's point region, with the
    keystream of the header and the password xored over it, so without the
    password the records carry no structure.  :func:`decrypt_vault` returns
    the clear region."""

    __slots__ = ()


def write_vault(vault: Vault) -> bytes:
    """Serialize a vault to its frame: the header, then its records."""
    return vault_header(vault.params) + vault.records


def read_vault(data: bytes) -> Vault:
    """Check a bytes-like frame and return it as a :class:`Vault` holding the
    point region as stored, copied to ``bytes`` and not parsed.  Nonzero
    reserved bytes are a DomainError, as is every other malformed frame, its
    length counted in bytes, so every accepted frame is what write_vault gives back."""
    data = check_bytes("vault stream", data)
    if len(data) < VAULT_HEADER.size:
        raise DomainError(f"stream of {len(data)} bytes is shorter than the header")
    magic, version, n, r, c, d, epsilon, reserved = VAULT_HEADER.unpack_from(data)
    if magic == b"IFV1":
        raise DomainError("IFV1 vaults are no longer read; enrol again")
    if magic != VAULT_MAGIC:
        raise DomainError(f"bad magic {magic!r}, expected {VAULT_MAGIC!r}")
    if version != VAULT_VERSION:
        raise DomainError(f"unsupported version {version} for magic {magic!r}")
    if n != POLY_DEGREE:
        raise DomainError(f"unsupported polynomial degree {n}")
    if reserved:
        raise DomainError(f"reserved header bytes must be zero, got {reserved:08x}")
    try:
        params = VaultParams(r=r, c=c, d=d, epsilon=epsilon)
    except DomainError as exc:
        raise DomainError(f"invalid parameters in header: {exc}") from None
    expected = VAULT_HEADER.size + POINT_RECORD.size * params.total
    if len(data) != expected:
        raise DomainError(
            f"point region holds {len(data) - VAULT_HEADER.size} bytes, "
            f"expected {expected - VAULT_HEADER.size} for {params.total} points"
        )
    return Vault(params, bytes(data[VAULT_HEADER.size:]))


def _template_units(template: Template, cp: CombinedPassword, params: VaultParams) -> list[int]:
    """The first r of the sorted, deduplicated 16-bit lock units (x << 8) | y
    of the password-transformed template pruned at d, for enrolment and
    verification alike; fewer when the template yields fewer.
    :func:`transform_template` raises DomainError for a raw point that is
    not a pair of ints on the 256x256 grid."""
    ready = prune_close(transform_template(template, derive_blocks(cp)), params.d)
    return sorted({(x << 8) | y for x, y in ready})[:params.r]


_COEFFS = struct.Struct(f">{N_COEFFS}H")


def encode_secret(payload: bytes) -> tuple[int, ...]:
    """Split an 18-byte payload, of any bytes-like type, into nine big-endian
    16-bit coefficients, highest degree first: the first segment becomes the degree-8 one."""
    return _COEFFS.unpack(check_bytes("payload", payload, PAYLOAD_BYTES))


def decode_secret(coeffs: Sequence[int]) -> bytes:
    """Inverse of :func:`encode_secret`; DomainError unless nine ints in [0, 65535]."""
    if len(coeffs) != N_COEFFS:
        raise DomainError(f"need {N_COEFFS} coefficients, got {len(coeffs)}")
    check_words("coefficient", coeffs)
    return _COEFFS.pack(*coeffs)


def eval_poly(coeffs: Sequence[int], u: int) -> int:
    """Evaluate the polynomial (coefficients highest degree first) at ``u`` by
    Horner's rule on the log/antilog tables; DomainError for values outside [0, 65535]."""
    check_int("abscissa u", u, 0, 0xFFFF)
    check_words("coefficient", coeffs)
    if not u:
        return coeffs[-1] if coeffs else 0
    exp, log = _GF_EXP, _GF_LOG
    lu = log[u]
    acc = 0
    for c in coeffs:
        acc = (exp[log[acc] + lu] if acc else 0) ^ c
    return acc


# Fewer abscissas than this are cheaper through eval_poly one at a time: on
# CPython 3.11.7 on a shared 2-vCPU host, with nine coefficients, the kernel
# breaks even between 10 and 11 (26 us either way, best of 7 x 2000).  It also
# needs at least two: itemgetter with one key returns the item itself.
_LANES_MIN = 11


# A 1 in each of 2**i 32-bit lanes, to double a table of 2**i lanes.
_LANE_ONES = [int.from_bytes(b"\1\0\0\0" * (1 << i), "little") for i in range(8)]


def _eval_poly_many(coeffs: Sequence[int], xs: Sequence[int]) -> list[int]:
    """``[eval_poly(coeffs, x) for x in xs]``: linear terms by byte tables,
    the rest in lanes of one int; the module docstring gives the bounds."""
    n = len(xs)
    top = len(coeffs) - 1
    # No c0 for the empty polynomial; at k = 8192, exp[lc + 15 k] is past the table.
    if n < _LANES_MIN or not 0 <= top < 8192:
        return [eval_poly(coeffs, x) for x in xs]
    exp, log = _GF_EXP, _GF_LOG
    words, halves = f"<{n}I", f"<{n}H"
    ones = int.from_bytes(b"\1\0\0\0" * n, "little")
    low = 0xFFFF * ones
    step = int.from_bytes(struct.pack(words, *itemgetter(*xs)(log)), "little")
    c0 = coeffs[-1]
    acc = c0 * int.from_bytes(b"\1\0" * n, "little")
    images = [0] * 16  # of 1 << i = exp[i] under the linear terms
    for k in (1 << j for j in range(top.bit_length())):
        if coeffs[top - k]:
            lc = log[coeffs[top - k]]
            images = list(map(xor, images, exp[lc:lc + 16 * k:k]))
    table = 0  # 32-bit lane b: the images of b << 8 and of b, as high and low halves
    for i in range(8):
        table |= (table ^ (images[8 + i] << 16 | images[i]) * _LANE_ONES[i]) << (32 << i)
    table = table.to_bytes(1024, "little")
    packed, buf = struct.pack(halves, *xs), bytearray(2 * n)
    for half, lo in ((packed[0::2], 0), (packed[1::2], 2)):
        buf[0::2] = half.translate(table[lo::4])
        buf[1::2] = half.translate(table[lo + 1::4])
        acc ^= int.from_bytes(buf, "little")
    for k, c in enumerate(reversed(coeffs[:-1]), 1):
        if c and k & (k - 1):  # a term the tables left out
            power = step * k
            power = (power & low) + ((power >> 16) & low)
            power = (power & low) + ((power >> 16) & low)
            index = struct.unpack(words, (power + log[c] * ones).to_bytes(4 * n, "little"))
            acc ^= int.from_bytes(struct.pack(halves, *itemgetter(*index)(exp)), "little")
    out = list(struct.unpack(halves, acc.to_bytes(2 * n, "little")))
    if 0 in xs:
        for i, x in enumerate(xs):
            if not x:
                out[i] = c0
    return out


def _times_linear(p: list[int], a: int) -> None:
    """Multiply ``p``, degree ascending, by (x - a) in place on the log tables."""
    p.insert(0, 0)  # times x: all a root 0 needs
    if a:
        exp, log = _GF_EXP, _GF_LOG
        la = log[a]
        for j in range(len(p) - 1):  # add a times the old p, read before overwritten
            c = p[j + 1]
            if c:
                p[j] ^= exp[log[c] + la]


def _newton_residue(xs: list[int], dd: list[int], a: int, y: int) -> int:
    """f[x0, ..., x(n-1), a] for f(a) = y, which extends the Newton table
    ``dd`` of h through ``xs`` by one point: (y - h(a)) / W(a) with W =
    prod(x - xi), 0 exactly when h(a) = y, at one division per xi."""
    exp, log, top = _GF_EXP, _GF_LOG, GF_ORDER - 1
    for b, c in zip(xs, dd):
        y ^= c  # in characteristic 2 subtraction is xor,
        if y:  # and exp is doubled, so log[y] - log[a ^ b] + 65535 stays inside it
            y = exp[log[y] - log[a ^ b] + top]
    return y


def _newton_table(points: Sequence[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Abscissas and Newton table f[x0], f[x0, x1], ...: each entry is its
    point's residue on the entries before it."""
    xs, dd = [], []
    for a, y in points:
        dd.append(_newton_residue(xs, dd, a, y))
        xs.append(a)
    return xs, dd


def _newton_expand(xs: list[int], dd: list[int]) -> tuple[int, ...]:
    """dd[0] + (x - xs[0])(dd[1] + ...) expanded, coefficients highest first."""
    coeffs = dd[-1:]
    for i in range(len(xs) - 2, -1, -1):
        _times_linear(coeffs, xs[i])
        coeffs[0] ^= dd[i]
    return tuple(reversed(coeffs))


def interpolate(points: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """The unique polynomial of degree below ``len(points)`` through the
    points, as ``len(points)`` coefficients highest degree first: through
    nine points, the form :func:`encode_secret` returns.

    Newton's divided-difference table, then expansion of the nested form,
    the two halves :func:`_rs_decode` uses apart.  Abscissas must be
    pairwise distinct, and abscissas and ordinates in [0, 65535].
    """
    xs = [p[0] for p in points]
    check_words("interpolation abscissa", xs)
    check_words("interpolation ordinate", [p[1] for p in points])
    if len(set(xs)) != len(xs):
        raise DomainError("interpolation abscissas must be pairwise distinct")
    return _newton_expand(*_newton_table(points))


# Polynomials for the decoder: coefficient lists, degree ascending, with no
# zero leading coefficient (the zero polynomial is []).

def _poly_trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_addmul(s: list[int], p: list[int], q: list[int]) -> list[int]:
    """``s + p * q`` as a new list, trimmed."""
    exp, log = _GF_EXP, _GF_LOG
    out = s + [0] * (len(p) + len(q) - 1 - len(s))
    q_logs = [(j, log[c]) for j, c in enumerate(q) if c]
    for i, a in enumerate(p):
        if a:
            la = log[a]
            for j, lb in q_logs:
                out[i + j] ^= exp[la + lb]
    return _poly_trim(out)


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of ``num`` by the nonzero ``den``."""
    exp, log = _GF_EXP, _GF_LOG
    top = len(den) - 1
    rem = list(num)
    if len(rem) <= top:
        return [], rem
    lead = log[den[top]]
    den_logs = [(j, log[c]) for j, c in enumerate(den[:top]) if c]
    quot = [0] * (len(rem) - top)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + top]
        if c:
            lq = (log[c] - lead) % (GF_ORDER - 1)
            quot[i] = exp[lq]
            for j, lb in den_logs:
                rem[i + j] ^= exp[lq + lb]
    del rem[top:]
    return quot, _poly_trim(rem)


def _rs_decode(candidates: Sequence[tuple[int, int]],
               spare: Sequence[tuple[int, int]] = ()) -> tuple[int, ...] | None:
    """The degree-at-most-8 polynomial through at least ceil((M + 9) / 2) of
    the M = m + len(spare) points, as nine coefficients (degree descending),
    or None when the m candidates do not find it: the ``spare`` points only
    count toward that agreement.

    Abscissas are pairwise distinct across ``candidates`` and ``spare``, as
    :func:`_drop_close_pairs`, which makes both, guarantees; m is at least
    nine.  Within that agreement the polynomial is unique (two distinct ones
    share at most eight points), so the candidates' order does not matter.
    The interpolant h of the first nine settles a set whose errors are all
    past them without Euclid: the later candidates, then the spare ones,
    are counted on h, while it lacks the agreement, by their residues
    (y - h(a)) / W(a) on the first nine's Newton table, W = prod(x - a_i)
    over the first nine; h is expanded from the table only to be returned.
    Otherwise Gao's algorithm (2003) decodes the residual y - h of the
    candidates alone, whose interpolant is W * T, T through the later
    candidates' (a_j, (y_j - h(a_j)) / W(a_j)).  Euclid on W * P and W * T,
    P = prod(x - a_j) over the later ones, has the quotients and Bezout
    coefficients v of Euclid on P and T, at degree m - 9, so it stops at
    2 deg r < m - 9 and gives h + W * r / v, of degree at most 8 only when
    deg r < deg v; with spare points, its agreement over all M is counted
    before it is returned.  At m <= 10 Gao rejects by itself: T is
    constant, so Euclid takes no step and deg r = deg v.
    """
    m = len(candidates)
    first, table = _newton_table(candidates[:N_COEFFS])
    short = (m + len(spare) + N_COEFFS + 1) // 2 - N_COEFFS  # agreements h still lacks
    residual = []
    for a, y in candidates[N_COEFFS:]:
        z = _newton_residue(first, table, a, y)
        if not z:
            short -= 1
            if not short:
                return _newton_expand(first, table)
        residual.append((a, z))
    if short <= len(spare):  # else h cannot reach the agreement
        for a, y in spare:
            if not _newton_residue(first, table, a, y):
                short -= 1
                if not short:
                    return _newton_expand(first, table)
    r0 = [1]
    for a, _ in residual:
        _times_linear(r0, a)
    r1 = _poly_trim(list(reversed(_newton_expand(*_newton_table(residual)))))
    v0: list[int] = []
    v1 = [1]
    while 2 * (len(r1) - 1) >= m - N_COEFFS:
        quot, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, _poly_addmul(v0, quot, v1)
    if not r1:  # T = 0: h is through every candidate, so only spare ones can be short
        return None if short else _newton_expand(first, table)
    if len(r1) >= len(v1):
        return None
    for a in first:
        _times_linear(r1, a)
    g, rem = _poly_divmod(r1, v1)
    if rem:
        return None
    # W * r = v * g and r = v * T modulo P, so g misses the residual only at
    # roots of v, and deg v <= (m - 9) / 2 since the remainder before r had
    # 2 deg >= m - 9: h + g has the agreement among the candidates without
    # a recount.
    coeffs = tuple(map(xor, _newton_expand(first, table), [0] * (N_COEFFS - len(g)) + g[::-1]))
    if spare:
        agree = sum([eval_poly(coeffs, a) == y for a, y in chain(candidates, spare)])
        if 2 * agree < m + len(spare) + N_COEFFS:
            return None
    return coeffs


def _drop_close_pairs(candidates: list[tuple[int, int]],
                      d: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The candidates, sorted by abscissa, split into a core and the spare
    pairs.  Every copy of a repeated abscissa, adjacent in that order, goes
    first; then each candidate left and not yet paired, in abscissa order,
    is paired with the first later one not yet paired whose point lies
    closer than ``d``.  The pairs are disjoint and maximal, so no two core
    candidates are closer than d, and no abscissa occurs twice in core and
    spare; the core keeps abscissa order and the spare holds the pairs in
    the order found.  A candidate is compared only with the later ones fewer
    than d << 8 abscissas on, which holds every one fewer than d columns on."""
    xs = [p[0] for p in candidates]
    if len(set(xs)) < len(xs):  # which only a wrong key decrypts
        xs = [-1, *xs, -1]
        candidates = [p for p, lo, a, hi in zip(candidates, xs, xs[1:], xs[2:]) if lo != a != hi]
    reach, far = d << 8, d * d
    m = len(candidates)
    spare: list[tuple[int, int]] = []
    dropped = set()  # abscissas, each now naming one candidate
    for j, p in enumerate(candidates, 1):
        a = p[0]
        if a in dropped:
            continue
        while j < m:
            o = candidates[j]
            b = o[0]
            if b - a >= reach:  # and so is every later one
                break
            dx, dy = (b >> 8) - (a >> 8), (b & 0xFF) - (a & 0xFF)
            if dx * dx + dy * dy < far and b not in dropped:
                dropped.update((a, b))
                spare += (p, o)
                break
            j += 1
    if not spare:
        return candidates, spare
    return [p for p in candidates if p[0] not in dropped], spare


def generate_chaff(genuine_us: Sequence[int], poly: Sequence[int], count: int,
                   rng: random.Random) -> list[int]:
    """The vault's clear points as records ``a << 16 | b``: the genuine
    units in the order given, each with its ordinate on the polynomial, then
    ``count`` uniform chaff points in draw order.

    The chaff is drawn as big-endian 32-bit records from one
    ``rng.randbytes`` call, and one :func:`_eval_poly_many` call evaluates
    the genuine units with the draw's abscissas.  A record whose abscissa is
    taken, or whose ordinate lies on the polynomial, is rejected, and the
    shortfall is drawn again the same way: abscissas stay distinct, a repeat
    loses to its first copy, and no chaff point can pass as genuine.
    DomainError unless ``count`` is a :class:`VaultParams` c, and the
    genuine units and ``poly``, which would spill into the abscissa, are
    16-bit words, the units distinct.
    """
    check_int("chaff count c", count, 0, 0xFFFF)
    check_words("polynomial coefficient", poly)
    check_words("genuine unit", genuine_us)
    used = set(genuine_us)
    if len(used) != len(genuine_us):
        raise DomainError("genuine units must be distinct")
    total = count + len(used)
    if total > GF_ORDER:
        raise DomainError(f"{count} chaff + {len(used)} genuine exceed {GF_ORDER} abscissas")
    records: list[int] = []
    first, need = list(genuine_us), count  # first: the units evaluated with the first draw
    while first or need:
        data = rng.randbytes(4 * need) if need else b""
        words = struct.unpack(f">{2 * need}H", data)
        xs = words[0::2]
        curve = _eval_poly_many(poly, first + list(xs))
        records += [u << 16 | y for u, y in zip(first, curve)]
        for record, a, off in zip(struct.unpack(f">{need}I", data), xs,
                                  map(ne, words[1::2], curve[len(first):])):
            if off and a not in used:
                used.add(a)
                records.append(record)
        first, need = [], total - len(records)
    return records


def _scramble(points: list, rng: random.Random) -> None:
    """``rng.shuffle(points)`` with its ``getrandbits`` draws and no
    ``_randbelow`` call per element: j is drawn below i + 1 from
    (i + 1).bit_length() bits, again until it fits."""
    getrandbits = rng.getrandbits
    for i in range(len(points) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        points[i], points[j] = points[j], points[i]


def _shake_cipher(records: bytes, header: bytes, cp: CombinedPassword) -> bytes:
    """xor the keystream, SHAKE-128 of ``header || cp.data``, over
    ``records`` as one integer; xor is its own inverse."""
    stream = shake_128(header + cp.data).digest(len(records))
    xored = int.from_bytes(records, "big") ^ int.from_bytes(stream, "big")
    return xored.to_bytes(len(records), "big")


def encrypt_vault(params: VaultParams, clear: bytes, cp: CombinedPassword) -> Vault:
    """The stored vault for the bytes-like clear point region ``clear``: the
    keystream of its header and ``cp`` xored over it.  Inverse of :func:`decrypt_vault`."""
    clear = check_bytes("clear region", clear)
    return Vault(params, _shake_cipher(clear, vault_header(params), cp))


def decrypt_vault(vault: Vault, cp: CombinedPassword) -> bytes:
    """The clear point region of a stored vault under ``cp``: ``bytes`` with
    one :data:`POINT_RECORD` per point, as stored.  A wrong password, or a
    header edited since enrolment, yields points with no structure, not an
    error."""
    return _shake_cipher(vault.records, vault_header(vault.params), cp)


def build_vault(template: Template, secret: bytes, cp: CombinedPassword,
                params: VaultParams | None = None,
                rng: random.Random | None = None) -> Vault:
    """Lock ``secret`` (16 bytes) under the template and password.

    The template is password-transformed and pruned before its first r
    lock units are taken, so enrollment and query sides always agree on
    the unit derivation; DomainError when it yields fewer than r, or for a
    point that is not a pair of ints on the 256x256 grid.  ``rng``
    drives chaff placement and the final scramble of the records that
    :func:`generate_chaff` returns; the same template, secret, password,
    params, and rng seed reproduce a byte-identical vault.  The scramble
    makes ``rng.shuffle``'s ``getrandbits`` draws without calling it, so a
    ``random.Random`` ends in the same state; a subclass that overrides
    only ``random()`` gets another scramble, as uniform and as reproducible.
    """
    if params is None:
        params = VaultParams()
    if rng is None:
        rng = random.Random()
    units = _template_units(template, cp, params)
    if len(units) < params.r:
        raise DomainError(
            f"insufficient points: template yields {len(units)} distinct lock units, "
            f"need {params.r}"
        )
    payload = append_crc(mask_secret(secret, cp))
    records = generate_chaff(units, encode_secret(payload), params.c, rng)
    _scramble(records, rng)
    return encrypt_vault(params, struct.pack(f">{len(records)}I", *records), cp)


@cache  # keyed by the epsilon header byte: at most 256 entries
def _disc_spans(epsilon: int) -> tuple[tuple[int, int], ...]:
    """Row qx + dx of a disc round (qx, qy) holds y in [qy - half, qy + half],
    half at most epsilon: as (epsilon + dx, 2 * half + 1 one bits at
    epsilon - half), to be shifted by qy."""
    halves = [(dx, isqrt(epsilon * epsilon - dx * dx)) for dx in range(-epsilon, epsilon + 1)]
    return tuple((epsilon + dx, ((1 << (2 * h + 1)) - 1) << (epsilon - h)) for dx, h in halves)


def match_candidates(clear: bytes, query_units: Sequence[int],
                     epsilon: int) -> list[tuple[int, int]]:
    """The points of the clear region ``clear`` (see :func:`decrypt_vault`),
    read as one ``array('H')`` of words a0, b0, a1, b1, ..., whose decoded
    (x, y) = (a >> 8, a & 0xFF) lie within ``epsilon`` of a query unit's
    decoded point, as ``(a, b)`` tuples sorted stably by ascending abscissa alone.

    epsilon 0 degenerates to exact unit equality.  Otherwise discs are ORed
    into a padded table of row bitmasks: (x, y) is bit y + epsilon of row
    x + epsilon, so no shift is negative, and dropping the first epsilon
    rows makes row x one list index.

    Raises DomainError unless epsilon is a header byte, each query unit a
    16-bit word, and ``clear`` bytes-like whole 4-byte records.
    """
    clear = check_bytes("clear region", clear)
    if len(clear) % POINT_RECORD.size:
        raise DomainError(f"clear region of {len(clear)} bytes is not whole 4-byte records")
    check_int("epsilon", epsilon, 0, 0xFF)
    check_words("query unit", query_units)
    words = array("H")
    words.frombytes(clear)
    if sys.byteorder == "little":  # the records are big-endian
        words.byteswap()
    abscissas = words[0::2]
    if epsilon == 0:
        picked = compress(range(len(abscissas)), map(set(query_units).__contains__, abscissas))
    else:
        spans = _disc_spans(epsilon)
        rows = [0] * (GRID_SIZE + 2 * epsilon)
        for u in query_units:
            qx, qy = u >> 8, u & 0xFF
            for x, span in spans:
                rows[qx + x] |= span << qy
        del rows[:epsilon]
        bit = 1 << epsilon
        picked = [i for i, a in enumerate(abscissas) if rows[a >> 8] >> (a & 0xFF) & bit]
    hits = [(words[2 * i], words[2 * i + 1]) for i in picked]
    hits.sort(key=itemgetter(0))
    return hits


def open_vault(vault: Vault, query: Template, cp: CombinedPassword, *,
               epsilon: int | None = None,
               max_combinations: int = DEFAULT_MAX_COMBINATIONS) -> bytes:
    """Recover the 16-byte secret from a query template and password.

    The query's lock units are derived with the vault's own r and d and
    matched within its epsilon, or within ``epsilon`` when one is given:
    a new :class:`VaultParams` of the vault's r, c and d carries it, and
    checks it like the stored one.  At every epsilon :func:`_drop_close_pairs`
    drops each candidate whose abscissa repeats (a correct key never
    decrypts two points to one abscissa) and pairs off those closer than d,
    which cannot both be genuine; at epsilon 0 every candidate left is a
    query unit, pruned at d, so none pairs.  :func:`_rs_decode` runs once
    on the rest, with the pairs as spare points.  The secret is returned
    only when the decoded polynomial agrees with at least ceil((m + 9) / 2)
    of the m candidates left, paired ones included, and its payload passes
    the CRC, so up to floor((m - 9) / 2) matched chaff points are tolerated.
    ``max_combinations`` caps the decode attempts; the decoder makes one,
    so only a cap of 0 or less stops it.

    Raises DomainError for an ``epsilon`` that is not an int in [0, 255], and
    for a query point that is not a pair of ints on the 256x256 grid.
    Raises UnlockError, with a message naming the case, when fewer than nine
    candidates are left unpaired, with the count of each kind dropped, when
    the cap allows no attempt, and when the decode or the checksum fails.
    """
    params = vault.params
    if epsilon is not None:
        params = VaultParams(params.r, params.c, params.d, epsilon)
    clear = decrypt_vault(vault, cp)
    candidates = match_candidates(clear, _template_units(query, cp, params), params.epsilon)
    core, spare = _drop_close_pairs(candidates, params.d)
    if len(core) < N_COEFFS:
        raise UnlockError(
            f"{len(core)} of {len(candidates)} candidate points left after dropping "
            f"{len(candidates) - len(core) - len(spare)} with repeated abscissas and "
            f"{len(spare)} in pairs closer than d={params.d}, need at least {N_COEFFS}"
        )
    if max_combinations <= 0:
        raise UnlockError(f"decode attempts capped at {max_combinations}")
    coeffs = _rs_decode(core, spare)
    if coeffs is None:
        raise UnlockError(
            f"no polynomial agrees with enough of the {len(core) + len(spare)} candidate points"
        )
    payload = decode_secret(coeffs)
    if not check_crc(payload):
        raise UnlockError("the decoded polynomial fails the checksum")
    return mask_secret(payload[:SECRET_BYTES], cp)
