"""Independent reference implementations used to check the fast paths.

Everything here is written the slow, obvious way (shift registers,
carry-less multiply with explicit reduction, term-by-term evaluation) and
deliberately shares no code with the package.
"""

from collections import namedtuple
from functools import cache
from itertools import combinations, zip_longest

GF_MODULUS = 0x1100B
CRC_POLY = 0x8005


def gf_mul_oracle(a: int, b: int) -> int:
    """Carry-less multiply, then bitwise modular reduction."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    for bit in range(acc.bit_length() - 1, 15, -1):
        if (acc >> bit) & 1:
            acc ^= GF_MODULUS << (bit - 16)
    return acc


def gf_tables_oracle():
    """The exp and log tables of GF(2^16) under 0x1100B, built by stepping
    x through the multiplicative group one shift-and-reduce at a time; exp
    is doubled (131070 entries), log has 65536 with log[0] = 0.

    The package loads these tables from ``src/irisvault/gf65536.bin``:
    exp[0..65534] then log[0..65535], little-endian uint16.  Regenerate it
    from the repository root with

        python -c "import struct, sys; sys.path.insert(0, 'tests'); from oracles import gf_tables_oracle as g; e, l = g(); open('src/irisvault/gf65536.bin', 'wb').write(struct.pack('<131071H', *e[:65535], *l))"
    """
    exp = [0] * (2 * 65535)
    log = [0] * 65536
    value = 1
    for power in range(65535):
        exp[power] = exp[power + 65535] = value
        log[value] = power
        value <<= 1
        if value & 0x10000:
            value ^= GF_MODULUS
    return exp, log


def crc16_shift_register(data: bytes) -> int:
    """Bit-at-a-time long division, MSB first, zero initial register."""
    reg = 0
    for byte in data:
        reg ^= byte << 8
        for _ in range(8):
            if reg & 0x8000:
                reg = ((reg << 1) ^ CRC_POLY) & 0xFFFF
            else:
                reg = (reg << 1) & 0xFFFF
    return reg


def eval_poly_oracle(coeffs_high_first, u: int) -> int:
    """Sum of c_k * u^k computed term by term with repeated multiplication."""
    degree = len(coeffs_high_first) - 1
    acc = 0
    for k, c in enumerate(coeffs_high_first):
        term = c
        for _ in range(degree - k):
            term = gf_mul_oracle(term, u)
        acc ^= term
    return acc


def horner_oracle(coeffs_high_first, u: int) -> int:
    """Horner's rule with :func:`gf_mul_oracle`: one multiply per coefficient."""
    acc = 0
    for c in coeffs_high_first:
        acc = gf_mul_oracle(acc, u) ^ c
    return acc


@cache
def _gf_tables():
    return gf_tables_oracle()


def _gf_mul_div():
    """Multiply and divide on this module's own log tables."""
    exp, log = _gf_tables()

    def mul(a, b):
        return exp[log[a] + log[b]] if a and b else 0

    def div(a, b):
        return exp[log[a] - log[b] + 65535] if a else 0

    return mul, div


def lagrange_oracle(points):
    """The polynomial of degree below ``len(points)`` through the points
    (distinct abscissas), as ascending coefficients, by Lagrange's formula:
    each basis prod over k != i of (x - ak) is the product over every point
    divided by (x - ai), one synthetic division."""
    mul, div = _gf_mul_div()
    full = [1]  # prod (x - ak), ascending
    for a, _ in points:
        full = [mul(c, a) ^ d for c, d in zip(full + [0], [0] + full)]
    coeffs = [0] * len(points)
    for a, y in points:
        basis, carry = [0] * len(points), 0
        for j in range(len(points), 0, -1):
            carry = full[j] ^ mul(carry, a)
            basis[j - 1] = carry
        den = 0
        for c in reversed(basis):
            den = mul(den, a) ^ c
        scale = div(y, den)
        coeffs = [c ^ mul(scale, b) for c, b in zip(coeffs, basis)]
    return coeffs


def rs_decode_oracle(candidates):
    """The polynomial of degree at most 8 that agrees with at least
    ceil((m + 9) / 2) of the m candidates (distinct abscissas), as nine
    coefficients highest degree first, or None: every nine-subset is
    interpolated by Lagrange's formula and checked against all m.  Meant
    for m <= 13, at most 715 subsets; products go through this module's
    own log tables."""
    mul, _ = _gf_mul_div()
    need = (len(candidates) + 10) // 2
    for subset in combinations(candidates, 9):
        coeffs = lagrange_oracle(subset)
        agree = 0
        for x, y in candidates:
            acc = 0
            for c in reversed(coeffs):
                acc = mul(acc, x) ^ c
            agree += acc == y
        if agree >= need:
            return tuple(reversed(coeffs))
    return None


def rs_decode_residual_oracle(candidates, spare=()):
    """The package's decoder as it ran before its residuals came from a
    Newton table, on this module's own arithmetic: h through the first nine
    by Lagrange's formula, each later candidate's residual (y - h(a)) / W(a)
    by Horner's rule on h and W(a) = prod(a - ai) over the first nine, the
    spare points counted on h by Horner's rule, and Gao's Euclid (2003) on
    the residual at degree m - 9, then h + W * r / v.  Its answers are the
    decoder's by contract: the same polynomial or None on every input."""
    mul, div = _gf_mul_div()

    def value(p, x):  # p ascending
        acc = 0
        for c in reversed(p):
            acc = mul(acc, x) ^ c
        return acc

    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    def product(p, q):
        out = [0] * (len(p) + len(q) - 1) if p and q else []
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] ^= mul(a, b)
        return trim(out)

    def divide(num, den):  # den trimmed and nonzero
        rem, quot = list(num), [0] * max(len(num) - len(den) + 1, 0)
        for i in range(len(quot) - 1, -1, -1):
            q = quot[i] = div(rem[i + len(den) - 1], den[-1])
            for j, c in enumerate(den):
                rem[i + j] ^= mul(q, c)
        return trim(quot), trim(rem[:len(den) - 1])

    m, first = len(candidates), candidates[:9]
    h = lagrange_oracle(first)
    short = (m + len(spare) + 10) // 2 - 9
    residual = []
    for a, y in candidates[9:]:
        w = 1
        for b, _ in first:
            w = mul(w, a ^ b)
        z = div(y ^ value(h, a), w)
        if not z:
            short -= 1
            if not short:
                return tuple(reversed(h))
        residual.append((a, z))
    if short <= len(spare):
        for a, y in spare:
            if value(h, a) == y:
                short -= 1
                if not short:
                    return tuple(reversed(h))
    r0 = [1]
    for a, _ in residual:
        r0 = product(r0, [a, 1])
    r1 = trim(lagrange_oracle(residual))
    v0, v1 = [], [1]
    while 2 * (len(r1) - 1) >= m - 9:
        quot, rem = divide(r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, trim([c ^ d for c, d in zip_longest(v0, product(quot, v1), fillvalue=0)])
    if not r1:
        return None if short else tuple(reversed(h))
    if len(r1) >= len(v1):
        return None
    for a, _ in first:
        r1 = product(r1, [a, 1])
    g, rem = divide(r1, v1)
    if rem:
        return None
    coeffs = [c ^ d for c, d in zip_longest(h, g, fillvalue=0)]
    if spare:
        agree = sum(value(coeffs, a) == y for a, y in list(candidates) + list(spare))
        if 2 * agree < m + len(spare) + 9:
            return None
    return tuple(reversed(coeffs))


def generate_chaff_oracle(genuine_us, poly, count, rng):
    """The chaff draw pair by pair: the ``count`` missing pairs come from one
    ``rng.randbytes`` call as big-endian 16-bit words, abscissa then
    ordinate; a pair is kept, in draw order, iff its abscissa is neither
    genuine nor taken and its ordinate is off the polynomial, and the
    shortfall is drawn again the same way."""
    used = set(genuine_us)
    chaff = []
    while len(chaff) < count:
        data = rng.randbytes(4 * (count - len(chaff)))
        for i in range(0, len(data), 4):
            a = int.from_bytes(data[i:i + 2], "big")
            b = int.from_bytes(data[i + 2:i + 4], "big")
            if a not in used and b != horner_oracle(poly, a):
                used.add(a)
                chaff.append((a, b))
    return chaff


def root_product_oracle(roots):
    """prod(x - a) over ``roots`` as ascending coefficients, folded one
    freshly allocated product per factor: each term of the running product
    times each term of x + a, multiplied with :func:`gf_mul_oracle`."""
    prod = [1]
    for a in roots:
        out = [0] * (len(prod) + 1)
        for i, c in enumerate(prod):
            out[i] ^= gf_mul_oracle(c, a)
            out[i + 1] ^= c
        prod = out
    return prod


def lock_units_oracle(points, r):
    """The ``r`` smallest distinct units x * 256 + y of the points, fewer
    when they give fewer: repeats dropped in list order, then the smallest
    left taken one at a time."""
    left = []
    for x, y in points:
        if x * 256 + y not in left:
            left.append(x * 256 + y)
    units = []
    while left and len(units) < r:
        smallest = min(left)
        left.remove(smallest)
        units.append(smallest)
    return units


def match_candidates_oracle(points, query_units, epsilon):
    """Brute-force disc scan: every vault point against every query unit,
    kept when its decoded (x, y) lies within ``epsilon`` of one, or equals a
    unit when epsilon is 0; sorted by ascending abscissa."""
    eps_sq = epsilon * epsilon
    decoded = [(u >> 8, u & 0xFF) for u in query_units]
    hits = []
    for p in points:
        x, y = p[0] >> 8, p[0] & 0xFF
        if epsilon == 0:
            keep = p[0] in query_units
        else:
            keep = any((x - qx) ** 2 + (y - qy) ** 2 <= eps_sq for qx, qy in decoded)
        if keep:
            hits.append(p)
    hits.sort(key=lambda p: p[0])
    return hits


def drop_close_pairs_oracle(candidates, d):
    """Every pair compared: in list order, each candidate not yet paired
    takes the first later one not yet paired that lies closer than ``d`` on
    the grid.  Returns the unpaired candidates in list order, and the pairs
    one after another in the order found."""
    def near(p, q):
        dx, dy = p[0] // 256 - q[0] // 256, p[0] % 256 - q[0] % 256
        return dx * dx + dy * dy < d * d

    paired = [False] * len(candidates)
    pairs = []
    for i, p in enumerate(candidates):
        for j, q in enumerate(candidates):
            if j > i and not paired[i] and not paired[j] and near(p, q):
                paired[i] = paired[j] = True
                pairs += [p, q]
    return [p for p, gone in zip(candidates, paired) if not gone], pairs


def prune_close_oracle(points, min_dist):
    """Greedy pruning in list order: a point is kept iff its squared distance
    to every point kept before it is at least ``min_dist`` squared."""
    threshold = min_dist * min_dist
    kept = []
    for p in points:
        if all((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 >= threshold for q in kept):
            kept.append(p)
    return kept


Point = namedtuple("Point", "x y")


def transform_point_oracle(p, block):
    """One point translated by (block.tu, block.tv) with wrap-around inside
    its 128 x 128 quadrant: the quadrant's corner is found first, then the
    offset inside it moves modulo 128.  Returns a named (x, y) pair."""
    bx = 128 if p.x >= 128 else 0
    by = 128 if p.y >= 128 else 0
    return Point(bx + (p.x - bx + block.tu) % 128, by + (p.y - by + block.tv) % 128)
