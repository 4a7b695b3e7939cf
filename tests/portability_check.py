"""Stdlib-only check that vault bytes and decodes do not vary by interpreter.

The IFV2 golden bytes rest on ``random``'s stream, ``struct``, the lane
kernel's ``itemgetter`` gathers and ``bytes.translate`` tables, and the
scramble's copy of ``random.Random.shuffle``'s draws, so this script
rebuilds the three frames of ``vectors.GOLDEN_IFV2`` and checks the
generator's next draw after each, as
``test_templates.py::TestVaultFrame::test_golden_bytes_ifv2`` also does,
then opens each frame through ``read_vault`` and ``open_vault``, whose
candidate match is the one place the clear records become host-order
words, and checks that the all-zero secret comes back, from the frame's
bytes and from a view of them cast to 16-bit items, whose length
``read_vault`` must count in bytes.  It compares the lock units, the
lane kernel, the chaff draw and the scramble with their references, and
hashes the Reed-Solomon decoder's answers on a fixed mix of candidate sets,
as drawn, sorted, and on the core open_vault decodes once close pairs are
dropped at d = 4 and at d = 2.  It checks the decodes as drawn and on both
cores against ``oracles.rs_decode_residual_oracle``, which evaluates the
first nine's interpolant by Horner's rule and W(a) as a product where the
decoder extends their Newton table.  No check needs pytest or Hypothesis.
Run it from the repository root under each interpreter to check:

    PYTHONPATH=src python tests/portability_check.py

It prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from irisvault.errors import DomainError, UnlockError  # noqa: E402
from irisvault.password import CombinedPassword, derive_blocks  # noqa: E402
from irisvault.templates import synth_template  # noqa: E402
from irisvault.transform import MinutiaPoint, transform_template  # noqa: E402
from irisvault.vault import (  # noqa: E402
    VaultParams,
    _drop_close_pairs,
    _eval_poly_many,
    _rs_decode,
    _scramble,
    _template_units,
    build_vault,
    decode_secret,
    eval_poly,
    generate_chaff,
    open_vault,
    read_vault,
    write_vault,
)

from oracles import (  # noqa: E402
    generate_chaff_oracle,
    lock_units_oracle,
    prune_close_oracle,
    rs_decode_residual_oracle,
)
from vectors import GOLDEN_IFV2, GOLDEN_IFV2_NEXT_DRAW  # noqa: E402


def golden_digests() -> bool:
    ok = True
    for seed, cp, digest, count, r in GOLDEN_IFV2:
        rng = random.Random(seed)
        template = synth_template(seed, count, 4)
        frame = write_vault(build_vault(template, bytes(16), cp, VaultParams(r=r, c=200), rng))
        got = hashlib.sha256(frame).hexdigest()
        print(f"IFV2 seed {seed}: {'ok' if got == digest else 'MISMATCH ' + got}")
        after = rng.getrandbits(64)
        print(f"IFV2 seed {seed}, next draw: "
              f"{'ok' if after == GOLDEN_IFV2_NEXT_DRAW[seed] else f'MISMATCH {after:#x}'}")
        ok &= got == digest and after == GOLDEN_IFV2_NEXT_DRAW[seed]
        for label, data in (("", frame), (" from 16-bit items", memoryview(frame).cast("H"))):
            try:
                opened = open_vault(read_vault(data), template, cp)
            except (DomainError, UnlockError) as exc:
                opened = exc
            print(f"IFV2 seed {seed}, opened{label}: "
                  f"{'ok' if opened == bytes(16) else f'MISMATCH {opened!r}'}")
            ok &= opened == bytes(16)
    return ok


# SHA-256 of _rs_decode's answers on decoder_cases(400), as computed when Gao's
# algorithm still ran on all m candidates: the residual form must not move one.
GOLDEN_DECODES = "2fc1c9ae9721e7b1d639ca7239d8ba6b4e946f7b024dc6f7b092d84783140ada"
# The same over core_decode at d = 4, the decode open_vault makes at any epsilon,
# and at d = 2, where 113 of the sets decode with spare points, against 60 at 4.
GOLDEN_CORE_DECODES = "97bf2fa8cfcad7c1cd0a5be6ff8b069b7ea737b12d82f3dec5ff5e13b29ad84e"
GOLDEN_CORE_DECODES_D2 = "36614a084e31de3acbd4f93e646e6b3992b2463ee0e8a600382e5a53fed90dec"


def decoder_cases(count: int):
    """Candidate sets of m = 9..60 points on a random degree-8 polynomial,
    in turn with no error, with errors within floor((m - 9) / 2), with one
    error past it, and with every ordinate random; every other set draws
    its abscissas below 64, so 0 is often among them."""
    rng = random.Random(22)
    for i in range(count):
        m = rng.randint(9, 60)
        xs = rng.sample(range(rng.choice((64, 0x10000))), m)
        coeffs = [rng.randrange(0x10000) for _ in range(9)]
        points = [(x, eval_poly(coeffs, x)) for x in xs]
        radius = (m - 9) // 2
        errors = (0, rng.randint(0, radius), radius + 1, m)[i % 4]
        for j in rng.sample(range(m), errors):
            points[j] = (points[j][0], points[j][1] ^ rng.randrange(1, 0x10000))
        yield points


def core_decode(points, d: int, decode=_rs_decode):
    """open_vault's decode at any epsilon: the candidates sorted, close
    pairs dropped at ``d``, and the core decoded with the dropped ones as
    spare, or None when fewer than nine are left."""
    core, spare = _drop_close_pairs(sorted(points), d)
    return decode(core, spare) if len(core) >= 9 else None


def decoder_digest(count: int) -> bool:
    """The digest of the answers on the cases as drawn and sorted, which
    must not depend on the order, and of the core decode at d = 4, where
    the small-abscissa sets, all in grid column 0, mostly keep fewer than
    nine, and at d = 2, where more of them reach the spare path."""
    ok = True
    for label, decode, expect in (
            ("decoder", _rs_decode, GOLDEN_DECODES),
            ("decoder, sorted", lambda p: _rs_decode(sorted(p)), GOLDEN_DECODES),
            ("decoder, close pairs dropped", lambda p: core_decode(p, 4), GOLDEN_CORE_DECODES),
            ("decoder, close pairs dropped at d = 2", lambda p: core_decode(p, 2),
             GOLDEN_CORE_DECODES_D2)):
        digest = hashlib.sha256()
        for points in decoder_cases(count):
            coeffs = decode(points)
            digest.update(b"-" if coeffs is None else decode_secret(coeffs))
        got = digest.hexdigest()
        print(f"{label}: {'ok' if got == expect else 'MISMATCH ' + got}")
        ok &= got == expect
    return ok


def decoder_oracle(count: int) -> bool:
    """The decoder against the residual oracle on the same cases, as drawn
    and as the core decode at d = 4 and at d = 2."""
    ok = True
    for label, decode in (
            ("as drawn", lambda p, f: f(p)),
            ("close pairs dropped", lambda p, f: core_decode(p, 4, f)),
            ("close pairs dropped at d = 2", lambda p, f: core_decode(p, 2, f))):
        bad = sum(decode(points, _rs_decode) != decode(points, rs_decode_residual_oracle)
                  for points in decoder_cases(count))
        print(f"decoder against the residual oracle, {label}: "
              f"{count - bad} of {count} sets agree")
        ok &= not bad
    return ok


def lock_units(seeds: int) -> bool:
    """_template_units against the oracles' prune and lock of the
    transformed points, under seeded passwords at each d: on sparse
    templates drawn 4 apart, which the pass mostly leaves unpruned, and on
    dense ones, drawn with no spacing or crowded into a 16 x 16 corner."""
    rng = random.Random(23)
    bad = total = 0
    for seed in range(seeds):
        cp = CombinedPassword(rng.randbytes(8))
        corner = [MinutiaPoint(rng.randrange(16), rng.randrange(16)) for _ in range(30)]
        for template in (synth_template(seed, 20, 4), synth_template(seed, 60, 0), corner):
            moved = transform_template(template, derive_blocks(cp))
            for d in (0, 1, 2, 4, 8, 255):
                params = VaultParams(r=rng.randint(9, 60), d=d)
                expect = lock_units_oracle(prune_close_oracle(moved, d), params.r)
                bad += _template_units(template, cp, params) != expect
                total += 1
    print(f"lock units: {total - bad} of {total} templates equal the oracles' prune and lock")
    return not bad


def lane_kernel(cases: int) -> bool:
    rng = random.Random(20)
    bad = 0
    for _ in range(cases):
        coeffs = [rng.choice((0, rng.randrange(0x10000))) for _ in range(rng.randint(1, 17))]
        xs = [rng.choice((0, rng.randrange(16), rng.randrange(0x10000)))
              for _ in range(rng.randrange(301))]
        bad += _eval_poly_many(coeffs, xs) != [eval_poly(coeffs, x) for x in xs]
    print(f"lane kernel: {cases - bad} of {cases} cases equal eval_poly")
    return not bad


def chaff_draw(seeds: int) -> bool:
    """generate_chaff's records against the genuine units on the curve, in
    the order given, followed by the pair-by-pair oracle's chaff."""
    rng = random.Random(21)
    bad = 0
    for seed in range(seeds):
        poly = [rng.randrange(0x10000) for _ in range(9)]
        genuine = rng.sample(range(0x10000), 20)
        expect = [u << 16 | eval_poly(poly, u) for u in genuine]
        expect += [a << 16 | b for a, b in
                   generate_chaff_oracle(genuine, poly, 200, random.Random(seed))]
        bad += generate_chaff(genuine, poly, 200, random.Random(seed)) != expect
    print(f"chaff draw: {seeds - bad} of {seeds} seeds equal the genuine records "
          f"and the pair-by-pair oracle")
    return not bad


def scramble(seeds: int) -> bool:
    """The scramble against ``random.Random.shuffle`` at every length up to
    300: the same order, and the generator left in the same state."""
    bad = 0
    for seed in range(seeds):
        for n in range(301):
            points, expect = list(range(n)), list(range(n))
            rng, ref = random.Random(seed), random.Random(seed)
            _scramble(points, rng)
            ref.shuffle(expect)
            bad += points != expect or rng.getstate() != ref.getstate()
    print(f"scramble: {seeds * 301 - bad} of {seeds * 301} lists equal random.shuffle's")
    return not bad


if __name__ == "__main__":
    print(sys.version.split()[0])
    results = [golden_digests(), lock_units(100), lane_kernel(3000), chaff_draw(20), scramble(5),
               decoder_digest(400), decoder_oracle(400)]
    sys.exit(0 if all(results) else 1)
