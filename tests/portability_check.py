"""Stdlib-only check that vault bytes do not depend on the interpreter.

The IFV2 golden bytes rest on ``random``'s stream, ``struct`` and the lane
kernel's ``itemgetter`` gathers, so this script rebuilds the three frames
that ``test_templates.py::TestVaultFrame::test_golden_bytes_ifv2`` pins and
compares the lane kernel and the chaff draw with their scalar references,
without pytest or Hypothesis.  Run it from the repository root under each
interpreter to check:

    PYTHONPATH=src python tests/portability_check.py

It prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from irisvault.templates import synth_template  # noqa: E402
from irisvault.vault import (  # noqa: E402
    VaultParams,
    _eval_poly_many,
    build_vault,
    eval_poly,
    generate_chaff,
    write_vault,
)

from oracles import generate_chaff_oracle  # noqa: E402
from vectors import FUZZY, TOKEN  # noqa: E402

# seed, password, SHA-256 of the frame, template size, r: as in test_golden_bytes_ifv2.
GOLDEN_IFV2 = [
    (0, FUZZY, "287abc8525cf9e3d3dfe31fbee32d5b833e21063518a1c0f18112b02283a2d13", 20, 20),
    (7, TOKEN, "574eb7abaf7f081cc0a0aa7a6e8eda931038a89122894c87d040c080b38f5787", 20, 20),
    (3, FUZZY, "0d96eed8eafd5e8aedaca85496866a1959aebfcfdc0e9a0608da2d3c94b10f87", 25, 21),
]


def golden_digests() -> bool:
    ok = True
    for seed, cp, digest, count, r in GOLDEN_IFV2:
        vault = build_vault(synth_template(seed, count, 4), bytes(16), cp,
                            VaultParams(r=r, c=200), random.Random(seed))
        got = hashlib.sha256(write_vault(vault)).hexdigest()
        print(f"IFV2 seed {seed}: {'ok' if got == digest else 'MISMATCH ' + got}")
        ok &= got == digest
    return ok


def lane_kernel(cases: int) -> bool:
    rng = random.Random(20)
    bad = 0
    for _ in range(cases):
        coeffs = [rng.choice((0, rng.randrange(0x10000))) for _ in range(rng.randint(1, 12))]
        xs = [rng.choice((0, rng.randrange(16), rng.randrange(0x10000)))
              for _ in range(rng.randrange(301))]
        bad += _eval_poly_many(coeffs, xs) != [eval_poly(coeffs, x) for x in xs]
    print(f"lane kernel: {cases - bad} of {cases} cases equal eval_poly")
    return not bad


def chaff_draw(seeds: int) -> bool:
    rng = random.Random(21)
    bad = 0
    for seed in range(seeds):
        poly = [rng.randrange(0x10000) for _ in range(9)]
        genuine = set(rng.sample(range(0x10000), 20))
        bad += (generate_chaff(genuine, poly, 200, random.Random(seed))
                != generate_chaff_oracle(genuine, poly, 200, random.Random(seed)))
    print(f"chaff draw: {seeds - bad} of {seeds} seeds equal the pair-by-pair oracle")
    return not bad


if __name__ == "__main__":
    print(sys.version.split()[0])
    results = [golden_digests(), lane_kernel(3000), chaff_draw(20)]
    sys.exit(0 if all(results) else 1)
