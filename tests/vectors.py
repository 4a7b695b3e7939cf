"""Shared known-answer vectors for the three reference passwords.

The fourth-quadrant expectations follow the uniform 7/9 block split used
for every quadrant; reference listings that quote the raw byte pair for
that quadrant disagree with their own stated split rule, so the uniform
derivation is normative here.
"""

from irisvault.password import EyeColor, SoftBiometrics, UserPassword, combine_password
from irisvault.transform import MinutiaPoint

FUZZY = combine_password(SoftBiometrics(155, EyeColor.BROWN, "M"), UserPassword("FUZZY"))
TOKEN = combine_password(SoftBiometrics(170, EyeColor.GRAY, "F"), UserPassword("TOKEN"))
VAULT = combine_password(SoftBiometrics(146, EyeColor.AMBER, "M"), UserPassword("VAULT"))

# One reference point per quadrant.
REFERENCE_POINTS = [
    MinutiaPoint(4, 123),
    MinutiaPoint(135, 114),
    MinutiaPoint(4, 134),
    MinutiaPoint(156, 129),
]

# (tu, tv) per quadrant for each password.
KNOWN_BLOCKS = {
    "FUZZY": [(77, 322), (38, 326), (42, 346), (45, 89)],
    "TOKEN": [(85, 71), (35, 84), (39, 331), (34, 334)],
    "VAULT": [(73, 65), (38, 342), (32, 341), (38, 84)],
}

# Transformed positions of REFERENCE_POINTS under each password.
KNOWN_TRANSFORMS = {
    "FUZZY": [(81, 61), (173, 56), (46, 224), (201, 218)],
    "TOKEN": [(89, 66), (170, 70), (43, 209), (190, 207)],
    "VAULT": [(77, 60), (173, 72), (36, 219), (194, 213)],
}

PASSWORDS = {"FUZZY": FUZZY, "TOKEN": TOKEN, "VAULT": VAULT}

# Quadrants whose block codes and transforms are externally corroborated;
# the fourth follows this implementation's uniform split.
CORROBORATED_QUADRANTS = (0, 1, 2)

# Frozen IFV2 frames: seed, password, SHA-256 of the frame that build_vault
# writes for synth_template(seed, count, 4) under VaultParams(r=r, c=200) and
# random.Random(seed), template size count, and r.  Seed 3 has 221 records,
# an odd record count.
GOLDEN_IFV2 = [
    (0, FUZZY, "287abc8525cf9e3d3dfe31fbee32d5b833e21063518a1c0f18112b02283a2d13", 20, 20),
    (7, TOKEN, "574eb7abaf7f081cc0a0aa7a6e8eda931038a89122894c87d040c080b38f5787", 20, 20),
    (3, FUZZY, "0d96eed8eafd5e8aedaca85496866a1959aebfcfdc0e9a0608da2d3c94b10f87", 25, 21),
]

# By seed, the next rng.getrandbits(64) after each GOLDEN_IFV2 build: the
# frame pins what enrolment drew, and this pins that it drew nothing more.
GOLDEN_IFV2_NEXT_DRAW = {0: 0x6F790959A3E04B3B, 7: 0x7936D536243D3570, 3: 0x4DDAB100962C4706}
