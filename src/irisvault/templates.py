"""Template text, plus a synthetic point generator.

Templates travel as plain text, one "x y" pair of ASCII decimal numbers
per line, with '#' comments and blank lines ignored; hand-editable and
diff-friendly.  The synthetic generator stands in for an upstream feature
extractor, emitting seeded, well-separated points in the 256x256 canonical
space.  The vault file frame lives in :mod:`irisvault.vault`.
"""

from __future__ import annotations

import math
import random

from .errors import DomainError, check_int
from .transform import GRID_SIZE, MinutiaPoint, Template

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
            raise DomainError(f"line {lineno}: expected 'x y', got {raw!r}")
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise DomainError(f"line {lineno}: non-decimal coordinate in {raw!r}")
        x, y = int(parts[0]), int(parts[1])
        if not (0 <= x < GRID_SIZE and 0 <= y < GRID_SIZE):
            raise DomainError(
                f"line {lineno}: point ({x}, {y}) outside the {GRID_SIZE}x{GRID_SIZE} space"
            )
        points.append(MinutiaPoint(x, y))
    return points


def write_template(points: Template) -> str:
    """Inverse of parse_template; empty templates serialize to "" ."""
    return "".join(f"{p.x} {p.y}\n" for p in points)


def synth_template(seed: int, count: int, min_dist: float) -> Template:
    """``count`` seeded random points, pairwise at least ``min_dist`` apart.

    Rejection-samples the grid; DomainError once a single point burns
    through 10,000 rejected draws, which in practice means (count, min_dist)
    does not fit, and before any draw for a ``count`` other than an int in
    [0, 65536] or a ``min_dist`` other than a finite int or float >= 0.
    """
    check_int("count", count, 0, GRID_SIZE * GRID_SIZE)
    if type(min_dist) not in (int, float) or not 0 <= min_dist < math.inf:
        raise DomainError(f"min_dist must be a finite int or float >= 0, got {min_dist!r}")
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

