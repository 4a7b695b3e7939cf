"""Revocable template generation: quadrant translation and pruning.

Feature points live on a 256x256 canonical grid (8-bit coordinates, forced
by the 16-bit lock-unit encoding).  The grid splits into four 128x128
quadrants, each translated by its own password block with wrap-around
inside the quadrant, so transformed points never leave their quadrant and
relative positions within a quadrant are preserved.  Changing the password
produces a different, reissuable template from the same biometric.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import ceil, inf

from .password import TranslationBlock

GRID_SIZE = 256
QUADRANT_SIZE = 128


class MinutiaPoint(namedtuple("MinutiaPoint", "x y")):
    """One feature point; both coordinates must fit in 8 bits."""

    __slots__ = ()


Template = list[MinutiaPoint]


def quadrant_of(p: MinutiaPoint) -> int:
    """Quadrant index 0..3: 0 top-left, 1 top-right, 2 bottom-left, 3 bottom-right.

    Coordinates >= 128 fall right/down.
    """
    return (1 if p.x >= QUADRANT_SIZE else 0) + (2 if p.y >= QUADRANT_SIZE else 0)


def transform_template(points: Sequence[MinutiaPoint],
                       blocks: Sequence[TranslationBlock]) -> Template:
    """Translate every point by its quadrant's block (tu, tv), wrapping
    around inside the quadrant; order is preserved.  Quadrants start at
    multiples of 128, so the wrap is ``base + (x + tu % 128) % 128``: only
    tu and tv mod 128 matter.  MinutiaPoint checks nothing, so points are
    built with ``tuple.__new__``."""
    shifts = [(tu % QUADRANT_SIZE, tv % QUADRANT_SIZE) for tu, tv in blocks]
    new = tuple.__new__
    out: Template = []
    for x, y in points:
        right, down = x >= QUADRANT_SIZE, y >= QUADRANT_SIZE
        tu, tv = shifts[right + 2 * down]
        out.append(new(MinutiaPoint, (right * QUADRANT_SIZE + (x + tu) % QUADRANT_SIZE,
                                      down * QUADRANT_SIZE + (y + tv) % QUADRANT_SIZE)))
    return out


def prune_close(points: Sequence[MinutiaPoint], min_dist: float) -> Template:
    """Drop points closer than ``min_dist`` to an already-kept point.

    Greedy scan in list order: a point survives iff its Euclidean distance
    to every earlier survivor is >= min_dist.  Deterministic and
    order-stable.  Each point is tested only against the survivors in its
    x-strip and the two beside it, strips max(1, ceil(|min_dist|)) wide: a
    closer pair differs in x by less than one width.  At 0 all survive.
    """
    threshold = min_dist * min_dist
    if not threshold > 0:
        return list(points)
    if threshold == inf:  # every pair is closer: no strip width would do
        return list(points[:1])
    width = max(1, ceil(abs(min_dist)))
    near: dict[int, list[MinutiaPoint]] = {}  # strip -> survivors in it and beside it
    kept: Template = []
    for p in points:
        x, y = p
        s = x // width
        for qx, qy in near.get(s, ()):
            if (x - qx) * (x - qx) + (y - qy) * (y - qy) < threshold:
                break
        else:
            kept.append(p)
            for t in (s - 1, s, s + 1):
                near.setdefault(t, []).append(p)
    return kept
