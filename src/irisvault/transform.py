"""Revocable template generation: quadrant translation and pruning.

Feature points live on a 256x256 canonical grid (8-bit coordinates, forced
by the 16-bit lock-unit encoding), and no other point is transformed.  The
grid splits into four 128x128 quadrants, each translated by its own
password block with wrap-around inside the quadrant, so transformed points
never leave their quadrant and relative positions within a quadrant are
preserved.  Changing the password produces a different, reissuable
template from the same biometric.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .errors import DomainError, check_int
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
    tu and tv mod 128 matter.  DomainError for a point that is not a pair
    of ints on the 256x256 grid, which the wrap would fold back onto it.
    MinutiaPoint checks nothing, so points are built with ``tuple.__new__``."""
    shifts = [(tu % QUADRANT_SIZE, tv % QUADRANT_SIZE) for tu, tv in blocks]
    new = tuple.__new__
    out: Template = []
    for x, y in points:
        if type(x) is not int or type(y) is not int:
            raise DomainError(f"point ({x!r}, {y!r}) must have int coordinates")
        if not (0 <= x < GRID_SIZE and 0 <= y < GRID_SIZE):
            raise DomainError(f"point ({x}, {y}) outside the {GRID_SIZE}x{GRID_SIZE} grid")
        right, down = x >= QUADRANT_SIZE, y >= QUADRANT_SIZE
        tu, tv = shifts[right + 2 * down]
        out.append(new(MinutiaPoint, (right * QUADRANT_SIZE + (x + tu) % QUADRANT_SIZE,
                                      down * QUADRANT_SIZE + (y + tv) % QUADRANT_SIZE)))
    return out


def prune_close(points: Sequence[MinutiaPoint], d: int) -> Template:
    """Drop, in list order, each point closer than ``d`` to an earlier kept
    one; at 0 all survive.  Each point is tested only against the survivors
    in its x-strip and the two beside it, strips d wide: a closer pair
    differs in x by less than d.  DomainError unless d is an int, not a
    subclass, in [0, 255], the range of the vault header's byte.
    """
    check_int("pruning distance d", d, 0, 0xFF)
    if not d:
        return list(points)
    threshold = d * d
    near: dict[int, list[MinutiaPoint]] = {}  # strip -> survivors in it and beside it
    kept: Template = []
    for p in points:
        x, y = p
        s = x // d
        for qx, qy in near.get(s, ()):
            if (x - qx) * (x - qx) + (y - qy) * (y - qy) < threshold:
                break
        else:
            kept.append(p)
            for t in (s - 1, s, s + 1):
                near.setdefault(t, []).append(p)
    return kept
