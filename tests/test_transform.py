"""Quadrant translation and pruning tests."""

import pytest
from hypothesis import example, given, settings, strategies as st

from irisvault.errors import DomainError
from irisvault.password import CombinedPassword, TranslationBlock, derive_blocks
from irisvault.transform import MinutiaPoint, prune_close, quadrant_of, transform_template

from oracles import prune_close_oracle, transform_point_oracle as transform_point
from vectors import FUZZY, KNOWN_TRANSFORMS, PASSWORDS, REFERENCE_POINTS

points = st.builds(MinutiaPoint, st.integers(0, 255), st.integers(0, 255))
blocks = st.builds(TranslationBlock, st.integers(0, 127), st.integers(0, 511))
crowded = st.one_of(st.integers(0, 11), st.integers(0, 255))
# Pruning distances are header bytes: ints in [0, 255], mostly small.
distances = st.one_of(st.integers(0, 12), st.integers(0, 255))


def test_quadrant_of_reference_points():
    assert [quadrant_of(p) for p in REFERENCE_POINTS] == [0, 1, 2, 3]


def test_quadrant_boundary():
    assert quadrant_of(MinutiaPoint(128, 128)) == 3
    assert quadrant_of(MinutiaPoint(127, 127)) == 0
    assert quadrant_of(MinutiaPoint(128, 127)) == 1
    assert quadrant_of(MinutiaPoint(127, 128)) == 2


def test_transform_known_vectors():
    for name, cp in PASSWORDS.items():
        expect = [MinutiaPoint(*xy) for xy in KNOWN_TRANSFORMS[name]]
        assert transform_template(REFERENCE_POINTS, derive_blocks(cp)) == expect


def test_transform_single_point_examples():
    assert transform_point(MinutiaPoint(4, 123), TranslationBlock(77, 322)) == (81, 61)
    # Vertical wrap inside the lower band: 128 + ((6 + 346) mod 128) = 224.
    assert transform_point(MinutiaPoint(4, 134), TranslationBlock(42, 346)) == (46, 224)
    assert transform_point(MinutiaPoint(135, 114), TranslationBlock(35, 84)) == (170, 70)
    assert transform_point(MinutiaPoint(0, 0), TranslationBlock(0, 0)) == (0, 0)


def test_transform_template_trivial():
    assert transform_template([], derive_blocks(FUZZY)) == []
    zero_blocks = derive_blocks(CombinedPassword(bytes(8)))
    template = list(REFERENCE_POINTS)
    assert transform_template(template, zero_blocks) == template


@given(points, blocks)
def test_quadrant_preserved(p, block):
    assert quadrant_of(transform_point(p, block)) == quadrant_of(p)


@given(points, blocks)
def test_translation_invertible(p, block):
    moved = transform_point(p, block)
    inverse = TranslationBlock((128 - block.tu % 128) % 128, (128 - block.tv % 128) % 128)
    assert transform_point(moved, inverse) == p


@given(st.lists(points, max_size=40), blocks, blocks, st.integers(0, 3))
def test_revocability(template, block_a, block_b, quadrant):
    """Changing one quadrant's block moves every point of that quadrant."""
    if (block_a.tu % 128, block_a.tv % 128) == (block_b.tu % 128, block_b.tv % 128):
        return
    neutral = TranslationBlock(0, 0)
    blocks_a = [neutral] * 4
    blocks_b = [neutral] * 4
    blocks_a[quadrant] = block_a
    blocks_b[quadrant] = block_b
    moved_a = transform_template(template, blocks_a)
    moved_b = transform_template(template, blocks_b)
    for original, pa, pb in zip(template, moved_a, moved_b):
        if quadrant_of(original) == quadrant:
            assert pa != pb


class TestPruneClose:
    def test_zero_distance_keeps_all(self):
        template = [MinutiaPoint(1, 1), MinutiaPoint(1, 1)]
        assert prune_close(template, 0) == template

    def test_duplicate_removed(self):
        template = [MinutiaPoint(10, 10), MinutiaPoint(10, 10), MinutiaPoint(50, 50)]
        assert prune_close(template, 1) == [MinutiaPoint(10, 10), MinutiaPoint(50, 50)]

    def test_hand_computed_distances(self):
        # Pairwise distances are 5, 10, 5; only the middle point is close
        # to an earlier survivor.
        template = [MinutiaPoint(0, 0), MinutiaPoint(3, 4), MinutiaPoint(6, 8)]
        assert prune_close(template, 6) == [MinutiaPoint(0, 0), MinutiaPoint(6, 8)]

    @given(st.lists(points, max_size=50), distances)
    def test_output_satisfies_spacing(self, template, min_dist):
        kept = prune_close(template, min_dist)
        for i, p in enumerate(kept):
            for q in kept[:i]:
                assert (p.x - q.x) ** 2 + (p.y - q.y) ** 2 >= min_dist * min_dist

    @given(st.lists(points, max_size=50), distances)
    def test_keeps_subsequence(self, template, min_dist):
        kept = prune_close(template, min_dist)
        it = iter(template)
        assert all(p in it for p in kept)

    # Coordinates fall in 0..11 half the time, so duplicates and close pairs
    # are common.
    @given(st.lists(st.builds(MinutiaPoint, crowded, crowded), max_size=60),
           st.sampled_from((0, 1, 3, 4, 6, 255)))
    @settings(max_examples=300)
    @example([MinutiaPoint(7, 7)] * 3 + [MinutiaPoint(9, 7), MinutiaPoint(7, 7)], 3)
    def test_agrees_with_all_based_oracle(self, template, min_dist):
        assert prune_close(template, min_dist) == prune_close_oracle(template, min_dist)

    @pytest.mark.parametrize("d, message", [
        (2.5, " must be an int, not float"),
        (float("inf"), " must be an int, not float"),
        (float("nan"), " must be an int, not float"),
        (-0.0, " must be an int, not float"),
        (True, " must be an int, not bool"),
        (-1, r"=-1 must be in \[0, 255\]"),
        (256, r"=256 must be in \[0, 255\]"),
    ])
    def test_domain(self, d, message):
        # d is the vault header's byte, checked in VaultParams' words.
        with pytest.raises(DomainError, match=rf"^pruning distance d{message}$"):
            prune_close([MinutiaPoint(1, 1)], d)


@given(st.lists(points, max_size=40),
       st.lists(st.builds(TranslationBlock, st.integers(-1000, 5000), st.integers(-1000, 5000)),
                min_size=4, max_size=4))
def test_transform_template_is_transform_point_per_quadrant(template, quadrant_blocks):
    expect = [transform_point(p, quadrant_blocks[quadrant_of(p)]) for p in template]
    assert transform_template(template, quadrant_blocks) == expect


@pytest.mark.parametrize("x, y, message", [
    # The quadrant wrap once folded (300, 5) onto the grid: to (210, 75)
    # under FUZZY, to (172, 5) under these all-zero blocks.
    (300, 5, r"^point \(300, 5\) outside the 256x256 grid$"),
    (5, 256, r"^point \(5, 256\) outside the 256x256 grid$"),
    (-1, 0, r"^point \(-1, 0\) outside the 256x256 grid$"),
    (1.5, 2, r"^point \(1\.5, 2\) must have int coordinates$"),
    (3, True, r"^point \(3, True\) must have int coordinates$"),
])
def test_transform_template_refuses_points_off_the_grid(x, y, message):
    blocks = derive_blocks(CombinedPassword(bytes(8)))
    with pytest.raises(DomainError, match=message):
        transform_template(list(REFERENCE_POINTS) + [MinutiaPoint(x, y)], blocks)


@given(st.lists(st.builds(MinutiaPoint, st.one_of(crowded, st.integers(-300, 600)), crowded),
                max_size=60),
       distances)
@settings(max_examples=300)
# Strips are 3 wide: a close pair across the boundary of strips 0 and 1.
@example([MinutiaPoint(2, 0), MinutiaPoint(3, 1)], 3)
# The widest close pair at 4, x 3 apart, and pairs exactly one strip width
# apart, on both sides of x = 0.
@example([MinutiaPoint(1, 0), MinutiaPoint(4, 0), MinutiaPoint(8, 1)], 4)
@example([MinutiaPoint(3, 0), MinutiaPoint(7, 0), MinutiaPoint(11, 3)], 4)
@example([MinutiaPoint(0, 5), MinutiaPoint(3, 5), MinutiaPoint(-3, 5)], 3)
# At d = 255 a pair 255 apart on a grid edge survives, and the diagonal's
# midpoint does not.
@example([MinutiaPoint(0, 0), MinutiaPoint(255, 255), MinutiaPoint(100, 100),
          MinutiaPoint(255, 0)], 255)
def test_strip_pruning_agrees_with_oracle(template, min_dist):
    assert prune_close(template, min_dist) == prune_close_oracle(template, min_dist)
