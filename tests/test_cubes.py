import itertools
import random

import pytest

from madness.cubes import (
    ALL_CORNER_NUMBERS,
    COLORS,
    CUBE_NAMES,
    REFERENCE_CORNERS,
    ROTATIONS,
    InvalidColoringError,
    InvalidCornerError,
    UnknownCubeError,
    all_color_permutations,
    build_tableau,
    canonical_coloring,
    canonical_corner,
    compose_permutations,
    corner_numbers,
    corners_in_read_order,
    invert_permutation,
    mirror_name,
    permutation_cycle_type,
    recolor_coloring,
    reverse_corner,
    rotate,
    usable_corner_count,
)


def test_canonical_corner_cyclic_normalization():
    assert canonical_corner((1, 2, 3)) == 123
    assert canonical_corner((2, 3, 1)) == 123
    assert canonical_corner((3, 1, 2)) == 123
    assert canonical_corner((1, 3, 2)) == 132
    assert canonical_corner((6, 5, 4)) == 465
    assert canonical_corner((4, 6, 5)) == 465


def test_canonical_corner_rejects_bad_triples():
    with pytest.raises(InvalidCornerError):
        canonical_corner((1, 1, 2))
    with pytest.raises(InvalidCornerError):
        canonical_corner((1, 2, 7))
    with pytest.raises(InvalidCornerError):
        canonical_corner((0, 2, 3))


def test_forty_corner_numbers():
    assert len(ALL_CORNER_NUMBERS) == 40
    # independent route: canonicalize all ordered distinct triples
    seen = {
        canonical_corner(t)
        for t in itertools.permutations(COLORS, 3)
    }
    assert seen == set(ALL_CORNER_NUMBERS)


def test_reverse_corner_pairs_up_the_forty():
    assert reverse_corner(123) == 132
    assert reverse_corner(132) == 123
    for c in ALL_CORNER_NUMBERS:
        assert reverse_corner(reverse_corner(c)) == c
        assert reverse_corner(c) != c
    assert len({frozenset((c, reverse_corner(c))) for c in ALL_CORNER_NUMBERS}) == 20


def test_rotation_group_structure():
    assert len(ROTATIONS) == 24
    assert tuple(range(6)) in ROTATIONS
    group = set(ROTATIONS)
    for p in ROTATIONS:
        assert sorted(p) == list(range(6))
        for q in ROTATIONS:
            composed = tuple(p[q[i]] for i in range(6))
            assert composed in group


def test_canonical_coloring_is_class_invariant():
    rng = random.Random(11)
    for _ in range(20):
        coloring = tuple(rng.sample(COLORS, 6))
        canon = canonical_coloring(coloring)
        assert canonical_coloring(canon) == canon
        for p in ROTATIONS:
            assert canonical_coloring(rotate(coloring, p)) == canon


def test_corner_set_is_rotation_invariant():
    rng = random.Random(12)
    for _ in range(20):
        coloring = tuple(rng.sample(COLORS, 6))
        base = corner_numbers(coloring)
        assert len(base) == 8
        for p in ROTATIONS:
            assert corner_numbers(rotate(coloring, p)) == base


def test_coloring_validation():
    with pytest.raises(InvalidColoringError):
        corner_numbers((1, 2, 3, 4, 5, 5))
    with pytest.raises(InvalidColoringError):
        canonical_coloring((1, 2, 3, 4, 5))


def test_tableau_bootstrap():
    t = build_tableau()
    assert len(t) == 30
    assert tuple(c.name for c in t) == CUBE_NAMES
    assert tuple(c.id for c in t) == tuple(range(30))
    for cube in t:
        assert cube.coloring == canonical_coloring(cube.coloring)
        assert cube.corners == corners_in_read_order(cube.coloring)
        assert len(cube.corner_set) == 8
        assert cube.corner_set == frozenset(REFERENCE_CORNERS[cube.name])


def test_published_corner_sets():
    t = build_tableau()
    assert t.cube("Fb").corner_set == {124, 146, 165, 152, 234, 253, 356, 364}
    assert t.cube("Ba").corner_set == {123, 134, 146, 162, 253, 265, 354, 456}
    assert t.cube("Ab").corner_set == {143, 345, 235, 132, 126, 256, 465, 164}


def test_row_and_column_coverage():
    t = build_tableau()
    for letter in "ABCDEF":
        covered = frozenset().union(*(c.corner_set for c in t.row(letter)))
        assert covered == frozenset(ALL_CORNER_NUMBERS)
    for letter in "abcdef":
        covered = frozenset().union(*(c.corner_set for c in t.column(letter)))
        assert covered == frozenset(ALL_CORNER_NUMBERS)


def test_mirror_cubes_reverse_and_share_nothing():
    t = build_tableau()
    for cube in t:
        m = t.mirror(cube)
        assert m.name == mirror_name(cube.name)
        assert t.mirror(m) is cube
        assert not cube.corner_set & m.corner_set
        assert {reverse_corner(c) for c in cube.corner_set} == m.corner_set


def test_usable_corner_count_census():
    t = build_tableau()
    for target in t:
        values = [usable_corner_count(c, target) for c in t]
        assert set(values) <= {0, 2, 8}
        assert values.count(8) == 1
        assert values.count(0) == 9
        assert values.count(2) == 20
        blocked = {c.name for c in t if usable_corner_count(c, target) == 0}
        expected = {
            c.name
            for c in t
            if c.name != target.name
            and (c.row == target.row or c.column == target.column or c.name == target.mirror_name)
        }
        assert blocked == expected


def test_usable_corner_count_examples():
    t = build_tableau()
    assert usable_corner_count(t.cube("Ba"), t.cube("Ba")) == 8
    assert usable_corner_count(t.cube("Bc"), t.cube("Ba")) == 0
    assert usable_corner_count(t.cube("Ae"), t.cube("Ba")) == 2
    assert t.cube("Ae").corner_set & t.cube("Ba").corner_set == {162, 354}


def test_recoloring_is_a_group_action():
    t = build_tableau()
    rng = random.Random(13)
    perms = all_color_permutations()
    identity = tuple(COLORS)
    for cube in t:
        assert t.recolor(identity, cube) is cube
    for _ in range(100):
        p = rng.choice(perms)
        q = rng.choice(perms)
        cube = t.cube(rng.randrange(30))
        assert t.recolor(p, t.recolor(q, cube)) is t.recolor(compose_permutations(p, q), cube)


def test_recoloring_orbit_is_everything():
    t = build_tableau()
    ba = t.cube("Ba")
    orbit = {t.recolor(p, ba).id for p in all_color_permutations()}
    assert orbit == set(range(30))
    stabilizer = [p for p in all_color_permutations() if t.recolor(p, ba) is ba]
    assert len(stabilizer) == 24


def test_recoloring_preserves_usable_corner_count():
    t = build_tableau()
    rng = random.Random(14)
    perms = all_color_permutations()
    for _ in range(200):
        p = rng.choice(perms)
        a = t.cube(rng.randrange(30))
        b = t.cube(rng.randrange(30))
        assert usable_corner_count(a, b) == usable_corner_count(t.recolor(p, a), t.recolor(p, b))


def test_permutation_helpers():
    p = (2, 3, 4, 5, 6, 1)
    assert permutation_cycle_type(p) == (6,)
    assert permutation_cycle_type(tuple(COLORS)) == (1, 1, 1, 1, 1, 1)
    assert compose_permutations(p, invert_permutation(p)) == tuple(COLORS)
    coloring = (1, 2, 3, 4, 5, 6)
    assert recolor_coloring(p, coloring) == p


def test_tableau_lookup_errors_and_masks():
    t = build_tableau()
    with pytest.raises(UnknownCubeError):
        t.cube("Aa")
    with pytest.raises(UnknownCubeError):
        t.cube(30)
    names = ("Ac", "Ba", "Fe")
    mask = t.mask(names)
    assert t.names_of_mask(mask) == names
    with pytest.raises(ValueError):
        t.mask(("Ac", "Ac"))
