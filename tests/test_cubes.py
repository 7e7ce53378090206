import hashlib
import itertools
import random
from collections import Counter

import pytest

from madness import cubes
from madness.cubes import (
    ALL_CORNER_NUMBERS,
    COLORS,
    COLORS,
    CUBE_NAMES,
    REFERENCE_CORNERS,
    ROTATIONS,
    InvalidColoringError,
    InvalidCornerError,
    TableauBuildError,
    UnknownCubeError,
    all_color_permutations,
    build_tableau,
    canonical_coloring,
    canonical_corner,
    corner_numbers,
    corners_in_read_order,
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


def test_rotations_are_the_pinned_face_permutations():
    # Every count rests on these 24 face permutations, so their sorted tuple is pinned.
    digest = hashlib.sha256(repr(ROTATIONS).encode()).hexdigest()
    assert digest == "1d59b43bb0b13228d14be0528e151c4518bb03db6258947a6a32735ef7468c4e"
    # The first quarter turn moves the stickers on N, E, S, W one step on.
    U, D, N, E, S, W = range(6)
    turned = rotate(tuple("udnesw"), (U, D, W, N, E, S))
    assert (U, D, W, N, E, S) in ROTATIONS and turned == tuple("udwnes")


@pytest.mark.parametrize(
    "turns, size",
    [
        (((2, 3, 5, 4), (0, 2, 1, 4)), 720),    # N E W S is no rotation
        (((2, 4), (3, 5), (0, 2, 1, 4)), 16),   # N S and E W: two reflections
        (((0, 1), (2, 3, 4, 5)), 8),            # U D: a reflection
    ],
)
def test_rotation_closure_rejects_wrong_generators(monkeypatch, turns, size):
    monkeypatch.setattr(cubes, "_QUARTER_TURNS", turns)
    with pytest.raises(AssertionError, match="rotation closure produced %d elements" % size):
        cubes._rotation_permutations()


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


def test_rotation_orbits_partition_the_face_bijections():
    classes = cubes._generate_cube_classes()
    assert len(classes) == 30 and set(classes.values()) == {24}
    bijections = list(itertools.permutations(COLORS))
    assert Counter(canonical_coloring(c) for c in bijections) == classes
    orbits = [{rotate(key, p) for p in ROTATIONS} for key in classes]
    assert all(min(orbit) == key for orbit, key in zip(orbits, classes))
    assert sum(len(orbit) for orbit in orbits) == 720
    assert set().union(*orbits) == set(bijections)


@pytest.mark.parametrize("dropped", [0, 23])
def test_tableau_bootstrap_rejects_an_incomplete_rotation_set(monkeypatch, dropped):
    # Without one rotation the orbits have 23 members or overlap.
    rotations = ROTATIONS[:dropped] + ROTATIONS[dropped + 1 :]
    build_tableau.cache_clear()
    try:
        monkeypatch.setattr(cubes, "ROTATIONS", rotations)
        with pytest.raises(TableauBuildError):
            build_tableau()
    finally:
        monkeypatch.undo()
        build_tableau.cache_clear()
    assert len(build_tableau()) == 30


def _bootstrap_error(monkeypatch, name, value):
    """The TableauBuildError message of a bootstrap with ``cubes.<name>`` set to ``value``."""
    build_tableau.cache_clear()
    try:
        monkeypatch.setattr(cubes, name, value)
        with pytest.raises(TableauBuildError) as raised:
            build_tableau()
    finally:
        monkeypatch.undo()
        build_tableau.cache_clear()
    assert len(build_tableau()) == 30
    return str(raised.value)


def test_tableau_bootstrap_rejects_a_face_swap_for_the_identity(monkeypatch):
    # Swapping U and D is no rotation, yet the 720 bijections still fall into
    # 30 sets of 24 images: only the orbit-overlap check sees the set is not a group.
    assert ROTATIONS[0] == tuple(range(6))
    rotations = ((1, 0, 2, 3, 4, 5),) + ROTATIONS[1:]
    assert "overlaps another orbit" in _bootstrap_error(monkeypatch, "ROTATIONS", rotations)


@pytest.mark.parametrize("edit", ["repeated", "seven-numbers"])
def test_tableau_bootstrap_rejects_a_bad_reference_row(monkeypatch, edit):
    # Ba's row repeats Ab's, or loses its last number: either way the Ba
    # coloring finds no row of its own.
    rows = cubes._REFERENCE_ROWS.strip().splitlines()
    ab, ba = (next(r for r in rows if r.startswith(name + " ")) for name in ("Ab", "Ba"))
    bad = "Ba" + ab[2:] if edit == "repeated" else ba.rsplit(" ", 1)[0]
    monkeypatch.setattr(cubes, "_REFERENCE_ROWS", "\n".join(bad if r == ba else r for r in rows))
    reference = cubes._parse_reference()
    monkeypatch.undo()
    assert len(reference["Ba"]) == (8 if edit == "repeated" else 7)
    message = _bootstrap_error(monkeypatch, "REFERENCE_CORNERS", reference)
    assert "matches no unclaimed reference corner set" in message


@pytest.mark.parametrize(
    "swap, message",
    [
        (("Ac", "Bc"), "row A does not cover all 40 corners"),
        (("Ac", "Ad"), "column c does not cover all 40 corners"),
    ],
)
def test_tableau_bootstrap_rejects_a_line_that_misses_a_corner(monkeypatch, swap, message):
    # Swapping two reference rows names each coloring for the other cube, so
    # the line the two cubes do not share loses a corner set.
    a, b = swap
    reference = dict(REFERENCE_CORNERS, **{a: REFERENCE_CORNERS[b], b: REFERENCE_CORNERS[a]})
    assert _bootstrap_error(monkeypatch, "REFERENCE_CORNERS", reference) == message


def test_tableau_bootstrap_rejects_mirrors_that_are_not_reversals(monkeypatch):
    message = _bootstrap_error(monkeypatch, "reverse_corner", lambda corner: corner)
    assert message == "mirror cubes Ab/Ba are not reversals"


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
            and (c.row == target.row or c.column == target.column or c.name == mirror_name(target.name))
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
        q_then_p = tuple(p[q[c - 1] - 1] for c in COLORS)
        assert t.recolor(p, t.recolor(q, cube)) is t.recolor(q_then_p, cube)


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
