"""End-to-end acceptance checks, one test per published result.

Each test reproduces one headline number or table about the MacMahon-cube
target puzzle and compares it at the stated (exact or ±0.1) tolerance, so a
``pytest -v`` run of this file reads as a pass/fail scorecard.

Criterion 1 records an erratum.  The published solution-number table puts
its counts for 4, 6 and 8 ways under the wrong rows.  The test keeps the
published table as a record and pins the verified one.  The table comes from
the engine's corner-number model; the verdict rests on a count this file
takes itself, from face colorings and rotations only, without the solver:
the number of ways to put a fitting cube into each block cell, all eight
distinct, is 449,580, and that must equal the sum of s * n(s) over the
table.  The verified table gives 449,580; the published one gives 407,442.

Criterion 4 uses the same face rule, keeping each fitting rotation, to
search every placement for every target: the one collection that also
matches on all interior faces is the mirror's row and column, in 2 ways.
"""

import itertools
import random
from collections import Counter

import pytest

from madness.cubes import (
    COLORS,
    ROTATIONS,
    D,
    E,
    N,
    S,
    U,
    W,
    all_color_permutations,
    build_tableau,
    canonical_coloring,
    rotate,
)
from madness.solver import (
    build_target_graph,
    interior_matching_count,
    solution_number,
    solution_number_permanent,
    solution_number_prime_scan,
)
from madness.sweeps import (
    FiveTargetRule,
    count_max_collections,
    distribution_buildable,
    distribution_for_target,
    five_target_record,
    five_target_records,
    solution_values,
)
from madness.universal import (
    buildable_count,
    conjecture_sets,
    exhaustive_search,
    orbit_and_stabilizer,
    per_target_analysis,
    sample_distribution,
    subset_build_distribution,
)

# The reference table as published.  Its rows for 4, 6 and 8 ways carry the
# counts 19860, 15987 and 2664, which belong to 8, 4 and 6 ways.  The face
# level placement identity in criterion 1 settles the keying: the verified
# table below satisfies it (449,580) and the published one does not (407,442).
PUBLISHED_SOLUTION_DISTRIBUTION = {
    2: 93000,
    4: 19860,
    6: 15987,
    8: 2664,
    10: 792,
    12: 1296,
    16: 81,
}

VERIFIED_SOLUTION_DISTRIBUTION = {
    2: 93000,
    4: 15987,
    6: 2664,
    8: 19860,
    10: 792,
    12: 1296,
    16: 81,
}

PUBLISHED_BUILDABLE_DISTRIBUTION = {
    0: 2774940,
    1: 2256390,
    2: 720405,
    3: 91920,
    4: 8910,
    5: 360,
}

PUBLISHED_SUBSET_BUILD = {
    8: {0: 441, 1: 18, 3: 36},
    9: {0: 36, 1: 72, 3: 112},
    10: {3: 12, 6: 6, 8: 36, 9: 12},
    11: {18: 12},
}

PUBLISHED_SAMPLE_STATS = {
    9: (3.0, 1.34),
    10: (7.3, 1.7),
    11: (12.8, 2.1),
    12: (18.2, 2.7),
}


def _face_level_fits(target_name):
    """Per block cell, the (cube id, rotated coloring) pairs that fit it.

    A cube fits cell i when some rotation shows the target's colors on the
    three exterior faces of that cell: E/W by bit 2 of i, N/S by bit 1 and
    U/D by bit 0.  Only face colorings and rotations are read, never corner
    numbers or the solver, so what follows from these fits is independent
    of both.
    """
    tableau = build_tableau()
    target = tableau.cube(target_name).coloring
    fits = []
    for i in range(8):
        faces = (E if i & 4 else W, N if i & 2 else S, U if i & 1 else D)
        shown = tuple(target[f] for f in faces)
        fit = [
            (cube.id, rotated)
            for cube in tableau
            for rotated in (rotate(cube.coloring, r) for r in ROTATIONS)
            if tuple(rotated[f] for f in faces) == shown
        ]
        assert len({cube_id for cube_id, _ in fit}) == len(fit), "a cube fits a cell twice"
        fits.append(fit)
    return fits


def _face_level_placements(target_name):
    """Injective maps from the 8 block cells to cubes that fit their cells."""
    placements = Counter({frozenset(): 1})
    for fit in _face_level_fits(target_name):
        grown = Counter()
        for used, ways in placements.items():
            for cube_id, _ in fit:
                if cube_id not in used:
                    grown[used | {cube_id}] += ways
        placements = grown
    return sum(placements.values())


# Interior contacts, from the cell bits alone: along each axis, the cell with
# the axis bit clear touches its neighbor with its plus face (E, N, U), the
# neighbor touches back with its minus face (W, S, D).
_CONTACTS = tuple(
    (i, i | bit, plus, minus)
    for bit, plus, minus in ((4, E, W), (2, N, S), (1, U, D))
    for i in range(8)
    if not i & bit
)


def _interior_matching_collections(target_name):
    """Collection -> number of placements that also match every interior face.

    A backtracking search over the face-level fits, cell by cell, pruned at
    the first interior contact whose two faces differ.
    """
    fits = _face_level_fits(target_name)
    found = Counter()
    chosen = []

    def extend(cell):
        if cell == 8:
            found[frozenset(cube_id for cube_id, _ in chosen)] += 1
            return
        for cube_id, rotated in fits[cell]:
            if any(cube_id == used for used, _ in chosen):
                continue
            if all(
                chosen[a][1][fa] == rotated[fb] for a, b, fa, fb in _CONTACTS if b == cell
            ):
                chosen.append((cube_id, rotated))
                extend(cell + 1)
                chosen.pop()

    extend(0)
    return found


def _weighted_total(table):
    return sum(s * n for s, n in table.items())


def test_criterion_01_solution_number_distribution_as_published():
    dist = distribution_for_target("Ba")
    assert dist.buildable_total == 133680
    assert dist.total_collections == 5852925
    assert dist.counts == VERIFIED_SOLUTION_DISTRIBUTION

    mis_keyed = (4, 6, 8)
    for s, n in PUBLISHED_SOLUTION_DISTRIBUTION.items():
        if s not in mis_keyed:
            assert VERIFIED_SOLUTION_DISTRIBUTION[s] == n
    assert sum(PUBLISHED_SOLUTION_DISTRIBUTION.values()) == dist.buildable_total
    published = [PUBLISHED_SOLUTION_DISTRIBUTION[s] for s in mis_keyed]
    verified = [VERIFIED_SOLUTION_DISTRIBUTION[s] for s in mis_keyed]
    assert sorted(published) == sorted(verified)

    # Summed over all collections, the solution number counts the injective
    # cell -> cube maps in which every cube fits its cell.
    placements = _face_level_placements("Ba")
    assert placements == 449580
    assert _weighted_total(dist.counts) == placements, (
        "the computed distribution %r breaks the face-level placement "
        "identity: sum s * n(s) = %d, but %d placements exist"
        % (dist.counts, _weighted_total(dist.counts), placements)
    )
    # The published keying breaks it (407,442), and of the six ways to put
    # the three published counts under 4, 6 and 8 ways only the verified one
    # satisfies it.
    assert _weighted_total(PUBLISHED_SOLUTION_DISTRIBUTION) == 407442
    satisfying = [
        keyed
        for keyed in itertools.permutations(published)
        if _weighted_total({**PUBLISHED_SOLUTION_DISTRIBUTION, **dict(zip(mis_keyed, keyed))})
        == placements
    ]
    assert satisfying == [tuple(verified)]


def test_criterion_02_buildable_target_distribution():
    distribution, five_masks = distribution_buildable()
    assert distribution == PUBLISHED_BUILDABLE_DISTRIBUTION
    assert max(distribution) == 5
    assert len(five_masks) == 360


def test_criterion_03_five_target_rule_generator():
    tableau = build_tableau()
    records = five_target_records(tableau, verify=True)
    assert len(records) == 360
    _, five_masks = distribution_buildable()
    assert {tableau.mask(r.collection) for r in records} == {int(m) for m in five_masks}
    example = five_target_record(FiveTargetRule(("a", "c", "f"), ("A", "B", "E", "F")))
    assert example.targets == ("Cb", "Cd", "Ce", "Db", "De")
    assert sorted(example.solution_numbers.values(), reverse=True) == [4, 4, 4, 2, 2]


def test_criterion_04_interior_matching_for_all_targets():
    tableau = build_tableau()
    for target in tableau:
        mirror = tableau.mirror(target)
        ids = tuple(
            sorted(
                c.id
                for c in tableau.row(mirror.row) + tableau.column(mirror.column)
                if c.id != mirror.id
            )
        )
        assert len(ids) == 8
        assert solution_number(ids, target, tableau) == 16
        assert interior_matching_count(ids, target, tableau) == 2
        # Over every placement of every collection, this set is the only one
        # that matches on all interior faces, and it does so in exactly 2 ways.
        assert _interior_matching_collections(target.name) == {frozenset(ids): 2}


def test_criterion_05_maximum_solution_census_for_ba():
    census = count_max_collections("Ba")
    assert len(census.double_edge_masks) == 9
    assert len(census.path_masks) == 72
    assert census.count == 81
    assert set(census.sweep_masks) == set(census.double_edge_masks) | set(census.path_masks)


def _edge_case_collections(tableau):
    """Hand-built collections hitting every solution number including 0."""
    graph = build_target_graph("Ba", tableau)

    def from_edges(edge_list, include_target):
        ids, used = [], set()
        for u, v in edge_list:
            for i in range(30):
                if i not in used and graph.endpoints[i] == tuple(sorted((u, v))):
                    ids.append(i)
                    used.add(i)
                    break
            else:
                raise AssertionError(f"no free cube for edge {(u, v)}")
        if include_target:
            ids.append(graph.target.id)
        return tuple(sorted(ids))

    cases = [
        # all four diagonals doubled: 2^4 = 16
        (from_edges([(0, 7), (0, 7), (1, 6), (1, 6), (2, 5), (2, 5), (3, 4), (3, 4)], False), 16),
        # target + spanning tree: 8
        (from_edges([(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 6), (3, 7)], True), 8),
        # target + isolated vertex + doubled diagonals + 3-cycle: 2^3 * 1 = 8
        (from_edges([(1, 6), (1, 6), (2, 5), (2, 5), (3, 4), (3, 4), (3, 7)], True), 8),
        # target + isolated vertex + doubled diagonal + 5-vertex loop: 2^2 * 1 = 4
        (from_edges([(1, 6), (1, 6), (2, 5), (4, 5), (3, 4), (2, 3), (3, 7)], True), 4),
        # target + 2-edge tree + 5-vertex loop: 2 * 3 = 6
        (from_edges([(0, 1), (0, 2), (3, 7), (5, 7), (4, 5), (4, 6), (3, 4)], True), 6),
        # target + 4-edge tree + doubled diagonal with a chord: 2 * 5 = 10
        (from_edges([(1, 6), (1, 6), (6, 7), (0, 2), (2, 3), (0, 4), (4, 5)], True), 10),
        # target + 5-edge tree + doubled diagonal: 2 * 6 = 12
        (from_edges([(1, 6), (1, 6), (0, 2), (2, 3), (3, 7), (5, 7), (4, 5)], True), 12),
        # target + isolated vertex + 7-vertex loop: 2 * 1 = 2
        (from_edges([(1, 3), (2, 3), (2, 6), (6, 7), (5, 7), (4, 5), (4, 6)], True), 2),
        # unusable cube present: 0
        (tableau.ids(("Ab", "Ac", "Ad", "Ae", "Af", "Cb", "Db", "Eb")), 0),
        # two tree components: 0
        (from_edges([(1, 3), (2, 6), (4, 5), (4, 6), (5, 7), (6, 7), (2, 5)], True), 0),
    ]
    return cases


def test_criterion_06_oracle_equivalence():
    tableau = build_tableau()
    rng = random.Random(20240)
    observed = set()

    def check(ids, target):
        a = solution_number(ids, target, tableau)
        b = solution_number_permanent(ids, target, tableau)
        c = solution_number_prime_scan(ids, target, tableau)
        assert a == b == c, (ids, target, a, b, c)
        observed.add(a)
        return a

    for _ in range(7000):
        check(tuple(sorted(rng.sample(range(30), 8))), rng.randrange(30))
    for _ in range(3000):
        target = rng.randrange(30)
        usable = build_target_graph(target, tableau).usable_ids()
        check(tuple(sorted(rng.sample(usable, 8))), target)
    for ids, expected in _edge_case_collections(tableau):
        assert check(ids, "Ba") == expected

    assert observed <= {0, 2, 4, 6, 8, 10, 12, 16}
    assert 14 not in observed
    # strongest form: over every collection and target, exactly these occur
    assert solution_values() == (2, 4, 6, 8, 10, 12, 16)


def test_criterion_07_universal_sets_and_orbit():
    tableau = build_tableau()
    candidates = conjecture_sets(tableau)
    assert len(candidates) == 10
    for candidate in candidates:
        assert buildable_count(candidate.names, tableau) == 30
    for candidate in (candidates[0], candidates[9]):
        for analysis in per_target_analysis(candidate, tableau):
            values = sorted(v for _, v in analysis.collections)
            if analysis.in_set:
                assert values == [2] * 7 + [8, 8]
            else:
                assert values == [4]
    report = orbit_and_stabilizer(candidates, tableau)
    assert report.orbit_size == 10
    assert report.single_orbit


def test_criterion_08_subset_build_histograms():
    candidate = conjecture_sets()[0]
    for k, expected in PUBLISHED_SUBSET_BUILD.items():
        assert subset_build_distribution(candidate, k) == expected


def test_criterion_09_sampled_buildability_statistics():
    for k, (ref_mean, ref_std) in PUBLISHED_SAMPLE_STATS.items():
        stats, _ = sample_distribution(k, 20000, seed=7)
        assert abs(stats.mean - ref_mean) <= 0.1, (k, stats.mean, ref_mean)
        assert abs(stats.std - ref_std) <= 0.1, (k, stats.std, ref_std)
        if k == 10:
            assert stats.min >= 1


def test_criterion_10_structural_invariants():
    tableau = build_tableau()
    all_colorings = {
        canonical_coloring(p) for p in itertools.permutations(COLORS)
    }
    assert len(all_colorings) == 30
    assert all_colorings == {c.coloring for c in tableau}
    corners = set()
    for cube in tableau:
        corners |= cube.corner_set
    assert len(corners) == 40
    for letter in "ABCDEF":
        row = [c for c in tableau if c.name[0] == letter]
        covered = set()
        for c in row:
            covered |= c.corner_set
        assert len(covered) == 40
    for letter in "abcdef":
        column = [c for c in tableau if c.name[1] == letter]
        covered = set()
        for c in column:
            covered |= c.corner_set
        assert len(covered) == 40
    for cube in tableau:
        assert cube.corner_set.isdisjoint(tableau.mirror(cube).corner_set)
        graph = build_target_graph(cube, tableau)
        assert len(graph.unusable_ids) == 9
    rng = random.Random(500)
    perms = all_color_permutations()
    for _ in range(500):
        perm = rng.choice(perms)
        target = tableau.cube(rng.randrange(30))
        ids = tuple(sorted(rng.sample(range(30), 8)))
        mapped = tuple(sorted(tableau.recolor(perm, i).id for i in ids))
        assert solution_number(ids, target, tableau) == solution_number(
            mapped, tableau.recolor(perm, target), tableau
        )


def test_criterion_11_exhaustive_twelve_set_scan():
    state = exhaustive_search()
    assert state.finished
    assert state.completed == 86_493_225
    assert sorted(state.found) == sorted(s.mask for s in conjecture_sets())
