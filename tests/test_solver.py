import dataclasses
import hashlib
import itertools
import random
from collections import Counter

import pytest

from madness import solver
from madness.cubes import (
    CELL_FACES,
    FACE_LETTERS,
    Tableau,
    all_color_permutations,
    build_tableau,
    corner_numbers,
    corners_in_read_order,
)
from madness.solver import (
    ADJACENT_PAIRS,
    DIAGONAL_PAIRS,
    INTERIOR_CONTACTS,
    SLOT_ENDPOINTS,
    TARGET_SLOT,
    CollectionSizeError,
    ComponentSummary,
    SubgraphSummary,
    as_ids,
    build_target_graph,
    classify,
    classify_edges,
    enumerate_arrangements,
    interior_matching_count,
    solution_number,
    solution_number_formula,
    solution_number_permanent,
    solution_number_prime_scan,
    _PRIMES,
    _PRIMORIAL,
    _CONTACTS_BY_CELL,
    _cell_fits,
    _placement_table,
)
from madness.sweeps import count_max_collections

CANONICAL_BA = ("Ac", "Ad", "Ae", "Af", "Cb", "Db", "Eb", "Fb")
FIVE_TARGET_EXAMPLE = ("Ac", "Af", "Ba", "Bf", "Ea", "Ef", "Fa", "Fc")


def summary(target_in, components, unusable=0):
    return SubgraphSummary(
        target_in_collection=target_in,
        unusable_count=unusable,
        edge_list=(),
        components=tuple(ComponentSummary(v, e) for v, e in components),
    )


def test_target_graph_shape():
    t = build_tableau()
    g = build_target_graph("Ba", t)
    assert g.target.name == "Ba"
    assert t.names(g.unusable_ids) == ("Ab", "Bc", "Bd", "Be", "Bf", "Ca", "Da", "Ea", "Fa")
    edges = {i: SLOT_ENDPOINTS[s] for i, s in enumerate(g.slot_of_cube) if 0 <= s < TARGET_SLOT}
    diagonal = {i for i in edges if g.slot_of_cube[i] >= len(ADJACENT_PAIRS)}
    assert t.names(diagonal) == ("Ac", "Ad", "Ae", "Af", "Cb", "Db", "Eb", "Fb")
    standard = set(edges) - diagonal
    assert len(standard) == 12
    for i in standard:
        u, v = edges[i]
        assert bin(u ^ v).count("1") == 1
    for i in diagonal:
        u, v = edges[i]
        assert u ^ v == 7


def test_target_graph_is_bipartite():
    # corner parity two-colors the graph: adjacent and antipodal corners
    # differ in an odd number of coordinate signs
    for name in ("Ba", "Cd", "Fe"):
        g = build_target_graph(name)
        for s in g.slot_of_cube:
            if 0 <= s < TARGET_SLOT:
                u, v = SLOT_ENDPOINTS[s]
                assert bin(u).count("1") % 2 != bin(v).count("1") % 2


def test_target_graph_edge_example():
    t = build_tableau()
    g = build_target_graph("Ba", t)
    u, v = SLOT_ENDPOINTS[g.slot_of_cube[t.cube("Ae").id]]
    assert {g.target.corners[u], g.target.corners[v]} == {162, 354}


def test_every_slot_holds_the_cube_of_its_corners():
    # The slot map is the whole target graph: each edge slot's cube shares
    # exactly the target corners at the slot's endpoints.
    t = build_tableau()
    for target in t:
        g = build_target_graph(target, t)
        for s, i in enumerate(g.cube_of_slot[:TARGET_SLOT]):
            u, v = SLOT_ENDPOINTS[s]
            shared = t.cubes[i].corner_set & target.corner_set
            assert shared == {target.corners[u], target.corners[v]}, (target.name, s)
        assert g.cube_of_slot[TARGET_SLOT] == target.id
        assert len(g.unusable_ids) == 9
        for i in g.unusable_ids:
            assert g.slot_of_cube[i] == -1
            assert not t.cubes[i].corner_set & target.corner_set, (target.name, i)


def test_target_graphs_are_the_pinned_slot_maps():
    # Every sweep reads the 30 slot maps, so they and the unusable sets are pinned.
    t = build_tableau()
    graphs = [build_target_graph(c.name, t) for c in t]

    def digest(rows):
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    assert digest([g.slot_of_cube for g in graphs]) == (
        "2561a245eb3904cd17951678dd34ceeb80be15a614c858cdc34e0bc1c99ade09"
    )
    assert digest([tuple(sorted(g.unusable_ids)) for g in graphs]) == (
        "d7ff4812580e04eb137d02b483b59ec0d76d3a52eb882b8e1ce5b5b9b49e2d5d"
    )


def _ba_graph_with_corners(monkeypatch, corners_by_name):
    """Ba's target graph, built afresh from a tableau whose named cubes carry the given corners."""
    cubes = [dataclasses.replace(c, corners=corners_by_name.get(c.name, c.corners)) for c in build_tableau()]
    monkeypatch.setattr(solver, "build_tableau", lambda: Tableau(cubes))
    return solver._target_graph_by_name.__wrapped__("Ba")


def test_target_graph_builder_accepts_the_true_tableau(monkeypatch):
    assert _ba_graph_with_corners(monkeypatch, {}) == build_target_graph("Ba")


@pytest.mark.parametrize("vertices", [(0, 1, 2), (0, 3)])    # three corners; a face diagonal
def test_target_graph_rejects_corners_no_slot_joins(monkeypatch, vertices):
    t = build_tableau()
    ba, ab = t.cube("Ba").corners, t.cube("Ab").corners    # Ab, the mirror, shares no corner
    corners = tuple(ba[v] for v in vertices) + ab[len(vertices):]
    with pytest.raises(AssertionError, match=r"Cd shares corners \(%s\) of Ba: no slot joins them" % (
        ", ".join(map(str, vertices))
    )):
        _ba_graph_with_corners(monkeypatch, {"Cd": corners})


@pytest.mark.parametrize("name", ["Cd", "Ab"])    # in neither of row A and column b; in both
def test_target_graph_rejects_a_diagonal_cube_off_the_mirrors_lines(monkeypatch, name):
    ac = build_tableau().cube("Ac").corners    # on a main diagonal of Ba
    with pytest.raises(AssertionError, match=f"diagonal cube {name} must be in the mirror's row or column"):
        _ba_graph_with_corners(monkeypatch, {name: ac})


def test_target_graph_rejects_a_slot_filled_twice(monkeypatch):
    t = build_tableau()
    assert build_target_graph("Ba", t).slot_of_cube[t.cube("Cd").id] < len(ADJACENT_PAIRS)
    with pytest.raises(AssertionError, match="the cubes of Ba do not fill each slot once"):
        _ba_graph_with_corners(monkeypatch, {"Bc": t.cube("Cd").corners})


def test_target_graph_rejects_unusable_cubes_off_the_row_column_and_mirror(monkeypatch):
    t = build_tableau()
    bc, cd = t.cube("Bc").corners, t.cube("Cd").corners
    with pytest.raises(AssertionError, match=r"unusable cubes for Ba are not row\+column\+mirror"):
        _ba_graph_with_corners(monkeypatch, {"Bc": cd, "Cd": bc})


def test_every_target_fits_the_slot_structure():
    for name in build_tableau().by_name:
        g = build_target_graph(name)
        assert sorted(g.cube_of_slot) == sorted(set(g.cube_of_slot))
        assert set(g.slot_of_cube) - {-1} == set(range(21))


def test_formula_component_cases():
    # target in the collection: one tree component with k edges
    assert solution_number_formula(summary(True, [(8, 7)])) == 8          # spanning tree
    for k, expect in ((0, 2), (1, 4), (2, 6), (3, 8), (4, 10), (5, 12)):
        rest = [(8 - (k + 1), 7 - k)]
        assert solution_number_formula(summary(True, [(k + 1, k)] + rest)) == expect
    for k, expect in ((1, 8), (2, 12), (3, 16)):
        comps = [(k + 1, k), (3, 3), (8 - (k + 1) - 3, 7 - k - 3)]
        assert solution_number_formula(summary(True, comps)) == expect
    assert solution_number_formula(summary(True, [(2, 1), (2, 2), (2, 2), (2, 2)])) == 16
    # trees with zero edges still count as trees
    assert solution_number_formula(summary(True, [(1, 0), (2, 2), (5, 5)])) == 4
    assert solution_number_formula(summary(True, [(1, 0), (2, 2), (2, 2), (3, 3)])) == 8
    # target absent: 8 edges, no tree allowed
    assert solution_number_formula(summary(False, [(8, 8)])) == 2
    assert solution_number_formula(summary(False, [(4, 4), (4, 4)])) == 4
    assert solution_number_formula(summary(False, [(2, 2), (2, 2), (4, 4)])) == 8
    assert solution_number_formula(summary(False, [(2, 2), (2, 2), (2, 2), (2, 2)])) == 16
    assert solution_number_formula(summary(False, [(3, 2), (5, 6)])) == 0
    # two trees kill it even with the target
    assert solution_number_formula(summary(True, [(2, 1), (2, 1), (4, 5)])) == 0
    # any unusable cube kills it
    assert solution_number_formula(summary(True, [(8, 7)], unusable=1)) == 0


def test_canonical_collection_counts():
    assert solution_number(CANONICAL_BA, "Ba") == 16
    assert solution_number_permanent(CANONICAL_BA, "Ba") == 16
    assert solution_number_prime_scan(CANONICAL_BA, "Ba") == 16
    assert len(enumerate_arrangements(CANONICAL_BA, "Ba")) == 16
    assert interior_matching_count(CANONICAL_BA, "Ba") == 2


def test_five_target_example_counts():
    for target, expect in (("Cb", 4), ("Cd", 4), ("Ce", 4), ("Db", 2), ("De", 2)):
        assert solution_number(FIVE_TARGET_EXAMPLE, target) == expect
    for target in ("Ba", "Ab", "Fe", "Dc"):
        assert solution_number(FIVE_TARGET_EXAMPLE, target) == 0


def test_unusable_cube_always_kills():
    t = build_tableau()
    rng = random.Random(21)
    g = build_target_graph("Ba", t)
    usable = list(g.usable_ids())
    for _ in range(50):
        bad = rng.choice(sorted(g.unusable_ids))
        rest = rng.sample([i for i in usable], 7)
        ids = tuple(sorted(rest + [bad]))
        assert solution_number(ids, "Ba", t) == 0
        assert solution_number_permanent(ids, "Ba", t) == 0


def test_classify_lists_only_the_edges_of_usable_cubes():
    t = build_tableau()
    g = build_target_graph("Ba", t)
    usable = ("Ac", "Ad", "Ae", "Af", "Cb", "Db")
    s = classify(("Ab", "Ba") + usable, "Ba", t)
    assert s.edge_list == tuple(SLOT_ENDPOINTS[g.slot_of_cube[t.cube(n).id]] for n in usable)
    assert (s.target_in_collection, s.unusable_count) == (True, 1)
    assert sum(c.edges for c in s.components) == 6
    assert solution_number_formula(s) == 0


def _collection_with_components(graph, component_edges, include_target):
    """Pick one cube per requested (u, v) slot edge, plus the target."""
    ids = []
    used = set()
    for u, v in component_edges:
        for i, s in enumerate(graph.slot_of_cube):
            if i in used or not 0 <= s < TARGET_SLOT or SLOT_ENDPOINTS[s] != tuple(sorted((u, v))):
                continue
            ids.append(i)
            used.add(i)
            break
        else:
            raise AssertionError(f"no free cube for edge {(u, v)}")
    if include_target:
        ids.append(graph.target.id)
    return tuple(sorted(ids))


def test_zero_edge_tree_components_match_permanent():
    # isolated vertex 0, two doubled diagonals, and a doubled diagonal with a
    # pendant edge: four components, the tree being the lone vertex
    g = build_target_graph("Ba")
    edges = [(1, 6), (1, 6), (2, 5), (2, 5), (3, 4), (3, 4), (3, 7)]
    ids = _collection_with_components(g, edges, include_target=True)
    s = classify(ids, "Ba")
    assert sum(1 for c in s.components if c.is_tree) == 1
    assert len(s.components) == 4
    assert solution_number(ids, "Ba") == 8
    assert solution_number_permanent(ids, "Ba") == 8
    assert len(enumerate_arrangements(ids, "Ba")) == 8
    # isolated vertex + doubled diagonal + 5-vertex unicyclic piece with a
    # pendant: three components
    edges = [(1, 6), (1, 6), (2, 5), (4, 5), (3, 4), (2, 3), (3, 7)]
    ids = _collection_with_components(g, edges, include_target=True)
    s = classify(ids, "Ba")
    assert len(s.components) == 3
    assert solution_number(ids, "Ba") == solution_number_permanent(ids, "Ba") == 4
    assert len(enumerate_arrangements(ids, "Ba")) == 4


def test_oracles_agree_on_random_collections():
    t = build_tableau()
    rng = random.Random(22)
    names = [c.name for c in t]
    for trial in range(2000):
        target = rng.choice(names)
        ids = tuple(sorted(rng.sample(range(30), 8)))
        a = solution_number(ids, target, t)
        b = solution_number_permanent(ids, target, t)
        assert a == b, (ids, target)
        if trial % 7 == 0:
            assert solution_number_prime_scan(ids, target, t) == a


def test_oracles_agree_on_usable_collections():
    t = build_tableau()
    rng = random.Random(23)
    for trial in range(400):
        target = t.cube(rng.randrange(30))
        usable = build_target_graph(target, t).usable_ids()
        ids = tuple(sorted(rng.sample(usable, 8)))
        a = solution_number(ids, target, t)
        assert a == solution_number_permanent(ids, target, t)
        if trial % 5 == 0:
            assert solution_number_prime_scan(ids, target, t) == a


def _fit_matrix(collection, target, t):
    """Cell-by-cube 0/1 matrix: row v, column j is 1 iff cube j fits cell v."""
    ids = as_ids(collection, t)
    return [[int(i in {k for k, _ in fits}) for i in ids] for fits in _cell_fits(target, t)]


def test_incidence_matrix_structure():
    t = build_tableau()
    m = _fit_matrix(CANONICAL_BA, "Ba", t)
    assert all(sum(row) == 2 for row in m)            # every corner on two cubes
    cols = list(zip(*m))
    assert all(sum(col) == 2 for col in cols)         # every diagonal cube has two corners
    with_target = tuple(sorted(as_ids(CANONICAL_BA, t)[:7] + (t.cube("Ba").id,)))
    m2 = _fit_matrix(with_target, "Ba", t)
    target_col = as_ids(with_target, t).index(t.cube("Ba").id)
    assert sum(list(zip(*m2))[target_col]) == 8
    # The face-level table agrees with the corner model on every target:
    # cell v of the target is fitted by exactly the 6 cubes carrying its corner.
    assert len(_placement_table()) == 960
    for target in t:
        for v, fits in enumerate(_cell_fits(target, t)):
            corner = target.corners[v]
            assert [i for i, _ in fits] == sorted(c.id for c in t if corner in c.corner_set)
            assert len(fits) == 6


def test_orient_cube_shows_the_corner():
    t = build_tableau()
    target = t.cube("Ba")
    ae = t.cube("Ae")
    vertex = target.corners.index(162)
    oriented = dict(_cell_fits(target, t)[vertex])[ae.id]
    for face in CELL_FACES[vertex]:
        assert oriented[face] == target.coloring[face]
    assert corner_numbers(oriented) == ae.corner_set
    # Every fitting cube, for all 30 targets x 8 cells, is oriented to show
    # the target's colors on the cell's exterior faces and the cell's corner.
    for target in t:
        for v, fits in enumerate(_cell_fits(target, t)):
            corner = target.corners[v]
            for i, oriented in fits:
                for face in CELL_FACES[v]:
                    assert oriented[face] == target.coloring[face]
                assert corners_in_read_order(oriented)[v] == corner
                assert corner_numbers(oriented) == t.cubes[i].corner_set


def test_orienting_target_on_itself_is_identity():
    t = build_tableau()
    for target in t:
        for fits in _cell_fits(target, t):
            assert dict(fits)[target.id] == target.coloring


def test_face_routes_read_no_corner_number():
    # With every corner number blanked, the permanent, the prime scan and the
    # arrangements (but for their corner labels) still give the formula's
    # answers on the real tableau: they read faces only.
    t = build_tableau()
    blank = Tableau([dataclasses.replace(c, corners=(0,) * 8) for c in t])

    def unlabeled(arrangements):
        return [[(p.vertex, p.cube, p.coloring) for p in a] for a in arrangements]

    rng = random.Random(27)
    for _ in range(100):
        target = t.cube(rng.randrange(30))
        ids = tuple(sorted(rng.sample(build_target_graph(target, t).usable_ids(), 8)))
        expected = solution_number(ids, target, t)
        assert solution_number_permanent(ids, target.name, blank) == expected
        assert solution_number_prime_scan(ids, target.name, blank) == expected
        assert unlabeled(enumerate_arrangements(ids, target.name, blank)) == unlabeled(
            enumerate_arrangements(ids, target, t)
        )


def _prime_scan_reference(collection, target, t):
    """The unmerged prime scan: every pick of one prime per cell, each product tested."""
    prime_of = dict(zip(as_ids(collection, t), _PRIMES))
    prime_lists = [[prime_of[i] for i, _ in fits if i in prime_of] for fits in _cell_fits(target, t)]
    count = 0
    for picks in itertools.product(*prime_lists):
        product = 1
        for p in picks:
            product *= p
        if product % _PRIMORIAL == 0:
            count += 1
    return count


def test_prime_scan_matches_the_unmerged_reference():
    t = build_tableau()
    rng = random.Random(28)
    # The heavy tail: collections holding the target cube, which fits all 8
    # cells and so multiplies the picks.
    for target in t:
        usable = [i for i in build_target_graph(target, t).usable_ids() if i != target.id]
        for _ in range(4):
            ids = tuple(sorted(rng.sample(usable, 7) + [target.id]))
            assert solution_number_prime_scan(ids, target, t) == _prime_scan_reference(ids, target, t)
    for _ in range(200):
        target = t.cube(rng.randrange(30))
        ids = tuple(sorted(rng.sample(build_target_graph(target, t).usable_ids(), 8)))
        assert solution_number_prime_scan(ids, target, t) == _prime_scan_reference(ids, target, t)


def test_prime_scan_skip_and_primorial_test_each_hold(monkeypatch):
    with_target = ("Ac", "Ad", "Ae", "Af", "Ba", "Cb", "Db", "Eb")
    expected = solution_number(with_target, "Ba")
    assert expected > 0
    # With a test every product passes, the repeated-prime skip alone must
    # still keep each full pick injective ...
    monkeypatch.setattr(solver, "_PRIMORIAL", 1)
    assert solution_number_prime_scan(with_target, "Ba") == expected
    # ... and with a test no product passes, nothing may be counted: the
    # primorial test decides the count.
    monkeypatch.setattr(solver, "_PRIMORIAL", _PRIMORIAL * 23)
    assert solution_number_prime_scan(with_target, "Ba") == 0


_OPPOSITE = {"U": "D", "D": "U", "N": "S", "S": "N", "E": "W", "W": "E"}


def _brute_force_arrangements(collection, target, t):
    """Every assignment of the 8 cubes to the 8 cells, kept when each cube fits its cell.

    ``itertools.permutations`` of the sorted ids gives the assignments in
    lexicographic order of (cube at cell 0, cube at cell 1, ...).
    """
    ids = as_ids(collection, t)
    fit = {(v, i): oriented for v, fits in enumerate(_cell_fits(target, t)) for i, oriented in fits}
    return [
        [(v, i, fit[v, i]) for v, i in enumerate(perm)]
        for perm in itertools.permutations(ids)
        if all((v, i) in fit for v, i in enumerate(perm))
    ]


def _matches_inside(arrangement):
    """Cells a and b = a | bit meet through the faces opposite their exterior ones on that axis."""
    for a, _, colors_a in arrangement:
        for axis, bit in enumerate((4, 2, 1)):
            if not a & bit:
                b, _, colors_b = arrangement[a | bit]
                face_a = _OPPOSITE[FACE_LETTERS[CELL_FACES[a][axis]]]
                face_b = _OPPOSITE[FACE_LETTERS[CELL_FACES[b][axis]]]
                if colors_a[FACE_LETTERS.index(face_a)] != colors_b[FACE_LETTERS.index(face_b)]:
                    return False
    return True


def test_arrangements_and_interior_count_match_brute_force():
    t = build_tableau()
    rng = random.Random(29)
    cases = [(CANONICAL_BA, "Ba")]
    while len(cases) < 12:
        target = t.cube(rng.randrange(30))
        ids = tuple(sorted(rng.sample(build_target_graph(target, t).usable_ids(), 8)))
        cases.append((ids, target.name))
    twelve = next(
        (ids, target.name)
        for target in t
        for ids in itertools.combinations(build_target_graph(target, t).usable_ids(), 8)
        if target.id in ids and solution_number(ids, target, t) == 12
    )
    cases.append(twelve)
    numbers = [solution_number(ids, target, t) for ids, target in cases]
    assert 16 in numbers and 12 in numbers and 0 in numbers
    interior_counts = []
    for ids, target in cases:
        reference = _brute_force_arrangements(ids, target, t)
        listed = enumerate_arrangements(ids, target, t)
        assert [[(p.vertex, t.cube(p.cube).id, p.coloring) for p in a] for a in listed] == reference
        interior = interior_matching_count(ids, target, t)
        assert interior == sum(_matches_inside(a) for a in reference)
        interior_counts.append(interior)
    assert interior_counts[0] == 2


def test_cell_fits_cache_equals_fresh_lookups():
    t = build_tableau()
    table = _placement_table()
    blank = Tableau([dataclasses.replace(c, corners=(0,) * 8) for c in t])
    for target in t:
        fresh = [table[v, tuple(target.coloring[f] for f in faces)] for v, faces in enumerate(CELL_FACES)]
        cached = _cell_fits(target, t)
        assert list(cached) == fresh
        assert _cell_fits(target.name, t) is cached
        assert _cell_fits(target.name, blank) is cached


def test_prime_scan_zero_multiplicity():
    # the 9 unusable cubes carry no corner of the target at all, so a
    # collection drawn from them fits no cell
    t = build_tableau()
    ids = t.ids(("Ab", "Bc", "Bd", "Be", "Bf", "Ca", "Da", "Ea"))
    assert all(set(ids).isdisjoint(i for i, _ in fits) for fits in _cell_fits("Ba", t))
    assert solution_number_prime_scan(ids, "Ba") == 0
    assert solution_number_permanent(ids, "Ba") == 0


def test_collection_validation():
    with pytest.raises(CollectionSizeError):
        solution_number(("Ac", "Ad"), "Ba")
    with pytest.raises(ValueError):
        as_ids(("Ac", "Ac", "Ad", "Ae", "Af", "Cb", "Db", "Eb"))


def test_mask_beyond_thirty_cubes_is_rejected():
    mask = build_tableau().mask(CANONICAL_BA)
    with pytest.raises(ValueError, match="out of range"):
        solution_number(mask | 1 << 30, "Ba")


def test_arrangements_match_target_face_for_face():
    t = build_tableau()
    target = t.cube("Ba")
    for arrangement in enumerate_arrangements(CANONICAL_BA, "Ba", t):
        assert len({p.cube for p in arrangement}) == 8
        for p in arrangement:
            for face in CELL_FACES[p.vertex]:
                assert p.coloring[face] == target.coloring[face]


def test_arrangements_in_lexicographic_order():
    t = build_tableau()
    arrangements = enumerate_arrangements(CANONICAL_BA, "Ba", t)
    keys = [tuple(t.cube(p.cube).id for p in a) for a in arrangements]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_arrangement_count_equals_solution_number():
    t = build_tableau()
    rng = random.Random(24)
    for _ in range(300):
        target = t.cube(rng.randrange(30))
        usable = build_target_graph(target, t).usable_ids()
        ids = tuple(sorted(rng.sample(usable, 8)))
        assert len(enumerate_arrangements(ids, target, t)) == solution_number(ids, target, t)


def test_interior_contact_table():
    assert len(INTERIOR_CONTACTS) == 12
    for a, b, fa, fb in INTERIOR_CONTACTS:
        assert bin(a ^ b).count("1") == 1
        assert a < b
    # The pruned search checks each contact once, at its higher cell.
    by_cell = [(a, b, fa, fb) for b, cell in enumerate(_CONTACTS_BY_CELL) for a, fa, fb in cell]
    assert sorted(by_cell) == sorted(INTERIOR_CONTACTS)


def test_interior_matching_bounded_by_solutions():
    t = build_tableau()
    rng = random.Random(25)
    for _ in range(40):
        target = t.cube(rng.randrange(30))
        usable = build_target_graph(target, t).usable_ids()
        ids = tuple(sorted(rng.sample(usable, 8)))
        assert interior_matching_count(ids, target, t) <= solution_number(ids, target, t)


def _benchmark_like_queries(t, seed, count, usable_share=0.75):
    """(target, ids) pairs: a random target, then 8 cubes drawn from its usable
    cubes with probability ``usable_share`` and from all 30 otherwise."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        target = t.cube(rng.randrange(30))
        pool = build_target_graph(target, t).usable_ids() if rng.random() < usable_share else range(30)
        out.append((target.name, tuple(sorted(rng.sample(pool, 8)))))
    return out


def test_pruned_interior_count_equals_filtered_listing():
    t = build_tableau()
    # Random queries almost never match inside, so add each target's one
    # collection that does (criterion 4): its mirror's row and column.
    conway = [
        (target.name, t.ids(c for c in t.row(m.row) + t.column(m.column) if c != m))
        for target in t
        for m in [t.mirror(target)]
    ]
    seen = Counter()
    for target, ids in _benchmark_like_queries(t, 26, 2400) + conway:
        listed = enumerate_arrangements(ids, target, t)
        pruned = interior_matching_count(ids, target, t)
        assert pruned == sum(
            all(a[u].coloring[fu] == a[v].coloring[fv] for u, v, fu, fv in INTERIOR_CONTACTS) for a in listed
        )
        seen["buildable" if listed else "zero"] += 1
        seen["interior"] += pruned > 0
    assert seen["buildable"] > 800 and seen["zero"] > 800 and seen["interior"] >= 30


def test_unusable_cube_gives_zero_on_every_route():
    t = build_tableau()
    ids = t.ids(CANONICAL_BA[:7] + ("Ab",))    # Ab is Ba's mirror
    assert t.cube("Ab").id in build_target_graph("Ba", t).unusable_ids
    routes = (
        solution_number, solution_number_permanent, solution_number_prime_scan,
        lambda *a: len(enumerate_arrangements(*a)), interior_matching_count,
    )
    assert [route(ids, "Ba", t) for route in routes] == [0] * 5


def test_every_maximum_collection_of_ba_counts_sixteen():
    t = build_tableau()
    census = count_max_collections("Ba")
    assert len(census.sweep_masks) == 81
    for mask in census.sweep_masks:
        counts = [route(mask, "Ba", t) for route in (
            solution_number, solution_number_permanent, solution_number_prime_scan,
        )]
        assert counts == [16, 16, 16]
        assert len(enumerate_arrangements(mask, "Ba", t)) == 16


def test_recoloring_equivariance_of_solution_numbers():
    t = build_tableau()
    rng = random.Random(26)
    perms = all_color_permutations()
    for _ in range(200):
        p = rng.choice(perms)
        target = t.cube(rng.randrange(30))
        ids = tuple(sorted(rng.sample(range(30), 8)))
        mapped = tuple(sorted(t.recolor(p, i).id for i in ids))
        mapped_target = t.recolor(p, target)
        assert solution_number(ids, target, t) == solution_number(mapped, mapped_target, t)


def test_adjacent_and_diagonal_pair_tables():
    assert len(ADJACENT_PAIRS) == 12
    assert len(set(ADJACENT_PAIRS)) == 12
    assert all(u < v for u, v in ADJACENT_PAIRS)
    assert DIAGONAL_PAIRS == ((0, 7), (1, 6), (2, 5), (3, 4))


def test_classify_edges_components():
    s = classify_edges([(0, 7), (0, 7), (1, 6), (1, 6), (2, 5), (2, 5), (3, 4), (3, 4)], False)
    assert len(s.components) == 4
    assert all(c.vertices == 2 and c.edges == 2 for c in s.components)
    assert solution_number_formula(s) == 16
