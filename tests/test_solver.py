import dataclasses
import random

import pytest

from madness.cubes import (
    CELL_FACES,
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
    _cell_fits,
    _placement_table,
)

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
    diagonal = {t.cube(i).name for i in range(30) if g.is_diagonal[i]}
    assert diagonal == {"Ac", "Ad", "Ae", "Af", "Cb", "Db", "Eb", "Fb"}
    standard = [i for i in range(30) if g.roles[i] == 1 and not g.is_diagonal[i]]
    assert len(standard) == 12
    for i in standard:
        u, v = g.endpoints[i]
        assert bin(u ^ v).count("1") == 1
    for i in range(30):
        if g.is_diagonal[i]:
            u, v = g.endpoints[i]
            assert u ^ v == 7


def test_target_graph_is_bipartite():
    # corner parity two-colors the graph: adjacent and antipodal corners
    # differ in an odd number of coordinate signs
    for name in ("Ba", "Cd", "Fe"):
        g = build_target_graph(name)
        for i in range(30):
            if g.endpoints[i]:
                u, v = g.endpoints[i]
                assert bin(u).count("1") % 2 != bin(v).count("1") % 2


def test_target_graph_edge_example():
    t = build_tableau()
    g = build_target_graph("Ba", t)
    ae = t.cube("Ae")
    u, v = g.endpoints[ae.id]
    assert {g.vertex_corners[u], g.vertex_corners[v]} == {162, 354}


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


def _collection_with_components(graph, component_edges, include_target):
    """Pick one cube per requested (u, v) slot edge, plus the target."""
    ids = []
    used = set()
    for u, v in component_edges:
        for i in range(30):
            if i in used or graph.endpoints[i] != tuple(sorted((u, v))):
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


def test_interior_matching_bounded_by_solutions():
    t = build_tableau()
    rng = random.Random(25)
    for _ in range(40):
        target = t.cube(rng.randrange(30))
        usable = build_target_graph(target, t).usable_ids()
        ids = tuple(sorted(rng.sample(usable, 8)))
        assert interior_matching_count(ids, target, t) <= solution_number(ids, target, t)


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
