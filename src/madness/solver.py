"""Solution counts and explicit arrangements for one target cube.

A puzzle instance is a target cube T plus a collection W of 8 distinct cubes
(T itself may or may not be a member).  A solution places the 8 cubes into a
2x2x2 block so that each corner of the block shows the three colors of the
corresponding corner of T, face for face.  Because each cube has 8 distinct
corner numbers, a cube can show a given corner in at most one orientation,
so a solution is just a bijection from the block corners to the cubes of W
mapping each corner to a cube that has it.

The count of such bijections, the solution number, has a closed form in
terms of the target graph M of T: vertices are the 8 corners of T, and each
cube sharing corners with T contributes one edge joining the two corners it
can supply.  Exactly 20 cubes contribute edges; 12 join adjacent corners of
the block and 8 join antipodal ones, the latter forming double edges on the
4 main diagonals.  For a collection of usable cubes the subgraph they induce
decides everything: any tree component other than the target's own free
placement kills the count, and otherwise every component contributes a
factor of 2, giving 2^(n-1) * (k+1) when T is in W (n components, the unique
tree among them having k edges) and 2^n when it is not and no component is a
tree.  Two slower counting routes are provided as oracles, and neither reads
a corner number.  Both start from faces: a cube fits block cell v when one of
its 24 rotations shows the target's colors on the three exterior faces of
that cell, and a solution is an injective cell -> cube map in which every
cube fits its cell.  One route counts those maps by a dynamic program over
the cubes used (the permanent of the cell/cube fit matrix), the other by a
scan of products of primes assigned to the cubes.  The arrangement listing
takes its cubes and orientations from the same face table, so the three-way
check compares the corner-number model of the target graph with the face
model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .cubes import (
    CELL_FACES,
    FACE_LETTERS,
    ROTATIONS,
    Cube,
    build_tableau,
    rotate,
)

__all__ = [
    "ADJACENT_PAIRS",
    "DIAGONAL_PAIRS",
    "INTERIOR_CONTACTS",
    "SLOT_COUNT",
    "TARGET_SLOT",
    "SLOT_ENDPOINTS",
    "CollectionSizeError",
    "TargetGraph",
    "ComponentSummary",
    "SubgraphSummary",
    "Placement",
    "as_ids",
    "build_target_graph",
    "classify",
    "classify_edges",
    "solution_number_formula",
    "solution_number",
    "solution_number_permanent",
    "solution_number_prime_scan",
    "enumerate_arrangements",
    "interior_matching_count",
]

VERTEX_COUNT = 8

# Pairs of block corners 0..7 (bit i = coordinate sign): 12 adjacent pairs
# differ in one bit, 4 antipodal pairs in all three.
ADJACENT_PAIRS = tuple(
    (u, v)
    for u, v in itertools.combinations(range(8), 2)
    if bin(u ^ v).count("1") == 1
)
DIAGONAL_PAIRS = ((0, 7), (1, 6), (2, 5), (3, 4))

# Sweep slots: every target sees the same abstract multigraph, so usable
# cubes are funneled into 21 fixed slots.  Slots 0..11 are the adjacent
# pairs in ADJACENT_PAIRS order, slots 12+2p and 13+2p the two parallel
# edges on diagonal pair p, slot 20 the target cube itself.
SLOT_COUNT = 21
TARGET_SLOT = 20
SLOT_ENDPOINTS = ADJACENT_PAIRS + tuple(
    pair for pair in DIAGONAL_PAIRS for _ in (0, 1)
)

# Face contacts inside the 2x2x2 block, axis by axis (x, y, z): the cell
# with the axis bit clear touches its neighbor through its face on the plus
# side (the one cell 7 shows outside), the neighbor through its face on the
# minus side (the one cell 0 shows).  Cell x=0 meets cell x=1 E to W.
INTERIOR_CONTACTS = tuple(
    (v, v | bit, CELL_FACES[7][axis], CELL_FACES[0][axis])
    for axis, bit in enumerate((4, 2, 1))
    for v in range(8)
    if not v & bit
)

ROLE_UNUSABLE = 0
ROLE_EDGE = 1
ROLE_TARGET = 2


class CollectionSizeError(ValueError):
    """A collection whose size is not 8 where 8 is required."""


@dataclass(frozen=True)
class TargetGraph:
    """The target graph of one cube, with per-cube roles and sweep slots."""

    target: Cube
    vertex_corners: tuple          # corner number at each block corner 0..7
    roles: tuple                   # id -> ROLE_*
    endpoints: tuple               # id -> (u, v) for edge cubes, else None
    is_diagonal: tuple             # id -> bool
    slot_of_cube: tuple            # id -> slot 0..20, or -1 if unusable
    cube_of_slot: tuple            # slot -> id
    unusable_ids: frozenset

    def usable_ids(self):
        return tuple(i for i in range(30) if self.roles[i] != ROLE_UNUSABLE)


def _check_unusable_identity(target, tableau, unusable):
    mirror = tableau.mirror(target)
    expected = {
        c.id
        for c in tableau
        if c.id != target.id and (c.row == target.row or c.column == target.column or c.id == mirror.id)
    }
    if unusable != expected:
        raise AssertionError(
            f"unusable cubes for {target.name} are not row+column+mirror"
        )


@lru_cache(maxsize=None)
def _target_graph_by_name(name):
    tableau = build_tableau()
    target = tableau.cube(name)
    mirror = tableau.mirror(target)
    vertex_corners = target.corners
    corner_to_vertex = {c: i for i, c in enumerate(vertex_corners)}

    roles = [ROLE_UNUSABLE] * 30
    endpoints = [None] * 30
    diagonal = [False] * 30
    slot_of_cube = [-1] * 30
    cube_of_slot = [-1] * SLOT_COUNT
    unusable = set()

    diag_slot_used = [0] * 4
    for cube in tableau:
        if cube.id == target.id:
            roles[cube.id] = ROLE_TARGET
            slot_of_cube[cube.id] = TARGET_SLOT
            cube_of_slot[TARGET_SLOT] = cube.id
            continue
        shared = cube.corner_set & target.corner_set
        if not shared:
            unusable.add(cube.id)
            continue
        if len(shared) != 2:
            raise AssertionError(
                f"{cube.name} shares {len(shared)} corners with {target.name}"
            )
        u, v = sorted(corner_to_vertex[c] for c in shared)
        roles[cube.id] = ROLE_EDGE
        endpoints[cube.id] = (u, v)
        if u ^ v == 7:
            diagonal[cube.id] = True
            pair_index = DIAGONAL_PAIRS.index((u, v))
            # Parallel edges are interchangeable for counting; pin the
            # mirror-row cube to the first slot so sweeps are deterministic.
            if cube.row == mirror.row:
                slot = 12 + 2 * pair_index
            elif cube.column == mirror.column:
                slot = 13 + 2 * pair_index
            else:
                raise AssertionError(
                    f"diagonal cube {cube.name} is not in the mirror's row or column"
                )
            diag_slot_used[pair_index] += 1
        else:
            if bin(u ^ v).count("1") != 1:
                raise AssertionError("edge joins corners that are neither adjacent nor antipodal")
            slot = ADJACENT_PAIRS.index((u, v))
        if slot_of_cube[cube.id] != -1 or cube_of_slot[slot] != -1:
            raise AssertionError("slot assigned twice")
        slot_of_cube[cube.id] = slot
        cube_of_slot[slot] = cube.id

    if len(unusable) != 9:
        raise AssertionError(f"{target.name} has {len(unusable)} unusable cubes")
    _check_unusable_identity(target, tableau, unusable)
    if diag_slot_used != [2, 2, 2, 2]:
        raise AssertionError("each main diagonal must carry exactly two cubes")
    if -1 in cube_of_slot:
        raise AssertionError("not every slot received a cube")
    diagonal_ids = {i for i in range(30) if diagonal[i]}
    expected_diag = {
        c.id
        for c in tableau
        if c.id not in (target.id, mirror.id)
        and (c.row == mirror.row or c.column == mirror.column)
    }
    if diagonal_ids != expected_diag:
        raise AssertionError("diagonal cubes are not the mirror's row and column")

    return TargetGraph(
        target=target,
        vertex_corners=vertex_corners,
        roles=tuple(roles),
        endpoints=tuple(endpoints),
        is_diagonal=tuple(diagonal),
        slot_of_cube=tuple(slot_of_cube),
        cube_of_slot=tuple(cube_of_slot),
        unusable_ids=frozenset(unusable),
    )


def build_target_graph(target, tableau=None):
    """The (cached) target graph for a cube given by name, id or Cube."""
    tableau = tableau or build_tableau()
    return _target_graph_by_name(tableau.cube(target).name)


def as_ids(collection, tableau=None, size=8):
    """Normalize a collection to a sorted id tuple, checking size and dups."""
    tableau = tableau or build_tableau()
    if isinstance(collection, int):
        if not 0 <= collection < 1 << 30:
            raise ValueError(f"cube mask out of range: {collection}")
        ids = tableau.ids_of_mask(collection)
    else:
        ids = tuple(sorted(tableau.cube(k).id for k in collection))
    if len(set(ids)) != len(ids):
        raise ValueError("collection contains a repeated cube")
    if size is not None and len(ids) != size:
        raise CollectionSizeError(f"expected {size} cubes, got {len(ids)}")
    return ids


@dataclass(frozen=True)
class ComponentSummary:
    vertices: int
    edges: int

    @property
    def is_tree(self):
        return self.edges == self.vertices - 1


@dataclass(frozen=True)
class SubgraphSummary:
    target_in_collection: bool
    unusable_count: int
    edge_list: tuple
    components: tuple


def classify_edges(edge_list, target_in_collection, unusable_count=0):
    """Component census of an edge multiset over the 8 block corners."""
    parent = list(range(VERTEX_COUNT))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edge_list:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv

    vertex_count = [0] * VERTEX_COUNT
    edge_count = [0] * VERTEX_COUNT
    for x in range(VERTEX_COUNT):
        vertex_count[find(x)] += 1
    for u, v in edge_list:
        edge_count[find(u)] += 1
    components = tuple(
        ComponentSummary(vertices=vertex_count[r], edges=edge_count[r])
        for r in range(VERTEX_COUNT)
        if parent[r] == r
    )
    return SubgraphSummary(
        target_in_collection=target_in_collection,
        unusable_count=unusable_count,
        edge_list=tuple(edge_list),
        components=components,
    )


def classify(collection, target, tableau=None):
    """Classify a collection's induced subgraph of the target graph."""
    tableau = tableau or build_tableau()
    ids = as_ids(collection, tableau)
    graph = build_target_graph(target, tableau)
    edges = []
    unusable = 0
    target_in = False
    for i in ids:
        role = graph.roles[i]
        if role == ROLE_TARGET:
            target_in = True
        elif role == ROLE_UNUSABLE:
            unusable += 1
        else:
            edges.append(graph.endpoints[i])
    return classify_edges(edges, target_in, unusable)


def solution_number_formula(summary):
    """Solution number from a component census.

    Any unusable cube gives 0.  Without the target cube the 8 edges must
    leave no tree component, and then each of the n components contributes a
    factor 2.  With the target cube (7 edges) exactly one component must be
    a tree, say with k edges; the target goes somewhere in that tree and the
    count is 2^(n-1) * (k+1).
    """
    if summary.unusable_count:
        return 0
    components = summary.components
    n = len(components)
    trees = [c for c in components if c.is_tree]
    if not summary.target_in_collection:
        return 0 if trees else 2 ** n
    if len(trees) != 1:
        # 7 edges cannot cover 8 vertices without any tree component.
        assert trees, "impossible: 7 edges, 8 vertices, no tree component"
        return 0
    return 2 ** (n - 1) * (trees[0].edges + 1)


def solution_number(collection, target, tableau=None):
    """The number of ways the collection builds the target."""
    return solution_number_formula(classify(collection, target, tableau))


# ---------------------------------------------------------------------------
# The face model.  A cube fits block cell v of a target when one of its 24
# rotations shows the target's colors on the exterior faces CELL_FACES[v].
# The two oracles and the arrangement listing read only this table, never a
# corner number, so they check the target graph instead of restating it.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _placement_table():
    """(cell, colors on its exterior faces) -> ((cube id, oriented coloring), ...).

    Each of the 8 cells shows one of 120 ordered color triples, and each of
    the 960 keys is shown by 6 cubes, in id order, each in one rotation.
    """
    table = {}
    for cube in build_tableau():
        for perm in ROTATIONS:
            oriented = rotate(cube.coloring, perm)
            for v, faces in enumerate(CELL_FACES):
                fits = table.setdefault((v, tuple(oriented[f] for f in faces)), [])
                # A cube's rotations are listed together, so a repeat is adjacent.
                if fits and fits[-1][0] == cube.id:
                    raise AssertionError(f"{cube.name} fits cell {v} in two rotations")
                fits.append((cube.id, oriented))
    return {key: tuple(fits) for key, fits in table.items()}


def _cell_fits(target, tableau):
    """The placement-table entry of each block cell of ``target``, cell by cell."""
    coloring = tableau.cube(target).coloring
    table = _placement_table()
    return [table[v, tuple(coloring[f] for f in faces)] for v, faces in enumerate(CELL_FACES)]


# ---------------------------------------------------------------------------
# Oracle 1: the permanent of the cell/cube fit matrix, counted cell by cell.
# After cell v, ``ways`` maps each set of cubes used on cells 0..v to the
# number of injective maps of those cells onto it.
# ---------------------------------------------------------------------------


def solution_number_permanent(collection, target, tableau=None):
    tableau = tableau or build_tableau()
    members = set(as_ids(collection, tableau))
    ways = {0: 1}
    for fits in _cell_fits(target, tableau):
        bits = [1 << i for i, _ in fits if i in members]
        grown = {}
        for used, n in ways.items():
            for bit in bits:
                if not used & bit:
                    grown[used | bit] = grown.get(used | bit, 0) + n
        ways = grown
    return sum(ways.values())


# ---------------------------------------------------------------------------
# Oracle 2: prime products.  Assign the j-th cube of the collection the j-th
# of the first 8 primes.  For each block cell of the target, list the primes
# of the cubes that fit it; a solution picks one prime per cell, all
# distinct, which happens exactly when the product of the picks is divisible
# by the primorial 2*3*...*19.
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
_PRIMORIAL = 9699690


def solution_number_prime_scan(collection, target, tableau=None):
    tableau = tableau or build_tableau()
    prime_of = dict(zip(as_ids(collection, tableau), _PRIMES))
    prime_lists = [
        [prime_of[i] for i, _ in fits if i in prime_of] for fits in _cell_fits(target, tableau)
    ]
    count = 0
    for picks in itertools.product(*prime_lists):
        product = 1
        for p in picks:
            product *= p
        if product % _PRIMORIAL == 0:
            count += 1
    return count


@dataclass(frozen=True)
class Placement:
    """One cube of an arrangement: block cell, shown corner, oriented faces."""

    vertex: int
    corner: int
    cube: str
    coloring: tuple

    @property
    def position(self):
        return (self.vertex >> 2 & 1, self.vertex >> 1 & 1, self.vertex & 1)

    def faces(self):
        return {FACE_LETTERS[f]: self.coloring[f] for f in range(6)}


def enumerate_arrangements(collection, target, tableau=None):
    """All solutions, each a tuple of 8 placements, in lexicographic order.

    Order is by the sequence (cube id at cell 0, cube id at cell 1, ...).
    """
    tableau = tableau or build_tableau()
    members = set(as_ids(collection, tableau))
    t = tableau.cube(target)
    candidates = [
        [(i, oriented) for i, oriented in fits if i in members]
        for fits in _cell_fits(t, tableau)
    ]
    arrangements = []
    chosen = []
    used = set()

    def extend(vertex):
        if vertex == VERTEX_COUNT:
            arrangements.append(
                tuple(
                    Placement(
                        vertex=v,
                        corner=t.corners[v],
                        cube=tableau.cubes[i].name,
                        coloring=oriented,
                    )
                    for v, (i, oriented) in enumerate(chosen)
                )
            )
            return
        for i, oriented in candidates[vertex]:
            if i not in used:
                used.add(i)
                chosen.append((i, oriented))
                extend(vertex + 1)
                chosen.pop()
                used.remove(i)

    extend(0)
    return arrangements


def interior_matching_count(collection, target, tableau=None):
    """How many solutions also match colors on all 12 interior contacts."""
    count = 0
    for arrangement in enumerate_arrangements(collection, target, tableau):
        if all(
            arrangement[a].coloring[fa] == arrangement[b].coloring[fb]
            for a, b, fa, fb in INTERIOR_CONTACTS
        ):
            count += 1
    return count
