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
tree.  Read as a bipartite graph of corners and cubes, the solution number
counts perfect matchings, so the collections with a nonzero count are the
bases of a rank-8 transversal matroid on the cubes: an edge cube fits its two
corners, the target cube all eight.  Two slower counting routes are
provided as oracles, and neither reads a corner number.  Both start from
faces: a cube fits block cell v when one of its 24 rotations shows the
target's colors on the three exterior faces of that cell, and a solution is
an injective cell -> cube map in which every cube fits its cell.  One route
counts those maps by a dynamic program over the cubes used (the permanent of
the cell/cube fit matrix), the other by multiplying, cell by cell, primes
assigned to the cubes: equal partial products are merged with their counts,
a prime already in the product is skipped, and a full product counts when
the primorial divides it.  The arrangement listing grows partial solutions
over the same face table, cell by cell, tracking the cubes used as a
bitmask, so the three-way check compares the corner-number model of the
target graph with the face model.  The interior count runs that search with
Conway's rule added: a pick for cell v must match, face for face, the picks
already made on the cells it touches, so a partial solution is dropped at
its first mismatched contact instead of being listed and filtered.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
DIAGONAL_PAIRS = tuple((v, v ^ 7) for v in range(4))

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
# The same contacts by higher cell: (lower cell, its face, this cell's face).
_CONTACTS_BY_CELL = tuple(
    tuple((a, fa, fb) for a, b, fa, fb in INTERIOR_CONTACTS if b == v) for v in range(8)
)

class CollectionSizeError(ValueError):
    """A collection whose size is not 8 where 8 is required."""


@dataclass(frozen=True)
class TargetGraph:
    """The target graph of one cube: the cube in slot s < TARGET_SLOT joins corners SLOT_ENDPOINTS[s]."""

    target: Cube
    slot_of_cube: tuple            # id -> slot, or -1 if unusable
    cube_of_slot: tuple            # slot -> id
    unusable_ids: frozenset

    def usable_ids(self):
        return tuple(i for i in range(30) if self.slot_of_cube[i] >= 0)


@lru_cache(maxsize=None)
def _target_graph_by_name(name):
    """Each cube's slot, read off the target corners it shares.

    A cube sharing all 8 is the target, one sharing none is unusable, and a
    cube sharing the endpoints of some slot takes it.  On a main diagonal the
    mirror-row cube takes the pair's first slot and the mirror-column cube the
    second: parallel edges are interchangeable for counting, so this only
    keeps the sweeps deterministic.  Any other cube raises, and so does a map
    that fills some slot twice or not at all, or whose unusable cubes are not
    exactly the target's row, column and mirror.
    """
    tableau = build_tableau()
    target = tableau.cube(name)
    mirror = tableau.mirror(target)
    vertex_of = {c: v for v, c in enumerate(target.corners)}
    slot_of_cube = []
    for cube in tableau:
        ends = tuple(sorted(vertex_of[c] for c in cube.corner_set & target.corner_set))
        if len(ends) == VERTEX_COUNT:
            slot = TARGET_SLOT
        elif not ends:
            slot = -1
        elif ends in SLOT_ENDPOINTS:
            slot = SLOT_ENDPOINTS.index(ends)
            if ends in DIAGONAL_PAIRS:
                in_row, in_column = cube.row == mirror.row, cube.column == mirror.column
                if in_row == in_column:
                    raise AssertionError(
                        f"diagonal cube {cube.name} must be in the mirror's row or column, not both"
                    )
                slot += in_column
        else:
            raise AssertionError(f"{cube.name} shares corners {ends} of {target.name}: no slot joins them")
        slot_of_cube.append(slot)

    if sorted(s for s in slot_of_cube if s >= 0) != list(range(SLOT_COUNT)):
        raise AssertionError(f"the cubes of {target.name} do not fill each slot once")
    unusable = frozenset(i for i, s in enumerate(slot_of_cube) if s < 0)
    row_column_mirror = {
        c.id for c in tableau
        if c.row == target.row or c.column == target.column or c.id == mirror.id
    } - {target.id}
    if unusable != row_column_mirror:
        raise AssertionError(f"unusable cubes for {target.name} are not row+column+mirror")
    cube_of_slot = tuple(map(slot_of_cube.index, range(SLOT_COUNT)))
    return TargetGraph(target, tuple(slot_of_cube), cube_of_slot, unusable)


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


class ComponentSummary(NamedTuple):
    vertices: int
    edges: int

    @property
    def is_tree(self):
        return self.edges == self.vertices - 1


class SubgraphSummary(NamedTuple):
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
        ComponentSummary(vertex_count[r], edge_count[r])
        for r in range(VERTEX_COUNT)
        if parent[r] == r
    )
    return SubgraphSummary(target_in_collection, unusable_count, tuple(edge_list), components)


def classify(collection, target, tableau=None):
    """Classify a collection's induced subgraph of the target graph."""
    tableau = tableau or build_tableau()
    ids = as_ids(collection, tableau)
    slot_of_cube = build_target_graph(target, tableau).slot_of_cube
    slots = [slot_of_cube[i] for i in ids]
    # Slot -1 marks an unusable cube; SLOT_ENDPOINTS[-1] would read a diagonal.
    edges = [SLOT_ENDPOINTS[s] for s in slots if 0 <= s < TARGET_SLOT]
    return classify_edges(edges, TARGET_SLOT in slots, slots.count(-1))


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
    return _fits_of_coloring(tableau.cube(target).coloring)


@lru_cache(maxsize=None)
def _fits_of_coloring(coloring):
    # Keyed by the coloring alone, so a target is looked up by its faces,
    # never by its name or corner numbers.  There are 720 colorings at most.
    table = _placement_table()
    return tuple(table[v, tuple(coloring[f] for f in faces)] for v, faces in enumerate(CELL_FACES))


# ---------------------------------------------------------------------------
# Oracle 1: the permanent of the cell/cube fit matrix, counted cell by cell.
# After each cell, ``ways`` maps each set of cubes used on the cells so far to
# the number of injective maps of those cells onto it.  The permanent does
# not depend on the order of the cells, so those with the fewest fitting
# cubes go first: fewer partial sets survive, and an empty cell ends it at 0.
# ---------------------------------------------------------------------------


def solution_number_permanent(collection, target, tableau=None):
    tableau = tableau or build_tableau()
    members = set(as_ids(collection, tableau))
    cells = _cell_fits(target, tableau)
    rows = sorted(([1 << i for i, _ in fits if i in members] for fits in cells), key=len)
    ways = {0: 1}
    for bits in rows:
        if not bits:
            return 0
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
# by the primorial 2*3*...*19.  The picks are multiplied in cell by cell,
# the cells with the fewest primes first (a product does not depend on the
# order), keeping a count for each distinct partial product: picks with equal
# products have the same futures, so they are merged.  A partial product
# already divisible by p is not multiplied by p again, since a product with
# a repeated prime can never reach a product of 8 distinct primes; the skip
# drops only picks the primorial test would reject.  Each full product still
# passes that test, and the test decides the count.
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
_PRIMORIAL = 9699690


def solution_number_prime_scan(collection, target, tableau=None):
    tableau = tableau or build_tableau()
    prime_of = dict(zip(as_ids(collection, tableau), _PRIMES))
    cells = _cell_fits(target, tableau)
    rows = sorted(([prime_of[i] for i, _ in fits if i in prime_of] for fits in cells), key=len)
    products = {1: 1}
    for primes in rows:
        if not primes:
            return 0
        grown = {}
        for product, n in products.items():
            for p in primes:
                if product % p:
                    grown[product * p] = grown.get(product * p, 0) + n
        products = grown
    return sum(n for product, n in products.items() if product % _PRIMORIAL == 0)


def _solution_picks(collection, target, tableau, contacts=None):
    """Every solution as its 8 (cube id, oriented coloring) picks, cell by cell.

    Partial solutions grow one cell at a time, each with the bitmask of the
    cubes it uses.  Each is extended in cube-id order, so the solutions come
    out in lexicographic order of (cube id at cell 0, cube id at cell 1, ...).
    With ``contacts`` (``_CONTACTS_BY_CELL``), a pick for cell v is kept only
    if its faces match the earlier picks on every contact listed for v.
    """
    members = set(as_ids(collection, tableau))
    partial = [(0, ())]
    for v, fits in enumerate(_cell_fits(target, tableau)):
        candidates = [(1 << pick[0], pick) for pick in fits if pick[0] in members]
        checks = contacts[v] if contacts else ()
        partial = [
            (used | bit, picks + (pick,))
            for used, picks in partial
            for bit, pick in candidates
            if not used & bit
            and (not checks or all(picks[a][1][fa] == pick[1][fb] for a, fa, fb in checks))
        ]
        if not partial:
            return []
    return [picks for _, picks in partial]


class Placement(NamedTuple):
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
    corners, cubes = tableau.cube(target).corners, tableau.cubes
    return [
        tuple(Placement(v, corners[v], cubes[i].name, oriented) for v, (i, oriented) in enumerate(picks))
        for picks in _solution_picks(collection, target, tableau)
    ]


def interior_matching_count(collection, target, tableau=None):
    """How many solutions also match colors on all 12 interior contacts."""
    tableau = tableau or build_tableau()
    return len(_solution_picks(collection, target, tableau, _CONTACTS_BY_CELL))
