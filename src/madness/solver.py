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
tree.  Two slower counting routes are provided as oracles: the permanent of
the corner/cube incidence matrix, and a scan of products of primes assigned
to the cubes.  They are independent of the graph formula, but not of the
corner-number model: both read which cube has which corner through
``Cube.has_corner``, as the target graph does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .cubes import (
    CELL_FACES,
    FACE_LETTERS,
    OPPOSITE_FACE,
    ROTATION_SET,
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
    "OrientationError",
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
    "incidence_matrix",
    "permanent",
    "solution_number_permanent",
    "corner_count_vector",
    "solution_number_prime_scan",
    "corner_frame",
    "orient_cube",
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


class OrientationError(ValueError):
    """No rotation of the cube fits the requested corner frame."""


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
# Oracle 1: permanent of the corner/cube incidence matrix.  Row i marks the
# cubes having block corner i of the target; a solution is a system of
# distinct representatives, so the solution number is the permanent.
# ---------------------------------------------------------------------------


def incidence_matrix(collection, target, tableau=None):
    """0/1 matrix: rows block corners of the target, columns collection cubes."""
    tableau = tableau or build_tableau()
    ids = as_ids(collection, tableau)
    t = tableau.cube(target)
    return [
        [1 if tableau.cubes[j].has_corner(corner) else 0 for j in ids]
        for corner in t.corners
    ]


def permanent(matrix):
    """Permanent of a small square matrix by subset dynamic programming."""
    n = len(matrix)
    dp = [0] * (1 << n)
    dp[0] = 1
    for mask in range(1, 1 << n):
        j = bin(mask).count("1") - 1
        total = 0
        rest = mask
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            if matrix[i][j]:
                total += dp[mask ^ low]
            rest ^= low
        dp[mask] = total
    return dp[-1]


def solution_number_permanent(collection, target, tableau=None):
    return permanent(incidence_matrix(collection, target, tableau))


# ---------------------------------------------------------------------------
# Oracle 2: prime products.  Assign the j-th cube of the collection the j-th
# of the first 8 primes.  For each block corner of the target, list the
# primes of the cubes having that corner; a solution picks one prime per
# corner, all distinct, which happens exactly when the product of the picks
# is divisible by the primorial 2*3*...*19.
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
_PRIMORIAL = 9699690


def corner_count_vector(collection, target, tableau=None):
    """Per block corner: (corner number, multiplicity, primes of its cubes)."""
    tableau = tableau or build_tableau()
    ids = as_ids(collection, tableau)
    t = tableau.cube(target)
    entries = []
    for corner in t.corners:
        primes = tuple(
            _PRIMES[j] for j, i in enumerate(ids) if tableau.cubes[i].has_corner(corner)
        )
        entries.append((corner, len(primes), primes))
    return tuple(entries)


def solution_number_prime_scan(collection, target, tableau=None):
    entries = corner_count_vector(collection, target, tableau)
    if any(m == 0 for _, m, _ in entries):
        return 0
    prime_lists = [primes for _, _, primes in entries]
    count = 0
    for picks in itertools.product(*prime_lists):
        product = 1
        for p in picks:
            product *= p
        if product % _PRIMORIAL == 0:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Orientation.  Block cell i shows three exterior faces; a cube placed there
# must show its copy of the target's corner i on them, color for color.  The
# face mapping is forced by the colors, so the rotation is found
# algebraically and only verified against the rotation group.
# ---------------------------------------------------------------------------


def corner_frame(target, vertex, tableau=None):
    """The exterior (face, required color) triple of block cell ``vertex``."""
    tableau = tableau or build_tableau()
    t = tableau.cube(target)
    return tuple((f, t.coloring[f]) for f in CELL_FACES[vertex])


def orient_cube(cube, corner, frame):
    """Rotate ``cube`` so that ``corner`` meets the frame face for face.

    ``frame`` is a triple of (face index, color) pairs as produced by
    :func:`corner_frame`.  Raises InvalidCornerError if the cube lacks the
    corner and OrientationError if no rotation fits, which cannot happen for
    frames cut from a real target.
    """
    position = cube.corner_position(corner)  # InvalidCornerError if absent
    source_faces = {cube.coloring[f]: f for f in CELL_FACES[position]}
    src_of = [-1] * 6
    for face, color in frame:
        try:
            g = source_faces[color]
        except KeyError:
            raise OrientationError(
                f"corner {corner} of {cube.name} does not show color {color}"
            ) from None
        src_of[face] = g
        src_of[OPPOSITE_FACE[face]] = OPPOSITE_FACE[g]
    perm = tuple(src_of)
    if perm not in ROTATION_SET:
        raise OrientationError(
            f"no rotation of {cube.name} shows corner {corner} on the frame"
        )
    return rotate(cube.coloring, perm)


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
    ids = as_ids(collection, tableau)
    t = tableau.cube(target)
    candidates = [
        tuple(i for i in ids if tableau.cubes[i].has_corner(corner))
        for corner in t.corners
    ]
    frames = [corner_frame(t, v, tableau) for v in range(VERTEX_COUNT)]
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
                        coloring=orient_cube(tableau.cubes[i], t.corners[v], frames[v]),
                    )
                    for v, i in enumerate(chosen)
                )
            )
            return
        for i in candidates[vertex]:
            if i not in used:
                used.add(i)
                chosen.append(i)
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
