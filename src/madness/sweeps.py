"""Exhaustive sweeps over collections: distributions, maxima, five targets.

The key observation making full sweeps cheap: every target sees the same
abstract target graph once its 20 edge cubes are funneled into the 21 fixed
slots defined in the solver module (12 adjacent-pair slots, 4x2 diagonal
slots, 1 target slot).  Collections containing an unusable cube have
solution number 0, so a single classification of the C(21,8) = 203,490
slot subsets decides the solution number of every collection for every
target.  That classification is one numpy census over all subsets at once:
each corner's adjacency as an 8-bit row, closed under reachability, read
off as components, trees and solution numbers.  Per-target work is then a
cheap remap of slot masks to cube masks, also done with numpy.

Table 2 counts, for each collection, how many targets it builds.  The 30
targets' cube masks are sorted into one array, so each collection that some
target builds is a run of equal masks, of length L at most 5.  With
r_0 = len(masks) and r_j = #{i : masks[i + j] == masks[i]}, a run of length
L adds max(0, L - j) to r_j.  The second difference of that hinge picks out
the runs of length exactly j: there are r_(j-1) - 2 r_j + r_(j+1) of them,
the distinct masks number r_0 - r_1, and r_5 = 0 says that no collection
builds six targets.

``combination_rows`` is the package's one combination enumerator: it
unranks lexicographic k-combinations into uint8 rows, for the slot subsets
here and for the subset histograms and the C(30,12) scan of the universal
module.

``buildable_collections`` is the solver-only oracle: it tries each usable
8-subset of some cubes with ``solution_number`` and never reads the slot
table.  The direct distribution, ``buildable_targets`` and the direct
checks of the universal module all run through it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .cubes import COLUMN_LETTERS, ROW_LETTERS, build_tableau, mirror_name
from .reports import VerificationError
from .solver import (
    DIAGONAL_PAIRS,
    SLOT_COUNT,
    SLOT_ENDPOINTS,
    TARGET_SLOT,
    VERTEX_COUNT,
    as_ids,
    build_target_graph,
    classify_edges,
    solution_number,
)

__all__ = [
    "TOTAL_COLLECTIONS",
    "USABLE_COLLECTIONS",
    "SlotTable",
    "SolutionDistribution",
    "MaxCollectionCensus",
    "FiveTargetRule",
    "FiveTargetRecord",
    "InvalidRuleError",
    "VerificationError",
    "combination_rows",
    "buildable_collections",
    "slot_table",
    "solution_values",
    "distribution_for_target",
    "distribution_for_target_direct",
    "buildable_mask_table",
    "distribution_buildable",
    "buildable_targets",
    "count_max_collections",
    "five_target_rules",
    "five_target_record",
    "five_target_records",
]

TOTAL_COLLECTIONS = 5852925        # C(30, 8)
USABLE_COLLECTIONS = 203490        # C(21, 8)


class InvalidRuleError(ValueError):
    """A five-target rule violating the 3-column/4-row shape constraints."""


@dataclass(frozen=True)
class SlotTable:
    """Solution numbers of all 8-subsets of the 21 abstract slots.

    ``nonzero_masks`` (21-bit slot masks) and ``nonzero_values`` (their
    solution numbers) list the 133,680 buildable subsets.
    """

    nonzero_masks: np.ndarray
    nonzero_values: np.ndarray

    def distribution(self):
        values, counts = np.unique(self.nonzero_values, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


# ---------------------------------------------------------------------------
# The slot census.  A corner's row is a uint8 with bit u set when corner u is
# joined to it.  Packing the 8 rows of one slot into a little-endian uint64,
# corner v in byte v, lets 8 ORs (adds) build the rows (degrees) of a whole
# combination; no byte carries, since no corner has degree above 5.
# ---------------------------------------------------------------------------

_WORD = np.dtype("<u8")
_CENSUS_BLOCK = 1 << 15    # combinations per census step, to bound memory
_CORNER_BITS = np.uint8(1) << np.arange(VERTEX_COUNT, dtype=np.uint8)
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _slot_words():
    """(neighbour, degree) words of each slot; the target slot has no edge."""
    neighbours = np.zeros((SLOT_COUNT, VERTEX_COUNT), dtype=np.uint8)
    degrees = np.zeros((SLOT_COUNT, VERTEX_COUNT), dtype=np.uint8)
    for slot, (u, v) in enumerate(SLOT_ENDPOINTS):
        neighbours[slot, u] |= 1 << v
        neighbours[slot, v] |= 1 << u
        degrees[slot, [u, v]] += 1
    return neighbours.view(_WORD).ravel(), degrees.view(_WORD).ravel()


_NEIGHBOUR_WORDS, _DEGREE_WORDS = _slot_words()


def combination_rows(n, k, ranks):
    """The k-combinations of range(n) at lexicographic ``ranks``, as uint8 rows.

    Row i holds the ascending elements of combination ``ranks[i]``.  With
    d = n - 1 - c, the lexicographic rank r of c is C(n,k) - 1 - sum of
    C(d_i, k - i) over positions i (the colexicographic rank of d), so each
    position's d_i is the largest d with C(d, k - i) within what is left of
    C(n,k) - 1 - r: one searchsorted over a binomial table per position.
    """
    binomials = np.array([[comb(d, j) for j in range(k + 1)] for d in range(n)], dtype=np.int64)
    left = comb(n, k) - 1 - np.asarray(ranks, dtype=np.int64)
    rows = np.empty((len(left), k), dtype=np.uint8)
    for i in range(k):
        column = binomials[:, k - i]
        d = np.searchsorted(column, left, side="right") - 1
        left = left - column[d]
        rows[:, i] = n - 1 - d
    return rows


def _census(combos):
    """Solution numbers of slot combinations, one row of 8 ascending slots each.

    The rule of solution_number_formula over classify_edges, for every row at
    once.  Warshall's algorithm closes each corner's row under reachability;
    a corner is its component's root when it reaches no lower corner, the
    component's vertex count is the popcount of the root's row, and its edge
    count is half its degree sum.
    """
    adjacency = np.zeros(len(combos), dtype=_WORD)
    degree = np.zeros(len(combos), dtype=_WORD)
    for slots in combos.T:
        adjacency |= _NEIGHBOUR_WORDS[slots]
        degree += _DEGREE_WORDS[slots]
    reach = adjacency.view(np.uint8).reshape(-1, VERTEX_COUNT) | _CORNER_BITS
    degree = degree.view(np.uint8).reshape(-1, VERTEX_COUNT)
    for k in range(VERTEX_COUNT):
        reach |= ((reach >> k) & 1) * reach[:, k : k + 1]
    vertices = _POPCOUNT[reach]
    degree_sum = np.zeros_like(reach)
    for v in range(VERTEX_COUNT):
        degree_sum += ((reach >> v) & 1) * degree[:, v : v + 1]
    root = (reach & (_CORNER_BITS - 1)) == 0
    tree = root & (degree_sum + 2 == 2 * vertices)
    components = root.sum(axis=1, dtype=np.uint8)
    trees = tree.sum(axis=1, dtype=np.uint8)
    tree_vertices = (vertices * tree).sum(axis=1, dtype=np.uint8)
    # The values selected never exceed 16, so uint8 arithmetic is exact there.
    return np.where(
        combos[:, -1] == TARGET_SLOT,
        np.where(trees == 1, (1 << (components - 1)) * tree_vertices, 0),
        np.where(trees == 0, 1 << components, 0),
    ).astype(np.uint8)


@lru_cache(maxsize=1)
def slot_table():
    """Classify every 8-subset of slots once; shared by all sweeps.

    The census runs over all C(21,8) combinations in lexicographic order,
    in blocks of ``_CENSUS_BLOCK`` rows, so ``nonzero_masks`` ascends in
    that order.  It gives the same numbers as classify_edges with
    solution_number_formula on every subset (the tests compare all of them).
    """
    combos = combination_rows(SLOT_COUNT, 8, np.arange(USABLE_COLLECTIONS))
    values = np.concatenate([
        _census(combos[start : start + _CENSUS_BLOCK])
        for start in range(0, len(combos), _CENSUS_BLOCK)
    ])
    buildable = values > 0
    masks = np.zeros(np.count_nonzero(buildable), dtype=np.uint32)
    for slots in combos[buildable].T:
        masks |= np.uint32(1) << slots.astype(np.uint32)
    return SlotTable(nonzero_masks=masks, nonzero_values=values[buildable])


@dataclass(frozen=True)
class SolutionDistribution:
    """Counts of collections by solution number for one target.

    ``counts`` covers the nonzero solution numbers; zero-solution
    collections are the remainder of the C(30,8) total.
    """

    target: str
    counts: dict
    total_collections: int = TOTAL_COLLECTIONS

    @property
    def buildable_total(self):
        return sum(self.counts.values())

    @property
    def zero_count(self):
        return self.total_collections - self.buildable_total

    @property
    def buildable_fraction(self):
        return self.buildable_total / self.total_collections


def solution_values():
    """The nonzero solution numbers that actually occur, ascending."""
    return tuple(sorted(slot_table().distribution()))


def distribution_for_target(target):
    """Solution-number distribution over all C(30,8) collections.

    Builds the target's graph (which proves the target maps onto the 21-slot
    structure) and reads the shared slot classification.
    """
    graph = build_target_graph(target)
    return SolutionDistribution(target=graph.target.name, counts=slot_table().distribution())


def buildable_collections(cube_ids, target, tableau=None):
    """Yield (ids, solution number) for each 8-subset of ``cube_ids`` that builds ``target``.

    The solver-only oracle, independent of the slot table, in lexicographic
    order of ids.  Subsets with an unusable cube are skipped: their solution
    number is 0 (that cube supplies no corner of the target).
    """
    tableau = tableau or build_tableau()
    graph = build_target_graph(target, tableau)
    usable = sorted(set(cube_ids) - graph.unusable_ids)
    for combo in itertools.combinations(usable, 8):
        value = solution_number(combo, graph.target, tableau)
        if value:
            yield combo, value


def distribution_for_target_direct(target):
    """Same distribution by classifying each usable 8-set of real cubes."""
    tableau = build_tableau()
    name = tableau.cube(target).name
    counts = Counter(value for _, value in buildable_collections(range(30), name, tableau))
    return SolutionDistribution(target=name, counts=dict(counts))


def _subset_or_table(bits):
    """OR of every subset of the last axis of ``bits``: (..., b) -> (..., 2**b).

    Entry m of a row is the OR of the row's ``bits[i]`` over the set bits i
    of m, built by doubling.  Pieces of a mask index these tables, so a remap
    of many masks costs one take and one OR per piece.
    """
    width = bits.shape[-1]
    table = np.zeros(bits.shape[:-1] + (1 << width,), dtype=bits.dtype)
    for b in range(width):
        table[..., 1 << b : 2 << b] = table[..., : 1 << b] | bits[..., b : b + 1]
    return table


_SLOT_PIECE = 7    # the 21 slot bits, as three 7-bit pieces


@lru_cache(maxsize=1)
def _cube_of_slot():
    """(30, 21) read-only: row t is target t's ``cube_of_slot``, the cube id in each slot."""
    tableau = build_tableau()
    table = np.array([build_target_graph(t, tableau).cube_of_slot for t in tableau])
    table.flags.writeable = False
    return table


def _cube_masks(target_ids):
    """(len(target_ids), 133,680) uint32: the cube masks of the buildable slot masks.

    Row t remaps the slot table's nonzero masks through target t's row of
    ``_cube_of_slot``: each 21-bit slot mask is cut into three 7-slot pieces,
    each piece looked up in a 128-entry table of cube bits, and the three
    looked-up values ORed into the row in place.
    """
    slots = slot_table().nonzero_masks
    # As intp, the pieces index every row's tables with no cast per lookup.
    pieces = [
        ((slots >> (_SLOT_PIECE * i)) & ((1 << _SLOT_PIECE) - 1)).astype(np.intp)
        for i in range(3)
    ]
    cube_bits = np.uint32(1) << _cube_of_slot()[target_ids].astype(np.uint32)
    lookup = _subset_or_table(cube_bits.reshape(-1, 3, _SLOT_PIECE))
    masks = np.empty((len(lookup), len(slots)), dtype=np.uint32)
    for row, tables in zip(masks, lookup):
        np.take(tables[0], pieces[0], out=row)
        row |= tables[1][pieces[1]]
        row |= tables[2][pieces[2]]
    return masks


def buildable_mask_table(target_name):
    """(cube masks, solution numbers) of all buildable collections for one target."""
    return _cube_masks([build_tableau().cube(target_name).id])[0], slot_table().nonzero_values


def distribution_buildable():
    """Distribution of the buildable-target count over all C(30,8) collections.

    Returns (distribution dict count -> collections, five-target cube masks
    sorted ascending).  A collection's buildable count is how many of the 30
    targets it can build; the five-target masks are the maximum achievers.
    All 30 targets' cube masks are sorted in one array, in place; the runs
    of equal masks are the collections, and the run-count identity of the
    module docstring reads the distribution off five shifted compares.
    """
    masks = _cube_masks(range(30)).ravel()
    masks.sort()
    repeats = [len(masks)] + [
        int(np.count_nonzero(masks[j:] == masks[:-j])) for j in range(1, 6)
    ]
    if repeats[5]:
        starts = np.flatnonzero(np.concatenate(([True], masks[1:] != masks[:-1])))
        top = int(np.diff(np.append(starts, len(masks))).max())
        raise VerificationError(f"a collection builds {top} targets; expected at most 5")
    repeats.append(0)
    distribution = {}
    for j in range(1, 6):
        exactly = repeats[j - 1] - 2 * repeats[j] + repeats[j + 1]
        if exactly:
            distribution[j] = exactly
    distribution[0] = TOTAL_COLLECTIONS - (repeats[0] - repeats[1])
    return distribution, masks[:-4][masks[4:] == masks[:-4]]


def _target_numbers(ids, tableau):
    """Target name -> solution number, for each target the 8 cubes ``ids`` build."""
    numbers = {}
    for c in tableau:
        for _, value in buildable_collections(ids, c, tableau):
            numbers[c.name] = value
    return numbers


def buildable_targets(collection, tableau=None):
    """Names of the targets this collection can build (at most 5)."""
    tableau = tableau or build_tableau()
    names = frozenset(_target_numbers(as_ids(collection, tableau), tableau))
    if len(names) > 5:
        raise VerificationError("a collection cannot build more than 5 targets")
    return names


@dataclass(frozen=True)
class MaxCollectionCensus:
    """The collections attaining the maximum solution number for one target."""

    target: str
    sweep_masks: tuple            # from the exhaustive sweep, sorted
    double_edge_masks: tuple      # all four diagonals doubled, +- target swap
    path_masks: tuple             # target + two doubled diagonals + 3-path

    @property
    def count(self):
        return len(self.sweep_masks)


def count_max_collections(target):
    """Census of maximum-solution collections, swept and rebuilt structurally.

    The sweep reads the buildable mask table.  The structural families:
    either all four main diagonals doubled (with any one cube optionally
    swapped for the target), or the target plus two doubled diagonals plus a
    3-edge path spanning the four remaining block corners.  The two routes
    must agree exactly.
    """
    tableau = build_tableau()
    graph = build_target_graph(target, tableau)
    masks, values = buildable_mask_table(graph.target.name)
    top = int(values.max())
    sweep = sorted(int(m) for m in masks[values == top])

    diag_cubes = [
        (graph.cube_of_slot[12 + 2 * p], graph.cube_of_slot[13 + 2 * p])
        for p in range(4)
    ]
    target_bit = 1 << graph.target.id
    base = 0
    for a, b in diag_cubes:
        base |= (1 << a) | (1 << b)
    family_a = [base]
    for a, b in diag_cubes:
        family_a.append(base ^ (1 << a) | target_bit)
        family_a.append(base ^ (1 << b) | target_bit)

    family_b = []
    for keep in itertools.combinations(range(4), 2):
        drop = [p for p in range(4) if p not in keep]
        kept_mask = 0
        for p in keep:
            a, b = diag_cubes[p]
            kept_mask |= (1 << a) | (1 << b)
        free_vertices = set()
        for p in drop:
            free_vertices.update(DIAGONAL_PAIRS[p])
        slots = [
            s
            for s in range(TARGET_SLOT)
            if set(SLOT_ENDPOINTS[s]) <= free_vertices
        ]
        for chosen in itertools.combinations(slots, 3):
            edges = [SLOT_ENDPOINTS[s] for s in chosen]
            summary = classify_edges(edges, target_in_collection=False)
            spanning = [c for c in summary.components if c.vertices > 1]
            if len(spanning) == 1 and spanning[0].vertices == 4 and spanning[0].is_tree:
                m = kept_mask | target_bit
                for s in chosen:
                    m |= 1 << graph.cube_of_slot[s]
                family_b.append(m)

    family_a = sorted(set(family_a))
    family_b = sorted(set(family_b))
    if set(family_a) & set(family_b):
        raise VerificationError("structural max-collection families overlap")
    if sorted(family_a + family_b) != sweep:
        raise VerificationError(
            f"structural census ({len(family_a)}+{len(family_b)}) disagrees "
            f"with sweep ({len(sweep)}) for {graph.target.name}"
        )
    return MaxCollectionCensus(
        target=graph.target.name,
        sweep_masks=tuple(sweep),
        double_edge_masks=tuple(family_a),
        path_masks=tuple(family_b),
    )


# ---------------------------------------------------------------------------
# Five-target collections.  Rule: pick 3 columns, then 4 rows of which
# exactly 2 have their letter among the chosen columns.  The 4x3 cell block
# loses its 2 diagonal cells, leaving 10 cubes; the complement block holds
# 2x3 cells of which one is diagonal, leaving 5 targets; dropping the 2
# mirrors of targets from the 10 cubes leaves the 8-cube collection.  The
# rows-first orientation is the mirror image of the columns-first one.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiveTargetRule:
    columns: tuple       # 3 distinct column letters
    rows: tuple          # 4 distinct row letters, exactly 2 with letter in columns
    columns_first: bool = True

    def __post_init__(self):
        cols = tuple(self.columns)
        rows = tuple(self.rows)
        if len(cols) != 3 or len(set(cols)) != 3 or any(c not in COLUMN_LETTERS for c in cols):
            raise InvalidRuleError(f"need 3 distinct column letters, got {cols!r}")
        if len(rows) != 4 or len(set(rows)) != 4 or any(r not in ROW_LETTERS for r in rows):
            raise InvalidRuleError(f"need 4 distinct row letters, got {rows!r}")
        matching = sum(1 for r in rows if r.lower() in cols)
        if matching != 2:
            raise InvalidRuleError(
                f"exactly 2 of the rows must match a chosen column, got {matching}"
            )
        object.__setattr__(self, "columns", tuple(sorted(cols)))
        object.__setattr__(self, "rows", tuple(sorted(rows)))


@dataclass(frozen=True)
class FiveTargetRecord:
    rule: FiveTargetRule
    collection: tuple    # 8 cube names, sorted
    targets: tuple       # 5 target names, sorted
    solution_numbers: dict  # target name -> solution number


def five_target_rules():
    """All 360 valid rules: 20 column choices x 9 row choices x 2 orientations."""
    for cols in itertools.combinations(COLUMN_LETTERS, 3):
        inside = [r for r in ROW_LETTERS if r.lower() in cols]
        outside = [r for r in ROW_LETTERS if r.lower() not in cols]
        for pick_in in itertools.combinations(inside, 2):
            for pick_out in itertools.combinations(outside, 2):
                rows = pick_in + pick_out
                for columns_first in (True, False):
                    yield FiveTargetRule(cols, rows, columns_first)


def _apply_rule(rule):
    cells = [
        r + c
        for r in rule.rows
        for c in rule.columns
        if r.lower() != c
    ]
    other_rows = [r for r in ROW_LETTERS if r not in rule.rows]
    other_cols = [c for c in COLUMN_LETTERS if c not in rule.columns]
    targets = [
        r + c for r in other_rows for c in other_cols if r.lower() != c
    ]
    assert len(cells) == 10 and len(targets) == 5
    mirrors = {mirror_name(t) for t in targets} & set(cells)
    if len(mirrors) != 2:
        raise VerificationError(f"rule {rule} removed {len(mirrors)} mirrors, expected 2")
    collection = [c for c in cells if c not in mirrors]
    if not rule.columns_first:
        collection = [mirror_name(n) for n in collection]
        targets = [mirror_name(n) for n in targets]
    return tuple(sorted(collection)), tuple(sorted(targets))


def five_target_record(rule, tableau=None, verify=True):
    """Instantiate one rule and (optionally) verify it solves as promised."""
    tableau = tableau or build_tableau()
    collection, targets = _apply_rule(rule)
    if verify:
        # One solver pass over all 30 targets both checks the promise and
        # gives the promised targets' solution numbers.
        found = _target_numbers(as_ids(collection, tableau), tableau)
        if set(found) != set(targets):
            raise VerificationError(
                f"rule {rule} promises targets {targets}, engine finds {sorted(found)}"
            )
        numbers = {t: found[t] for t in targets}
    else:
        numbers = {t: solution_number(collection, t, tableau) for t in targets}
    return FiveTargetRecord(
        rule=rule,
        collection=collection,
        targets=targets,
        solution_numbers=numbers,
    )


def five_target_records(tableau=None, verify=True):
    """All 360 five-target records; collections are pairwise distinct."""
    tableau = tableau or build_tableau()
    records = [five_target_record(rule, tableau, verify) for rule in five_target_rules()]
    if len({r.collection for r in records}) != len(records):
        raise VerificationError("five-target collections are not pairwise distinct")
    return records
