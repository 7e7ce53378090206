"""Exhaustive sweeps over collections: distributions, maxima, five targets.

The key observation making full sweeps cheap: every target sees the same
abstract target graph once its 20 edge cubes are funneled into the 21 fixed
slots defined in the solver module (12 adjacent-pair slots, 4x2 diagonal
slots, 1 target slot).  Collections containing an unusable cube have
solution number 0, so a single classification of the C(21,8) = 203,490
slot subsets decides the solution number of every collection for every
target.  A subset's solution number is its number of perfect matchings:
the ways to give the eight corners distinct slots of the subset, each on a
slot that fits it.  So the classification is one count of matchings over
all 2^21 slot masks, corner by corner, in numpy; it never reads the
component rule of ``solution_number_formula``, which stays the independent
check.  Per-target work is then a cheap remap of slot masks to cube masks,
also done with numpy.

Table 2 counts, for each collection, how many targets it builds, and reads
the bases of one target only.  Recoloring by a color permutation p maps
every solution of (W, T) to one of (pW, pT), so it maps the bases of T onto
those of pT and keeps how many targets each builds; and the 720 recolorings
move Ba to each of the 30 targets.  So if c_j bases of Ba build exactly j
targets, so do c_j bases of every target, and a collection that builds
exactly j targets is a basis of j of them: there are 30 c_j / j such
collections.  The five-target collections are the images of Ba's under the
720 recolorings.

``combination_rows`` unranks lexicographic k-combinations into uint8 rows,
for the subset histograms of the universal module and for the tests.  Whole
levels of combinations are built instead by folding per-element words down
the combination tree (``_combination_words``): the slot masks the census is
read at, and the tables of the C(30,12) scan.

``buildable_collections`` is the solver-only oracle: it tries each usable
8-subset of some cubes with ``solution_number`` and never reads the slot
table.  The direct checks of the universal module run through it;
``buildable_targets`` calls ``solution_number`` on each target all of a
collection's cubes can serve.
"""

from __future__ import annotations

import itertools
import mmap
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .cubes import COLUMN_LETTERS, ROW_LETTERS, all_color_permutations, build_tableau, mirror_name
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
    "SlotTable",
    "MaxCollectionCensus",
    "FiveTargetRule",
    "FiveTargetRecord",
    "InvalidRuleError",
    "VerificationError",
    "combination_rows",
    "buildable_collections",
    "slot_table",
    "distribution_for_target",
    "buildable_mask_table",
    "distribution_buildable",
    "buildable_targets",
    "count_max_collections",
    "five_target_rules",
    "five_target_record",
    "five_target_records",
]

TOTAL_COLLECTIONS = comb(30, 8)


class InvalidRuleError(ValueError):
    """A five-target rule violating the 3-column/4-row shape constraints."""


@dataclass(frozen=True)
class SlotTable:
    """Solution numbers of all 8-subsets of the 21 abstract slots.

    ``nonzero_masks`` (21-bit slot masks, uint32) and ``nonzero_values``
    (their matching counts, the solution numbers, uint8) list the 133,680
    buildable subsets, in lexicographic order of their slot combinations.
    """

    nonzero_masks: np.ndarray
    nonzero_values: np.ndarray

    def distribution(self):
        values, counts = np.unique(self.nonzero_values, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


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


def _combination_words(words, folds, k):
    """The folded words of the k-combinations of n elements, in lexicographic order.

    The last axis of each array of ``words`` runs over the n elements; a
    combination's word is its elements' words folded by the matching ufunc of
    ``folds``, along the same axis of the result.  Each array is folded on its
    own, so only two of its levels are ever held at once.
    """
    n = words[0].shape[-1]
    combined = []
    for fold, element in zip(folds, words):
        level = element
        for j in range(2, k + 1):
            folded = np.empty(element.shape[:-1] + (comb(n, j),), dtype=element.dtype)
            at = 0
            for a in range(n - j + 1):
                size = comb(n - 1 - a, j - 1)
                fold(level[..., -size:], element[..., a : a + 1], out=folded[..., at : at + size])
                at += size
            level = folded
        combined.append(level)
    return tuple(combined)


# ---------------------------------------------------------------------------
# The slot census, as a count of matchings.  ways[m] counts the ways to give
# corners 0..v-1 distinct slots of mask m, each slot fitting its corner (the
# edge slots that end at it, and the target slot: _FITS).  Corner v adds
# ways[m] into ways[m | 1 << s] for each slot s of _FITS[v] outside m; after
# the eighth, ways[m] of an 8-slot mask is its solution number.
#
# One byte per mask, eight masks to a little-endian uint64 word.  No byte
# carries: the largest count after corners 0..7 is 1, 2, 3, 4, 6, 8, 12, 16.
# Slot bit s >= 3 is bit s - 3 of the word index: one strided add of word
# halves.  Where a half is a run of at most _SHORT_RUN words, numpy would
# step through the runs one short row at a time, so the add iterates the
# transposed halves in C order instead, one long strided pass per word of
# the run (as fast as a Python loop of those passes, which left the C(30,12)
# scan's peak RSS 0.1 MB higher).  Slot bits 0-2 pick the byte: the bytes
# without bit s shift up by 8 << s bits, a chunk at a time.  The buffers are
# anonymous maps, because freeing a malloc'd 2 MB buffer raises malloc's
# mmap threshold and keeps the later sweeps' temporaries resident.
# ---------------------------------------------------------------------------

_FITS = tuple(
    tuple(s for s, ends in enumerate(SLOT_ENDPOINTS) if v in ends) + (TARGET_SLOT,)
    for v in range(VERTEX_COUNT)
)
_SLOT_BITS = np.uint32(1) << np.arange(SLOT_COUNT, dtype=np.uint32)
_IN_WORD = tuple(
    np.uint64(sum(0xFF << 8 * j for j in range(8) if not j >> s & 1)) for s in range(3)
)
_IN_WORD_CHUNK = 1 << 15    # words per in-word step: an eighth of the masks
_SHORT_RUN = 4              # the longest run of words added in transposed order


def _matching_counts():
    """uint8 per slot mask: its matchings of the eight corners, 0 unless it has eight slots."""
    ways, grown = (np.frombuffer(mmap.mmap(-1, 1 << SLOT_COUNT), dtype="<u8") for _ in range(2))
    ways[0] = 1
    scratch = np.empty(_IN_WORD_CHUNK, dtype=ways.dtype)
    for fits in _FITS:
        grown.fill(0)
        for slot in fits:
            if slot >= 3:
                half = 1 << (slot - 3)
                into = grown.reshape(-1, 2, half)[:, 1]
                out_of = ways.reshape(-1, 2, half)[:, 0]
                if half > _SHORT_RUN:
                    into += out_of
                else:
                    np.add(into.T, out_of.T, out=into.T, order="C")
                continue
            for lo in range(0, len(ways), _IN_WORD_CHUNK):
                np.bitwise_and(ways[lo : lo + _IN_WORD_CHUNK], _IN_WORD[slot], out=scratch)
                scratch <<= np.uint64(8 << slot)
                grown[lo : lo + _IN_WORD_CHUNK] += scratch
        ways, grown = grown, ways
    return ways.view(np.uint8)


@lru_cache(maxsize=1)
def slot_table():
    """Classify every 8-subset of slots once; shared by all sweeps.

    Reads the matching counts at the C(21,8) slot masks in lexicographic
    order of their combinations, so ``nonzero_masks`` ascends in that order.
    The count never reads classify_edges, so solution_number_formula checks
    it on every subset (the tests compare all of them).
    """
    counts = _matching_counts()    # first: its second buffer is unmapped before the masks exist
    (masks,) = _combination_words((_SLOT_BITS,), (np.bitwise_or,), 8)
    values = counts[masks]
    buildable = values > 0
    return SlotTable(nonzero_masks=masks[buildable], nonzero_values=values[buildable])


def distribution_for_target(target):
    """Solution number -> collections, over the C(30,8) collections with a nonzero one.

    Builds the target's graph (which proves the target maps onto the 21-slot
    structure) and reads the shared slot classification, so every target
    gets the same counts.  The rest of TOTAL_COLLECTIONS have solution number 0.
    """
    build_target_graph(target)
    return slot_table().distribution()


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
        value = solution_number(combo, graph.target.name, tableau)
        if value:
            yield combo, value


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


def buildable_mask_table(target_name):
    """(cube masks, solution numbers) of all buildable collections for one target.

    Each 21-bit slot mask of the slot table is cut into three 7-slot pieces,
    each piece is looked up in a 128-entry table of the target's cube bits,
    and the three looked-up values are ORed.
    """
    slots = slot_table().nonzero_masks
    cubes = np.array(build_target_graph(target_name).cube_of_slot, dtype=np.uint32)
    lookup = _subset_or_table((np.uint32(1) << cubes).reshape(3, _SLOT_PIECE))
    masks = lookup[0][slots & 127]
    for i in (1, 2):
        masks |= lookup[i][slots >> (_SLOT_PIECE * i) & 127]
    return masks, slot_table().nonzero_values


# ---------------------------------------------------------------------------
# Buildability index: for every subset of the 21 slots, can some 8-subset of
# it build the target?  Seeded with the nonzero 8-subsets of the slot
# classification, the bases, and closed upward.  A spanning set contains a
# basis through any independent set inside it, and slots 0-7 (eight edges on
# all eight corners, with one cycle) are a basis: so the closure may leave
# bits 0-7 out and close over bits 8-20 alone.  Read as uint64 words, slot
# bit b >= 3 steps 2^(b - 3) words, and each bit closes with an OR of halves.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _buildable_closure():
    closed = np.zeros(1 << SLOT_COUNT, dtype=bool)
    closed[slot_table().nonzero_masks] = True
    words = closed.view("<u8")
    for bit in range(8, SLOT_COUNT):
        halves = words.reshape(-1, 2, 1 << (bit - 3))
        halves[:, 1] |= halves[:, 0]
    return closed


@lru_cache(maxsize=1)
def _slot_bits_by_target():
    """30x30 uint32: for target t and cube id c, the slot bit or 0 if unusable."""
    bits = np.zeros((30, 30), dtype=np.uint32)
    for target in range(30):
        bits[target, build_target_graph(target).cube_of_slot] = _SLOT_BITS
    return bits


@lru_cache(maxsize=1)
def _slot_lookup():
    """(30, 3, 1024) uint32: per target, the slot mask of each 10-bit piece of a cube set."""
    return _subset_or_table(_slot_bits_by_target().reshape(30, 3, 10))


def _bitmasks(ids_matrix):
    """Cube-id bitmasks (uint32) of rows of cube ids: the last axis runs along a row."""
    return np.bitwise_or.reduce(np.uint32(1) << np.asarray(ids_matrix, dtype=np.uint32), axis=-1)


def _slot_masks(sets, target):
    """Slot masks of cube-id bitmasks (uint32) for one target: the kernel of every count."""
    lookup = _slot_lookup()[target]
    return lookup[0][sets & 1023] | lookup[1][sets >> 10 & 1023] | lookup[2][sets >> 20]


@lru_cache(maxsize=1)
def _unusable_cubes():
    """Per target id, the cube mask (int) of the 9 cubes that supply none of its corners."""
    return tuple(sum(1 << c for c in build_target_graph(t).unusable_ids) for t in range(30))


@lru_cache(maxsize=1)
def _recolor_action():
    """(720, 30) uint8, read-only: row p maps each cube id to its recoloring by
    the p-th permutation of ``all_color_permutations()``.

    A coloring is a bijection of the six faces onto the six colors, keyed by
    its colors as base-6 digits; ``Tableau.by_coloring`` names the cube of
    each of the 720 keys, and recoloring every cube by every permutation is
    one index of the permutations by the cubes' colorings.
    """
    tableau = build_tableau()
    place = 6 ** np.arange(6)
    cube_of_key = np.zeros(6**6, dtype=np.uint8)
    keys = (np.array(list(tableau.by_coloring)) - 1) @ place
    cube_of_key[keys] = [c.id for c in tableau.by_coloring.values()]
    colorings = np.array([c.coloring for c in tableau]) - 1
    action = cube_of_key[(np.array(all_color_permutations()) - 1)[:, colorings] @ place]
    action.flags.writeable = False
    return action


def _targets_built(bases):
    """How many of the 30 targets each cube mask (uint32) of ``bases`` builds.

    One mask test keeps, per target, the bases with no unusable cube: about
    1.73 targets per basis of a target.  Only those (basis, target) pairs
    are looked up in the closure.
    """
    built = np.zeros(len(bases), dtype=np.uint8)
    closed = _buildable_closure()
    for target, unusable in enumerate(_unusable_cubes()):
        pairs = np.flatnonzero((bases & np.uint32(unusable)) == 0)
        built[pairs] += closed[_slot_masks(bases[pairs], target)]
    return built


def distribution_buildable():
    """Distribution of the buildable-target count over all C(30,8) collections.

    Returns (distribution dict count -> collections, five-target cube masks
    sorted ascending).  A collection's buildable count is how many of the 30
    targets it can build; the five-target masks are the maximum achievers.
    Only the bases of Ba are counted: by the recoloring symmetry of the
    module docstring, the c_j of them that build exactly j targets give
    30 c_j / j collections, and the five-target collections are the orbit
    of Ba's under the 720 recolorings.
    """
    tableau = build_tableau()
    action = _recolor_action()
    if len(set(action[:, tableau.cube("Ba").id].tolist())) != 30:
        raise VerificationError("the recolorings do not map Ba onto all 30 targets")
    bases = buildable_mask_table("Ba")[0]
    built = _targets_built(bases)
    top = int(built.max())
    if top > 5:
        raise VerificationError(f"a collection builds {top} targets; expected at most 5")
    distribution = {}
    for j, count in enumerate(np.bincount(built, minlength=6)[1:].tolist(), 1):
        if 30 * count % j:
            raise VerificationError(f"30 x {count} bases building {j} targets: not a multiple of {j}")
        if count:
            distribution[j] = 30 * count // j
    distribution[0] = TOTAL_COLLECTIONS - sum(distribution.values())
    ids = np.array([tableau.ids_of_mask(int(m)) for m in bases[built == 5]], dtype=np.intp)
    # Sorted, the first of each run of equal masks (np.unique would import numpy.ma).
    five_masks = np.sort(_bitmasks(action[:, ids.reshape(-1, 8)]), axis=None)
    first = np.ones(len(five_masks), dtype=bool)
    first[1:] = five_masks[1:] != five_masks[:-1]
    five_masks = five_masks[first]
    if len(five_masks) != distribution.get(5, 0):
        raise VerificationError(f"the orbit holds {len(five_masks)} five-target collections")
    return distribution, five_masks


def _target_numbers(ids, tableau):
    """Target name -> solution number, for each target the 8 cubes ``ids`` build.

    A target with an unusable cube among ``ids`` is skipped by one mask test.
    """
    mask = sum(1 << i for i in ids)
    numbers = {}
    for c, unusable in zip(tableau, _unusable_cubes()):
        if not mask & unusable:
            value = solution_number(ids, c.name, tableau)
            if value:
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

    bit = [1 << c for c in graph.cube_of_slot]    # distinct cubes, so sums of bits are ORs
    target_bit = 1 << graph.target.id
    diagonal = [[b for b, ends in zip(bit, SLOT_ENDPOINTS) if ends == pair] for pair in DIAGONAL_PAIRS]
    base = sum(map(sum, diagonal))                 # the four diagonals, doubled
    family_a = [base] + [base - b + target_bit for pair in diagonal for b in pair]

    family_b = []
    for keep in itertools.combinations(range(4), 2):
        kept_mask = target_bit + sum(sum(diagonal[p]) for p in keep)
        free_vertices = {v for p in range(4) if p not in keep for v in DIAGONAL_PAIRS[p]}
        slots = [s for s in range(TARGET_SLOT) if set(SLOT_ENDPOINTS[s]) <= free_vertices]
        for chosen in itertools.combinations(slots, 3):
            summary = classify_edges([SLOT_ENDPOINTS[s] for s in chosen], False)
            spanning = [c for c in summary.components if c.vertices > 1]
            if len(spanning) == 1 and spanning[0].vertices == 4 and spanning[0].is_tree:
                family_b.append(kept_mask + sum(bit[s] for s in chosen))

    family_a = sorted(set(family_a))
    family_b = sorted(set(family_b))
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
    cells = [r + c for r in rule.rows for c in rule.columns if r.lower() != c]
    other_rows = [r for r in ROW_LETTERS if r not in rule.rows]
    other_cols = [c for c in COLUMN_LETTERS if c not in rule.columns]
    targets = [r + c for r in other_rows for c in other_cols if r.lower() != c]
    mirrors = {mirror_name(t) for t in targets}
    collection = [c for c in cells if c not in mirrors]
    if not rule.columns_first:
        collection = [mirror_name(n) for n in collection]
        targets = [mirror_name(n) for n in targets]
    return tuple(sorted(collection)), tuple(sorted(targets))


def five_target_record(rule, tableau=None, verify=True):
    """One rule's record, numbered by one solver pass over the targets its collection can serve.

    A promised target it cannot serve gets 0.  With ``verify``, a collection
    that serves any other set of targets than the promised five raises
    VerificationError.
    """
    tableau = tableau or build_tableau()
    collection, targets = _apply_rule(rule)
    found = _target_numbers(as_ids(collection, tableau), tableau)
    if verify and set(found) != set(targets):
        raise VerificationError(
            f"rule {rule} promises targets {targets}, engine finds {sorted(found)}"
        )
    return FiveTargetRecord(rule, collection, targets, {t: found.get(t, 0) for t in targets})


def five_target_records(tableau=None, verify=True):
    """All 360 five-target records; collections are pairwise distinct."""
    tableau = tableau or build_tableau()
    records = [five_target_record(rule, tableau, verify) for rule in five_target_rules()]
    if len({r.collection for r in records}) != len(records):
        raise VerificationError("five-target collections are not pairwise distinct")
    return records
