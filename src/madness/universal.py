"""Minimum universal cube sets: sets building all 30 targets.

A cube set of size 8..30 is universal when every one of the 30 targets can
be built from some 8-subset.  Twelve cubes are needed, and a two-letter rule
generates 12-cube candidates: for a pair {x, y} of non-a column letters take
the six cubes pairing x, y with a as rows and columns plus the two cubes
pairing x with y, then all six cubes over the three remaining letters.  The
ten candidate sets form a single orbit under color permutations (which act
on cube names through the tableau), each with a stabilizer of order 72.

Buildability queries reduce to the sweep machinery: a target is buildable
from a set iff the slot mask of the set's usable cubes contains a nonzero
8-subset, which is one lookup in an upward-closed table (sweeps builds it).
One counter in sweeps, ``_targets_built``, makes those lookups for Table 2,
the Figure 7 histograms, ``sample`` and ``buildable_count``.  In matroid
terms each target is a transversal matroid of rank 8 on the cubes (a cube
fits the corners it can supply), its bases are the 8-cube collections with
a nonzero solution number, and a set builds the target iff it spans that
matroid (Hall's theorem).  So a universal set is one that spans all 30
matroids, and the upward-closed table is the spanning family.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from .cubes import COLUMN_LETTERS, _integer, build_tableau
from .reports import VerificationError, _source_hash, write_json
from .solver import build_target_graph
from .sweeps import (
    _bitmasks,
    _buildable_closure,
    _recolor_action,
    _slot_bits_by_target,
    _slot_masks,
    _targets_built,
    buildable_collections,
    combination_rows,
)

__all__ = [
    "SET_SIZE",
    "TOTAL_TWELVE_SETS",
    "SetSizeError",
    "SampleCountError",
    "CheckpointError",
    "UniversalCandidate",
    "TargetAnalysis",
    "SampleStats",
    "OrbitReport",
    "SearchState",
    "conjecture_sets",
    "buildable_count",
    "buildable_count_direct",
    "per_target_analysis",
    "subset_build_distribution",
    "sample_sets",
    "sample_distribution",
    "orbit_and_stabilizer",
    "exhaustive_search",
]

SET_SIZE = 12
TOTAL_TWELVE_SETS = comb(30, 12)


class SetSizeError(ValueError):
    """A cube set too small to contain any 8-cube collection."""


class SampleCountError(ValueError):
    """A number of random samples below one, or too many to hold in memory."""


class CheckpointError(ValueError):
    """A checkpoint file that cannot be read or written, or holds no scan state."""


class UniversalCandidate(NamedTuple):
    pair: tuple      # the two generating column letters
    names: tuple     # 12 cube names, sorted
    mask: int


def conjecture_sets(tableau=None):
    """The ten candidate 12-sets, one per pair of non-a letters."""
    tableau = tableau or build_tableau()
    out = []
    for x, y in itertools.combinations(COLUMN_LETTERS[1:], 2):
        rest = [c for c in COLUMN_LETTERS[1:] if c not in (x, y)]
        names = [
            "A" + x, "A" + y,
            x.upper() + "a", y.upper() + "a",
            x.upper() + y, y.upper() + x,
        ]
        names += [
            p.upper() + q for p, q in itertools.permutations(rest, 2)
        ]
        out.append(
            UniversalCandidate(
                pair=(x, y),
                names=tuple(sorted(names)),
                mask=tableau.mask(names),
            )
        )
    return out


def _set_ids(cube_set, tableau):
    """Sorted ids of a cube set (names, ids or a bitmask) of at least 8 distinct cubes."""
    ids = (tableau or build_tableau()).ids(cube_set)
    if len(ids) < 8:
        raise SetSizeError(f"a cube set needs at least 8 cubes, got {len(ids)}")
    return ids


def buildable_count(cube_set, tableau=None):
    """How many of the 30 targets some 8-subset of ``cube_set`` builds."""
    ids = _set_ids(cube_set, tableau)
    return int(_targets_built(_bitmasks([ids]), len(ids))[0])


def buildable_count_direct(cube_set, tableau=None):
    """Slow oracle: try every 8-subset per target through the solver."""
    tableau = tableau or build_tableau()
    ids = _set_ids(cube_set, tableau)
    return sum(1 for target in tableau if next(buildable_collections(ids, target.name, tableau), None))


class TargetAnalysis(NamedTuple):
    """What one candidate set offers a single target."""

    target: str
    in_set: bool
    unusable_members: tuple       # member cubes useless for this target
    collections: tuple            # ((8 names), solution number) pairs, nonzero only


def per_target_analysis(candidate, tableau=None):
    """Buildable collections within a candidate set, for each of the 30 targets."""
    tableau = tableau or build_tableau()
    member_ids = tableau.ids(candidate.names)
    analyses = []
    for target in tableau:
        graph = build_target_graph(target.name, tableau)
        analyses.append(
            TargetAnalysis(
                target=target.name,
                in_set=target.id in member_ids,
                unusable_members=tableau.names(graph.unusable_ids.intersection(member_ids)),
                collections=tuple(
                    (tableau.names(combo), value)
                    for combo, value in buildable_collections(member_ids, target.name, tableau)
                ),
            )
        )
    return analyses


def subset_build_distribution(candidate, k, tableau=None):
    """Histogram of buildable_count over all k-subsets of a candidate set."""
    tableau = tableau or build_tableau()
    if _integer(k) not in range(8, len(candidate.names) + 1):
        raise SetSizeError(f"subset size must be 8..{len(candidate.names)}, got {k}")
    ids = np.array(tableau.ids(candidate.names))
    rows = combination_rows(len(ids), k, np.arange(comb(len(ids), k)))
    values, counts = np.unique(_targets_built(_bitmasks(ids[rows]), k), return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


# ---------------------------------------------------------------------------
# Random sampling.  Cube c of sample i gets word 30 i + c of the SplitMix64
# stream (Steele, Lea & Flood 2014; golden gamma) that starts from a 64-bit
# blake2b hash of the seed's decimal digits.  The sample is the k cubes with
# the least words, each word's low 5 bits replaced by its cube so that no two
# tie.  A sample depends on (seed, i) alone, so not on batching.
# ---------------------------------------------------------------------------

_SAMPLE_BLOCK = 1 << 10          # samples per block: each temporary under 0.25 MB
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _sample_words(state, start, stop):
    """The uint64 words of samples start..stop-1, one row of 30 per sample."""
    z = np.arange(30 * start + 1, 30 * stop + 1, dtype=np.uint64) * _GAMMA + np.uint64(state)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z.reshape(-1, 30)


def _least_cubes(words, k):
    """Per row of 30 words, the k cubes with the least words, ascending; ties go to the lower cube."""
    keys = words >> np.uint64(5) << np.uint64(5) | np.arange(30, dtype=np.uint64)
    kth = np.partition(keys, k - 1, axis=1)[:, k - 1, None]
    return (np.flatnonzero(keys <= kth) % 30).reshape(-1, k)


def sample_sets(k, n, seed):
    """n sorted k-subsets of cube ids, reproducible from (seed, index); k, n and seed are integers."""
    if _integer(k) not in range(8, 31):
        raise SetSizeError(f"sample size must be 8..30, got {k}")
    if _integer(n) is None or n < 1:
        raise SampleCountError(f"number of samples n must be at least 1, got {n}")
    if _integer(seed) is None or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    try:
        samples = np.empty((n, k), dtype=np.int64)
    except (MemoryError, ValueError):
        raise SampleCountError(f"{n} samples of {k} cubes do not fit in memory") from None
    state = int.from_bytes(hashlib.blake2b(str(int(seed)).encode(), digest_size=8).digest(), "little")
    for start in range(0, n, _SAMPLE_BLOCK):
        stop = min(n, start + _SAMPLE_BLOCK)
        samples[start:stop] = _least_cubes(_sample_words(state, start, stop), k)
    return samples


class SampleStats(NamedTuple):
    k: int
    n: int
    seed: int
    mean: float
    std: float
    min: int
    max: int
    histogram: dict


def sample_distribution(k, n, seed):
    """Buildable-count statistics over n random k-subsets.

    Returns (SampleStats, per-sample counts in index order).
    """
    counts = _targets_built(_bitmasks(sample_sets(k, n, seed)), k)
    if k >= 10 and int(counts.min()) < 1:
        raise VerificationError(
            f"a {k}-cube sample with zero buildable targets contradicts the k>=10 bound"
        )
    histogram = {int(v): int(c) for v, c in zip(*np.unique(counts, return_counts=True))}
    stats = SampleStats(
        k=int(k),
        n=int(n),
        seed=int(seed),
        mean=float(counts.mean()),
        std=float(counts.std()),
        min=int(counts.min()),
        max=int(counts.max()),
        histogram=histogram,
    )
    return stats, counts


# ---------------------------------------------------------------------------
# Orbit and stabilizer of the candidate sets under the 720 color
# permutations, acting on sets of cube ids through the tableau.
# ---------------------------------------------------------------------------


class OrbitReport(NamedTuple):
    orbit_size: int
    single_orbit: bool            # all ten candidates in one orbit
    stabilizer_orders: tuple      # per candidate, in conjecture_sets order


def orbit_and_stabilizer(candidates=None, tableau=None):
    tableau = tableau or build_tableau()
    candidates = candidates or conjecture_sets(tableau)
    members = np.array([tableau.ids(c.mask) for c in candidates])
    own = _bitmasks(members)
    images = _bitmasks(_recolor_action()[:, members])    # (permutation, candidate) -> image
    orbit = set(images[:, 0].tolist())
    return OrbitReport(
        orbit_size=len(orbit),
        single_orbit=orbit.issuperset(own.tolist()) and len(orbit) == len(members),
        stabilizer_orders=tuple((images == own).sum(axis=0).tolist()),
    )


# ---------------------------------------------------------------------------
# Exhaustive scan of the C(30,k) sets, k >= 12, one prefix block at a time.
# A block is every k-set sharing a (k - 7)-cube prefix whose last cube a is
# at most 22; its 7-cube suffixes, in lexicographic order, are the last
# C(29 - a, 7) entries of one table of the 7-subsets of 5..29.  The tables
# are folded by OR down the lexicographic combination tree from each cube's
# words: its bit, and its slot bits in the first few targets.  For each of
# those targets a set passes when its prefix's slot mask ORed into its
# suffix's is in the step's closure.  A block is tested over slices of at
# most _CHUNK sets, first for the targets outside its prefix (a target in
# the set builds far more often): over the whole slice while more than half
# of it survives, then at the survivors' indices only.  The whole blocks of
# at most _SMALL sets are grouped by size, since blocks of one size share
# their last prefix cube and so their suffixes, and each group is tested as
# one (blocks x suffixes) broadcast.  The survivors are pooled with their
# ranks, about _CHUNK at a time, and filtered by the other targets together;
# almost every set dies within the first few targets.  Blocks follow
# lexicographic order, so the number of sets scanned is the rank of the next
# set.  When the scan stops a checkpoint file records that rank, the sets
# found so far, and the hash of the package source that wrote it.
# ---------------------------------------------------------------------------

_SUFFIX = 7                      # cubes varying within a block
_MASK_COLUMNS = 4                # targets with precomputed suffix slot masks
_CHUNK = 1 << 16                 # sets per filter pass and per pool at most: bounds the scratch
_SMALL = 1 << 12                 # blocks of at most this many sets are tested in groups


class _ScanTables(NamedTuple):
    suffixes: np.ndarray      # (C(25,7),) uint32: the 7-subsets of 5..29 as cube bitmasks
    columns: np.ndarray       # (_MASK_COLUMNS, C(25,7)) uint32: their slot masks, first targets
    prefixes: np.ndarray      # (blocks,) uint32: the (k - 7)-subsets of 0..22, one per block
    prefix_masks: np.ndarray  # (_MASK_COLUMNS, blocks) uint32: their slot masks, first targets
    starts: np.ndarray        # (blocks + 1,) int64: each block's first rank, then C(30,k)


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


@lru_cache(maxsize=1)
def _scan_tables(k=SET_SIZE):
    """The block tables of the C(30,k) sets, k >= 12."""
    cube_bits = np.uint32(1) << np.arange(30, dtype=np.uint32)
    slot_bits = _slot_bits_by_target()[:_MASK_COLUMNS]
    # The last prefix cube is 4..22 for k >= 12, so every suffix is a 7-set of 5..29.
    suffixes, columns = _combination_words(
        (cube_bits[5:], slot_bits[:, 5:]), (np.bitwise_or,) * 2, _SUFFIX
    )
    # A block holds C(29 - a, 7) sets: the least of C(29 - c, 7) over its prefix cubes c.
    top = 30 - _SUFFIX
    sizes = np.array([comb(29 - a, _SUFFIX) for a in range(top)], dtype=np.int64)
    prefixes, prefix_masks, sizes = _combination_words(
        (cube_bits[:top], slot_bits[:, :top], sizes),
        (np.bitwise_or, np.bitwise_or, np.minimum),
        k - _SUFFIX,
    )
    starts = np.concatenate(([0], np.cumsum(sizes)))
    return _ScanTables(suffixes, columns, prefixes, prefix_masks, starts)


def _test_blocks(tables, closed, group, lo, hi, keys, hits):
    """(sets, ranks) that pass the mask columns at offsets lo..hi-1 of the blocks ``group``.

    The blocks have one size, so they share their suffixes.  ``keys`` and
    ``hits`` are scratch of len(group) * (hi - lo) entries at least.
    """
    g, width = len(group), hi - lo
    base = len(tables.suffixes) - int(tables.starts[group[0] + 1] - tables.starts[group[0]]) + lo
    columns = tables.columns[:, base : base + width]
    prefix = int(tables.prefixes[group[0]])
    pending = sorted(range(_MASK_COLUMNS), key=lambda t: prefix >> t & 1)
    keep = np.ones((g, width), dtype=bool)
    cells, tested = keys[: g * width].reshape(g, width), hits[: g * width].reshape(g, width)
    # A group runs each test over all its cells.  One block does so while
    # more than half of its cells survive, then tests the survivors only.
    while pending and (g > 1 or 2 * np.count_nonzero(keep) > width):
        t = pending.pop(0)
        np.bitwise_or(columns[t], tables.prefix_masks[t, group, None], out=cells)
        keep &= closed.take(cells, out=tested)
    cell = np.flatnonzero(keep)
    for t in pending:
        n = len(cell)
        np.bitwise_or(columns[t].take(cell), tables.prefix_masks[t, group[0]], out=keys[:n])
        cell = np.compress(closed.take(keys[:n], out=hits[:n]), cell)
    block, row = np.divmod(cell, width) if g > 1 else (0, cell)
    block = group[block]
    return tables.suffixes[base + row] | tables.prefixes[block], tables.starts[block] + lo + row


def _block_pieces(tables, closed, begin, end):
    """(sets, ranks) that pass the mask columns among ranks begin..end-1, a filter pass at a time."""
    keys, hits = np.empty(_CHUNK, dtype=np.intp), np.empty(_CHUNK, dtype=bool)
    first = int(np.searchsorted(tables.starts, begin, side="right")) - 1
    last = int(np.searchsorted(tables.starts, end))      # blocks first..last-1 meet the ranks
    blocks = np.arange(first, last)
    starts, stops = tables.starts[first:last], tables.starts[first + 1 : last + 1]
    sizes = stops - starts
    small = (sizes <= _SMALL) & (starts >= begin) & (stops <= end)
    for block, start, stop in zip(blocks[~small], starts[~small].tolist(), stops[~small].tolist()):
        lo, hi = max(begin, start) - start, min(end, stop) - start
        for at in range(lo, hi, _CHUNK):
            yield _test_blocks(tables, closed, block[None], at, min(hi, at + _CHUNK), keys, hits)
    for size in set(sizes[small].tolist()):
        group, per = blocks[small & (sizes == size)], _CHUNK // size
        for at in range(0, len(group), per):
            yield _test_blocks(tables, closed, group[at : at + per], 0, size, keys, hits)


def _test_others(closed, pool):
    """(rank, set) pairs of the pooled pieces that pass the other targets; empties ``pool``."""
    sets, ranks = (np.concatenate(part) for part in zip(*pool))
    pool.clear()
    for t in range(_MASK_COLUMNS, 30):
        alive = np.flatnonzero(closed.take(_slot_masks(sets, t)))
        sets, ranks = sets.take(alive), ranks.take(alive)
    return list(zip(ranks.tolist(), sets.tolist()))


def _scan_step(tables, closed, begin, end):
    """Bitmasks of the sets of ranks begin..end-1 that pass ``closed`` for all 30 targets, in rank order."""
    found, pool, pooled = [], [], 0
    for piece in _block_pieces(tables, closed, begin, end):
        if pooled + len(piece[0]) > _CHUNK:
            found += _test_others(closed, pool)
            pooled = 0
        pool.append(piece)
        pooled += len(piece[0])
    if pool:
        found += _test_others(closed, pool)
    return [mask for _, mask in sorted(found)]


class SearchState:
    """Where a scan stands; the scan advances ``completed`` and extends ``found``."""

    total = TOTAL_TWELVE_SETS    # every scan covers the C(30,12) sets: not a field

    def __init__(self, completed, found):
        self.completed = completed    # sets scanned: the rank of the next set to scan
        self.found = found            # masks of universal sets, ascending discovery order

    @property
    def finished(self):
        return self.completed >= self.total


def _load_checkpoint(path):
    """Read a scan state, raising CheckpointError if this code did not write it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"checkpoint {path} cannot be read ({exc.strerror})") from None
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} is not JSON ({exc})") from None
    if not isinstance(raw, dict) or set(raw) != {"completed", "found", "source"}:
        raise CheckpointError(f"checkpoint {path} must be an object with completed, found and source")
    completed, found = raw["completed"], raw["found"]
    if not (
        type(completed) is int
        and 0 <= completed <= TOTAL_TWELVE_SETS
        and isinstance(found, list)
        and all(type(m) is int and 0 <= m < 1 << 30 and m.bit_count() == SET_SIZE for m in found)
    ):
        raise CheckpointError(f"checkpoint {path} does not hold a scan state of the C(30,12) sets")
    # The file's value is shown by repr, so a newline in it cannot split the message.
    if raw["source"] != _source_hash():
        raise CheckpointError(f"checkpoint {path} was written by other code (source {raw['source']!r})")
    # A scan finds the ten universal 12-sets (criterion 11) below completed, in rank order.
    tableau, scanned = build_tableau(), []
    for row in sorted(tableau.ids(u.mask) for u in conjecture_sets(tableau)):
        if TOTAL_TWELVE_SETS - 1 - sum(comb(29 - c, SET_SIZE - i) for i, c in enumerate(row)) < completed:
            scanned.append(sum(1 << c for c in row))
    if found != scanned:
        raise CheckpointError(f"checkpoint {path} lists sets that the scan did not find, or omits some")
    return SearchState(completed=completed, found=found)


def _store_checkpoint(path, state):
    try:
        write_json(path, {"completed": state.completed, "found": state.found, "source": _source_hash()})
    except OSError as exc:
        raise CheckpointError(f"checkpoint {path} cannot be written ({exc.strerror})") from None


def exhaustive_search(checkpoint_path=None, budget_combinations=None):
    """Scan 12-sets for universality, resumably.

    Returns a SearchState; ``finished`` tells whether the space is exhausted
    (otherwise the budget ran out and the checkpoint records the resume
    point).  The scan stops after exactly ``budget_combinations`` sets, or at
    the last set; with no budget the full scan takes about two seconds.  The
    checkpoint is read before the scan and written once, when it stops, even
    if it scanned nothing.  A budget that is negative or no integer (a bool
    included) raises ValueError before the checkpoint is read; a checkpoint
    path whose directory does not exist, or a checkpoint that other code
    wrote (its ``source`` is not this package's source hash), raises
    CheckpointError before any scanning; a budget of 0 scans nothing.
    """
    if budget_combinations is not None and (_integer(budget_combinations) is None or budget_combinations < 0):
        raise ValueError(f"a budget of combinations must be at least 0, got {budget_combinations}")
    directory = os.path.dirname(checkpoint_path or "") or "."
    if checkpoint_path and not os.path.isdir(directory):
        raise CheckpointError(
            f"checkpoint {checkpoint_path} cannot be written ({directory} is not a directory)"
        )
    if checkpoint_path and os.path.exists(checkpoint_path):
        state = _load_checkpoint(checkpoint_path)
    else:
        state = SearchState(completed=0, found=[])
    stop = state.total
    if budget_combinations is not None:
        stop = min(stop, state.completed + int(budget_combinations))
    if state.completed < stop:
        state.found.extend(_scan_step(_scan_tables(), _buildable_closure(), state.completed, stop))
        state.completed = stop
    if checkpoint_path:
        _store_checkpoint(checkpoint_path, state)
    return state
