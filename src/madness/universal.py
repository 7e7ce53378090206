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
8-subset, which is one lookup in an upward-closed table built here once.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .cubes import (
    COLUMN_LETTERS,
    all_color_permutations,
    build_tableau,
    permutation_cycle_type,
)
from .solver import SLOT_COUNT, build_target_graph, solution_number
from .sweeps import VerificationError, slot_table

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
    """A number of random samples below one."""


class CheckpointError(ValueError):
    """A checkpoint file that cannot be read or written, or holds no scan state."""


@dataclass(frozen=True)
class UniversalCandidate:
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
        assert len(set(names)) == 12
        out.append(
            UniversalCandidate(
                pair=(x, y),
                names=tuple(sorted(names)),
                mask=tableau.mask(names),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Buildability index: for every subset of the 21 slots, can some 8-subset of
# it build the target?  Seeded with the nonzero 8-subsets of the slot
# classification and closed upward with a subset-sum sweep over the bits.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _buildable_closure():
    st = slot_table()
    closed = np.zeros(1 << SLOT_COUNT, dtype=bool)
    closed[st.nonzero_masks] = True
    for bit in range(SLOT_COUNT):
        view = closed.reshape(-1, 2, 1 << bit)
        view[:, 1, :] |= view[:, 0, :]
    return closed


@lru_cache(maxsize=1)
def _slot_bits_by_target():
    """30x30 uint32: for target t and cube id c, the slot bit or 0 if unusable."""
    tableau = build_tableau()
    bits = np.zeros((30, 30), dtype=np.uint32)
    for t in tableau:
        graph = build_target_graph(t, tableau)
        for c in range(30):
            slot = graph.slot_of_cube[c]
            if slot >= 0:
                bits[t.id, c] = np.uint32(1) << np.uint32(slot)
    return bits


def _check_size(ids):
    if len(ids) < 8:
        raise SetSizeError(f"a cube set needs at least 8 cubes, got {len(ids)}")


def buildable_count(cube_set, tableau=None):
    """How many of the 30 targets some 8-subset of ``cube_set`` builds."""
    tableau = tableau or build_tableau()
    ids = tuple(sorted(tableau.cube(k).id for k in cube_set)) if not isinstance(cube_set, int) else tableau.ids_of_mask(cube_set)
    if len(set(ids)) != len(ids):
        raise ValueError("cube set contains a repeated cube")
    _check_size(ids)
    closed = _buildable_closure()
    bits = _slot_bits_by_target()
    count = 0
    for t in range(30):
        mask = 0
        row = bits[t]
        for c in ids:
            mask |= int(row[c])
        if closed[mask]:
            count += 1
    return count


def buildable_count_direct(cube_set, tableau=None):
    """Slow oracle: try every 8-subset per target through the solver."""
    tableau = tableau or build_tableau()
    ids = tuple(sorted(tableau.cube(k).id for k in cube_set))
    _check_size(ids)
    count = 0
    for target in tableau:
        graph = build_target_graph(target, tableau)
        usable = [i for i in ids if graph.roles[i] != 0]
        if len(usable) < 8:
            continue
        if any(
            solution_number(combo, target, tableau) > 0
            for combo in itertools.combinations(usable, 8)
        ):
            count += 1
    return count


@dataclass(frozen=True)
class TargetAnalysis:
    """What one candidate set offers a single target."""

    target: str
    in_set: bool
    unusable_members: tuple       # member cubes useless for this target
    collections: tuple            # ((8 names), solution number) pairs, nonzero only


def per_target_analysis(candidate, tableau=None):
    """Buildable collections within a candidate set, for each of the 30 targets."""
    tableau = tableau or build_tableau()
    member_ids = [tableau.cube(n).id for n in candidate.names]
    analyses = []
    for target in tableau:
        graph = build_target_graph(target, tableau)
        usable = [i for i in member_ids if graph.roles[i] != 0]
        unusable = [i for i in member_ids if graph.roles[i] == 0]
        collections = []
        for combo in itertools.combinations(sorted(usable), 8):
            value = solution_number(combo, target, tableau)
            if value:
                collections.append((tableau.names(combo), value))
        analyses.append(
            TargetAnalysis(
                target=target.name,
                in_set=target.id in member_ids,
                unusable_members=tableau.names(unusable),
                collections=tuple(collections),
            )
        )
    return analyses


def subset_build_distribution(candidate, k, tableau=None):
    """Histogram of buildable_count over all k-subsets of a candidate set."""
    tableau = tableau or build_tableau()
    if not 8 <= k <= len(candidate.names):
        raise SetSizeError(f"subset size must be 8..{len(candidate.names)}, got {k}")
    counts = Counter()
    for combo in itertools.combinations(candidate.names, k):
        counts[buildable_count(combo, tableau)] += 1
    return dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# Random sampling.  Each sample index gets its own generator seeded from
# (seed, index), so results do not depend on batching or thread counts; the
# sample is the first k entries of a partial Fisher-Yates shuffle of 0..29.
# ---------------------------------------------------------------------------


def sample_sets(k, n, seed):
    """n sorted k-subsets of cube ids, reproducible from (seed, index)."""
    if not 8 <= k <= 30:
        raise SetSizeError(f"sample size must be 8..30, got {k}")
    if n < 1:
        raise SampleCountError(f"number of samples n must be at least 1, got {n}")
    samples = np.empty((n, k), dtype=np.int64)
    for index in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        ids = list(range(30))
        for i in range(k):
            j = int(rng.integers(i, 30))
            ids[i], ids[j] = ids[j], ids[i]
        samples[index] = sorted(ids[:k])
    return samples


@dataclass(frozen=True)
class SampleStats:
    k: int
    n: int
    seed: int
    mean: float
    std: float
    min: int
    max: int
    histogram: dict


def _counts_for_id_matrix(ids_matrix):
    """Vectorized buildable counts for rows of sorted cube-id arrays."""
    closed = _buildable_closure()
    bits = _slot_bits_by_target()
    n = ids_matrix.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    for t in range(30):
        row = bits[t]
        masks = np.zeros(n, dtype=np.uint32)
        for col in range(ids_matrix.shape[1]):
            masks |= row[ids_matrix[:, col]]
        counts += closed[masks]
    return counts


def sample_distribution(k, n, seed, tableau=None):
    """Buildable-count statistics over n random k-subsets.

    Returns (SampleStats, per-sample counts in index order).
    """
    ids_matrix = sample_sets(k, n, seed)
    counts = _counts_for_id_matrix(ids_matrix)
    if k >= 10 and int(counts.min()) < 1:
        raise VerificationError(
            f"a {k}-cube sample with zero buildable targets contradicts the k>=10 bound"
        )
    histogram = {int(v): int(c) for v, c in zip(*np.unique(counts, return_counts=True))}
    stats = SampleStats(
        k=k,
        n=n,
        seed=seed,
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


@dataclass(frozen=True)
class OrbitReport:
    orbit_size: int
    single_orbit: bool            # all ten candidates in one orbit
    stabilizer_orders: tuple      # per candidate, in conjecture_sets order
    stabilizer_cycle_types: tuple # per candidate: sorted (cycle type, count) pairs
    has_three_cycle: tuple        # per candidate: a cycle type containing a 3-cycle


def orbit_and_stabilizer(candidates=None, tableau=None):
    tableau = tableau or build_tableau()
    candidates = candidates or conjecture_sets(tableau)
    member_sets = [frozenset(tableau.cube(n).id for n in c.names) for c in candidates]
    orbit = set()
    images_of_first = set()
    stab_orders = []
    stab_types = []
    has_three = []
    for index, members in enumerate(member_sets):
        stabilizer = []
        for perm in all_color_permutations():
            table = tableau.recolor_id_table(perm)
            image = frozenset(table[i] for i in members)
            if index == 0:
                images_of_first.add(image)
            if image == members:
                stabilizer.append(perm)
        stab_orders.append(len(stabilizer))
        types = Counter(permutation_cycle_type(p) for p in stabilizer)
        stab_types.append(tuple(sorted(types.items())))
        has_three.append(any(3 in t for t in types))
    orbit = images_of_first
    single = all(m in orbit for m in member_sets)
    return OrbitReport(
        orbit_size=len(orbit),
        single_orbit=single and len(orbit) == len(member_sets),
        stabilizer_orders=tuple(stab_orders),
        stabilizer_cycle_types=tuple(stab_types),
        has_three_cycle=tuple(has_three),
    )


# ---------------------------------------------------------------------------
# Exhaustive scan of all C(30,12) sets.  Combinations stream in
# lexicographic order; chunks are filtered target by target with numpy, so
# almost every row dies within the first few targets.  A checkpoint file
# records the resume point and the sets found so far.
# ---------------------------------------------------------------------------


@dataclass
class SearchState:
    completed: int
    last_combo: tuple
    found: list          # masks of universal sets, ascending discovery order
    total: int = TOTAL_TWELVE_SETS

    @property
    def finished(self):
        return self.completed >= self.total


def _combinations_from(start):
    """Lexicographic 12-combinations of 0..29, starting after ``start``."""
    if start is None:
        combo = list(range(SET_SIZE))
        yield tuple(combo)
    else:
        combo = list(start)
    while True:
        i = SET_SIZE - 1
        while i >= 0 and combo[i] == 30 - SET_SIZE + i:
            i -= 1
        if i < 0:
            return
        combo[i] += 1
        for j in range(i + 1, SET_SIZE):
            combo[j] = combo[j - 1] + 1
        yield tuple(combo)


def _is_int_list(value):
    return isinstance(value, list) and all(type(x) is int for x in value)


def _load_checkpoint(path):
    """Read a scan state, raising CheckpointError if the file holds none."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"checkpoint {path} cannot be read ({exc.strerror})") from None
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} is not JSON ({exc})") from None
    if not isinstance(raw, dict) or set(raw) != {"completed", "last_combo", "found", "total"}:
        raise CheckpointError(
            f"checkpoint {path} must be an object with completed, last_combo, found and total"
        )
    completed, combo = raw["completed"], raw["last_combo"]
    if not (
        type(completed) is int
        and 0 <= completed <= TOTAL_TWELVE_SETS
        and type(raw["total"]) is int
        and raw["total"] == TOTAL_TWELVE_SETS
        and _is_int_list(raw["found"])
        and _is_int_list(combo)
        and len(combo) == (SET_SIZE if completed else 0)
        and combo == sorted(set(combo))
        and all(0 <= c < 30 for c in combo)
    ):
        raise CheckpointError(f"checkpoint {path} does not hold a scan state of the C(30,12) sets")
    return SearchState(completed=completed, last_combo=tuple(combo), found=raw["found"])


def _store_checkpoint(path, state):
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "completed": state.completed,
                    "last_combo": list(state.last_combo),
                    "found": state.found,
                    "total": state.total,
                },
                fh,
            )
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"checkpoint {path} cannot be written ({exc.strerror})") from None


def exhaustive_search(
    checkpoint_path=None,
    budget_combinations=None,
    budget_seconds=None,
    chunk_size=250_000,
    tableau=None,
):
    """Scan 12-sets for universality, resumably.

    Returns a SearchState; ``finished`` tells whether the space is exhausted
    (otherwise a budget ran out and the checkpoint records the resume
    point).  With no budget the full scan takes a few minutes.
    """
    tableau = tableau or build_tableau()
    closed = _buildable_closure()
    bits = _slot_bits_by_target()
    state = None
    if checkpoint_path and os.path.exists(checkpoint_path):
        state = _load_checkpoint(checkpoint_path)
        if state.finished:
            return state
    if state is None:
        state = SearchState(completed=0, last_combo=(), found=[])

    start = state.last_combo if state.completed else None
    stream = _combinations_from(start)
    deadline = time.monotonic() + budget_seconds if budget_seconds else None
    spent = 0

    while True:
        if budget_combinations is not None and spent >= budget_combinations:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        take = chunk_size
        if budget_combinations is not None:
            take = min(take, budget_combinations - spent)
        chunk = list(itertools.islice(stream, take))
        if not chunk:
            break
        ids_matrix = np.asarray(chunk, dtype=np.int64)
        alive = np.arange(len(chunk))
        for t in range(30):
            row = bits[t]
            masks = np.zeros(len(alive), dtype=np.uint32)
            sub = ids_matrix[alive]
            for col in range(SET_SIZE):
                masks |= row[sub[:, col]]
            alive = alive[closed[masks]]
            if len(alive) == 0:
                break
        for index in alive:
            mask = 0
            for c in chunk[index]:
                mask |= 1 << int(c)
            state.found.append(mask)
        state.completed += len(chunk)
        state.last_combo = chunk[-1]
        spent += len(chunk)
        if checkpoint_path:
            _store_checkpoint(checkpoint_path, state)

    if checkpoint_path:
        _store_checkpoint(checkpoint_path, state)
    return state
