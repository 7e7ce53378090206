import hashlib
import itertools
import json
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from madness import sweeps, universal
from madness.cubes import (
    COLUMN_LETTERS,
    ROW_LETTERS,
    all_color_permutations,
    build_tableau,
    mirror_name,
)
from madness.reports import (
    EXPECTED_BUILDABLE_DISTRIBUTION,
    EXPECTED_SUBSET_BUILD,
    EXPECTED_UNIVERSAL_SETS,
    _source_hash,
)
from madness.solver import SLOT_COUNT, SLOT_ENDPOINTS, TARGET_SLOT, VERTEX_COUNT, build_target_graph
from madness.sweeps import combination_rows, slot_table
from madness.universal import (
    SET_SIZE,
    TOTAL_TWELVE_SETS,
    CheckpointError,
    SampleCountError,
    SetSizeError,
    buildable_count,
    buildable_count_direct,
    conjecture_sets,
    exhaustive_search,
    orbit_and_stabilizer,
    per_target_analysis,
    sample_distribution,
    sample_sets,
    subset_build_distribution,
)


def test_conjecture_sets_shape():
    sets = conjecture_sets()
    assert len(sets) == EXPECTED_UNIVERSAL_SETS
    assert [s.pair for s in sets] == [
        ("b", "c"), ("b", "d"), ("b", "e"), ("b", "f"),
        ("c", "d"), ("c", "e"), ("c", "f"),
        ("d", "e"), ("d", "f"), ("e", "f"),
    ]
    assert sets[0].names == (
        "Ab", "Ac", "Ba", "Bc", "Ca", "Cb", "De", "Df", "Ed", "Ef", "Fd", "Fe"
    )
    assert len({s.mask for s in sets}) == EXPECTED_UNIVERSAL_SETS
    for s in sets:
        assert bin(s.mask).count("1") == SET_SIZE


def test_conjecture_sets_are_mirror_closed_and_balanced():
    for s in conjecture_sets():
        names = set(s.names)
        assert {mirror_name(n) for n in names} == names
        rows = Counter(n[0] for n in names)
        cols = Counter(n[1] for n in names)
        assert set(rows.values()) == {2}
        assert set(cols.values()) == {2}


def test_conjecture_sets_are_universal():
    t = build_tableau()
    for s in conjecture_sets(t):
        assert buildable_count(s.names, t) == 30
        assert buildable_count(s.mask, t) == 30


def test_fast_and_direct_buildable_counts_agree():
    t = build_tableau()
    s = conjecture_sets(t)[0]
    assert buildable_count_direct(s.names, t) == 30
    rng = random.Random(41)
    for _ in range(6):
        ids = tuple(sorted(rng.sample(range(30), rng.choice([8, 9, 10]))))
        assert buildable_count(ids, t) == buildable_count_direct(ids, t)


@pytest.mark.parametrize("k", range(8, 14))
def test_targets_built_matches_the_solver_oracle(k):
    """The one counter of targets built, against the solver-only count, set by set."""
    t = build_tableau()
    rng = random.Random(100 + k)
    rows = np.array([sorted(rng.sample(range(30), k)) for _ in range(40)])
    counts = sweeps._targets_built(universal._bitmasks(rows), k)
    assert counts.dtype == np.uint8
    assert counts.tolist() == [buildable_count_direct(tuple(row), t) for row in rows.tolist()]


def test_a_nine_set_builds_with_an_unusable_cube():
    """A basis of Ba plus one of Ba's nine unusable cubes builds Ba: only an
    8-set with an unusable cube is sure not to build."""
    t = build_tableau()
    basis = t.ids(("Ac", "Ad", "Ae", "Af", "Cb", "Db", "Eb", "Fb"))    # builds Ba alone
    for extra in build_target_graph("Ba", t).unusable_ids:
        ids = tuple(sorted(basis + (extra,)))
        assert next(sweeps.buildable_collections(ids, "Ba", t), None) is not None
        expected = buildable_count_direct(ids, t)
        assert sweeps._targets_built(universal._bitmasks([ids]), 9).tolist() == [expected]


def test_buildable_count_monotone_under_growth():
    rng = random.Random(42)
    for _ in range(20):
        ids = rng.sample(range(30), 12)
        last = None
        for k in (8, 9, 10, 11, 12):
            count = buildable_count(tuple(sorted(ids[:k])))
            if last is not None:
                assert count >= last
            last = count


def test_buildable_closure_matches_its_definition():
    """Slot mask m is True iff some nonzero 8-subset of the slot table lies in m."""
    closed = universal._buildable_closure()
    nonzero = slot_table().nonzero_masks
    masks = np.arange(1 << SLOT_COUNT, dtype=np.uint32)
    sizes = sum((masks >> bit) & 1 for bit in range(SLOT_COUNT))
    assert (closed.dtype, closed.shape) == (np.bool_, (1 << SLOT_COUNT,))
    assert not closed[sizes < 8].any()
    assert np.array_equal(np.flatnonzero(closed & (sizes == 8)), np.sort(nonzero))
    rng = np.random.default_rng(15)
    sample = rng.integers(0, 1 << SLOT_COUNT, size=4096, dtype=np.uint32)
    expected = [bool(((nonzero & ~m) == 0).any()) for m in sample]
    assert closed[sample].tolist() == expected
    assert 0 < sum(expected) < len(expected)


def test_buildable_closure_memory_peak():
    slot_table()
    universal._buildable_closure.cache_clear()
    tracemalloc.start()
    try:
        universal._buildable_closure()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20, "peak %.2f MB" % (peak / 2**20)


def _hall_spanning():
    """Slot masks that span the target's transversal matroid, by Hall's condition.

    A mask spans when it can fill all 8 corners with distinct slots, and by
    Hall's theorem that holds iff every set X of corners meets at least |X|
    slots of the mask that fit some corner of X.  An edge slot fits its two
    endpoints and the target slot every corner: nothing but SLOT_ENDPOINTS
    and TARGET_SLOT is read.  Mask m sits at row m >> 11, column m & 2047.
    """
    popcount = np.array([bin(v).count("1") for v in range(1 << 11)], dtype=np.uint8)
    high, low = np.arange(1 << (SLOT_COUNT - 11)), np.arange(1 << 11)
    spanning = np.ones((len(high), len(low)), dtype=bool)
    for corners in range(1, 1 << VERTEX_COUNT):
        fits = 1 << TARGET_SLOT
        for slot, (u, v) in enumerate(SLOT_ENDPOINTS):
            if (corners >> u | corners >> v) & 1:
                fits |= 1 << slot
        meets = popcount[high & fits >> 11][:, None] + popcount[low & fits & 2047]
        spanning &= meets >= bin(corners).count("1")
    return spanning.ravel()


def test_buildable_closure_is_spanning_in_the_transversal_matroid():
    """The closure is the spanning family of a rank-8 transversal matroid.

    Slots 0-7 are a basis (eight slots that fill all eight corners), which
    is what lets the closure leave slot bits 0-7 out.
    """
    spanning = _hall_spanning()
    assert spanning[0xFF]    # 8 slots spanning a rank-8 matroid: a basis
    assert np.array_equal(spanning, universal._buildable_closure())


def test_buildable_count_validation():
    with pytest.raises(SetSizeError):
        buildable_count(tuple(range(7)))
    with pytest.raises(ValueError):
        buildable_count(("Ab", "Ab", "Ac", "Ad", "Ae", "Af", "Ba", "Ca"))


@pytest.mark.parametrize("mask", [(1 << 40) | 0xFFF, -1])
def test_buildable_count_rejects_masks_beyond_thirty_cubes(mask):
    with pytest.raises(ValueError, match="out of range"):
        buildable_count(mask)


def test_random_twelve_sets_are_rarely_universal():
    conjecture_masks = {s.mask for s in conjecture_sets()}
    rng = random.Random(43)
    for _ in range(150):
        ids = tuple(sorted(rng.sample(range(30), 12)))
        mask = sum(1 << i for i in ids)
        if mask in conjecture_masks:
            continue
        assert buildable_count(ids) < 30


def test_single_rows_do_not_give_universal_sets():
    t = build_tableau()
    # rows B and C plus two fillers: heavy overlap starves most targets
    names = tuple(t.cube(i).name for i in range(5, 15)) + ("Ab", "Ac")
    assert buildable_count(names, t) < 30


def test_per_target_analysis_structure():
    t = build_tableau()
    for s in (conjecture_sets(t)[0], conjecture_sets(t)[7]):
        analyses = per_target_analysis(s, t)
        assert len(analyses) == 30
        in_set = [a for a in analyses if a.in_set]
        out_set = [a for a in analyses if not a.in_set]
        assert len(in_set) == 12
        for a in in_set:
            assert len(a.unusable_members) == 3
            values = sorted(v for _, v in a.collections)
            assert values == [2] * 7 + [8, 8]
        for a in out_set:
            assert len(a.unusable_members) == 4
            assert [v for _, v in a.collections] == [4]
        # every buildable collection is a subset of the candidate
        members = set(s.names)
        for a in analyses:
            for names, _ in a.collections:
                assert set(names) <= members


def test_subset_build_distribution_matches_expected():
    t = build_tableau()
    for s in (conjecture_sets(t)[0], conjecture_sets(t)[4]):
        for k, expected in EXPECTED_SUBSET_BUILD.items():
            histogram = subset_build_distribution(s, k, t)
            assert histogram == expected
            assert sum(histogram.values()) == comb(SET_SIZE, k)
    assert subset_build_distribution(conjecture_sets(t)[0], 12, t) == {30: 1}


def test_subset_build_distribution_validation():
    s = conjecture_sets()[0]
    with pytest.raises(SetSizeError):
        subset_build_distribution(s, 7)
    with pytest.raises(SetSizeError):
        subset_build_distribution(s, 13)
    for k in (12.0, True, "12"):
        with pytest.raises(SetSizeError, match="subset size must be 8..12, got"):
            subset_build_distribution(s, k)
    assert subset_build_distribution(s, np.int64(12)) == {30: 1}


def test_sample_sets_reproducible():
    a = sample_sets(12, 40, 123)
    b = sample_sets(12, 40, 123)
    assert np.array_equal(a, b)
    # per-index seeding: a shorter run is a prefix of a longer one
    c = sample_sets(12, 10, 123)
    assert np.array_equal(a[:10], c)
    d = sample_sets(12, 40, 124)
    assert not np.array_equal(a, d)
    rows = np.sort(a, axis=1)
    assert np.array_equal(a, rows)
    assert a.min() >= 0 and a.max() <= 29


def test_sample_sets_validation():
    with pytest.raises(SetSizeError):
        sample_sets(7, 5, 1)
    with pytest.raises(SetSizeError):
        sample_sets(31, 5, 1)
    with pytest.raises(SampleCountError):
        sample_sets(12, 0, 1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        sample_sets(12, 5, -1)
    # k, n and seed are integers: numpy's pass, a bool or a float does not
    for k in (12.0, True):
        with pytest.raises(SetSizeError):
            sample_sets(k, 5, 1)
    for n in (5.0, True):
        with pytest.raises(SampleCountError):
            sample_sets(12, n, 1)
    for seed in (True, 1.5, 1.0, "1"):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            sample_sets(12, 3, seed)
    assert np.array_equal(sample_sets(np.int64(12), np.int64(5), np.int64(1)), sample_sets(12, 5, 1))


_MASK64 = (1 << 64) - 1


def _reference_samples(k, seed, n):
    """The first n samples, from plain ints: SplitMix64 stepped word by word."""
    state = int.from_bytes(hashlib.blake2b(str(seed).encode(), digest_size=8).digest(), "little")
    samples = []
    for _ in range(n):
        keys = []
        for cube in range(30):
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((state ^ state >> 30) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ z >> 27) * 0x94D049BB133111EB) & _MASK64
            keys.append(((z ^ z >> 31) >> 5 << 5) | cube)
        samples.append(sorted(key & 31 for key in sorted(keys)[:k]))
    return samples


@pytest.mark.parametrize("k", [8, 12, 29, 30])
@pytest.mark.parametrize("seed", [0, 7, 2**32 + 1, 2**64 + 5, 2**130 + 11])
def test_sample_sets_matches_numpy_stream(k, seed):
    # the block kernel on uint64 arrays against the word-by-word reference
    assert sample_sets(k, 150, seed).tolist() == _reference_samples(k, seed, 150)


def test_sample_sets_across_a_block_edge():
    n = universal._SAMPLE_BLOCK + 1
    samples = sample_sets(12, n, 3)
    assert np.array_equal(samples[:10], sample_sets(12, 10, 3))
    assert samples[-1].tolist() == _reference_samples(12, 3, n)[-1]


def test_least_cubes_breaks_ties_by_cube():
    # words equal above their low 5 bits tie, whatever those bits hold
    words = np.array([31 - np.arange(30), np.full(30, 7 << 40)], dtype=np.uint64)
    for k in (8, 12, 30):
        assert universal._least_cubes(words, k).tolist() == [list(range(k))] * 2


def test_sample_sets_are_uniform_against_table_2():
    # k = 8: a uniform sample's buildable counts follow Table 2 over C(30,8)
    n = 200_000
    samples = sample_sets(8, n, 1)
    counts = np.bincount(sweeps._targets_built(universal._bitmasks(samples), 8), minlength=6)
    observed = [*counts[:4], counts[4:].sum()]
    table = EXPECTED_BUILDABLE_DISTRIBUTION
    expected = [n * table[b] / comb(30, 8) for b in range(4)]
    expected.append(n * (table[4] + table[5]) / comb(30, 8))
    chi_square = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    assert chi_square <= 23.51, chi_square  # 4 degrees of freedom, p = 1e-4
    # each cube in 8/30 of the samples, within 5 standard deviations
    p = 8 / 30
    inclusions = np.bincount(samples.ravel(), minlength=30)
    assert np.abs(inclusions - n * p).max() <= 5 * (n * p * (1 - p)) ** 0.5


def test_sampling_loads_no_numpy_random():
    script = "\n".join([
        "import sys, numpy",
        "before = 'numpy.random' in sys.modules",
        "from madness.universal import sample_distribution",
        "sample_distribution(12, 200, 1)",
        "assert ('numpy.random' in sys.modules) == before, 'numpy.random loaded'",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_sample_distribution_statistics():
    stats, counts = sample_distribution(12, 2000, 7)
    assert stats.n == len(counts) == 2000
    assert sum(stats.histogram.values()) == 2000
    assert stats.min >= 1
    assert stats.max <= 30
    assert 0 < stats.mean < 30
    again, _ = sample_distribution(np.int64(12), np.int64(2000), np.int64(7))
    assert again == stats
    assert json.dumps(again._asdict()) == json.dumps(stats._asdict())


def test_sample_distribution_agrees_with_slow_count():
    t = build_tableau()
    ids_matrix = sample_sets(10, 12, 99)
    _, counts = sample_distribution(10, 12, 99)
    for row, count in zip(ids_matrix, counts):
        assert buildable_count_direct(tuple(int(i) for i in row), t) == int(count)


def test_first_moment_follows_from_the_closure_popcounts():
    """Sum of j n_k(j) over the k-sets is 30 * sum_i C(9, k - i) s_i.

    s_i counts the spanning i-subsets of the 21 slots, the closure's masks of
    popcount i.  Every target has 21 usable cubes, one per slot, and 9
    unusable ones, and the recolorings carry Ba's closure to each target's.
    """
    masks = np.flatnonzero(universal._buildable_closure())
    s = np.bincount(sum(masks >> bit & 1 for bit in range(SLOT_COUNT)), minlength=SLOT_COUNT + 1).tolist()
    assert s[:8] == [0] * 8
    assert s[8:] == [
        133_680, 244_048, 324_900, 340_788, 290_126, 202_638, 116_160,
        54_256, 20_349, 5_985, 1_330, 210, 21, 1,
    ]

    def first_moment(k):
        return 30 * sum(comb(9, k - i) * s_i for i, s_i in enumerate(s) if 0 <= k - i <= 9)

    assert first_moment(8) == 4_010_400
    assert first_moment(8) == sum(j * n for j, n in sweeps.distribution_buildable()[0].items())
    assert first_moment(12) == 1_571_919_900
    assert Fraction(first_moment(12), comb(30, 12)) == Fraction(20_958_932, 1_153_243)    # 18.1739...
    stats, _ = sample_distribution(12, 20_000, 7)
    assert abs(stats.mean - first_moment(12) / comb(30, 12)) < 0.1, stats.mean


def test_orbit_report():
    report = orbit_and_stabilizer()
    assert report.orbit_size == EXPECTED_UNIVERSAL_SETS
    assert report.single_orbit
    assert report.stabilizer_orders == (72,) * EXPECTED_UNIVERSAL_SETS


def test_search_budget_and_resume(tmp_path):
    path = str(tmp_path / "scan.json")
    first = exhaustive_search(checkpoint_path=path, budget_combinations=30_000)
    assert not first.finished
    assert first.completed == 30_000
    assert first.found == []
    second = exhaustive_search(checkpoint_path=path, budget_combinations=30_000)
    assert second.completed == 60_000
    fresh = exhaustive_search(budget_combinations=60_000)
    assert fresh.completed == second.completed
    assert fresh.found == second.found


def test_search_time_budget(tmp_path):
    path = str(tmp_path / "scan.json")
    # a zero budget scans nothing, but still stores the checkpoint
    state = exhaustive_search(checkpoint_path=path, budget_combinations=0)
    assert not state.finished
    assert state.completed == 0
    resumed = exhaustive_search(checkpoint_path=path, budget_combinations=5_000)
    assert resumed.completed == 5_000


@pytest.mark.parametrize("budget", [-1, True, 1.5, 2.0, "10"])
def test_search_budget_must_be_a_non_negative_integer(budget, tmp_path):
    path = tmp_path / "scan.json"
    with pytest.raises(ValueError, match="a budget of combinations must be at least 0, got"):
        exhaustive_search(checkpoint_path=str(path), budget_combinations=budget)
    assert not path.exists()


def test_search_takes_a_numpy_integer_budget(tmp_path):
    path = tmp_path / "scan.json"
    state = exhaustive_search(checkpoint_path=str(path), budget_combinations=np.int64(5_000))
    assert type(state.completed) is int and state.completed == 5_000
    assert json.loads(path.read_text(encoding="utf-8"))["completed"] == 5_000


def test_checkpoint_holds_the_scan_state_and_the_source_hash(tmp_path):
    path = tmp_path / "scan.json"
    for completed in (1_000_000, 2_000_000):    # a fresh checkpoint, then a resume
        exhaustive_search(checkpoint_path=str(path), budget_combinations=1_000_000)
        stored = json.loads(path.read_text(encoding="utf-8"))
        assert stored == {"completed": completed, "found": [], "source": _source_hash()}


def test_search_stores_each_checkpoint_once(tmp_path, monkeypatch):
    stored = []
    store = universal._store_checkpoint
    monkeypatch.setattr(universal, "_store_checkpoint", lambda *a: stored.append(a[1].completed) or store(*a))
    path = str(tmp_path / "scan.json")
    exhaustive_search(checkpoint_path=path, budget_combinations=5_000_000)
    assert stored == [5_000_000]
    stored.clear()
    exhaustive_search(checkpoint_path=path, budget_combinations=0)
    assert stored == [5_000_000]


def test_checkpoint_in_a_missing_directory_fails_before_the_first_step(tmp_path, monkeypatch):
    def scan_nothing(*args):
        raise AssertionError("scanned before checking the checkpoint's directory")

    monkeypatch.setattr(universal, "_scan_step", scan_nothing)
    path = tmp_path / "missing" / "scan.json"
    with pytest.raises(CheckpointError, match=re.escape("%s is not a directory" % path.parent)):
        exhaustive_search(checkpoint_path=str(path), budget_combinations=3_000_000)
    assert not path.parent.exists()


def test_search_state_total_is_a_constant_not_a_field():
    state = universal.SearchState(completed=TOTAL_TWELVE_SETS, found=[])
    assert state.total == universal.SearchState.total == TOTAL_TWELVE_SETS and state.finished
    with pytest.raises(TypeError):
        universal.SearchState(completed=0, found=[], total=5)


def test_zero_second_budget_stops_before_the_first_chunk():
    assert exhaustive_search(budget_combinations=0).completed == 0


def test_resume_from_a_rank_finds_the_first_universal_set(tmp_path):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(dict(GOOD_CHECKPOINT, completed=10_236_000)), encoding="utf-8")
    state = exhaustive_search(checkpoint_path=str(path), budget_combinations=1_000)
    assert state.completed == 10_237_000
    # The first universal set in lexicographic order of cube ids, rank 10,236,518.
    first = min(conjecture_sets(), key=lambda c: build_tableau().ids(c.mask))
    assert state.found == [first.mask]


GOOD_CHECKPOINT = {"completed": 12, "found": [], "source": _source_hash()}


@pytest.mark.parametrize("change", [
    {"completed": "12"},
    {"completed": -1},
    {"completed": True},
    {"total": TOTAL_TWELVE_SETS},    # a field of the old format: an extra key now
    {"found": [1.5]},
    {"found": None},
    {"found": [-1]},
    {"found": [7]},
    {"found": [1 << 30]},
    {"source": "0" * 16},
    {"source": None},
    {"last_combo": list(range(SET_SIZE))},
    {"extra": 1},
])
def test_malformed_checkpoint_is_rejected(change, tmp_path):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(dict(GOOD_CHECKPOINT, **change)), encoding="utf-8")
    with pytest.raises(CheckpointError):
        exhaustive_search(checkpoint_path=str(path), budget_combinations=0)
    path.write_text(json.dumps(GOOD_CHECKPOINT), encoding="utf-8")
    assert exhaustive_search(checkpoint_path=str(path), budget_combinations=0).completed == 12


def _universal_sets_by_rank():
    """(lexicographic rank, mask) of the ten universal sets, ascending."""
    tableau = build_tableau()
    return sorted(
        (_lexicographic_rank(tableau.ids(c.mask)), c.mask) for c in conjecture_sets(tableau)
    )


@pytest.mark.parametrize(
    "case", ["not-universal", "duplicate", "out-of-order", "not-yet-scanned", "missing", "one-missing"]
)
def test_checkpoint_with_sets_the_scan_did_not_find_is_rejected(case, tmp_path):
    (first_rank, first), (second_rank, second) = _universal_sets_by_rank()[:2]
    completed, found = {
        "not-universal": (TOTAL_TWELVE_SETS, [(1 << SET_SIZE) - 1]),
        "duplicate": (first_rank + 1, [first, first]),
        "out-of-order": (second_rank + 1, [second, first]),
        "not-yet-scanned": (first_rank, [first]),
        "missing": (TOTAL_TWELVE_SETS, []),         # "0 universal sets found" after a full scan
        "one-missing": (second_rank + 1, [second]),
    }[case]
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(dict(GOOD_CHECKPOINT, completed=completed, found=found)), encoding="utf-8")
    with pytest.raises(CheckpointError, match="lists sets that the scan did not find"):
        exhaustive_search(checkpoint_path=str(path), budget_combinations=0)


def test_checkpoint_with_the_first_universal_set_loads(tmp_path):
    rank, first = _universal_sets_by_rank()[0]
    assert rank == 10_236_518
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(dict(GOOD_CHECKPOINT, completed=rank + 1, found=[first])), encoding="utf-8")
    state = exhaustive_search(checkpoint_path=str(path), budget_combinations=0)
    assert (state.completed, state.found) == (rank + 1, [first])


def test_scan_tables_match_unranked_combinations():
    """The folded scan tables equal the unranked combinations, masked one by one."""
    columns = range(universal._MASK_COLUMNS)
    suffix_rows = combination_rows(25, 7, np.arange(comb(25, 7))) + 5
    prefix_rows = combination_rows(23, 5, np.arange(comb(23, 5)))
    suffixes, prefixes = universal._bitmasks(suffix_rows), universal._bitmasks(prefix_rows)
    sizes = [comb(29 - int(row[-1]), 7) for row in prefix_rows]
    expected = (
        suffixes,
        np.stack([universal._slot_masks(suffixes, t) for t in columns]),
        prefixes,
        np.stack([universal._slot_masks(prefixes, t) for t in columns]),
        np.concatenate(([0], np.cumsum(sizes))),
    )
    tables = universal._scan_tables()
    got = (tables.suffixes, tables.columns, tables.prefixes, tables.prefix_masks, tables.starts)
    for table, oracle in zip(got, expected):
        assert table.dtype == oracle.dtype
        assert np.array_equal(table, oracle)
    assert tables.starts[-1] == TOTAL_TWELVE_SETS


def test_scan_memory_peaks():
    """Building the scan tables, and one step over the first block of 480,700 sets."""
    closed = universal._buildable_closure()
    universal._slot_bits_by_target()
    sweeps._slot_lookup()
    universal._scan_tables.cache_clear()
    tracemalloc.start()
    try:
        tables = universal._scan_tables()
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        resident = tracemalloc.get_traced_memory()[0]
        assert universal._scan_step(tables, closed, 0, int(tables.starts[1])) == []
        step_peak = tracemalloc.get_traced_memory()[1] - resident
    finally:
        tracemalloc.stop()
    assert tables.starts[1] == 480_700
    assert build_peak < 13 * 2**20, "tables peak %.2f MB" % (build_peak / 2**20)
    assert step_peak < 2 * 2**20, "step peak %.2f MB" % (step_peak / 2**20)


def _reference_scan(begin, end, closed, k=SET_SIZE):
    """The k-sets among ranks begin..end-1 that pass ``closed`` for all 30 targets.

    Unranks each set and ORs the slot bits of its k cubes per target, with
    no prefix blocks, precomputed columns or bitmask lookups.
    """
    rows = combination_rows(30, k, np.arange(begin, end))
    bits = universal._slot_bits_by_target()
    keep = np.ones(len(rows), dtype=bool)
    for t in range(30):
        keep &= closed[np.bitwise_or.reduce(bits[t][rows], axis=1)]
    return [sum(1 << int(c) for c in row) for row in rows[keep]]


def _lexicographic_rank(ids, n=30):
    """Rank of a sorted combination of range(n) among those of its size."""
    rank, k = 0, len(ids)
    for i, c in enumerate(ids):
        low = ids[i - 1] + 1 if i else 0
        rank += sum(comb(n - 1 - v, k - 1 - i) for v in range(low, c))
    return rank


def _scan_window(tmp_path, begin, end, leg=None):
    """Resume a scan at rank begin for end - begin sets: (its last state, the sets it found).

    The window is scanned in legs of at most ``leg`` sets (one leg by
    default).  Each leg resumes from a checkpoint that lists the universal
    sets ranked below its first rank, as a scan that got there would have.
    """
    path = tmp_path / "window.json"
    step, found = leg or end - begin, []
    for at in range(begin, end, step):
        before = [mask for rank, mask in _universal_sets_by_rank() if rank < at]
        path.write_text(json.dumps(dict(GOOD_CHECKPOINT, completed=at, found=before)), encoding="utf-8")
        state = exhaustive_search(checkpoint_path=str(path), budget_combinations=min(step, end - at))
        assert state.found[: len(before)] == before
        found += state.found[len(before) :]
    return state, found


# The whole blocks of the first three cubes 0, 1, 2 and a fourth of 14 or
# more: 36 small blocks of all eight sizes, 3,432 sets down to 1, between
# partial blocks on either side.
SMALL_BLOCKS = (4_675_385, 4_686_825)


@pytest.mark.parametrize("permissive", [False, True])
@pytest.mark.parametrize("begin, end", [
    (0, 3_000),
    (0, 150_000),                                    # several filter chunks of the first block
    (480_700 - 2_000, 480_700 + 2_000),              # the end of the first, largest block
    (10_236_000, 10_240_000),                        # the first universal set
    (TOTAL_TWELVE_SETS - 3_000, TOTAL_TWELVE_SETS),  # the one-set blocks at the end
    (SMALL_BLOCKS[0] - 1_000, SMALL_BLOCKS[1] + 1_000),
])
def test_block_kernel_matches_the_reference_scan(begin, end, permissive, tmp_path, monkeypatch):
    closure = universal._buildable_closure()
    if permissive:
        # Universal sets are too rare to show a skipped set or target; with a
        # closure that passes 90 % of slot masks a few percent of all sets
        # pass every target, so every stage and block edge shows in ``found``.
        closure = np.random.default_rng(7).random(1 << 21) < 0.9
        monkeypatch.setattr(universal, "_buildable_closure", lambda: closure)
    expected = _reference_scan(begin, end, closure)
    assert len(expected) > 50 if permissive else len(expected) <= 1
    # Resumed legs of 3,000 sets, so that leg edges fall among small blocks.
    state, found = _scan_window(tmp_path, begin, end, leg=3_000)
    assert state.completed == end
    assert found == expected


@pytest.mark.parametrize("begin, end", [
    (0, 150_000),                                    # chunk edges inside the first block
    (480_700 - 70_000, 480_700 + 70_000),            # a chunk edge on each side of a block edge
    (SMALL_BLOCKS[0] - 1_000, SMALL_BLOCKS[1] + 1_000),
])
def test_block_kernel_keeps_every_set_when_every_mask_builds(begin, end):
    """With a closure that passes every slot mask, each rank comes out once, in order."""
    closure = np.ones(1 << SLOT_COUNT, dtype=bool)
    rows = combination_rows(30, SET_SIZE, np.arange(begin, end))
    found = universal._scan_step(universal._scan_tables(), closure, begin, end)
    assert found == universal._bitmasks(rows).tolist()


def test_small_blocks_split_over_several_passes_keep_every_set(monkeypatch):
    """Passes of 4,096 sets over the last 20,000: the 39 blocks of 120 sets take two."""
    closure = np.ones(1 << SLOT_COUNT, dtype=bool)
    monkeypatch.setattr(universal, "_CHUNK", universal._SMALL)
    begin, end = TOTAL_TWELVE_SETS - 20_000, TOTAL_TWELVE_SETS
    rows = combination_rows(30, SET_SIZE, np.arange(begin, end))
    found = universal._scan_step(universal._scan_tables(), closure, begin, end)
    assert found == universal._bitmasks(rows).tolist()


@pytest.mark.parametrize("begin, end", [
    (0, 5_000),
    (comb(30, 13) - 20_000, comb(30, 13)),
])
def test_block_kernel_scans_thirteen_sets(begin, end):
    """Six-cube prefixes over the same suffix table, against the reference scan."""
    closure = np.random.default_rng(7).random(1 << 21) < 0.9
    expected = _reference_scan(begin, end, closure, k=13)
    assert len(expected) > 50
    assert universal._scan_step(universal._scan_tables(13), closure, begin, end) == expected


def test_scan_step_filters_by_the_closure_it_is_handed(monkeypatch):
    """The step never fetches the cached closure: a scan of other closures needs no patch."""
    def fetch(*args):
        raise AssertionError("the scan step fetched the cached closure")

    monkeypatch.setattr(universal, "_buildable_closure", fetch)
    closure = np.random.default_rng(11).random(1 << SLOT_COUNT) < 0.9
    begin, end = 480_700 - 2_000, 480_700 + 2_000    # the end of the first block
    expected = _reference_scan(begin, end, closure)
    assert len(expected) > 50
    assert universal._scan_step(universal._scan_tables(), closure, begin, end) == expected


def test_block_kernel_finds_each_universal_set_from_inside_its_block(tmp_path):
    tableau = build_tableau()
    for candidate in conjecture_sets(tableau):
        rank = _lexicographic_rank(tableau.ids(candidate.mask))
        assert tuple(combination_rows(30, SET_SIZE, [rank])[0]) == tableau.ids(candidate.mask)
        begin, end = max(0, rank - 500), min(TOTAL_TWELVE_SETS, rank + 500)
        state, found = _scan_window(tmp_path, begin, end)
        assert found == _reference_scan(begin, end, universal._buildable_closure()) == [candidate.mask]


def test_scan_finds_every_universal_thirteen_set():
    """u(13) = 53,100: all C(30,13) sets through the block kernel, 2,000,000 at a time."""
    tables, total = universal._scan_tables(13), comb(30, 13)
    assert tables.starts[-1] == total == 119_759_850
    closed, found = universal._buildable_closure(), []
    for begin in range(0, total, 2_000_000):
        found += universal._scan_step(tables, closed, begin, min(total, begin + 2_000_000))
    tableau = build_tableau()
    assert found == sorted(set(found), key=tableau.ids)    # each once, in rank order
    assert len(found) == 53_100
    # A universal 12-set plus any of the other 18 cubes is universal, and no
    # two of the ten share more than 4 cubes, so no 13-set holds two of them.
    twelve = [c.mask for c in conjecture_sets(tableau)]
    assert max(bin(a & b).count("1") for a, b in itertools.combinations(twelve, 2)) <= 4
    extensions = {m | 1 << c for m in twelve for c in range(30) if not m >> c & 1}
    assert len(extensions) == 180 and extensions <= set(found)
    assert len(found) - len(extensions) == 52_920    # the minimal universal 13-sets


def _counts_of_every(k):
    """Bitmasks and buildable counts of all C(30,k) sets, in rank order, a slice at a time."""
    total, parts = comb(30, k), []
    for begin in range(0, total, 1 << 16):
        rows = combination_rows(30, k, np.arange(begin, min(total, begin + (1 << 16))))
        masks = universal._bitmasks(rows)
        parts.append((masks, sweeps._targets_built(masks, k)))
    return [np.concatenate(column) for column in zip(*parts)]


def test_every_twenty_five_set_is_universal():
    """u(25) = C(30,25): every complement of a 5-set builds all 30 targets."""
    masks, counts = _counts_of_every(25)
    assert len(masks) == 142_506
    assert (counts == 30).all()


def test_forty_twenty_four_sets_are_not_universal():
    """u(24) = 593,735: the complements of 40 six-sets build 24 targets, the rest all 30."""
    masks, counts = _counts_of_every(24)
    assert len(masks) == 593_775
    short = masks[counts < 30]
    assert len(short) == 40 and (counts[counts < 30] == 24).all()
    # Each removed six-set takes one cube from every row and every column,
    # and its letters run in two 3-cycles, like Ab Bc Ca | De Ef Fd: there
    # are C(6,3)/2 ways to split the letters and 2 x 2 ways to cycle them.
    tableau = build_tableau()
    removed = ((1 << 30) - 1) ^ short.astype(np.int64)
    # Two 3-cycles: no fixed point, and p applied three times is the identity.
    cycles = [
        p for p in all_color_permutations()
        if all(p[c - 1] != c and p[p[p[c - 1] - 1] - 1] == c for c in range(1, 7))
    ]
    assert sorted(removed.tolist()) == sorted(
        tableau.mask(r + COLUMN_LETTERS[p[i] - 1] for i, r in enumerate(ROW_LETTERS)) for p in cycles
    )
    # The targets that such a 24-set misses are exactly its six missing cubes.
    closed = universal._buildable_closure()
    missed = sum(
        (~closed[sweeps._slot_masks(short, t)]).astype(np.int64) << t for t in range(30)
    )
    assert (missed == removed).all()


def test_budgets_that_split_a_block_match_one_run(tmp_path):
    path = str(tmp_path / "scan.json")
    exhaustive_search(checkpoint_path=path, budget_combinations=5_000_000)
    split = exhaustive_search(checkpoint_path=path, budget_combinations=5_236_519)
    fresh = exhaustive_search(budget_combinations=10_236_519)
    assert split.completed == fresh.completed == 10_236_519
    assert split.found == fresh.found
    assert len(fresh.found) == 1


def test_search_space_size():
    assert TOTAL_TWELVE_SETS == comb(30, 12) == 86_493_225


def test_a_search_state_advances_in_place():
    state = universal.SearchState(completed=0, found=[])
    state.completed = TOTAL_TWELVE_SETS
    state.found.append(1)
    assert state.finished and (state.completed, state.found) == (TOTAL_TWELVE_SETS, [1])
