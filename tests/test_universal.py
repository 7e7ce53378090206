import json
import random
from collections import Counter
from math import comb

import numpy as np
import pytest

from madness import __version__, universal
from madness.cubes import build_tableau, mirror_name
from madness.reports import EXPECTED_SUBSET_BUILD, EXPECTED_UNIVERSAL_SETS, data_hash
from madness.sweeps import combination_rows
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


def _reference_sample(k, seed, index):
    """The stream sample_sets reproduces: numpy's generator, one integers() draw per position."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    ids = list(range(30))
    for i in range(k):
        j = int(rng.integers(i, 30))
        ids[i], ids[j] = ids[j], ids[i]
    return sorted(ids[:k])


@pytest.mark.parametrize("k", [8, 12, 29, 30])
@pytest.mark.parametrize("seed", [0, 7, 2**32 + 1, 2**64 + 5, 2**130 + 11])
def test_sample_sets_matches_numpy_stream(k, seed):
    # multi-word seeds, and run entropy longer than the pool of four words
    expected = [_reference_sample(k, seed, index) for index in range(150)]
    assert sample_sets(k, 150, seed).tolist() == expected


def test_sample_sets_redrawn_row():
    # numpy rejects the first draw of this row and draws again
    row = sample_sets(12, 10053, 64)[10052].tolist()
    assert row == _reference_sample(12, 64, 10052)
    assert row == [0, 1, 4, 8, 9, 13, 14, 18, 19, 21, 26, 28]


def test_sample_sets_across_a_block_edge():
    samples = sample_sets(12, 65537, 3)
    assert np.array_equal(samples[:10], sample_sets(12, 10, 3))
    assert samples[65536].tolist() == _reference_sample(12, 3, 65536)
    # indices past 2**32 add a second spawn-key word
    seed_words = universal._words(3) + [0, 0, 0]
    index = np.arange(2**32, 2**32 + 4, dtype=np.uint64)
    block, redraw = universal._sample_block(12, seed_words, index)
    assert not redraw.any()
    assert block.tolist() == [_reference_sample(12, 3, int(i)) for i in index]


def test_sample_distribution_statistics():
    stats, counts = sample_distribution(12, 2000, 7)
    assert stats.n == len(counts) == 2000
    assert sum(stats.histogram.values()) == 2000
    assert stats.min >= 1
    assert stats.max <= 30
    assert 0 < stats.mean < 30
    again, _ = sample_distribution(12, 2000, 7)
    assert again == stats


def test_sample_distribution_agrees_with_slow_count():
    t = build_tableau()
    ids_matrix = sample_sets(10, 12, 99)
    _, counts = sample_distribution(10, 12, 99, t)
    for row, count in zip(ids_matrix, counts):
        assert buildable_count_direct(tuple(int(i) for i in row), t) == int(count)


def test_orbit_report():
    report = orbit_and_stabilizer()
    assert report.orbit_size == EXPECTED_UNIVERSAL_SETS
    assert report.single_orbit
    assert report.stabilizer_orders == (72,) * EXPECTED_UNIVERSAL_SETS
    assert all(report.has_three_cycle)
    assert len(set(report.stabilizer_cycle_types)) == 1


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
    # a zero budget is expired at once: the scan must stop before the first step
    state = exhaustive_search(checkpoint_path=path, budget_seconds=0)
    assert not state.finished
    assert state.completed == 0
    resumed = exhaustive_search(checkpoint_path=path, budget_combinations=5_000)
    assert resumed.completed == 5_000


def test_zero_second_budget_stops_before_the_first_chunk():
    assert exhaustive_search(budget_seconds=0, budget_combinations=1_000).completed == 0


def test_resume_from_a_rank_finds_the_first_universal_set(tmp_path):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(dict(GOOD_CHECKPOINT, completed=10_236_000)), encoding="utf-8")
    state = exhaustive_search(checkpoint_path=str(path), budget_combinations=1_000)
    assert state.completed == 10_237_000
    # The first universal set in lexicographic order of cube ids, rank 10,236,518.
    first = min(conjecture_sets(), key=lambda c: build_tableau().ids_of_mask(c.mask))
    assert state.found == [first.mask]


GOOD_CHECKPOINT = {
    "completed": 12,
    "found": [],
    "total": TOTAL_TWELVE_SETS,
    "version": __version__,
    "data": data_hash(),
}


@pytest.mark.parametrize("change", [
    {"completed": "12"},
    {"completed": -1},
    {"completed": True},
    {"total": 1000},
    {"found": [1.5]},
    {"found": None},
    {"found": [-1]},
    {"found": [7]},
    {"found": [1 << 30]},
    {"version": "0.0.0"},
    {"data": "0" * 16},
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


def _reference_scan(begin, end):
    """Universal sets among ranks begin..end-1: every set against all 30 targets.

    Unranks each set and ORs the slot bits of its 12 cubes per target, with
    no prefix blocks, precomputed columns or bitmask lookups.
    """
    rows = combination_rows(30, SET_SIZE, np.arange(begin, end))
    bits, closed = universal._slot_bits_by_target(), universal._buildable_closure()
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


def _scan_window(tmp_path, begin, end):
    path = tmp_path / "window.json"
    path.write_text(json.dumps(dict(GOOD_CHECKPOINT, completed=begin)), encoding="utf-8")
    return exhaustive_search(checkpoint_path=str(path), budget_combinations=end - begin)


@pytest.mark.parametrize("permissive", [False, True])
@pytest.mark.parametrize("begin, end", [
    (0, 3_000),
    (480_700 - 2_000, 480_700 + 2_000),              # the end of the first, largest block
    (10_236_000, 10_240_000),                        # the first universal set
    (TOTAL_TWELVE_SETS - 3_000, TOTAL_TWELVE_SETS),  # the one-set blocks at the end
])
def test_block_kernel_matches_the_reference_scan(begin, end, permissive, tmp_path, monkeypatch):
    if permissive:
        # Universal sets are too rare to show a skipped set or target; with a
        # closure that passes 90 % of slot masks a few percent of all sets
        # pass every target, so every stage and block edge shows in ``found``.
        closure = np.random.default_rng(7).random(1 << 21) < 0.9
        monkeypatch.setattr(universal, "_buildable_closure", lambda: closure)
    expected = _reference_scan(begin, end)
    assert len(expected) > 50 if permissive else len(expected) <= 1
    state = _scan_window(tmp_path, begin, end)
    assert state.completed == end
    assert state.found == expected


def test_block_kernel_finds_each_universal_set_from_inside_its_block(tmp_path):
    tableau = build_tableau()
    for candidate in conjecture_sets(tableau):
        rank = _lexicographic_rank(tableau.ids_of_mask(candidate.mask))
        assert tuple(combination_rows(30, SET_SIZE, [rank])[0]) == tableau.ids_of_mask(candidate.mask)
        begin, end = max(0, rank - 500), min(TOTAL_TWELVE_SETS, rank + 500)
        state = _scan_window(tmp_path, begin, end)
        assert state.found == _reference_scan(begin, end) == [candidate.mask]


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
