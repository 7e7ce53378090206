import itertools
import random
import subprocess
import sys
import tracemalloc
from math import comb

import numpy as np
import pytest

from madness import sweeps
from madness.cubes import all_color_permutations, build_tableau, mirror_name
from madness.reports import (
    EXPECTED_BUILDABLE_DISTRIBUTION,
    EXPECTED_FIVE_TARGET_COUNT,
    EXPECTED_MAX_COLLECTIONS,
    EXPECTED_SOLUTION_DISTRIBUTION,
)
from madness.solver import (
    SLOT_COUNT,
    SLOT_ENDPOINTS,
    TARGET_SLOT,
    _cell_fits,
    build_target_graph,
    classify_edges,
    solution_number,
    solution_number_formula,
)
from madness.sweeps import (
    TOTAL_COLLECTIONS,
    FiveTargetRule,
    InvalidRuleError,
    buildable_mask_table,
    buildable_targets,
    combination_rows,
    count_max_collections,
    distribution_buildable,
    distribution_for_target,
    five_target_record,
    five_target_records,
    five_target_rules,
    slot_table,
)
from madness.universal import conjecture_sets


def ids_of_mask(mask):
    return tuple(i for i in range(30) if mask >> i & 1)


def test_collection_totals():
    assert TOTAL_COLLECTIONS == comb(30, 8)


@pytest.mark.parametrize("k", range(8, 13))
def test_combination_rows_match_itertools_at_every_rank(k):
    rows = combination_rows(12, k, np.arange(comb(12, k)))
    assert rows.dtype == np.uint8
    assert rows.tolist() == [list(c) for c in itertools.combinations(range(12), k)]


def test_combination_rows_of_the_twelve_sets():
    # Ranks 0 and 5,000,000 (a benchmark scan leg's end), 10,236,518 (the
    # first universal set) and the last, against one pass of itertools.
    ranks = [0, 5_000_000, 10_236_518]
    stream = itertools.combinations(range(30), 12)
    expected, position = [], 0
    for rank in ranks:
        expected.append(list(next(itertools.islice(stream, rank - position, None))))
        position = rank + 1
    ranks.append(comb(30, 12) - 1)
    expected.append(list(range(18, 30)))
    assert combination_rows(30, 12, ranks).tolist() == expected
    first_universal = min(ids_of_mask(c.mask) for c in conjecture_sets())
    assert expected[2] == list(first_universal)
    assert "combination_rows" in sweeps.__all__


def test_slot_table_census():
    st = slot_table()
    assert len(st.nonzero_masks) == len(st.nonzero_values)
    assert st.distribution() == EXPECTED_SOLUTION_DISTRIBUTION
    assert all(bin(int(m)).count("1") == 8 for m in st.nonzero_masks[:100])


def test_slot_table_matches_union_find_on_every_subset():
    """The census against classify_edges + solution_number_formula, all C(21,8)."""
    masks, values = [], []
    for combo in itertools.combinations(range(SLOT_COUNT), 8):
        edges = [SLOT_ENDPOINTS[s] for s in combo if s != TARGET_SLOT]
        value = solution_number_formula(classify_edges(edges, TARGET_SLOT in combo))
        if value:
            masks.append(sum(1 << s for s in combo))
            values.append(value)
    st = slot_table()
    assert (st.nonzero_masks.dtype, st.nonzero_values.dtype) == (np.uint32, np.uint8)
    assert np.array_equal(st.nonzero_masks, np.asarray(masks, dtype=np.uint32))
    assert np.array_equal(st.nonzero_values, np.asarray(values, dtype=np.uint8))


def test_every_target_fits_its_cells_to_the_census_slots():
    """Table 1 from faces: each target's face-level fits, relabelled to slots, are _FITS.

    The census reads nothing but _FITS, so this carries its count, the
    solution number of every collection, to the face model of every target.
    """
    t = build_tableau()
    for target in t:
        slot_of_cube = build_target_graph(target, t).slot_of_cube
        for v, fits in enumerate(_cell_fits(target, t)):
            assert {slot_of_cube[c] for c, _ in fits} == set(sweeps._FITS[v]), (target.name, v)


def test_slot_table_rss_growth():
    """The census's two anonymous-map buffers, which tracemalloc does not see."""
    script = "\n".join([
        "import resource, numpy",
        "from madness import sweeps",
        "from madness.cubes import build_tableau",
        "build_tableau()",
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
        "sweeps.slot_table()",
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    growth = int(proc.stdout) / 1024    # ru_maxrss is in KiB on Linux
    assert growth < 6, "RSS grew %.2f MB" % growth


def test_slot_table_memory_peak():
    slot_table.cache_clear()
    tracemalloc.start()
    try:
        slot_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, "peak %.1f MB" % (peak / 2**20)


def test_distribution_same_for_every_target():
    a = distribution_for_target("Ba")
    b = distribution_for_target("Ef")
    assert a == b == EXPECTED_SOLUTION_DISTRIBUTION
    assert sum(a.values()) == 133680


def test_buildable_mask_table_spot_checks():
    t = build_tableau()
    rng = random.Random(31)
    masks, values = buildable_mask_table("Ba")
    assert len(masks) == len(values) == 133680
    for k in rng.sample(range(len(masks)), 120):
        ids = ids_of_mask(int(masks[k]))
        assert solution_number(ids, "Ba", t) == int(values[k])
    # masks the table omits really are unbuildable
    lookup = set(int(m) for m in masks)
    for _ in range(120):
        ids = tuple(sorted(rng.sample(range(30), 8)))
        mask = sum(1 << i for i in ids)
        expect = solution_number(ids, "Ba", t)
        assert (mask in lookup) == (expect > 0)


def test_buildable_mask_table_matches_the_per_slot_remap():
    slots = slot_table().nonzero_masks
    for target in build_tableau():
        shifts = np.asarray(build_target_graph(target).cube_of_slot, dtype=np.uint32)
        expected = np.zeros(slots.shape, dtype=np.uint32)
        for slot in range(SLOT_COUNT):
            expected |= ((slots >> np.uint32(slot)) & np.uint32(1)) << shifts[slot]
        masks, values = buildable_mask_table(target.name)
        assert masks.dtype == np.uint32
        assert np.array_equal(masks, expected), target.name
        assert values is slot_table().nonzero_values


@pytest.fixture(scope="module")
def mask_runs():
    """Every collection some target builds and how many targets build it, by np.unique."""
    masks = np.concatenate([buildable_mask_table(t.name)[0] for t in build_tableau()])
    return np.unique(masks, return_counts=True)


def _unique_reference(values, per_mask, choices):
    """distribution_buildable's result from the runs of equal masks, keeping j in choices."""
    keep = np.isin(per_mask, choices)
    lengths, collections = np.unique(per_mask[keep], return_counts=True)
    distribution = {int(k): int(c) for k, c in zip(lengths, collections)}
    distribution[0] = TOTAL_COLLECTIONS - int(keep.sum())
    return distribution, values[keep & (per_mask == 5)]


@pytest.mark.parametrize(
    "choices", [(1, 2, 3, 4, 5), (1, 3, 5), (2, 4), (5,)], ids=["all", "odd", "even", "five"]
)
def test_run_counting_matches_np_unique(choices, mask_runs, monkeypatch):
    """The symmetry route against a brute-force count of all 30 targets' bases.

    A basis of Ba that builds j targets counts as building none unless j is
    in ``choices``, so each class 30 c_j / j and the five-target orbit are
    checked on their own; "all" is the unplanted route.
    """
    targets_built = sweeps._targets_built

    def planted(bases):
        built = targets_built(bases)
        built[~np.isin(built, choices)] = 0
        return built

    monkeypatch.setattr(sweeps, "_targets_built", planted)
    expected_distribution, expected_five = _unique_reference(*mask_runs, choices)
    distribution, five_masks = distribution_buildable()
    assert list(distribution.items()) == list(expected_distribution.items())
    assert five_masks.dtype == np.uint32
    assert np.array_equal(five_masks, expected_five)


def test_recolor_action_is_the_recolor_tables_and_transitive():
    tableau = build_tableau()
    action = sweeps._recolor_action()
    assert action.shape == (720, 30) and action.dtype == np.uint8
    for row, perm in zip(action.tolist(), all_color_permutations()):
        assert row == [tableau.recolor(perm, c).id for c in tableau], perm
    for cube in range(30):
        assert set(action[:, cube].tolist()) == set(range(30))


def _plant(monkeypatch, counts):
    """Make counts[j] of Ba's 133,680 bases build j targets, in place of the real count."""
    built = np.repeat(np.arange(len(counts)), counts).astype(np.uint8)
    assert len(built) == sum(EXPECTED_SOLUTION_DISTRIBUTION.values())
    monkeypatch.setattr(sweeps, "_targets_built", lambda bases: built)


def test_planted_counts_give_thirty_c_j_over_j(monkeypatch):
    _plant(monkeypatch, [0, 75273, 48027, 9192, 1188])
    distribution, five_masks = distribution_buildable()
    assert list(distribution.items()) == [
        (1, 30 * 75273), (2, 15 * 48027), (3, 10 * 9192), (4, 15 * 1188 // 2),
        (0, TOTAL_COLLECTIONS - 30 * 75273 - 15 * 48027 - 10 * 9192 - 15 * 1188 // 2),
    ]
    assert len(five_masks) == 0


def test_six_targets_is_a_verification_error(monkeypatch):
    _plant(monkeypatch, [0, 75213, 48027, 9192, 1188, 59, 1])
    with pytest.raises(sweeps.VerificationError, match="builds 6 targets"):
        distribution_buildable()


def test_non_integral_collection_count_is_a_verification_error(monkeypatch):
    _plant(monkeypatch, [0, 75213, 48028, 9192, 1187, 60])    # 30 x 1187 / 4 is no integer
    with pytest.raises(sweeps.VerificationError, match="not a multiple of 4"):
        distribution_buildable()


def test_distribution_buildable_memory_peak():
    slot_table()
    build_tableau()
    tracemalloc.start()
    try:
        distribution_buildable()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, "peak %.1f MB" % (peak / 2**20)


def test_distribution_buildable_rss_growth():
    """One target's bases, not a sort of all 30 targets' masks (14 MB of growth)."""
    script = "\n".join([
        "import resource, numpy",
        "from madness import sweeps",
        "from madness.cubes import build_tableau",
        "build_tableau()",
        "sweeps.slot_table()",
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
        "sweeps.distribution_buildable()",
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    growth = int(proc.stdout) / 1024    # ru_maxrss is in KiB on Linux
    assert growth < 6, "RSS grew %.2f MB" % growth


def test_buildable_count_distribution():
    distribution, five_masks = distribution_buildable()
    assert distribution == EXPECTED_BUILDABLE_DISTRIBUTION
    assert sum(distribution.values()) == TOTAL_COLLECTIONS
    assert len(five_masks) == EXPECTED_FIVE_TARGET_COUNT
    t = build_tableau()
    rng = random.Random(32)
    for mask in rng.sample([int(m) for m in five_masks], 3):
        assert len(buildable_targets(ids_of_mask(mask), t)) == 5


def test_buildable_targets_examples():
    t = build_tableau()
    assert buildable_targets(("Ac", "Ad", "Ae", "Af", "Cb", "Db", "Eb", "Fb"), t) == {"Ba"}
    five = buildable_targets(("Ac", "Af", "Ba", "Bf", "Ea", "Ef", "Fa", "Fc"), t)
    assert five == {"Cb", "Cd", "Ce", "Db", "De"}
    assert buildable_targets(("Ab", "Ac", "Ad", "Ae", "Af", "Ba", "Ca", "Da"), t) == frozenset()


def test_buildable_targets_match_the_solver_oracle():
    """The unusable-cube mask test that skips targets, against trying every target."""
    t = build_tableau()
    rng = random.Random(33)
    for mask in rng.sample([int(m) for m in buildable_mask_table("Cd")[0]], 40):
        ids = ids_of_mask(mask)
        expected = {c.name for c in t if next(sweeps.buildable_collections(ids, c, t), None)}
        assert buildable_targets(ids, t) == expected


def test_max_collection_census():
    for name in ("Ba", "Ab", "Fe"):
        census = count_max_collections(name)
        assert census.count == EXPECTED_MAX_COLLECTIONS
        assert len(census.double_edge_masks) == 9
        assert len(census.path_masks) == 72
        # each maximum collection really solves the target 16 ways
        for mask in census.sweep_masks[:4]:
            assert solution_number(ids_of_mask(mask), name) == 16


def test_five_target_rule_validation():
    FiveTargetRule(("a", "c", "f"), ("A", "B", "E", "F"))
    with pytest.raises(InvalidRuleError):
        FiveTargetRule(("a", "c"), ("A", "B", "E", "F"))
    with pytest.raises(InvalidRuleError):
        FiveTargetRule(("a", "a", "c"), ("A", "B", "E", "F"))
    with pytest.raises(InvalidRuleError):
        FiveTargetRule(("a", "c", "z"), ("A", "B", "E", "F"))
    with pytest.raises(InvalidRuleError):
        FiveTargetRule(("a", "c", "f"), ("A", "B", "E"))
    with pytest.raises(InvalidRuleError):
        FiveTargetRule(("a", "c", "f"), ("A", "B", "D", "E"))   # only one match
    with pytest.raises(InvalidRuleError):
        FiveTargetRule(("a", "c", "f"), ("A", "C", "F", "B"))   # three matches


def test_five_target_rule_count():
    rules = list(five_target_rules())
    assert len(rules) == 360
    assert len(set(rules)) == 360
    assert sum(1 for r in rules if r.columns_first) == 180


def test_five_target_worked_example():
    rule = FiveTargetRule(("a", "c", "f"), ("A", "B", "E", "F"))
    record = five_target_record(rule)
    assert record.collection == ("Ac", "Af", "Ba", "Bf", "Ea", "Ef", "Fa", "Fc")
    assert record.targets == ("Cb", "Cd", "Ce", "Db", "De")
    assert record.solution_numbers == {"Cb": 4, "Cd": 4, "Ce": 4, "Db": 2, "De": 2}


def test_five_target_orientation_duality():
    rule = FiveTargetRule(("a", "c", "f"), ("A", "B", "E", "F"))
    flipped = FiveTargetRule(("a", "c", "f"), ("A", "B", "E", "F"), columns_first=False)
    a = five_target_record(rule)
    b = five_target_record(flipped)
    assert b.collection == tuple(sorted(mirror_name(n) for n in a.collection))
    assert b.targets == tuple(sorted(mirror_name(n) for n in a.targets))
    assert b.solution_numbers == {
        mirror_name(t): v for t, v in a.solution_numbers.items()
    }


def test_five_target_records_cover_the_sweep():
    t = build_tableau()
    records = five_target_records(t, verify=False)
    assert len(records) == EXPECTED_FIVE_TARGET_COUNT
    record_masks = {t.mask(r.collection) for r in records}
    assert len(record_masks) == EXPECTED_FIVE_TARGET_COUNT
    _, five_masks = distribution_buildable()
    assert record_masks == {int(m) for m in five_masks}


def test_five_target_records_verify_mode():
    rule = FiveTargetRule(("b", "d", "e"), ("A", "B", "D", "F"))
    record = five_target_record(rule, verify=True)
    assert sorted(record.solution_numbers.values(), reverse=True) == [4, 4, 4, 2, 2]


def test_five_target_numbers_do_not_depend_on_verify():
    # Both modes read one solver pass; each number must be solution_number's.
    t = build_tableau()
    for rule in five_target_rules():
        record = five_target_record(rule, t, verify=False)
        assert record.solution_numbers == five_target_record(rule, t, verify=True).solution_numbers
        assert record.solution_numbers == {
            target: solution_number(record.collection, target, t) for target in record.targets
        }


def test_every_rule_drops_two_mirrors_leaving_eight_cubes():
    # With columns C and rows R, |R & C| = 2: a target's mirror is a cell
    # when its row letter is in C - R (1 letter) and its column in R - C (2).
    for rule in five_target_rules():
        collection, targets = sweeps._apply_rule(rule)
        assert (len(set(collection)), len(set(targets))) == (8, 5)
