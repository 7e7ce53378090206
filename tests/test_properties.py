"""Property tests: invariance of solution numbers and buildable counts under recoloring
and mirroring, and the shape of random samples."""

import numpy as np
from hypothesis import given, settings, strategies as st

from madness.cubes import all_color_permutations, build_tableau
from madness.solver import build_target_graph, solution_number, solution_number_permanent
from madness.universal import buildable_count, sample_sets

TABLEAU = build_tableau()


@settings(max_examples=60, deadline=None, database=None)
@given(
    perm=st.sampled_from(all_color_permutations()),
    cubes=st.sets(st.integers(0, 29), min_size=8, max_size=14),
)
def test_buildable_count_is_invariant_under_recoloring(perm, cubes):
    table = TABLEAU.recolor_id_table(perm)
    image = sorted(table[c] for c in cubes)
    assert buildable_count(image, TABLEAU) == buildable_count(sorted(cubes), TABLEAU)


@st.composite
def target_and_collection(draw):
    """A target id and 8 cube ids, drawn from the target's 21 usable cubes
    three times in four: random 8-sets of all 30 cubes almost never build."""
    target = draw(st.integers(0, 29))
    pool = list(range(30))
    if draw(st.integers(0, 3)):
        pool = [c for c in pool if c not in build_target_graph(target, TABLEAU).unusable_ids]
    return target, sorted(draw(st.permutations(pool))[:8])


@settings(max_examples=80, deadline=None, database=None)
@given(perm=st.sampled_from(all_color_permutations()), case=target_and_collection())
def test_solution_number_is_invariant_under_recoloring(perm, case):
    target, ids = case
    table = TABLEAU.recolor_id_table(perm)
    image = sorted(table[c] for c in ids)
    expected = solution_number(ids, target, TABLEAU)
    assert solution_number(image, table[target], TABLEAU) == expected
    # the face route on the recolored input against the corner route on the original
    assert solution_number_permanent(image, table[target], TABLEAU) == expected


@settings(max_examples=80, deadline=None, database=None)
@given(case=target_and_collection())
def test_solution_number_is_invariant_under_mirroring(case):
    target, ids = case
    image = sorted(TABLEAU.mirror(c).id for c in ids)
    mirrored = TABLEAU.mirror(target)
    assert solution_number(image, mirrored, TABLEAU) == solution_number(ids, target, TABLEAU)


@settings(max_examples=60, deadline=None, database=None)
@given(k=st.integers(8, 30), n=st.integers(1, 50), seed=st.integers(0, 2**140))
def test_sample_rows_are_sorted_distinct_k_subsets(k, n, seed):
    samples = sample_sets(k, n, seed)
    assert samples.shape == (n, k)
    assert samples.min() >= 0 and samples.max() <= 29
    assert (np.diff(samples, axis=1) > 0).all()
