"""Property tests: recoloring invariance of buildable counts, and the shape of random samples."""

import numpy as np
from hypothesis import given, settings, strategies as st

from madness.cubes import all_color_permutations, build_tableau
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


@settings(max_examples=60, deadline=None, database=None)
@given(k=st.integers(8, 30), n=st.integers(1, 50), seed=st.integers(0, 2**140))
def test_sample_rows_are_sorted_distinct_k_subsets(k, n, seed):
    samples = sample_sets(k, n, seed)
    assert samples.shape == (n, k)
    assert samples.min() >= 0 and samples.max() <= 29
    assert (np.diff(samples, axis=1) > 0).all()
