"""Property tests: invariance of solution numbers and buildable counts under recoloring
and mirroring, the shape of random samples, and bad input that ends in one line."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings, strategies as st

from madness.cli import main
from madness.cubes import CUBE_NAMES, all_color_permutations, build_tableau
from madness.reports import _source_hash
from madness.solver import build_target_graph, solution_number, solution_number_permanent
from madness.universal import TOTAL_TWELVE_SETS, buildable_count, conjecture_sets, sample_sets

TABLEAU = build_tableau()


@settings(max_examples=60, deadline=None, database=None)
@given(
    perm=st.sampled_from(all_color_permutations()),
    cubes=st.sets(st.integers(0, 29), min_size=8, max_size=14),
)
def test_buildable_count_is_invariant_under_recoloring(perm, cubes):
    table = [TABLEAU.recolor(perm, c).id for c in TABLEAU]
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
    table = [TABLEAU.recolor(perm, c).id for c in TABLEAU]
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


def _run(*argv):
    """(exit code, stderr) of one in-process command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


# Two valid scan states: a scan stopped early, and a finished one.  The
# universal sets a checkpoint lists must be those ranked below ``completed``.
_RANKED_SETS = [c.mask for c in sorted(conjecture_sets(TABLEAU), key=lambda c: TABLEAU.ids(c.mask))]
_STOPPED = {"completed": 12, "found": [], "source": _source_hash()}
_VALID_STATES = [_STOPPED, dict(_STOPPED, completed=TOTAL_TWELVE_SETS, found=_RANKED_SETS)]
_STRINGS = st.text(st.sampled_from("0.1\n\r x") | st.characters(), max_size=12)
_JUNK = _STRINGS | st.recursive(
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers(-(2**200), 2**200)
    | st.integers(-2, TOTAL_TWELVE_SETS + 2)
    | st.sampled_from(_RANKED_SETS + [_source_hash()])
    | _STRINGS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def checkpoint_text(draw):
    """A valid checkpoint with one or two fields replaced, added or removed, maybe truncated."""
    state = dict(draw(st.sampled_from(_VALID_STATES)))
    for key in draw(st.lists(st.sampled_from(sorted(state) + ["extra"]), min_size=1, max_size=2, unique=True)):
        if draw(st.integers(0, 3)):
            state[key] = draw(_JUNK)
        else:
            state.pop(key, None)
    text = json.dumps(state)
    if not draw(st.integers(0, 4)):
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


def _checkpoint_with(**change):
    return json.dumps(dict(_STOPPED, **change))


# No pytest fixture: hypothesis would reuse a function-scoped tmp_path across examples.
@settings(max_examples=100, deadline=None, database=None)
@given(text=checkpoint_text())
@example(text=_checkpoint_with(source=_source_hash() + "\n"))    # the file's values once split the message
@example(text=_checkpoint_with(source="\n"))
def test_a_bad_checkpoint_is_one_error_line(text):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "scan.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, err = _run("search", "--budget", "0", "--checkpoint", path)
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error: checkpoint ")
    else:    # the change left a valid state: stopped early (4) or finished (0)
        assert code in (0, 4) and err.count("\n") == (code == 4)


_NAMES = st.sampled_from(CUBE_NAMES) | st.text(max_size=3)


@settings(max_examples=150, deadline=None, database=None)
@given(
    target=_NAMES,
    cubes=st.text(max_size=30)
    | st.builds(str.join, st.sampled_from([",", " ", ", "]), st.lists(_NAMES, max_size=10)),
)
def test_bad_solve_input_is_one_error_line(target, cubes):
    code, err = _run("solve", "--target=" + target, "--cubes=" + cubes)
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error: ")
    else:
        assert (code, err) == (0, "")
