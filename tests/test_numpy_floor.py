"""The package runs on every numpy that pyproject.toml allows, from 1.24 on.

The suite runs on one numpy release only, so a name that later releases
added would pass here and fail for a user of 1.24.  This reads every
``np.<name>`` in the sources and the tests (the ``test`` extra installs on
the same floor) and rejects the names numpy 1.24 lacks.
"""

import ast
from pathlib import Path

import pytest

import madness

# Added in numpy 2.0 or later (array-API aliases and new functions), or
# removed before 1.24 and added back in 2.0 (``bool``, ``long``, ``ulong``).
NOT_IN_NUMPY_1_24 = frozenset({
    "bitwise_count", "concat", "astype", "isdtype", "trapezoid",
    "unique_all", "unique_counts", "unique_inverse", "unique_values",
    "permute_dims", "matrix_transpose", "vecdot", "cumulative_sum", "cumulative_prod",
    "bool", "long", "ulong",
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "pow",
    "bitwise_left_shift", "bitwise_right_shift", "bitwise_invert",
    "unstack", "matvec", "vecmat",
})

PACKAGE = Path(madness.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))


def _numpy_names(path):
    """(line, name) of each ``np.<name>`` attribute read in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "np"
    ]


def test_the_sources_are_read():
    assert {p.name for p in SOURCES} >= {"sweeps.py", "universal.py", "test_universal.py"}
    assert any(name == "flatnonzero" for p in SOURCES for _, name in _numpy_names(p))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name if p.parent == PACKAGE else "tests/" + p.name)
def test_no_numpy_name_newer_than_the_floor(path):
    newer = [(line, name) for line, name in _numpy_names(path) if name in NOT_IN_NUMPY_1_24]
    assert newer == [], "%s uses numpy names that 1.24 lacks: %s" % (path.name, newer)
