"""The package and its tests parse on the oldest Python that pyproject.toml allows, 3.10.

The suite runs on one newer interpreter, so syntax that 3.10 lacks (such as
``except*`` or a PEP 695 ``type`` statement) would pass here and fail for a
user of 3.10.  ``ast.parse`` with ``feature_version`` rejects it.  The tests
are read too: the ``test`` extra installs on the same floor.
"""

import ast
from pathlib import Path

import pytest

import madness

PACKAGE = Path(madness.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name if p.parent == PACKAGE else "tests/" + p.name)
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
