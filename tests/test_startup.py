"""What a madness process loads: only the code its command runs.

No module of the package defines its records through ``dataclasses``, and
``logging``, ``csv`` and ``tempfile`` are imported inside the functions that
use them.  So a cache hit and ``cubes`` load neither numpy nor the solver,
and ``solve`` loads the solver without numpy.  Each command runs in a fresh
interpreter that reports the modules it loaded after start-up.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from madness.cli import main

SOURCE = Path(__file__).resolve().parents[1] / "src" / "madness"
IMPORTED_IN_FUNCTIONS = {"logging", "csv", "tempfile"}
NOT_ON_A_HIT = {
    "numpy", "dataclasses", "logging", "csv", "madness.solver", "madness.sweeps", "madness.universal",
}
PROBE = "\n".join([
    "import json, sys",
    "before = set(sys.modules)",
    "from madness.cli import main",
    "code = main(sys.argv[1:])",
    "print(json.dumps([code, sorted(set(sys.modules) - before)]))",
])


def _imports(tree):
    """(top-level module, inside a function?) for each absolute import of a parsed module."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name.split(".")[0], in_function) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((child.module.split(".")[0], in_function))
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(tree, False)
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_modules_import_no_dataclasses_and_the_rare_path_modules_only_in_functions(path):
    imports = _imports(ast.parse(path.read_text(encoding="utf-8")))
    assert imports, "no imports found in %s" % path.name
    assert [name for name, _ in imports if name == "dataclasses"] == []
    assert [name for name, inside in imports if name in IMPORTED_IN_FUNCTIONS and not inside] == []


def test_the_import_walk_sees_imports_inside_functions():
    tree = ast.parse("import os\ndef f():\n    import csv\n    from logging import getLogger\n")
    assert _imports(tree) == [("os", False), ("csv", True), ("logging", True)]


def _loaded(*argv):
    """The modules a fresh interpreter loads to run ``madness ARGV``, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    return set(loaded)


def test_a_cache_hit_loads_no_numpy_solver_or_rare_path_module(tmp_path):
    argv = [
        "table1", "--check", "--format", "json", "--out", str(tmp_path / "table1.json"),
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(argv) == 0    # primes the cache
    loaded = _loaded(*argv)
    assert {"madness.cubes", "madness.reports"} <= loaded
    assert loaded & NOT_ON_A_HIT == set()


def test_cubes_loads_no_numpy_solver_or_rare_path_module():
    loaded = _loaded("cubes")
    assert "madness.cubes" in loaded
    assert loaded & NOT_ON_A_HIT == set()


def test_solve_loads_the_solver_and_not_numpy():
    loaded = _loaded("solve", "--target", "Ba", "--cubes", "Ac,Ad,Ae,Af,Cb,Db,Eb,Fb")
    assert "madness.solver" in loaded
    assert "numpy" not in loaded


def test_importing_the_package_builds_no_table():
    """The tableau, the face table and the per-target placements are built on first use, never at import."""
    probe = "\n".join([
        "import json",
        "import madness.cli, madness.solver, madness.sweeps",
        "from madness import cubes, solver",
        "caches = (cubes.build_tableau, solver._placement_table, solver._fits_of_coloring, solver._cell_placements)",
        "print(json.dumps([f.cache_info().currsize for f in caches]))",
    ])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0, 0, 0, 0]
