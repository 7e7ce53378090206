"""Exact combinatorics of the MacMahon colored-cube 2x2x2 target puzzle.

Each exported name is loaded from its module on first use (PEP 562), so
``import madness`` costs nothing and the numpy sweeps (``sweeps``,
``universal``) are imported only by code that touches them.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cubes": (
        "ALL_CORNER_NUMBERS", "CUBE_NAMES", "ROTATIONS", "Cube", "Tableau", "build_tableau",
        "canonical_coloring", "canonical_corner", "corner_numbers", "mirror_name",
        "reverse_corner", "usable_corner_count",
    ),
    "solver": (
        "TargetGraph", "build_target_graph", "classify", "enumerate_arrangements",
        "interior_matching_count", "solution_number", "solution_number_permanent",
        "solution_number_prime_scan",
    ),
    "sweeps": (
        "FiveTargetRecord", "FiveTargetRule", "buildable_targets", "count_max_collections",
        "distribution_buildable", "distribution_for_target", "five_target_records",
    ),
    "universal": (
        "buildable_count", "conjecture_sets", "exhaustive_search", "orbit_and_stabilizer",
        "per_target_analysis", "sample_distribution", "subset_build_distribution",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
