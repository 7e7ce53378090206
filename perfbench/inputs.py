"""Seeded inputs: the same seed always gives byte-identical inputs.

Cube names and usability come from the tableau naming alone (row letter,
column letter), not from the program, so the program only ever sees the
generated inputs.
"""

from __future__ import annotations

import json
import random

CUBE_NAMES = tuple(r + c for r in "ABCDEF" for c in "abcdef" if r.lower() != c)

# Share of queries drawn from the target's 21 usable cubes.  Random 8-sets of
# usable cubes build the target 133,680 / C(21,8) = 66 % of the time, so
# about half of all queries are buildable; the rest mostly contain an
# unusable cube and take the solver's zero-count fast path.
USABLE_SHARE = 0.75

SAMPLE_K = 12
SAMPLE_N = 20000

# The scan window starts at the first 12-set and ends just after the first
# universal one (0-based rank 10,236,518), so a correct scan finds exactly
# that set.  The first leg stops on its budget; the second resumes from the
# checkpoint to the end of the window.  The seed does not move the window.
SCAN_WINDOW = 10_236_519
SCAN_LEG1 = 5_000_000


def usable_cubes(target):
    """The target plus every cube outside its row, its column and its mirror."""
    row, column = target[0], target[1]
    mirror = column.upper() + row.lower()
    return [
        n for n in CUBE_NAMES
        if n == target or (n[0] != row and n[1] != column and n != mirror)
    ]


def queries(seed, count):
    """``count`` (target, sorted 8 cube names) pairs."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        target = rng.choice(CUBE_NAMES)
        pool = usable_cubes(target) if rng.random() < USABLE_SHARE else CUBE_NAMES
        out.append((target, sorted(rng.sample(pool, 8))))
    return out


def queries_bytes(seed, count):
    return json.dumps(queries(seed, count), separators=(",", ":")).encode()


def sample_args(seed):
    """The ``sample`` command's arguments; its seed is the workload seed."""
    return ["sample", "--k", str(SAMPLE_K), "--n", str(SAMPLE_N), "--seed", str(seed)]
