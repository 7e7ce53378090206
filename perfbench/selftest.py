"""Self-tests of the benchmark's gate and inputs; run.py runs them first.

    python3 perfbench/selftest.py

A gate that passes a wrong answer, or inputs that change under a fixed
seed, would make every later measurement meaningless, so the benchmark
refuses to run when any of these fail.
"""

from __future__ import annotations

import sys

import gate
import inputs

# Table 1 as published: 19860, 15987 and 2664 sit under 4, 6 and 8 ways.
PUBLISHED_TABLE1 = {2: 93000, 4: 19860, 6: 15987, 8: 2664, 10: 792, 12: 1296, 16: 81}


def _table1_payload(counts):
    return {
        "counts": {str(k): v for k, v in counts.items()},
        "buildable": sum(counts.values()),
        "total_collections": gate.TOTAL_COLLECTIONS,
    }


def run():
    """Returns the failed checks, empty when the gate and inputs are sound."""
    failures = []
    if gate.check_table1(_table1_payload(gate.TABLE1)):
        failures.append("the engine-verified Table 1 is rejected")
    if not gate.check_table1(_table1_payload(PUBLISHED_TABLE1)):
        failures.append("the published, mis-keyed Table 1 passes the gate")
    if gate.check_query([4, 4, 4, 4, 0]):
        failures.append("an agreeing query is rejected")
    for disagreeing in ([4, 2, 4, 4, 0], [4, 4, 6, 4, 0], [4, 4, 4, 3, 0], [2, 2, 2, 2, 3]):
        if not gate.check_query(disagreeing):
            failures.append("query counts %r pass the gate" % (disagreeing,))
    leg1 = {"completed": inputs.SCAN_LEG1, "finished": False, "found": []}
    leg2 = {"completed": inputs.SCAN_WINDOW, "finished": False, "found": [list(gate.FIRST_UNIVERSAL)]}
    if gate.check_scan(leg1, leg2, inputs.SCAN_WINDOW, inputs.SCAN_LEG1):
        failures.append("a correct scan is rejected")
    if not gate.check_scan(leg1, dict(leg2, found=[]), inputs.SCAN_WINDOW, inputs.SCAN_LEG1):
        failures.append("a scan that misses the universal set passes the gate")
    if inputs.queries_bytes(7, 500) != inputs.queries_bytes(7, 500):
        failures.append("one seed gave two different query inputs")
    if inputs.queries_bytes(7, 500) == inputs.queries_bytes(8, 500):
        failures.append("two seeds gave the same query inputs")
    if inputs.sample_args(7) != inputs.sample_args(7) or inputs.sample_args(7) == inputs.sample_args(8):
        failures.append("sample arguments do not follow the seed")
    if len(inputs.CUBE_NAMES) != 30 or any(len(inputs.usable_cubes(t)) != 21 for t in inputs.CUBE_NAMES):
        failures.append("a target does not have 21 usable cubes")
    return failures


if __name__ == "__main__":
    problems = run()
    for problem in problems:
        print("FAIL", problem)
    print("selftest: %d failed" % len(problems))
    sys.exit(1 if problems else 0)
