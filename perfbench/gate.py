"""Correctness gate: the benchmark's own expected values and output checks.

Nothing here imports madness or reads its expected-value tables; the
values below are copied from the engine-verified results so that a change
to the program cannot also change what it is checked against.  Every check
returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

TOTAL_COLLECTIONS = 5_852_925  # C(30, 8)

# Table 1 as the engine verifies it (permanent, prime scan and arrangement
# enumeration agree).  The published table files 19860, 15987 and 2664
# under 4, 6 and 8 ways; see PUBLISHED_TABLE1 in selftest.py.
TABLE1 = {2: 93000, 4: 15987, 6: 2664, 8: 19860, 10: 792, 12: 1296, 16: 81}
NONZERO_SLOT_MASKS = 133_680  # sum of TABLE1: buildable 8-subsets of the 21 slots

TABLE2 = {0: 2774940, 1: 2256390, 2: 720405, 3: 91920, 4: 8910, 5: 360}
FIVE_TARGET_COUNT = 360
# sha256 of the sorted five-target records, one "cubes|targets|numbers" line each.
FIVE_TARGET_DIGEST = "5b18915e4dd4d79992cd2eed7174217967eccddab1033ee061d09b0c11e76783"

UNIVERSAL_SETS = frozenset(
    tuple(line.split())
    for line in """
Ab Ac Ba Bc Ca Cb De Df Ed Ef Fd Fe
Ab Ad Ba Bd Ce Cf Da Db Ec Ef Fc Fe
Ab Ae Ba Be Cd Cf Dc Df Ea Eb Fc Fd
Ab Af Ba Bf Cd Ce Dc De Ec Ed Fa Fb
Ac Ad Be Bf Ca Cd Da Dc Eb Ef Fb Fe
Ac Ae Bd Bf Ca Ce Db Df Ea Ec Fb Fd
Ac Af Bd Be Ca Cf Db De Eb Ed Fa Fc
Ad Ae Bc Bf Cb Cf Da De Ea Ed Fb Fc
Ad Af Bc Be Cb Ce Da Df Eb Ec Fa Fd
Ae Af Bc Bd Cb Cd Db Dc Ea Ef Fa Fe
""".strip().splitlines()
)
UNIVERSAL_TARGETS = 30
UNIVERSAL_ORBIT_SIZE = 10
UNIVERSAL_STABILIZER_ORDER = 72
# Figure 7: buildable-count histograms over the k-subsets of one universal set.
FIGURE7 = {
    8: {0: 441, 1: 18, 3: 36},
    9: {0: 36, 1: 72, 3: 112},
    10: {3: 12, 6: 6, 8: 36, 9: 12},
    11: {18: 12},
}

# Random 12-sets build 18.2 targets on average, with standard deviation 2.7.
SAMPLE_MEAN = 18.2
SAMPLE_STD = 2.7
SAMPLE_TOLERANCE = 0.1

# The first universal 12-set in lexicographic order of cube ids, and its
# 0-based rank among the C(30,12) combinations.
FIRST_UNIVERSAL = ("Ab", "Ac", "Ba", "Bc", "Ca", "Cb", "De", "Df", "Ed", "Ef", "Fd", "Fe")
FIRST_UNIVERSAL_RANK = 10_236_518


def _counts(mapping):
    return {int(k): v for k, v in mapping.items()}


def check_table1(payload):
    problems = []
    counts = _counts(payload["counts"])
    if counts != TABLE1:
        problems.append("table1 counts %r != %r" % (counts, TABLE1))
    if payload.get("buildable") != NONZERO_SLOT_MASKS:
        problems.append("table1 buildable %r != %d" % (payload.get("buildable"), NONZERO_SLOT_MASKS))
    if payload.get("total_collections") != TOTAL_COLLECTIONS:
        problems.append("table1 total %r != %d" % (payload.get("total_collections"), TOTAL_COLLECTIONS))
    return problems


def check_table2(payload):
    problems = []
    counts = _counts(payload["counts"])
    if counts != TABLE2:
        problems.append("table2 counts %r != %r" % (counts, TABLE2))
    if payload.get("five_target_collections") != FIVE_TARGET_COUNT:
        problems.append("table2 five-target count %r != %d"
                        % (payload.get("five_target_collections"), FIVE_TARGET_COUNT))
    return problems


def five_target_digest(records):
    lines = sorted(
        "%s|%s|%s" % (
            " ".join(r["collection"]),
            " ".join(r["targets"]),
            " ".join(str(r["solution_numbers"][t]) for t in r["targets"]),
        )
        for r in records
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_five_targets(payload):
    problems = []
    records = payload["records"]
    if payload.get("count") != FIVE_TARGET_COUNT or len(records) != FIVE_TARGET_COUNT:
        problems.append("five-targets count %r, %d records, expected %d"
                        % (payload.get("count"), len(records), FIVE_TARGET_COUNT))
    digest = five_target_digest(records)
    if digest != FIVE_TARGET_DIGEST:
        problems.append("five-target records digest %s != %s" % (digest[:16], FIVE_TARGET_DIGEST[:16]))
    return problems


def check_universal(payload):
    problems = []
    sets = payload["sets"]
    found = {tuple(s["cubes"]) for s in sets}
    if len(sets) != len(UNIVERSAL_SETS) or found != UNIVERSAL_SETS:
        problems.append("universal sets differ from the ten expected")
    for s in sets:
        if s["buildable_count"] != UNIVERSAL_TARGETS:
            problems.append("set %s builds %r targets" % (" ".join(s["cubes"]), s["buildable_count"]))
        if s["stabilizer_order"] != UNIVERSAL_STABILIZER_ORDER:
            problems.append("set %s stabilizer %r" % (" ".join(s["cubes"]), s["stabilizer_order"]))
    orbit = payload["orbit"]
    if orbit.get("orbit_size") != UNIVERSAL_ORBIT_SIZE or orbit.get("single_orbit") is not True:
        problems.append("orbit %r is not one orbit of size %d" % (orbit, UNIVERSAL_ORBIT_SIZE))
    figure7 = {int(k): _counts(h) for k, h in payload["figure7"].items()}
    if figure7 != FIGURE7:
        problems.append("figure 7 histograms %r != %r" % (figure7, FIGURE7))
    return problems


def check_sample(payload, k, n, seed):
    problems = []
    if (payload.get("k"), payload.get("n"), payload.get("seed")) != (k, n, seed):
        problems.append("sample echoes k/n/seed %r" % ((payload.get("k"), payload.get("n"), payload.get("seed")),))
    if abs(payload["mean"] - SAMPLE_MEAN) > SAMPLE_TOLERANCE:
        problems.append("sample mean %.4f not within %.1f of %.1f" % (payload["mean"], SAMPLE_TOLERANCE, SAMPLE_MEAN))
    if abs(payload["std"] - SAMPLE_STD) > SAMPLE_TOLERANCE:
        problems.append("sample std %.4f not within %.1f of %.1f" % (payload["std"], SAMPLE_TOLERANCE, SAMPLE_STD))
    histogram = _counts(payload["histogram"])
    if sum(histogram.values()) != n:
        problems.append("sample histogram sums to %d, not %d" % (sum(histogram.values()), n))
    counts = payload.get("counts", [])
    if len(counts) != n or dict(Counter(counts)) != histogram:
        problems.append("sample per-index counts disagree with the histogram")
    return problems


def check_scan(leg1, leg2, window, leg1_budget):
    """Two legs through one checkpoint: a budget stop, then a resume to the window end."""
    problems = []
    if leg1["completed"] != leg1_budget or leg1["finished"]:
        problems.append("scan leg 1 stopped at %r, expected a budget stop at %d" % (leg1["completed"], leg1_budget))
    if leg2["completed"] != window:
        problems.append("scan completed %r sets, window is %d" % (leg2["completed"], window))
    expected = [list(FIRST_UNIVERSAL)] if window > FIRST_UNIVERSAL_RANK else []
    if leg2["found"] != expected:
        problems.append("scan found %r, expected %r" % (leg2["found"], expected))
    return problems


def check_query(result):
    """result: (formula, permanent, prime scan, arrangements, interior)."""
    formula, permanent, primes, arrangements, interior = result
    if not formula == permanent == primes == arrangements:
        return ["counts disagree: formula=%d permanent=%d primes=%d arrangements=%d"
                % (formula, permanent, primes, arrangements)]
    if not 0 <= interior <= arrangements:
        return ["interior count %d outside 0..%d" % (interior, arrangements)]
    return []


def read_envelope(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
