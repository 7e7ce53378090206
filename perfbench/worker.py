"""Program-side half of the benchmark: one fresh process per call.

    python perfbench/worker.py setup {cli|graphs|tables}
    python perfbench/worker.py prime ARGV_LIST_JSON
    python perfbench/worker.py scan CHECKPOINT
    python perfbench/worker.py queries QUERIES_JSON SECONDS
    python perfbench/worker.py replay SPEC_JSON

run.py starts it with PYTHONPATH pointing at the checkout's src/.  The last
line of standard output is one JSON object.  ``ready_at`` is
time.monotonic() when set-up finished; the parent subtracts its own
monotonic start time, so set-up includes interpreter start.  madness is
imported inside the modes, never at module level, so that ``replay`` can
time the import itself.
"""

from __future__ import annotations

import array
import gc
import json
import os
import statistics
import sys
import time

import inputs

MIN_QUERIES = 2000  # p99 then has at least 20 samples beyond it


def mode_setup(level):
    """Bring a fresh process to ready: import, tableau, and what ``level`` needs."""
    import numpy

    import madness.cli  # noqa: F401  (the CLI imports every module)
    from madness import cubes, solver, sweeps, universal

    tableau = cubes.build_tableau()
    if level in ("graphs", "tables"):
        for name in inputs.CUBE_NAMES:
            solver.build_target_graph(name, tableau)
    if level == "tables":
        sweeps.slot_table()
        # The first buildable_count builds the upward closure and slot bits.
        universal.buildable_count(inputs.CUBE_NAMES[:12], tableau)
    return {"ready_at": time.monotonic(), "numpy": numpy.__version__}


def _leg_state(state, tableau):
    return {
        "completed": state.completed,
        "finished": state.finished,
        "found": [list(tableau.names_of_mask(m)) for m in state.found],
    }


def _scan_legs(checkpoint):
    """The two scan legs through one checkpoint file, timed."""
    from madness.cubes import build_tableau
    from madness.universal import exhaustive_search

    tableau = build_tableau()
    t0 = time.perf_counter()
    leg1 = exhaustive_search(checkpoint_path=checkpoint, budget_combinations=inputs.SCAN_LEG1)
    t1 = time.perf_counter()
    checkpoint_bytes = os.path.getsize(checkpoint)
    leg2 = exhaustive_search(
        checkpoint_path=checkpoint,
        budget_combinations=inputs.SCAN_WINDOW - inputs.SCAN_LEG1,
    )
    t2 = time.perf_counter()
    return {
        "leg_s": [t1 - t0, t2 - t1],
        "legs": [_leg_state(leg1, tableau), _leg_state(leg2, tableau)],
        "checkpoint_bytes": checkpoint_bytes,
    }


def mode_prime(argv_json):
    """Run command lines in this one process to fill the cache; untimed."""
    from madness import cli

    return {"exit_codes": [cli.main(argv) for argv in json.loads(argv_json)]}


def mode_scan(checkpoint):
    result = mode_setup("tables")
    result.update(_scan_legs(checkpoint))
    return result


def _solve(solver, target, cubes, tableau):
    arrangements = solver.enumerate_arrangements(cubes, target, tableau)
    return [
        solver.solution_number(cubes, target, tableau),
        solver.solution_number_permanent(cubes, target, tableau),
        solver.solution_number_prime_scan(cubes, target, tableau),
        len(arrangements),
        solver.interior_matching_count(cubes, target, tableau),
    ]


def mode_queries(path, seconds):
    """Closed loop, one client: each query as `solve --interior --arrangements`."""
    result = mode_setup("graphs")
    from madness import solver
    from madness.cubes import build_tableau

    tableau = build_tableau()
    with open(path, "r", encoding="utf-8") as fh:
        queries = [(target, tuple(cubes)) for target, cubes in json.load(fh)]
    # Results go into flat arrays and the queries into tuples, which the
    # collector leaves alone, so the harness's own objects do not make the
    # program's garbage collections slower as the run goes on.
    gc.collect()
    latencies, answers, errors = array.array("d"), array.array("q"), []
    started = time.perf_counter()
    deadline = started + float(seconds)
    for target, cubes in queries:
        if len(latencies) >= MIN_QUERIES and time.perf_counter() >= deadline:
            break
        t0 = time.perf_counter()
        try:
            answer = _solve(solver, target, cubes, tableau)
        except Exception as exc:  # a failed query is counted, not fatal
            answer = [-1] * 5
            errors.append("%s %s: %r" % (target, " ".join(cubes), exc))
        latencies.append(time.perf_counter() - t0)
        answers.extend(answer)
    result.update(
        latency_s=latencies.tolist(),
        answers=[answers[i:i + 5].tolist() for i in range(0, len(answers), 5)],
        errors=errors[:5],
    )
    return result


def _span_cost():
    """Seconds one per-call span costs: a timer pair and a list append."""
    batches = []
    for _ in range(5):
        sink = []
        t0 = time.perf_counter()
        for _ in range(10_000):
            c0 = time.perf_counter()
            sink.append(time.perf_counter() - c0)
        batches.append((time.perf_counter() - t0) / 10_000)
    return statistics.median(batches)


class _Spans:
    """Wall time per layer name, summed over the calls timed under it."""

    def __init__(self):
        self.seconds = {}

    def time(self, name, call, *args):
        t0 = time.perf_counter()
        value = call(*args)
        self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0
        return value


def mode_replay(spec_path):
    """Time each module's public calls in the order the commands make them.

    Later calls find the earlier ones' lazy tables warm, so each span is
    that layer's self time: slot_table is paid once, under its own name.
    """
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    spans = _Spans()
    t0 = time.perf_counter()
    import madness.cli  # noqa: F401
    import numpy
    from madness import cubes, reports, solver, sweeps, universal

    spans.seconds["cubes.import_s"] = time.perf_counter() - t0
    tableau = spans.time("cubes.build_tableau_s", cubes.build_tableau)
    names = [c.name for c in tableau]
    spans.time("solver.target_graphs_s", lambda: [solver.build_target_graph(n, tableau) for n in names])
    table = spans.time("sweeps.slot_table_s", sweeps.slot_table)
    spans.time("sweeps.distribution_for_target_s", sweeps.distribution_for_target, "Ba")
    spans.time("sweeps.mask_tables_s", lambda: [sweeps.buildable_mask_table(n) for n in names])
    spans.time("sweeps.distribution_buildable_s", sweeps.distribution_buildable)
    spans.time("sweeps.five_target_records_s", sweeps.five_target_records, tableau, True)
    candidates = universal.conjecture_sets(tableau)
    spans.time("universal.closure_s", universal.buildable_count, candidates[0].names, tableau)
    spans.time("universal.orbit_s", universal.orbit_and_stabilizer, candidates, tableau)
    spans.time("universal.per_target_analysis_s", lambda: [
        (universal.per_target_analysis(c, tableau), universal.buildable_count(c.names, tableau))
        for c in candidates
    ])
    spans.time("universal.subset_build_s", lambda: [
        universal.subset_build_distribution(candidates[0], k, tableau) for k in (8, 9, 10, 11)
    ])
    k, n, seed = spec["sample"]
    spans.time("universal.sample_sets_s", universal.sample_sets, k, n, seed)
    # Includes its own sample_sets call: the difference of two noisy
    # seconds-long timings would hide the tenth of a second it adds.
    spans.time("universal.sample_distribution_s", universal.sample_distribution, k, n, seed)

    # Reports: render, store and load each command's payload as the CLI does
    # for --format json, using the payloads the cold commands wrote.
    per_command = {}
    cache = reports.ReportCache(spec["cache_dir"])
    cache_bytes = 0
    for command, path in spec["outputs"].items():
        with open(path, "r", encoding="utf-8") as fh:
            envelope = json.load(fh)
        params, payload = envelope["params"], envelope["payload"]
        own = _Spans()

        def render():
            head = reports.Envelope(command=command, params=params).as_dict(tableau)
            head["payload"] = payload
            return json.dumps(head, sort_keys=True, indent=2)

        own.time("reports.render_s", render)
        if command != "sample":
            stored = own.time("reports.cache_store_s", cache.store, command, params, payload, tableau)
            cache_bytes += os.path.getsize(stored)
            if own.time("reports.cache_load_s", cache.load, command, params, tableau) != payload:
                raise RuntimeError("cache load of %s returned another payload" % command)
        for name, seconds in own.seconds.items():
            spans.seconds[name] = spans.seconds.get(name, 0.0) + seconds
        per_command[command] = own.seconds
    hash_times = []
    for _ in range(5):
        h0 = time.perf_counter()
        reports.data_hash(tableau)
        hash_times.append(time.perf_counter() - h0)
    spans.seconds["reports.data_hash_s"] = statistics.median(hash_times)

    # Solver: the queries workload's calls, each under its own span.
    with open(spec["queries"], "r", encoding="utf-8") as fh:
        queries = json.load(fh)[: spec["query_count"]]
    calls = {
        "solution_number": solver.solution_number,
        "permanent": solver.solution_number_permanent,
        "prime_scan": solver.solution_number_prime_scan,
        "arrangements": solver.enumerate_arrangements,
        "interior": solver.interior_matching_count,
    }
    per_call = {name: [] for name in calls}
    answers = []
    t0 = time.perf_counter()
    for target, cubes_ in queries:
        answer = []
        for name, call in calls.items():
            c0 = time.perf_counter()
            answer.append(call(cubes_, target, tableau))
            per_call[name].append(time.perf_counter() - c0)
        answer[3] = len(answer[3])
        answers.append(answer)
    traced_query_s = (time.perf_counter() - t0) / len(queries)

    scan = _scan_legs(spec["checkpoint"])
    return {
        "numpy": numpy.__version__,
        "spans": spans.seconds,
        "per_command": per_command,
        "cache_bytes": cache_bytes,
        "nonzero_slot_masks": int(len(table.nonzero_masks)),
        "per_call_s": {name: statistics.median(v) for name, v in per_call.items()},
        "answers": answers,
        "traced_query_s": traced_query_s,
        "span_s": _span_cost(),
        "scan": scan,
    }


MODES = {
    "setup": mode_setup,
    "prime": mode_prime,
    "scan": mode_scan,
    "queries": mode_queries,
    "replay": mode_replay,
}


def main(argv):
    result = MODES[argv[0]](*argv[1:])
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
