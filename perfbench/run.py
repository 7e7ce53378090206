"""The madness benchmark: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N     # every workload in turn

Run it from the root of a checkout.  Every program process is a fresh
``python -m madness.cli`` or ``perfbench/worker.py`` started one at a time
(a closed loop with a single client) with PYTHONPATH set to ``src``.  The
benchmark checks every output against the expected values in gate.py and
prints one line per metric, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, from a separate traced run.
Everything the run writes goes to a fresh directory under
``perfbench/.runs/``, removed at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import inputs  # noqa: E402
import selftest  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
COMMANDS = ("table1", "table2", "five-targets", "universal", "sample")
CACHED = COMMANDS[:4]
SETUPS = 5             # fresh set-up processes per run, median reported
SCAN_SETUPS = 1        # plus the scan worker's own set-up: two samples
QUERY_POOL = 30_000    # about three times what a run gets through today
REPLAY_QUERIES = 1000
CHILD_TIMEOUT_S = 150
RATE_SLICES = 10

# Which public calls each command makes, by replay span name; the cold
# command's wall time minus their sum is cli.unattributed_s.  Every command
# also imports the package, builds the tableau and renders its report.
COMMAND_LAYERS = {
    "table1": ["sweeps.slot_table_s", "sweeps.distribution_for_target_s"],
    "table2": ["solver.target_graphs_s", "sweeps.slot_table_s", "sweeps.mask_tables_s",
               "sweeps.distribution_buildable_s"],
    "five-targets": ["solver.target_graphs_s", "sweeps.slot_table_s", "sweeps.five_target_records_s",
                     "sweeps.mask_tables_s", "sweeps.distribution_buildable_s"],
    "universal": ["solver.target_graphs_s", "sweeps.slot_table_s", "universal.closure_s",
                  "universal.orbit_s", "universal.per_target_analysis_s", "universal.subset_build_s"],
    "sample": ["solver.target_graphs_s", "sweeps.slot_table_s", "universal.closure_s",
               "universal.sample_distribution_s"],
}


def cli_args(command, seed, out, cache_dir):
    """The command line, after ``madness``, that writes its JSON report to ``out``."""
    args = inputs.sample_args(seed) if command == "sample" else [command, "--check"]
    args += ["--format", "json", "--out", out]
    if command in CACHED:
        args += ["--cache-dir", cache_dir]
    return args


def check_output(command, seed, path):
    envelope = gate.read_envelope(path)
    payload = envelope.get("payload", {})
    if envelope.get("command") != command:
        return ["%s wrote a report for %r" % (command, envelope.get("command"))]
    if command == "table1":
        return gate.check_table1(payload)
    if command == "table2":
        return gate.check_table2(payload)
    if command == "five-targets":
        return gate.check_five_targets(payload)
    if command == "universal":
        return gate.check_universal(payload)
    return gate.check_sample(payload, inputs.SAMPLE_K, inputs.SAMPLE_N, seed)


class Harness:
    """Starts program processes one at a time and keeps the run's tallies."""

    def __init__(self, root, run_dir):
        self.root = root
        self.run_dir = run_dir
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.numpy = None
        home = os.path.join(run_dir, "home")
        os.makedirs(home)
        env = dict(os.environ)
        env.pop("MADNESS_CACHE_DIR", None)
        # A default cache directory, should any command fall back to one,
        # lands in this run's own directory, never in the user's home.
        env["HOME"] = home
        env["XDG_CACHE_HOME"] = os.path.join(home, ".cache")
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.env = env
        self._serial = 0

    def path(self, name):
        return os.path.join(self.run_dir, name)

    def spawn(self, argv, measured=True):
        """Run one child to completion; its peak RSS comes from its own rusage."""
        self._serial += 1
        out_path = self.path("child-%d.out" % self._serial)
        err_path = self.path("child-%d.err" % self._serial)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        if measured:
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)  # kB on Linux
        return {"started": started, "wall_s": wall, "rc": proc.returncode,
                "stdout": stdout, "stderr": stderr}

    def worker(self, *args, measured=True):
        """Run a worker mode; returns (child, parsed last line or None)."""
        child = self.spawn([sys.executable, WORKER, *args], measured)
        result = None
        if child["rc"] == 0:
            try:
                result = json.loads(child["stdout"].strip().splitlines()[-1])
            except (ValueError, IndexError):
                result = None
        if result is None:
            self.fail("worker %s exited %d: %s" % (args[0], child["rc"], child["stderr"].strip()[-300:]))
        return child, result

    def record(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend("%s: %s" % (what, p) for p in problems[:3])

    def fail(self, message):
        self.problems.append(message)

    def setup_times(self, level, count):
        times = []
        for _ in range(count):
            child, result = self.worker("setup", level)
            self.record([] if result else ["set-up process failed"], "setup")
            if result:
                times.append(result["ready_at"] - child["started"])
                self.numpy = result["numpy"]
        return times

    def run_commands(self, seed, cache_dir_for, tag, share_s=0.0):
        """Each command in fresh CLI processes; returns its median wall seconds.

        Passes over the commands repeat until every command's runs add up
        to ``share_s``, so the quick ones get several samples, a pass apart.
        ``cache_dir_for(command, run)`` gives the cache directory of each run.
        """
        walls = {command: [] for command in COMMANDS}
        while True:
            pending = [c for c in COMMANDS if not walls[c] or sum(walls[c]) < share_s]
            if not pending:
                return {c: statistics.median(w) for c, w in walls.items()}
            for command in pending:
                out = self.path("%s-%s.json" % (tag, command))
                if os.path.exists(out):
                    os.remove(out)  # so a command that writes nothing cannot pass on an old report
                args = cli_args(command, seed, out, cache_dir_for(command, len(walls[command])))
                child = self.spawn([sys.executable, "-m", "madness.cli", *args])
                if child["rc"] != 0:
                    problems = ["exit %d: %s" % (child["rc"], child["stderr"].strip()[-300:])]
                else:
                    try:
                        problems = check_output(command, seed, out)
                    except (OSError, ValueError, KeyError, TypeError) as exc:
                        problems = ["unreadable output: %r" % exc]
                self.record(problems, command)
                walls[command].append(child["wall_s"])


def snapshot(directory):
    if not os.path.isdir(directory):
        return {}
    return {
        name: (st.st_size, st.st_mtime_ns)
        for name in os.listdir(directory)
        for st in [os.stat(os.path.join(directory, name))]
    }


def files_written(before, after):
    return sum(1 for name, stat in after.items() if before.get(name) != stat)


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def line(name, value, unit):
    return "  %-40s %16.6f %s" % (name, value, unit)


def op_metrics(setups, p50_s, tail_s, rate):
    metrics = {"op_p50_ms": p50_s * 1e3, "op_tail_ms": tail_s * 1e3, "rate_per_s": rate}
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    return metrics


def sweep_metrics(walls, setups):
    """A sweep's operations are its five commands; the tail is the slowest."""
    values = list(walls.values())
    details = [line("%s_s" % c.replace("-", "_"), walls[c], "s") for c in COMMANDS]
    return op_metrics(setups, statistics.median(values), max(values), len(values) / sum(values)), details


def workload_cold_sweeps(harness, seed, seconds):
    setups = harness.setup_times("cli", SETUPS)
    walls = harness.run_commands(seed, lambda c, run: harness.path("cold-cache-%s-%d" % (c, run)),
                                 "cold", seconds / len(COMMANDS))
    return sweep_metrics(walls, setups)


def workload_warm_sweeps(harness, seed, seconds):
    setups = harness.setup_times("cli", SETUPS)
    cache = harness.path("warm-cache")
    argv_list = [cli_args(c, seed, harness.path("prime-%s.json" % c), cache) for c in COMMANDS]
    _, primed = harness.worker("prime", json.dumps(argv_list), measured=False)
    if primed and any(primed["exit_codes"]):
        harness.fail("priming exited %r" % primed["exit_codes"])
    before = snapshot(cache)
    walls = harness.run_commands(seed, lambda c, run: cache, "warm", seconds / len(COMMANDS))
    metrics, details = sweep_metrics(walls, setups)
    details.append(line("reports.cache_files_written", files_written(before, snapshot(cache)), "count"))
    return metrics, details


def scan_problems(scan):
    return gate.check_scan(scan["legs"][0], scan["legs"][1], inputs.SCAN_WINDOW, inputs.SCAN_LEG1)


def workload_scan(harness, seed, seconds):
    """The scan's operations are its two legs; the rate is sets per second."""
    setups = harness.setup_times("tables", SCAN_SETUPS)
    child, scan = harness.worker("scan", harness.path("scan.ckpt"))
    if not scan:
        harness.record(["scan worker failed"], "scan")
        return {}, []
    setups.append(scan["ready_at"] - child["started"])
    harness.record([], "scan leg 1")
    harness.record(scan_problems(scan), "scan leg 2")
    legs = scan["leg_s"]
    rate = inputs.SCAN_WINDOW / sum(legs)
    return op_metrics(setups, statistics.median(legs), max(legs), rate), [
        line("scan_sets_per_s", rate, "1/s"),
    ]


def workload_queries(harness, seed, seconds):
    """The operations are single queries; the tail is their p95.

    On a shared 2-vCPU virtual machine the hypervisor takes the CPU away in
    stalls of a few milliseconds, 1-2 % of the time, which moved the p99 by
    up to half from run to run.  About three in four of the slowest 5 % are
    queries with eight or more solutions, so the p95 still tracks
    arrangement enumeration.
    """
    setups = harness.setup_times("graphs", SETUPS)
    path = harness.path("queries.json")
    with open(path, "wb") as fh:
        fh.write(inputs.queries_bytes(seed, QUERY_POOL))
    child, run = harness.worker("queries", path, str(seconds))
    if not run:
        harness.record(["queries worker failed"], "queries")
        return {}, []
    setups.append(run["ready_at"] - child["started"])
    for answer in run["answers"]:
        harness.record(gate.check_query(answer), "query")
    harness.problems.extend(run["errors"])
    in_order = run["latency_s"]
    latencies = sorted(in_order)
    p50 = statistics.median(latencies)
    p95 = nearest_rank(latencies, 0.95)
    p99 = nearest_rank(latencies, 0.99)
    # Throughput is the median over ten consecutive slices of the run, so a
    # short stall on the host moves one slice, not the whole figure.
    size = len(in_order) // RATE_SLICES
    rate = statistics.median(
        size / sum(in_order[i * size:(i + 1) * size]) for i in range(RATE_SLICES))
    buildable = sum(1 for a in run["answers"] if a[0] > 0)
    return op_metrics(setups, p50, p95, rate), [
        line("query_p50_us", p50 * 1e6, "us"),
        line("query_p95_us", p95 * 1e6, "us"),
        line("query_p99_us", p99 * 1e6, "us"),
        line("queries_per_s", rate, "1/s"),
        line("query_samples", len(latencies), "count"),
        line("query_buildable_share", buildable / len(latencies), "ratio"),
    ]


WORKLOADS = {
    "cold-sweeps": workload_cold_sweeps,
    "warm-sweeps": workload_warm_sweeps,
    "scan": workload_scan,
    "queries": workload_queries,
}


def traced_run(harness, seed, seconds):
    """Cold and warm command passes untraced, then one traced replay."""
    def cache_for(command, run=0):
        return harness.path("trace-cache-" + command)

    cold = harness.run_commands(seed, cache_for, "cold")
    before = {c: snapshot(cache_for(c)) for c in CACHED}
    warm = harness.run_commands(seed, cache_for, "warm")
    written = sum(files_written(before[c], snapshot(cache_for(c))) for c in CACHED)

    queries_path = harness.path("queries.json")
    with open(queries_path, "wb") as fh:
        fh.write(inputs.queries_bytes(seed, REPLAY_QUERIES))
    spec_path = harness.path("replay.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({
            "sample": [inputs.SAMPLE_K, inputs.SAMPLE_N, seed],
            "outputs": {c: harness.path("cold-%s.json" % c) for c in COMMANDS},
            "cache_dir": harness.path("replay-cache"),
            "queries": queries_path,
            "query_count": REPLAY_QUERIES,
            "checkpoint": harness.path("replay.ckpt"),
        }, fh)
    _, replay = harness.worker("replay", spec_path)
    if not replay:
        harness.record(["replay failed"], "replay")
        return {}, []
    harness.numpy = replay["numpy"]
    for answer in replay["answers"]:
        harness.record(gate.check_query(answer), "replay query")
    harness.record(scan_problems(replay["scan"]), "replay scan")
    if replay["nonzero_slot_masks"] != gate.NONZERO_SLOT_MASKS:
        harness.fail("slot table has %d nonzero masks" % replay["nonzero_slot_masks"])

    spans = replay["spans"]
    attribution = {}
    breakdown = {}
    for command in COMMANDS:
        layers = {name: spans[name] for name in ["cubes.import_s", "cubes.build_tableau_s"]
                  + COMMAND_LAYERS[command]}
        # A cold command renders and stores; its cache load is a miss.
        layers.update({name: seconds_ for name, seconds_ in replay["per_command"][command].items()
                       if name != "reports.cache_load_s"})
        attribution[command] = sum(layers.values())
        breakdown[command] = max(layers, key=layers.get)
    unattributed = {c: cold[c] - attribution[c] for c in COMMANDS}

    metrics = dict(spans)
    for name, seconds_ in replay["per_call_s"].items():
        metrics["solver.%s_us" % name] = seconds_ * 1e6
    answers = replay["answers"]
    metrics["solver.nonzero_ratio"] = sum(1 for a in answers if a[0] > 0) / len(answers)
    metrics["sweeps.nonzero_slot_masks"] = replay["nonzero_slot_masks"]
    scan = replay["scan"]
    metrics["universal.scan_leg1_s"], metrics["universal.scan_leg2_s"] = scan["leg_s"]
    metrics["universal.checkpoint_bytes"] = scan["checkpoint_bytes"]
    metrics["universal.scan_found"] = len(scan["legs"][1]["found"])
    metrics["reports.cache_bytes"] = replay["cache_bytes"]
    metrics["reports.cache_files_written"] = written
    metrics["cli.unattributed_s"] = statistics.median(unattributed.values())
    for command in COMMANDS:
        key = command.replace("-", "_")
        metrics["cli.%s_cold_s" % key] = cold[command]
        metrics["cli.%s_warm_s" % key] = warm[command]
    # Five spans per query; their cost against the query time without them.
    spans_s = len(replay["per_call_s"]) * replay["span_s"]
    metrics["trace.overhead_pct"] = 100.0 * spans_s / (replay["traced_query_s"] - spans_s)

    details = [
        "  %s: the replay accounts for %.3f s of %.3f s cold; largest self time %s"
        % (c, attribution[c], cold[c], breakdown[c])
        for c in COMMANDS
    ]
    return metrics, details


def metric_specs(root, trace):
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def git_commit(root):
    """The checked-out commit, read from .git without running git; None outside a clone."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def run_one(root, workload, seed, seconds, trace):
    runs = os.path.join(HERE, ".runs")
    os.makedirs(runs, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="%s-%d-" % (workload, seed), dir=runs)
    environment = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(root),
        "loadavg_at_start": os.getloadavg(),
    }
    try:
        harness = Harness(root, run_dir)
        if trace:
            metrics, details = traced_run(harness, seed, seconds)
        else:
            metrics, details = WORKLOADS[workload](harness, seed, seconds)
            metrics["peak_rss_mb"] = harness.peak_rss_mb
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    environment["numpy"] = harness.numpy
    specs = metric_specs(root, trace)
    missing = [m["name"] for m in specs if m["name"] not in metrics]
    if missing:
        harness.fail("metrics not measured: %s" % ", ".join(missing))
    result = {
        "correct": harness.failed == 0 and not harness.problems,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in specs},
    }
    print("workload %s  seed %d  trace %d" % (workload, seed, trace))
    print("environment %s" % json.dumps(environment, sort_keys=True))
    for name, entry in result["metrics"].items():
        print(line(name, entry["value"], entry["unit"]))
    for text in details:
        print(text)
    print(line("fail_ratio", harness.failed / max(harness.attempted, 1), "ratio")
          + " (%d of %d)" % (harness.failed, harness.attempted))
    for problem in harness.problems[:20]:
        print("  PROBLEM %s" % problem)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "madness", "cli.py")):
        print("error: run from the root of a madness checkout (no src/madness here)", file=sys.stderr)
        return 2
    failures = selftest.run()
    if failures:
        print("error: benchmark self-test failed: %s" % "; ".join(failures), file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_one(root, name, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
