"""Command-line interface.

Exit codes: 0 success, 2 validation error (bad cube names, sizes, flags,
malformed checkpoints, paths that cannot be read or written), 3 verification
mismatch (--check failures or disagreeing counting methods, each printed as
``verification failed: ...``), 4 search budget exhausted before completion,
141 stdout closed by its reader.

Every command is a :class:`Report` spec run by :func:`run_report`, which
handles the cache, --check, rendering and the exit code in one place.
Each compute imports the modules it calls (solver, sweeps, universal), so
``cubes`` and ``solve`` never import numpy, and ``cubes`` and a cache hit
load none of the three.  :func:`main` defaults
OPENBLAS_NUM_THREADS to 1 before that: madness does no BLAS work, and
OpenBLAS starts its thread pool when numpy loads it.
Reports print as text tables by default; --format csv/json with --out PATH
writes byte-deterministic files (no timestamps or timings inside).  Heavy
sweeps cache their payloads under --cache-dir (or $MADNESS_CACHE_DIR, else
$XDG_CACHE_HOME/madness or ~/.cache/madness), keyed by the report's envelope
(version, cube-data hash, command and parameters) and the source hash.  An
error prints on one line, with any line break in it escaped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Callable
from typing import NamedTuple

from . import __version__, reports
from .cubes import UnknownCubeError, build_tableau
from .reports import Envelope, ReportCache, VerificationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3
EXIT_BUDGET = 4
EXIT_CLOSED_STDOUT = 141    # 128 + SIGPIPE, as a shell reports a command killed by a closed pipe

# Every input error of the package is a ValueError, except an unknown cube
# name, which is also a KeyError.  The only files read or written are the
# ones the flags name (--out, --out-dir, --cache-dir, --checkpoint), so an
# OSError is a bad flag value too.
_VALIDATION_ERRORS = (UnknownCubeError, ValueError, OSError)


class Report(NamedTuple):
    """One command: its parameters, payload, table and optional hooks.

    ``compute(args, params)`` gives the JSON-ready payload, ``rows(payload)``
    the table as (fieldnames, rows, notes), where notes are lines printed
    above the text table, and ``params(args)`` the parameters that key the
    cache and head the report (none by default).  Optional hooks, each of
    which also adds its options to the command: ``cached`` (--cache-dir,
    --no-cache); ``check(payload)`` returns a failure message for --check;
    ``files(payload)`` maps file names to bodies for --out-dir.  And without
    options: ``csv_rows(payload)`` replaces the table in CSV, its notes
    becoming ``#`` lines; ``status(args, payload)`` gives the exit code once
    the report is written.
    """

    compute: Callable
    rows: Callable
    params: Callable = lambda args: {}
    cached: bool = False
    check: Callable | None = None
    csv_rows: Callable | None = None
    files: Callable | None = None
    status: Callable | None = None


def _cache_dir(args):
    """(name in errors, path) of the cache directory: flag, environment or default."""
    if args.cache_dir:
        return "--cache-dir", args.cache_dir
    if os.environ.get("MADNESS_CACHE_DIR"):
        return "$MADNESS_CACHE_DIR", os.environ["MADNESS_CACHE_DIR"]
    cache_home = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache_home):    # unset, empty or relative: the XDG Base Directory default
        cache_home = os.path.join(os.path.expanduser("~"), ".cache")
    return "default cache directory", os.path.join(cache_home, "madness")


def _render(report, args, params, payload):
    """The report body in the requested format."""
    head = Envelope(command=args.command, params=params).as_dict()
    if args.format == "json":
        return json.dumps(dict(head, payload=payload), sort_keys=True, indent=2) + "\n"
    if args.format == "csv":
        if report.csv_rows is None:
            fieldnames, rows, _ = report.rows(payload)
            return reports.render_csv(fieldnames, rows)
        fieldnames, rows, notes = report.csv_rows(payload)
        return "".join("# %s\n" % n for n in notes) + reports.render_csv(fieldnames, rows)
    fieldnames, rows, notes = report.rows(payload)
    lines = [
        "madness %s  data %s" % (head["version"], head["data_hash"]),
        "command: %s %s" % (args.command, json.dumps(params, sort_keys=True)),
        "",
    ]
    if notes:
        lines += list(notes) + [""]
    return "\n".join(lines) + "\n" + reports.render_text(fieldnames, rows)


def _write(flag, path, body):
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(body)
        except OSError as exc:
            raise ValueError("%s %s cannot be written: %s" % (flag, path, exc.strerror)) from None
        print("wrote %s" % path)
    else:
        sys.stdout.write(body)


def _make_directory(flag, directory):
    if directory:
        try:
            os.makedirs(directory, exist_ok=True)
        except FileExistsError:
            raise ValueError("%s %s is not a directory" % (flag, directory)) from None
        except OSError as exc:
            raise ValueError("%s %s cannot be created: %s" % (flag, directory, exc.strerror)) from None


def run_report(report, args):
    """Compute or load the payload, check it, write the report, give the exit code."""
    started = time.monotonic()
    params = report.params(args)
    out_dir = getattr(args, "out_dir", None)
    _make_directory("--out-dir", out_dir)    # first: --out may name a file in it
    parent = os.path.dirname(args.out or "") or "."
    if args.out and not os.path.isdir(parent):
        problem = "is not a directory" if os.path.exists(parent) else "does not exist"
        raise ValueError("--out directory %s %s" % (parent, problem))
    if args.out and os.path.isdir(args.out):
        raise ValueError("--out %s is a directory" % args.out)
    cache = None
    if report.cached and not args.no_cache:
        flag, directory = _cache_dir(args)
        _make_directory(flag, directory)
        cache = ReportCache(directory)
    payload = cache.load(args.command, params) if cache else None
    if payload is None:
        payload = report.compute(args, params)
        if cache:
            cache.store(args.command, params, payload)
    if getattr(args, "check", False):
        failure = report.check(payload)
        if failure:
            raise VerificationError(failure)
    if out_dir:
        for name, body in report.files(payload).items():
            _write("--out-dir", os.path.join(out_dir, name), body)
    _write("--out", args.out, _render(report, args, params, payload))
    if args.format == "text" and not args.out:
        print("computed in %.2fs" % (time.monotonic() - started))
    return report.status(args, payload) if report.status else EXIT_OK


def _int_keyed(mapping):
    return sorted((int(k), v) for k, v in mapping.items())


def _mismatch(*checks):
    """The first (what, got, expected) triple that disagrees, as a message."""
    for what, got, expected in checks:
        if got != expected:
            return "%s %r != expected %r" % (what, got, expected)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _cubes_compute(args, params):
    rows = []
    for c in build_tableau():
        row = {"name": c.name, "id": c.id}
        row.update(zip("UDNESW", c.coloring))
        row.update(("c%d" % i, "%03d" % corner) for i, corner in enumerate(sorted(c.corner_set), 1))
        rows.append(row)
    return rows


CUBES = Report(
    compute=_cubes_compute,
    rows=lambda payload: (
        ["name", "id", "U", "D", "N", "E", "S", "W"] + ["c%d" % i for i in range(1, 9)],
        payload,
        [],
    ),
)


def _solve_params(args):
    tableau = build_tableau()
    ids = tableau.ids(args.cubes.replace(",", " ").split(), 8)
    return {"target": tableau.cube(args.target).name, "cubes": list(tableau.names(ids))}


def _solve_compute(args, params):
    from .solver import enumerate_arrangements, interior_matching_count, solution_number
    from .solver import solution_number_permanent, solution_number_prime_scan

    target, cubes = params["target"], params["cubes"]
    value = solution_number(cubes, target)
    via_permanent = solution_number_permanent(cubes, target)
    via_primes = solution_number_prime_scan(cubes, target)
    if not value == via_permanent == via_primes:
        raise VerificationError(
            "counting methods disagree: formula=%d permanent=%d primes=%d"
            % (value, via_permanent, via_primes)
        )
    payload = {
        "target": target,
        "collection": cubes,
        "solution_number": value,
        "methods": {"formula": value, "permanent": via_permanent, "prime_scan": via_primes},
    }
    if args.arrangements:
        arrangements = enumerate_arrangements(cubes, target)
        if len(arrangements) != value:
            raise VerificationError(
                "arrangement listing disagrees: formula=%d arrangements=%d" % (value, len(arrangements))
            )
        payload["arrangements"] = [
            [
                {
                    "corner": "%03d" % p.corner,
                    "position": list(p.position),
                    "cube": p.cube,
                    "faces": p.faces(),
                }
                for p in arrangement
            ]
            for arrangement in arrangements
        ]
    if args.interior:
        payload["interior_matching_count"] = interior_matching_count(cubes, target)
    return payload


def _solve_rows(payload):
    rows = [{"quantity": "solution_number", "value": payload["solution_number"]}]
    if "interior_matching_count" in payload:
        interior = payload["interior_matching_count"]
        rows.append({"quantity": "interior_matching_count", "value": interior})
    if "arrangements" in payload:
        rows.append({"quantity": "arrangements_listed", "value": len(payload["arrangements"])})
    return ["quantity", "value"], rows, []


SOLVE = Report(params=_solve_params, compute=_solve_compute, rows=_solve_rows)


def _table1_compute(args, params):
    from .sweeps import TOTAL_COLLECTIONS, distribution_for_target

    counts = distribution_for_target("Ba")    # every target has the same counts
    return {
        "target": "Ba",
        "counts": {str(k): v for k, v in sorted(counts.items())},
        "buildable": sum(counts.values()),
        "total_collections": TOTAL_COLLECTIONS,
    }


TABLE1 = Report(
    compute=_table1_compute,
    rows=lambda payload: (
        ["solution_number", "collections"],
        [{"solution_number": k, "collections": v} for k, v in _int_keyed(payload["counts"])],
        ["buildable collections: %d of %d" % (payload["buildable"], payload["total_collections"])],
    ),
    cached=True,
    check=lambda payload: _mismatch((
        "solution distribution",
        dict(_int_keyed(payload["counts"])),
        reports.EXPECTED_SOLUTION_DISTRIBUTION,
    )),
)


def _table2_compute(args, params):
    from .sweeps import distribution_buildable

    dist, five_masks = distribution_buildable()
    return {
        "counts": {str(k): v for k, v in sorted(dist.items())},
        "five_target_collections": len(five_masks),
    }


def _table2_rows(payload):
    counts = _int_keyed(payload["counts"])
    total = sum(v for _, v in counts)
    rows = [
        {"buildable_targets": k, "collections": v, "proportion": "%.4f" % (v / total)}
        for k, v in counts
    ]
    return ["buildable_targets", "collections", "proportion"], rows, []


TABLE2 = Report(
    compute=_table2_compute,
    rows=_table2_rows,
    cached=True,
    check=lambda payload: _mismatch((
        "buildable distribution",
        dict(_int_keyed(payload["counts"])),
        reports.EXPECTED_BUILDABLE_DISTRIBUTION,
    )),
)


def _five_targets_compute(args, params):
    """The rule's records, checked against the census once per computed payload."""
    from .sweeps import distribution_buildable, five_target_records

    records = five_target_records()
    tableau = build_tableau()
    sweep = {tableau.names_of_mask(m) for m in distribution_buildable()[1]}
    differ = len({r.collection for r in records} ^ sweep)
    if differ:
        raise VerificationError(
            "the rule and the census disagree on %d five-target collections" % differ
        )
    return {
        "count": len(records),
        "records": [
            {
                "columns": list(r.rule.columns),
                "rows": list(r.rule.rows),
                "columns_first": r.rule.columns_first,
                "collection": list(r.collection),
                "targets": list(r.targets),
                "solution_numbers": {t: r.solution_numbers[t] for t in r.targets},
            }
            for r in records
        ],
    }


def _five_targets_rows(payload):
    rows = []
    for r in payload["records"]:
        row = {"cube%d" % i: name for i, name in enumerate(r["collection"], 1)}
        for i, t in enumerate(r["targets"], 1):
            row["target%d" % i] = t
            row["solutions%d" % i] = r["solution_numbers"][t]
        rows.append(row)
    fieldnames = ["cube%d" % i for i in range(1, 9)]
    fieldnames += ["target%d" % i for i in range(1, 6)] + ["solutions%d" % i for i in range(1, 6)]
    return fieldnames, rows, ["five-target collections: %d" % payload["count"]]


FIVE_TARGETS = Report(
    compute=_five_targets_compute,
    rows=_five_targets_rows,
    cached=True,
    check=lambda payload: _mismatch(
        ("rule records", payload["count"], reports.EXPECTED_BUILDABLE_DISTRIBUTION[5]),
    ),
)


def _universal_compute(args, params):
    from .universal import (
        buildable_count,
        conjecture_sets,
        orbit_and_stabilizer,
        per_target_analysis,
        subset_build_distribution,
    )

    tableau = build_tableau()
    candidates = conjecture_sets(tableau)
    report = orbit_and_stabilizer(candidates, tableau)
    sets = []
    for cand, stabilizer_order in zip(candidates, report.stabilizer_orders):
        # Two routes to one count: the upward closure, and the solver's collections.
        count, analyses = buildable_count(cand.names, tableau), per_target_analysis(cand, tableau)
        solved = sum(1 for a in analyses if a.collections)
        if count != solved:
            raise VerificationError(
                "set %s builds %d targets by the closure, %d by the solver"
                % (" ".join(cand.names), count, solved)
            )
        sets.append({
            "pair": list(cand.pair),
            "cubes": list(cand.names),
            "buildable_count": count,
            "stabilizer_order": stabilizer_order,
            "per_target": [
                {
                    "target": a.target,
                    "in_set": a.in_set,
                    "unusable_members": list(a.unusable_members),
                    "collections": [
                        {"cubes": list(c), "solution_number": v} for c, v in a.collections
                    ],
                }
                for a in analyses
            ],
        })
    figure7 = {
        str(k): {str(v): c for v, c in subset_build_distribution(candidates[0], k, tableau).items()}
        for k in (8, 9, 10, 11)
    }
    return {
        "sets": sets,
        "orbit": {"orbit_size": report.orbit_size, "single_orbit": report.single_orbit},
        "figure7": figure7,
    }


def _universal_check(payload):
    sets, count = payload["sets"], reports.EXPECTED_UNIVERSAL_SETS
    return _mismatch(
        ("candidate sets", len(sets), count),
        ("orbit", payload["orbit"], {"orbit_size": count, "single_orbit": True}),
        ("buildable targets per set", [s["buildable_count"] for s in sets], [30] * count),
        ("stabilizer order per set", [s["stabilizer_order"] for s in sets], [72] * count),
        (
            "subset build distributions",
            {k: dict(_int_keyed(h)) for k, h in _int_keyed(payload["figure7"])},
            reports.EXPECTED_SUBSET_BUILD,
        ),
    )


def _universal_rows(payload):
    rows = [
        {
            "pair": "".join(s["pair"]),
            "cubes": " ".join(s["cubes"]),
            "buildable": s["buildable_count"],
            "stabilizer": s["stabilizer_order"],
        }
        for s in payload["sets"]
    ]
    orbit = payload["orbit"]
    note = "orbit: size %d, single=%s" % (orbit["orbit_size"], orbit["single_orbit"])
    return ["pair", "cubes", "buildable", "stabilizer"], rows, [note]


def _universal_files(payload):
    files = {"universal.json": json.dumps(payload, sort_keys=True, indent=2) + "\n"}
    for k, histogram in _int_keyed(payload["figure7"]):
        rows = [{"buildable_count": v, "subsets": c} for v, c in _int_keyed(histogram)]
        files["figure7_k%d.csv" % k] = reports.render_csv(["buildable_count", "subsets"], rows)
    return files


UNIVERSAL = Report(
    compute=_universal_compute,
    rows=_universal_rows,
    cached=True,
    check=_universal_check,
    files=_universal_files,
)


def _sample_compute(args, params):
    from .universal import sample_distribution

    stats, counts = sample_distribution(params["k"], params["n"], params["seed"])
    histogram = {str(k): v for k, v in stats.histogram.items()}
    return dict(stats._asdict(), histogram=histogram, counts=[int(c) for c in counts])


def _sample_note(payload):
    return (
        "k=%(k)d n=%(n)d seed=%(seed)d mean=%(mean).4f std=%(std).4f min=%(min)d max=%(max)d"
        % payload
    )


SAMPLE = Report(
    params=lambda args: {"k": args.k, "n": args.n, "seed": args.seed},
    compute=_sample_compute,
    rows=lambda payload: (
        ["buildable_count", "samples"],
        [{"buildable_count": k, "samples": v} for k, v in _int_keyed(payload["histogram"])],
        [_sample_note(payload)],
    ),
    csv_rows=lambda payload: (
        ["sample", "buildable_count"],
        [{"sample": i, "buildable_count": c} for i, c in enumerate(payload["counts"])],
        [_sample_note(payload)],
    ),
)


def _search_compute(args, params):
    from .universal import exhaustive_search

    if args.out and args.checkpoint and os.path.realpath(args.out) == os.path.realpath(args.checkpoint):
        raise ValueError("--out %s is the --checkpoint file" % args.out)
    state = exhaustive_search(checkpoint_path=args.checkpoint, budget_combinations=args.budget)
    tableau = build_tableau()
    return {
        "completed": state.completed,
        "total": state.total,
        "finished": state.finished,
        "found": [list(tableau.names_of_mask(mask)) for mask in state.found],
    }


def _search_status(args, payload):
    if payload["finished"]:
        return EXIT_OK
    if args.checkpoint:
        print("budget exhausted; resume with the same --checkpoint", file=sys.stderr)
    else:
        print("budget exhausted before completion", file=sys.stderr)
    return EXIT_BUDGET


SEARCH = Report(
    params=lambda args: {"budget": args.budget},
    compute=_search_compute,
    rows=lambda payload: (
        ["cubes"],
        [{"cubes": " ".join(names)} for names in payload["found"]],
        [
            "scanned %d of %d twelve-cube sets; %d universal sets found"
            % (payload["completed"], payload["total"], len(payload["found"]))
        ],
    ),
    status=_search_status,
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="madness",
        description="Exact solver and enumerator for the MacMahon colored-cube 2x2x2 target puzzle.",
    )
    parser.add_argument("--version", action="version", version="madness " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, report, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(report=report)
        p.add_argument(
            "--format", choices=("text", "csv", "json"), default="text",
            help="report format (default text)",
        )
        p.add_argument("--out", metavar="PATH", help="write the report to a file")
        if report.cached:
            p.add_argument(
                "--cache-dir", default=None, metavar="DIR",
                help="cache directory (default $MADNESS_CACHE_DIR or $XDG_CACHE_HOME/madness)",
            )
            p.add_argument(
                "--no-cache", action="store_true", help="compute without reading or writing the cache"
            )
        if report.check:
            p.add_argument("--check", action="store_true", help="verify against the expected values")
        if report.files:
            p.add_argument(
                "--out-dir", metavar="DIR", help="write universal.json and figure7_k{8..11}.csv here"
            )
        return p

    add("cubes", CUBES, "list the 30 cubes with colorings and corner numbers")

    p = add("solve", SOLVE, "solution number of one collection for one target")
    p.add_argument("--target", required=True, help="target cube name, e.g. Ba")
    p.add_argument("--cubes", required=True, help="8 cube names, comma or space separated")
    p.add_argument("--arrangements", action="store_true", help="list every solution explicitly")
    p.add_argument("--interior", action="store_true", help="also count interior-matching solutions")

    add("table1", TABLE1, "solution-number distribution over all collections")

    add("table2", TABLE2, "buildable-target distribution over all collections")

    add("five-targets", FIVE_TARGETS, "the 360 collections that build five targets, by rule")

    add("universal", UNIVERSAL, "the ten 12-cube universal sets and their structure")

    p = add("sample", SAMPLE, "buildable-count statistics of random k-cube sets")
    p.add_argument("--k", type=int, required=True, help="cubes per sample (8..30)")
    p.add_argument("--n", type=int, default=20000, help="number of samples (default 20000)")
    p.add_argument("--seed", type=int, default=7, help="base seed (default 7)")

    p = add("search", SEARCH, "scan all C(30,12) sets for universality, resumably")
    p.add_argument("--budget", type=int, help="stop after this many combinations")
    p.add_argument("--checkpoint", help="checkpoint file for resuming")

    return parser


def _one_line(exc):
    """The message of ``exc`` on one line, even where a path in it holds a line break."""
    return str(exc).replace("\r", "\\r").replace("\n", "\\n")


def main(argv=None):
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")    # read once, when numpy loads OpenBLAS
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        status = run_report(args.report, args)
        sys.stdout.flush()    # a closed stdout fails here, not in the interpreter's exit flush
        return status
    except BrokenPipeError:    # the reader went away, as in `madness cubes | head -1`: no bad flag
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except VerificationError as exc:
        print("verification failed: %s" % _one_line(exc), file=sys.stderr)
        return EXIT_VERIFICATION
    except _VALIDATION_ERRORS as exc:
        print("error: %s" % _one_line(exc), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
