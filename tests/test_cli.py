import argparse
import errno
import hashlib
import importlib
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import madness
from madness import cli, reports, solver, sweeps, universal
from madness.cli import main
from madness.reports import (
    EXPECTED_BUILDABLE_DISTRIBUTION,
    EXPECTED_SOLUTION_DISTRIBUTION,
    EXPECTED_SUBSET_BUILD,
    ReportCache,
)

CANONICAL = "Ac,Ad,Ae,Af,Cb,Db,Eb,Fb"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_command_is_a_usage_error(capsys):
    code, _, err = run(capsys, *[])
    assert code == 2
    assert "usage" in err


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("madness ")


def test_cubes_csv(capsys):
    code, out, _ = run(capsys, "cubes", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 31
    assert lines[0] == "name,id,U,D,N,E,S,W,c1,c2,c3,c4,c5,c6,c7,c8"
    assert lines[1].startswith("Ab,0,")
    assert lines[1].endswith("126,132,143,164,235,256,345,465")
    assert any(line.startswith("Ba,5,") for line in lines)


def test_cubes_text_has_envelope_header(capsys):
    code, out, _ = run(capsys, "cubes")
    assert code == 0
    first = out.split("\n", 1)[0]
    assert first.startswith("madness ")
    assert "data " in first
    assert "computed in" in out


def test_envelope_version_is_the_package_version_not_a_field():
    head = reports.Envelope(command="cubes", params={}).as_dict()
    assert (head["tool"], head["version"], head["command"]) == ("madness", madness.__version__, "cubes")
    with pytest.raises(TypeError):
        reports.Envelope(command="cubes", params={}, version="0")


def test_envelope_fields_cannot_be_assigned():
    envelope = reports.Envelope(command="cubes", params={})
    with pytest.raises(AttributeError):
        envelope.command = "solve"
    assert envelope.as_dict()["command"] == "cubes"


def test_solve_json_payload(capsys):
    code, out, _ = run(
        capsys, "solve", "--target", "Ba", "--cubes", CANONICAL,
        "--interior", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "madness"
    assert doc["command"] == "solve"
    assert len(doc["data_hash"]) == 16
    assert doc["params"]["target"] == "Ba"
    payload = doc["payload"]
    assert payload["solution_number"] == 16
    assert payload["methods"] == {"formula": 16, "permanent": 16, "prime_scan": 16}
    assert payload["interior_matching_count"] == 2


def test_solve_arrangements_payload(capsys):
    code, out, _ = run(
        capsys, "solve", "--target", "Ba", "--cubes", CANONICAL,
        "--arrangements", "--format", "json",
    )
    assert code == 0
    arrangements = json.loads(out)["payload"]["arrangements"]
    assert len(arrangements) == 16
    for arrangement in arrangements:
        assert len(arrangement) == 8
        for p in arrangement:
            assert set(p) == {"corner", "position", "cube", "faces"}
            assert set(p["faces"]) == set("UDNESW")


def test_solve_arrangement_count_disagreement_exits_3(capsys, monkeypatch):
    listed = solver.enumerate_arrangements
    monkeypatch.setattr(solver, "enumerate_arrangements", lambda *a: listed(*a)[1:])
    code, out, err = run(capsys, "solve", "--target", "Ba", "--cubes", CANONICAL, "--arrangements")
    assert (code, out) == (3, "")
    assert err == "verification failed: arrangement listing disagrees: formula=16 arrangements=15\n"


def test_solve_counting_disagreement_exits_3(capsys, monkeypatch):
    scan = solver.solution_number_prime_scan
    monkeypatch.setattr(solver, "solution_number_prime_scan", lambda *a: scan(*a) + 1)
    code, out, err = run(capsys, "solve", "--target", "Ba", "--cubes", CANONICAL)
    assert (code, out) == (3, "")
    assert err == "verification failed: counting methods disagree: formula=16 permanent=16 primes=17\n"


def test_solve_interior_with_arrangements_runs_the_pruned_count(capsys, monkeypatch):
    calls = []
    picks = solver._solution_picks
    monkeypatch.setattr(solver, "_solution_picks", lambda *a: calls.append(a[3:]) or picks(*a))
    code, out, _ = run(
        capsys, "solve", "--target", "Ba", "--cubes", CANONICAL,
        "--interior", "--arrangements", "--format", "json",
    )
    # One plain search lists the arrangements, one pruned search counts the interior matches.
    assert (code, calls) == (0, [(), (solver._CONTACTS_BY_CELL,)])
    payload = json.loads(out)["payload"]
    assert (payload["interior_matching_count"], len(payload["arrangements"])) == (2, 16)


def test_solve_space_separated_and_zero(capsys):
    code, out, _ = run(
        capsys, "solve", "--target", "Ba",
        "--cubes", "Ab Ac Ad Ae Af Cb Db Eb", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["payload"]["solution_number"] == 0


def test_solve_validation_errors(capsys):
    code, _, err = run(capsys, "solve", "--target", "Ba", "--cubes", "Zz," + CANONICAL[3:])
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "solve", "--target", "Ba", "--cubes", "Ac,Ad,Ae")
    assert code == 2
    code, _, _ = run(capsys, "solve", "--target", "Ba", "--cubes", "Ac,Ac,Ad,Ae,Af,Cb,Db,Eb")
    assert code == 2
    code, _, _ = run(capsys, "solve", "--target", "Aa", "--cubes", CANONICAL)
    assert code == 2


def test_table1_check_and_cache(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out, _ = run(capsys, "table1", "--check", "--cache-dir", cache, "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert {int(k): v for k, v in payload["counts"].items()} == EXPECTED_SOLUTION_DISTRIBUTION
    assert payload["buildable"] == 133680
    assert os.listdir(cache)
    code, out2, _ = run(capsys, "table1", "--check", "--cache-dir", cache, "--format", "json")
    assert code == 0
    assert out2 == out


def test_table1_no_cache_writes_nothing(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, _, _ = run(capsys, "table1", "--no-cache", "--cache-dir", cache)
    assert code == 0
    assert not os.path.exists(cache)


def test_table2_check(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out, _ = run(capsys, "table2", "--check", "--cache-dir", cache, "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "buildable_targets,collections,proportion"
    assert len(lines) == 7
    assert lines[1].startswith("0,%d,0.4741" % EXPECTED_BUILDABLE_DISTRIBUTION[0])
    assert lines[-1].startswith("5,360,0.0001")


def test_five_targets_check(tmp_path, capsys, monkeypatch):
    argv = ("five-targets", "--check", "--cache-dir", str(tmp_path / "cache"), "--format", "csv")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 361
    assert lines[0].startswith("cube1,cube2")
    assert any("Db" in line and "De" in line for line in lines[1:])
    # The rule was compared with the census when the payload was computed;
    # a cache hit must not run the census again.
    monkeypatch.setattr(sweeps, "distribution_buildable", lambda: pytest.fail("census run on a cache hit"))
    assert run(capsys, *argv) == (0, out, "")


def test_five_targets_rule_census_disagreement_exits_3(tmp_path, capsys, monkeypatch):
    dist, five_masks = sweeps.distribution_buildable()
    monkeypatch.setattr(sweeps, "distribution_buildable", lambda: (dist, five_masks[1:]))
    cache = tmp_path / "cache"
    code, out, err = run(capsys, "five-targets", "--cache-dir", str(cache))
    assert (code, out) == (3, "")
    assert err.startswith("verification failed: ") and err.count("\n") == 1
    assert list(cache.glob("*")) == []


def test_universal_check_and_out_dir(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    out_dir = str(tmp_path / "reports")
    code, out, _ = run(
        capsys, "universal", "--check", "--cache-dir", cache, "--out-dir", out_dir,
    )
    assert code == 0
    with open(os.path.join(out_dir, "universal.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert len(doc["sets"]) == 10
    assert doc["orbit"] == {"orbit_size": 10, "single_orbit": True}
    fig = {int(k): {int(v): c for v, c in h.items()} for k, h in doc["figure7"].items()}
    assert fig == EXPECTED_SUBSET_BUILD
    for k in (8, 9, 10, 11):
        path = os.path.join(out_dir, f"figure7_k{k}.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "buildable_count,subsets"
        assert len(lines) == 1 + len(EXPECTED_SUBSET_BUILD[k])


def test_universal_closure_and_solver_counts_must_agree(capsys, monkeypatch):
    # Each set's buildable count comes from the upward closure, its per-target
    # collections from the solver; a set the two routes disagree on fails.
    monkeypatch.setattr(universal, "buildable_count", lambda *args: 29)
    code, out, err = run(capsys, "universal", "--no-cache")
    assert (code, out) == (3, "")
    assert err.count("\n") == 1
    assert err.startswith("verification failed: set ") and "29 targets by the closure, 30 by the solver" in err


# The expected table each command's --check compares with, and a wrong value for it.
_WRONG_EXPECTATIONS = {
    "table1": ("EXPECTED_SOLUTION_DISTRIBUTION", lambda d: {**d, 16: d[16] + 1}),
    "table2": ("EXPECTED_BUILDABLE_DISTRIBUTION", lambda d: {**d, 0: d[0] + 1}),
    "five-targets": ("EXPECTED_BUILDABLE_DISTRIBUTION", lambda d: {**d, 5: d[5] + 1}),
    "universal": ("EXPECTED_UNIVERSAL_SETS", lambda n: n + 1),
}


@pytest.mark.parametrize("command", sorted(_WRONG_EXPECTATIONS))
def test_a_failed_check_is_one_verification_line(command, tmp_path, capsys, monkeypatch):
    name, wrong = _WRONG_EXPECTATIONS[command]
    monkeypatch.setattr(reports, name, wrong(getattr(reports, name)))
    report = tmp_path / "report.json"
    code, out, err = run(capsys, command, "--check", "--no-cache", "--format", "json", "--out", str(report))
    assert (code, out) == (3, "")
    assert err.startswith("verification failed: ") and err.count("\n") == 1
    assert not report.exists()


def test_a_closed_stdout_is_no_bad_flag():
    # Over 64 KB of CSV: the pipe fills, and the write fails, whenever the reader closes it.
    proc = subprocess.Popen(
        [sys.executable, "-m", "madness.cli", "sample", "--k", "12", "--n", "20000", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (141, b"")


def test_cache_entry_that_cannot_be_stored_still_writes_the_report(tmp_path, capsys, caplog, monkeypatch):
    # A read-only cache directory (chmod does not stop root, so the write fails
    # by monkeypatch).  The one warning is a log record, printed to stderr
    # outside pytest like the warning for an unreadable entry.
    def refuse(path, obj):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

    expected = tmp_path / "expected.json"
    assert run(capsys, "table1", "--no-cache", "--format", "json", "--out", str(expected))[0] == 0
    monkeypatch.setattr(reports, "write_json", refuse)
    cache, out = tmp_path / "cache", tmp_path / "table1.json"
    code, stdout, err = run(capsys, "table1", "--cache-dir", str(cache), "--format", "json", "--out", str(out))
    assert (code, stdout, err) == (0, "wrote %s\n" % out, "")
    (warning,) = [(r.levelname, r.getMessage()) for r in caplog.records]
    assert re.fullmatch(
        r"not storing cache file %stable1-[0-9a-f]{16}\.json \(%s\)"
        % (re.escape(str(cache) + os.sep), os.strerror(errno.EACCES)),
        warning[1],
    )
    assert warning[0] == "WARNING"
    assert out.read_bytes() == expected.read_bytes()
    assert list(cache.iterdir()) == []


def test_out_files_byte_identical_across_cache_hit(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(capsys, "table2", "--cache-dir", cache, "--format", "json", "--out", a)[0] == 0
    assert run(capsys, "table2", "--cache-dir", cache, "--format", "json", "--out", b)[0] == 0
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_corrupted_cache_is_recovered(tmp_path, capsys):
    # Not JSON, JSON that is not an object, and a payload edited under its
    # own key (a wrong count; a count that is not a number): each entry is
    # discarded and recomputed.
    edits = [
        ("table1", EXPECTED_SOLUTION_DISTRIBUTION, lambda text: "not json {"),
        ("table1", EXPECTED_SOLUTION_DISTRIBUTION, lambda text: "[1,2]"),
        ("table1", EXPECTED_SOLUTION_DISTRIBUTION, lambda text: text.replace("93000", "93001")),
        (
            "table2",
            EXPECTED_BUILDABLE_DISTRIBUTION,
            lambda text: re.sub(r'"counts": \{[^}]*\}', '"counts": {"0": "x"}', text),
        ),
    ]
    for command, expected, edit in edits:
        cache = str(tmp_path / command)
        if not os.path.isdir(cache):
            assert run(capsys, command, "--cache-dir", cache)[0] == 0
        (entry,) = os.listdir(cache)
        path = os.path.join(cache, entry)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert edit(text) != text
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(edit(text))
        code, out, _ = run(capsys, command, "--check", "--cache-dir", cache, "--format", "json")
        assert code == 0
        counts = json.loads(out)["payload"]["counts"]
        assert {int(k): v for k, v in counts.items()} == expected
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["payload"]["counts"] == counts


def test_cache_entry_of_another_version_misses(tmp_path, monkeypatch):
    cache = ReportCache(str(tmp_path))
    cache.store("table2", {}, {"counts": {}})
    assert cache.load("table2", {}) == {"counts": {}}
    monkeypatch.setattr(reports, "__version__", madness.__version__ + ".other")
    assert cache.load("table2", {}) is None


def test_cache_entry_of_other_source_code_misses(tmp_path, monkeypatch):
    cache = ReportCache(str(tmp_path))
    cache.store("table2", {}, {"counts": {}})
    assert cache.load("table2", {}) == {"counts": {}}
    monkeypatch.setattr(reports, "_source_hash", lambda: "0" * 16)
    assert cache.load("table2", {}) is None


def test_stored_cache_entry_is_one_json_dumps(tmp_path):
    # The entry is written in one json.dumps call, through the C encoder;
    # its bytes are those of the sorted-key dumps of the entry it loads as.
    payload = {"counts": {"8": 19860, "2": 93000}, "mean": 18.1739, "names": ["Ba", "Ćf"], "ok": True}
    path = ReportCache(str(tmp_path)).store("table2", {"k": 12}, payload)
    with open(path, "rb") as fh:
        written = fh.read()
    entry = json.loads(written)
    assert entry["payload"] == payload
    assert written == json.dumps(entry, sort_keys=True).encode()


_BIG_PAYLOAD = {"blob": "x" * (1 << 20)}


def _store_repeatedly(directory, start, stores):
    """One writer of the concurrent-store test: the same 1 MB entry, over and over."""
    cache = ReportCache(directory)
    start.wait(timeout=60)
    for _ in range(stores):
        cache.store("table2", {}, _BIG_PAYLOAD)


def test_concurrent_stores_of_one_entry_all_succeed(tmp_path):
    # Runs sharing a cache directory store the same entries.  More writers
    # than cores, all on one key: no store may fail, and the entry loads back.
    context = multiprocessing.get_context("spawn")
    workers = 4
    start = context.Barrier(workers)
    procs = [
        context.Process(target=_store_repeatedly, args=(str(tmp_path), start, 50))
        for _ in range(workers)
    ]
    for p in procs:
        p.start()
    try:
        for p in procs:
            p.join(timeout=120)
            assert not p.is_alive()
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=10)
    assert [p.exitcode for p in procs] == [0] * workers
    assert ReportCache(str(tmp_path)).load("table2", {}) == _BIG_PAYLOAD
    assert [f.name for f in tmp_path.iterdir() if f.suffix == ".tmp"] == []


def test_sample_csv_deterministic(tmp_path, capsys):
    argv = ("sample", "--k", "12", "--n", "50", "--seed", "3", "--format", "csv")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# k=12 n=50 seed=3 mean=")
    assert lines[1] == "sample,buildable_count"
    assert len(lines) == 52
    assert out == run(capsys, *argv)[1]
    path = str(tmp_path / "sample.csv")
    assert run(capsys, *argv, "--out", path)[0] == 0
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == out


def test_threads_flag_is_a_usage_error(capsys):
    code, _, err = run(capsys, "sample", "--k", "10", "--n", "40", "--threads", "1")
    assert code == 2
    assert "--threads" in err


def test_direct_flag_is_a_usage_error(capsys):
    code, _, err = run(capsys, "table1", "--direct")
    assert code == 2
    assert "--direct" in err


def test_table1_target_flag_is_a_usage_error(capsys):
    # Every target has the same Table 1, so the command takes no target.
    code, _, err = run(capsys, "table1", "--target", "Cd")
    assert code == 2
    assert "--target" in err


def test_sample_text_histogram(capsys):
    code, out, _ = run(capsys, "sample", "--k", "12", "--n", "200", "--seed", "7")
    assert code == 0
    assert "mean=" in out
    assert "buildable_count" in out


def test_sample_validation(capsys):
    assert run(capsys, "sample", "--k", "7", "--n", "10")[0] == 2


def test_search_budget_and_resume(tmp_path, capsys):
    checkpoint = str(tmp_path / "scan.json")
    code, out, err = run(
        capsys, "search", "--budget", "20000",
        "--checkpoint", checkpoint,
    )
    assert code == 4
    assert "scanned 20000 of 86493225" in out
    assert "resume" in err
    code, out, _ = run(
        capsys, "search", "--budget", "10000",
        "--checkpoint", checkpoint,
    )
    assert code == 4
    assert "scanned 30000 of 86493225" in out


def test_search_writes_its_report(tmp_path, capsys):
    checkpoint, report = str(tmp_path / "scan.json"), tmp_path / "report.json"
    code, _, err = run(
        capsys, "search", "--budget", "20000",
        "--checkpoint", checkpoint, "--format", "json", "--out", str(report),
    )
    assert code == 4
    assert "resume" in err
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["command"] == "search"
    assert doc["payload"] == {
        "completed": 20000, "total": 86493225, "finished": False, "found": [],
    }


def test_search_report_over_its_checkpoint_is_a_validation_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "search", "--budget", "5", "--checkpoint", "ck.json")[0] == 4
    stored = (tmp_path / "ck.json").read_bytes()
    code, out, err = run(
        capsys, "search", "--budget", "5", "--checkpoint", "./ck.json",
        "--out", str(tmp_path / "ck.json"), "--format", "json",
    )
    assert (code, out) == (2, "")
    assert err == "error: --out %s is the --checkpoint file\n" % (tmp_path / "ck.json")
    assert (tmp_path / "ck.json").read_bytes() == stored    # nothing scanned, nothing written


@pytest.mark.parametrize("flag, value", [("--budget", "-5")])
def test_bad_budget_is_a_validation_error(flag, value, tmp_path, capsys):
    # Rejected before the checkpoint is read: a malformed one is left as it is.
    checkpoint = tmp_path / "scan.json"
    checkpoint.write_text("[1,2]", encoding="utf-8")
    code, out, err = run(capsys, "search", flag, value, "--checkpoint", str(checkpoint))
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: a budget of ") and value in err
    assert checkpoint.read_text(encoding="utf-8") == "[1,2]"


@pytest.mark.parametrize("content", ["[1,2]", '{"completed": "x"}'])
def test_malformed_checkpoint_is_a_validation_error(content, tmp_path, capsys):
    checkpoint = tmp_path / "scan.json"
    checkpoint.write_text(content, encoding="utf-8")
    code, out, err = run(capsys, "search", "--budget", "10", "--checkpoint", str(checkpoint))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: checkpoint ")


def test_checkpoint_with_a_foreign_mask_is_a_validation_error(tmp_path, capsys):
    # -1 and 7 are not 12-cube sets: resuming this file used to list a
    # 30-cube and a 3-cube "universal set" and exit 4.
    checkpoint = tmp_path / "scan.json"
    checkpoint.write_text(json.dumps({
        "completed": 12, "found": [-1, 7], "source": reports._source_hash(),
    }), encoding="utf-8")
    code, out, err = run(capsys, "search", "--budget", "0", "--checkpoint", str(checkpoint), "--format", "json")
    assert code == 2
    assert out == ""
    assert err == "error: checkpoint %s does not hold a scan state of the C(30,12) sets\n" % checkpoint


def _search_from(checkpoint, capsys, completed, found):
    checkpoint.write_text(json.dumps({
        "completed": completed, "found": found, "source": reports._source_hash(),
    }), encoding="utf-8")
    return run(capsys, "search", "--budget", "0", "--checkpoint", str(checkpoint))


def test_checkpoint_with_a_set_the_scan_did_not_find_is_a_validation_error(tmp_path, capsys):
    # The first 12 cubes, listed twice: resuming this file used to report
    # "2 universal sets found" and exit 4.
    checkpoint = tmp_path / "scan.json"
    code, out, err = _search_from(checkpoint, capsys, 0, [(1 << 12) - 1] * 2)
    assert code == 2
    assert out == ""
    assert err == "error: checkpoint %s lists sets that the scan did not find, or omits some\n" % checkpoint


def test_finished_checkpoint_without_the_universal_sets_is_a_validation_error(tmp_path, capsys):
    # Resuming this file used to report "0 universal sets found" and exit 0.
    checkpoint = tmp_path / "scan.json"
    code, out, err = _search_from(checkpoint, capsys, 86493225, [])
    assert (code, out) == (2, "")
    assert err == "error: checkpoint %s lists sets that the scan did not find, or omits some\n" % checkpoint


def test_old_format_checkpoint_is_a_validation_error(tmp_path, capsys):
    # completed and last_combo disagree: resuming this file used to report
    # "scanned 12" and exit 4 on every run.
    checkpoint = tmp_path / "scan.json"
    checkpoint.write_text(json.dumps({
        "completed": 12, "last_combo": list(range(18, 30)), "found": [], "total": 86493225,
    }), encoding="utf-8")
    code, out, err = run(capsys, "search", "--checkpoint", str(checkpoint))
    assert code == 2
    assert out == ""
    assert err == "error: checkpoint %s must be an object with completed, found and source\n" % checkpoint


@pytest.mark.parametrize("written, problem", [
    (
        {"completed": 12, "found": [], "source": "0" * 16},
        "was written by other code (source '0000000000000000')",
    ),
    # The format before checkpoints carried the source hash.
    (
        {"completed": 12, "found": [], "total": 86493225, "version": madness.__version__, "data": "0" * 16},
        "must be an object with completed, found and source",
    ),
], ids=["other-source", "five-key"])
def test_checkpoint_of_other_code_fails_before_scanning(written, problem, tmp_path, capsys, monkeypatch):
    def scan_nothing(*args):
        raise AssertionError("scanned a checkpoint of other code")

    monkeypatch.setattr(universal, "_scan_step", scan_nothing)
    checkpoint = tmp_path / "scan.json"
    checkpoint.write_text(json.dumps(written), encoding="utf-8")
    code, out, err = run(capsys, "search", "--checkpoint", str(checkpoint))
    assert (code, out, err) == (2, "", "error: checkpoint %s %s\n" % (checkpoint, problem))
    assert json.loads(checkpoint.read_text(encoding="utf-8")) == written


def test_out_into_missing_directory_fails_before_computing(tmp_path, capsys, monkeypatch):
    def compute_nothing(target):
        raise AssertionError("table1 computed before checking --out")

    monkeypatch.setattr(sweeps, "distribution_for_target", compute_nothing)
    out = tmp_path / "missing" / "x.txt"
    code, stdout, err = run(capsys, "table1", "--no-cache", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err == "error: --out directory %s does not exist\n" % out.parent


def test_out_into_the_out_dir_it_creates(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code, out, err = run(
        capsys, "universal", "--no-cache", "--out-dir", str(out_dir),
        "--format", "json", "--out", str(out_dir / "report.json"),
    )
    names = ["universal.json"] + ["figure7_k%d.csv" % k for k in range(8, 12)] + ["report.json"]
    assert (code, err) == (0, "")
    assert out == "".join("wrote %s\n" % (out_dir / name) for name in names)


def test_unwritable_out_is_a_validation_error(tmp_path, capsys):
    code, out, err = run(capsys, "cubes", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ")


def _compute_nothing(*args):
    raise AssertionError("computed before checking the output paths")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_out_on_a_full_device_names_the_flag_and_the_path(capsys):
    code, out, err = run(capsys, "table1", "--no-cache", "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert err == "error: --out /dev/full cannot be written: %s\n" % os.strerror(errno.ENOSPC)


def test_out_dir_file_that_is_a_directory_names_the_flag_and_the_path(tmp_path, capsys):
    (tmp_path / "universal.json").mkdir()
    code, out, err = run(capsys, "universal", "--no-cache", "--out-dir", str(tmp_path))
    assert code == 2
    path = tmp_path / "universal.json"
    assert err == "error: --out-dir %s cannot be written: %s\n" % (path, os.strerror(errno.EISDIR))


def test_out_under_a_regular_file_says_it_is_not_a_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sweeps, "distribution_for_target", _compute_nothing)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, "table1", "--out", str(blocker / "x.txt"))
    assert (code, out, err) == (2, "", "error: --out directory %s is not a directory\n" % blocker)


def test_out_that_is_a_directory_fails_before_computing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sweeps, "distribution_buildable", _compute_nothing)
    cache = tmp_path / "cache"
    code, out, err = run(capsys, "table2", "--out", str(tmp_path), "--cache-dir", str(cache))
    assert (code, out, err) == (2, "", "error: --out %s is a directory\n" % tmp_path)
    assert not cache.exists()


def test_out_dir_that_is_a_file_fails_before_computing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(universal, "conjecture_sets", _compute_nothing)
    cache = tmp_path / "cache"
    out_dir = tmp_path / "reports"
    out_dir.write_text("not a directory\n")
    code, out, err = run(capsys, "universal", "--out-dir", str(out_dir), "--cache-dir", str(cache))
    assert (code, out, err) == (2, "", "error: --out-dir %s is not a directory\n" % out_dir)
    assert not cache.exists()
    assert out_dir.read_text() == "not a directory\n"


def test_out_dir_under_a_file_fails_before_computing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(universal, "conjecture_sets", _compute_nothing)
    blocker = tmp_path / "reports"
    blocker.write_text("not a directory\n")
    out_dir = blocker / "sub"
    code, out, err = run(capsys, "universal", "--no-cache", "--out-dir", str(out_dir))
    message = "error: --out-dir %s cannot be created: %s\n" % (out_dir, os.strerror(errno.ENOTDIR))
    assert (code, out, err) == (2, "", message)


def test_cache_dir_under_a_file_fails_before_computing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sweeps, "distribution_for_target", _compute_nothing)
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory\n")
    cache = blocker / "sub"
    code, out, err = run(capsys, "table1", "--cache-dir", str(cache))
    message = "error: --cache-dir %s cannot be created: %s\n" % (cache, os.strerror(errno.ENOTDIR))
    assert (code, out, err) == (2, "", message)
    assert blocker.read_text() == "not a directory\n"


def test_cache_dir_that_is_a_file_fails_before_computing(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    cache.write_text("not a directory\n")
    with monkeypatch.context() as patch:
        patch.setattr(sweeps, "distribution_for_target", _compute_nothing)
        code, out, err = run(capsys, "table1", "--cache-dir", str(cache))
    assert (code, out, err) == (2, "", "error: --cache-dir %s is not a directory\n" % cache)
    assert cache.read_text() == "not a directory\n"
    # --no-cache neither reads nor writes the cache, so its directory is not checked.
    assert run(capsys, "table1", "--no-cache", "--cache-dir", str(cache))[0] == 0


@pytest.mark.parametrize("where", ["", "missing/scan.json"], ids=["directory", "missing-directory"])
def test_unusable_checkpoint_path_is_a_validation_error(where, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(universal, "_scan_step", _compute_nothing)
    checkpoint = tmp_path / where
    code, out, err = run(capsys, "search", "--budget", "10", "--checkpoint", str(checkpoint))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: checkpoint %s cannot be " % checkpoint)


@pytest.mark.parametrize("flag", ["--checkpoint", "--out", "--out-dir", "--cache-dir"])
def test_error_naming_a_path_with_a_line_break_is_one_line(flag, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(universal, "_scan_step", _compute_nothing)
    monkeypatch.setattr(universal, "conjecture_sets", _compute_nothing)
    monkeypatch.setattr(sweeps, "distribution_for_target", _compute_nothing)
    blocker = tmp_path / "not\na directory"
    blocker.write_text("")
    argv = {
        "--checkpoint": ("search", "--budget", "10", "--checkpoint", str(blocker / "x.json")),
        "--out": ("cubes", "--out", str(blocker / "x.txt")),
        "--out-dir": ("universal", "--no-cache", "--out-dir", str(blocker / "sub")),
        "--cache-dir": ("table1", "--cache-dir", str(blocker / "sub")),
    }[flag]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert str(blocker).replace("\n", "\\n") in err


@pytest.mark.parametrize("source", ["environment", "default"])
def test_cache_dir_error_names_where_the_directory_came_from(source, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sweeps, "distribution_for_target", _compute_nothing)
    if source == "environment":
        cache = tmp_path / "cache"
        monkeypatch.setenv("MADNESS_CACHE_DIR", str(cache))
        name = "$MADNESS_CACHE_DIR"
    else:
        (tmp_path / ".cache").mkdir()
        cache = tmp_path / ".cache" / "madness"
        monkeypatch.delenv("MADNESS_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        name = "default cache directory"
    cache.write_text("not a directory\n")
    code, out, err = run(capsys, "table1")
    assert (code, out, err) == (2, "", "error: %s %s is not a directory\n" % (name, cache))
    assert cache.read_text() == "not a directory\n"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_sample_count_must_be_positive(n, capsys):
    code, out, err = run(capsys, "sample", "--k", "12", "--n", n)
    assert code == 2
    assert out == ""
    assert err == "error: number of samples n must be at least 1, got %s\n" % n


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "-1", "seed must be a non-negative integer, got -1"),
        # an allocation this size is refused at once, touching no memory
        ("--n", str(10**15), "1000000000000000 samples of 12 cubes do not fit in memory"),
    ],
)
def test_sample_bad_seed_or_size_is_one_line(flag, value, message, capsys):
    code, out, err = run(capsys, "sample", "--k", "12", flag, value)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_console_script_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        config = tomllib.load(fh)
    # The version is stated once, in madness/__init__.py.
    assert "version" not in config["project"] and "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "madness.__version__"}
    scripts = config["project"]["scripts"]
    module_name, _, attr = scripts["madness"].partition(":")
    assert (module_name, attr) == ("madness.cli", "main")
    assert getattr(importlib.import_module(module_name), attr) is main
    assert main(["--version"]) == 0

    proc = subprocess.run(
        [sys.executable, "-m", "madness.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("madness ")
    proc = subprocess.run(
        [sys.executable, "-m", "madness.cli", "solve", "--target", "Ba",
         "--cubes", CANONICAL, "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["solution_number"] == 16


def test_single_collection_commands_do_not_import_numpy():
    # cubes, solver, reports and cli are the numpy-free core; the package
    # loads each exported name on first use.
    script = "\n".join([
        "import sys",
        "from madness import cli",
        "assert cli.main(['cubes']) == 0",
        "assert cli.main(['solve', '--target', 'Ba', '--cubes', %r, '--interior', '--arrangements']) == 0"
        % CANONICAL,
        "assert 'numpy' not in sys.modules, 'numpy imported'",
        "import madness",
        "assert madness.distribution_buildable is madness.sweeps.distribution_buildable",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _cold_table2(tmp_path, blas_threads=None):
    """Run ``table2 --no-cache`` in a fresh interpreter, with OPENBLAS_NUM_THREADS
    unset or set to ``blas_threads``: (the value it ran with, whether numpy.ma loaded)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    script = "\n".join([
        "import os, sys",
        "from madness import cli",
        "assert cli.main(['table2', '--no-cache', '--out', sys.argv[1]]) == 0",
        "assert 'numpy' in sys.modules",
        "print(os.environ['OPENBLAS_NUM_THREADS'], 'numpy.ma' in sys.modules)",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "table2.txt")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(proc.stdout.split()[-2:])


def test_cold_table2_runs_blas_on_one_thread_and_never_loads_numpy_ma(tmp_path):
    # OpenBLAS reads OPENBLAS_NUM_THREADS when numpy loads it, so main()
    # sets it before a compute imports numpy; np.unique without
    # return_counts would import numpy.ma.
    assert _cold_table2(tmp_path) == ("1", "False")


def test_cli_keeps_the_users_blas_thread_count(tmp_path):
    assert _cold_table2(tmp_path, "2")[0] == "2"


def test_importing_madness_leaves_the_environment_alone():
    script = "\n".join([
        "import os",
        "before = dict(os.environ)",
        "import madness.cli, madness.sweeps, madness.universal",
        "assert dict(os.environ) == before, 'os.environ changed'",
    ])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(
    shutil.which("madness") is None,
    reason="the `madness` console script is not on PATH (package not installed)",
)
def test_console_script_is_installed():
    script = shutil.which("madness")
    proc = subprocess.run([script, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "madness " + madness.__version__
    proc = subprocess.run(
        [script, "solve", "--target", "Ba", "--cubes", CANONICAL, "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["solution_number"] == 16


# ---------------------------------------------------------------------------
# Golden bytes.  Every report file of each command, in each format, plus
# the files of `universal --out-dir`, must keep these sha256
# digests.  A change that alters any of them changes what users get on disk,
# and must say why.
# ---------------------------------------------------------------------------

GOLDEN_ARGV = {
    "cubes": ("cubes",),
    "solve": ("solve", "--target", "Ba", "--cubes", CANONICAL, "--interior", "--arrangements"),
    "table1": ("table1",),
    "table2": ("table2",),
    "five-targets": ("five-targets",),
    "universal": ("universal",),
    "sample": ("sample", "--k", "12", "--n", "50", "--seed", "3"),
    # The budget ends just past the first universal 12-set, rank 10,236,518.
    "search": ("search", "--budget", "10236519"),
}
GOLDEN_CACHED = {"table1", "table2", "five-targets", "universal"}
GOLDEN_SHA256 = {
    "cubes-text": "c6df51c137fac1f7a110139273bd5a4fd88461d683cea25a4167530825d43598",
    "cubes-csv": "37de70ff003f543191a6207ee8a7a65b70c2318361fac1a7a605eba5dbbfbcab",
    "cubes-json": "897a5a966fa1c9346a9b338dd105840e4b3be4fa0fa56f0ddbac8e6689526e15",
    "solve-text": "1d57f5f61093b476555d619e6efdee22c58b76de1e0e96d63afb85c19ddd4141",
    "solve-csv": "354abcac79b53edf6ca7a8bb8ef8eb5c166654d46f0cab8fb12bb54e8072a28c",
    "solve-json": "e651d0f81c9325b717678083ff86a7feceb2b4c9f5390460b0078c62a11b8780",
    "table1-text": "e73add78f01f02d9bd85d09f3bf6062b9285b51031e6dd8b0f2e60da33e56c23",
    "table1-csv": "1ead753237710275ea87eb59b2166beff428fdbe6eb224160a149c4574992653",
    "table1-json": "d4cc6da352937a88cc158d41a11d080205051612a94ebe83ed30ea49e1cb37f1",
    "table2-text": "d994270073346af4ffcef3219636f045257e71c84f0ea5e23ec09e498a669eba",
    "table2-csv": "78904b1daa9f869f152f0b49cf65302f4d03f6b7621dfe37af7512836d6f92b0",
    "table2-json": "b7f3f7630ac6d91d5a15a84d5bd7fc9395ca58dcd9b1f74423c1c42e559d4c65",
    "five-targets-text": "11bf690ebfba0397d054c59bf3874ed586a66e87f21716c96c10c2dc57d2d5e6",
    "five-targets-csv": "91a7f71d81e78736128c1e08a589d34adf1704caa26ad6d1386f38ea81e2b0ad",
    "five-targets-json": "3660ffc3a340ea78ecc3a596de89f0b65b7b08be58a3949eea93b91baec09753",
    "universal-text": "657813f127f34eaca585572547f0d8960cdb0e60da6de43f9166b239a5e5f0fc",
    "universal-csv": "39779e1267186160f9d6f07b4f580e1cf24ffab121cfbe9b8188b80912db734c",
    "universal-json": "3158bc85fd0c4f6261a169a7750a882675dca9131e035f5b6a092293c2b353a8",
    "sample-text": "4eb9573dbd8bd9833ac2838cac167b447235afebf44c8bdb92e5bfc2dd8c783d",
    "sample-csv": "6deeea1a0dace173a47456017c4367fea8d9da786f62b0ac566190495cd2399c",
    "sample-json": "fa2d968682bcfc45ef4afae674c8e9640fe475cadd6f74bc684dcc8524bf832a",
    "search-text": "1e585fc6c950ff2cdeb59d47f2bc3c408bcc2aecec2e42ddabf580923b1444a9",
    "search-csv": "b55ef729f57451c8dd3796f37d5088c56e0ea98d18521ff2eba9b3dcaa62ec3e",
    "search-json": "3e82b8bbae1ed04f512f63311b55bd59c87b9a98bced406d32dac6750588e8d3",
    "out-dir/figure7_k10.csv": "31942da1be417c77b8f0a3b529aa65ff0c2200b7392acc54c6bd5646e40c1752",
    "out-dir/figure7_k11.csv": "c8cc6b0da1a41691d630e0b75a8805a1391641412ce9ee5289f2d13eedcade18",
    "out-dir/figure7_k8.csv": "92527d1d0c179052a61e1b0c5f4b5eaf1c17fb9648ba521e1f9418c0456c4822",
    "out-dir/figure7_k9.csv": "fb15bb14b9292a5714b310de64eac704749ce7efd2bdf52fb052f52814b51335",
    "out-dir/universal.json": "f57d11a345d65c286fcc8ddca7dd0d54920bda78f13cd00d256fb3454caf53a0",
}


@pytest.fixture(scope="module")
def golden_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("golden-cache"))


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_report_bytes_are_stable(name, golden_cache, tmp_path, capsys):
    code = cli.EXIT_OK
    if name.startswith("out-dir/"):
        out_dir = tmp_path / "reports"
        argv = ("universal", "--cache-dir", golden_cache, "--out-dir", str(out_dir))
        path = out_dir / name.split("/", 1)[1]
    else:
        command, fmt = name.rsplit("-", 1)
        path = tmp_path / "report"
        argv = GOLDEN_ARGV[command] + ("--format", fmt, "--out", str(path))
        if command in GOLDEN_CACHED:
            argv += ("--cache-dir", golden_cache)
        if command == "search":    # stopped by its budget
            code = cli.EXIT_BUDGET
    assert run(capsys, *argv)[0] == code
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[name]


def test_readme_command_line_section_matches_the_parser():
    """Each long option is documented there, and each option there exists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    defined = {
        option
        for p in (parser, *commands.values())
        for action in p._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    named = set(re.findall(r"--[a-z](?:[a-z0-9-]*[a-z0-9])?", section))
    assert defined - {"--help", "--version"} <= named
    assert named <= defined


@pytest.mark.parametrize("xdg", [None, "", "relative/cache", "absolute"], ids=["unset", "empty", "relative", "set"])
def test_default_cache_directory_follows_xdg_cache_home(xdg, tmp_path, monkeypatch):
    monkeypatch.delenv("MADNESS_CACHE_DIR", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    if xdg is None:
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg") if xdg == "absolute" else xdg)
    # Only an absolute $XDG_CACHE_HOME counts; otherwise the XDG default ~/.cache does.
    expected = tmp_path / "xdg" if xdg == "absolute" else tmp_path / "home" / ".cache"
    args = cli.build_parser().parse_args(["table1"])
    assert cli._cache_dir(args) == ("default cache directory", str(expected / "madness"))


def test_cache_dir_flag_and_environment_come_before_xdg_cache_home(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setenv("MADNESS_CACHE_DIR", str(tmp_path / "env"))
    parser = cli.build_parser()
    assert cli._cache_dir(parser.parse_args(["table1"])) == ("$MADNESS_CACHE_DIR", str(tmp_path / "env"))
    flagged = parser.parse_args(["table1", "--cache-dir", str(tmp_path / "flag")])
    assert cli._cache_dir(flagged) == ("--cache-dir", str(tmp_path / "flag"))


def test_a_sweep_caches_under_xdg_cache_home(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MADNESS_CACHE_DIR", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert run(capsys, "table1")[0] == 0
    assert [p.name[:7] for p in (tmp_path / "xdg" / "madness").iterdir()] == ["table1-"]
    assert not (tmp_path / "home").exists()
