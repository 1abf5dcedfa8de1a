"""Smoke tests of the experiment scripts, each run as a subprocess, and of the
benchmark-pair summary on canned result lines."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("args, summary", [
    ((), "8 structures, 0 total failures"),
    (("--mutate",), "8 structures, 32 total failures"),
], ids=["honest", "mutated"])
def test_verify_catalog(args, summary):
    code, out = run_script("verify_catalog.py", "--nmax", "2", "--points", "2", *args)
    assert code == 0, out
    assert summary in out


def test_worked_example():
    code, out = run_script("worked_example.py", "--points", "2")
    assert code == 0, out
    assert "massey tensor == closed form at the sample point: True" in out
    for name in ("aybe", "skew", "cybe", "qybe"):
        assert "%-5s points=2   failures=0" % name in out


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# a result line of perfbench/run.py, cut to two metrics
_LINE = ('{"correct": true, "attempted": 100, "failed": %d, "metrics": '
         '{"points_per_s": {"value": %s, "unit": "1/s"}, '
         '"structure_ms_p50": {"value": %s, "unit": "ms"}}}')


def _result(points_per_s, p50, failed=0):
    return json.loads(_LINE % (failed, points_per_s, p50))


def test_bench_pairs_summary_on_canned_results():
    metrics = [{"name": "points_per_s", "better": "higher"},
               {"name": "structure_ms_p50", "better": "lower"}]
    pairs = [(_result(100, 20), _result(130, 15)),
             (_result(90, 21), _result(120, 16, failed=1)),
             (_result(110, 19), _result(110, 19)),
             (_result(100, 20), _result(95, 22))]
    s = _bench_pairs().summarize(pairs, metrics)
    pps = s["points_per_s"]
    assert pps["parent"] == [100, 90, 110, 100] and pps["change"] == [130, 120, 110, 95]
    assert (pps["wins"], pps["ties"], pps["pairs"]) == (2, 1, 4)
    assert pps["parent_quartiles"] == (97.5, 100, 102.5)
    assert pps["change_quartiles"] == (106.25, 115, 122.5)
    assert pps["ratio"] == 115 / 100
    p50 = s["structure_ms_p50"]
    assert (p50["wins"], p50["ties"]) == (2, 1)
    assert p50["ratio"] == 17.5 / 20
    assert s["failed"] == {"parent": 0, "change": 1, "attempted": [400, 400]}
    text = _bench_pairs().format_summary("aybe-fp", s)
    assert "points_per_s" in text and "wins 2/4 (ties 1)" in text
    assert "failed operations: parent 0 of 400, change 1 of 400" in text


def test_bench_pairs_summary_of_one_pair():
    s = _bench_pairs().summarize([(_result(100, 20), _result(150, 10))],
                                 [{"name": "points_per_s", "better": "higher"}])
    assert s["points_per_s"]["parent_quartiles"] == (100, 100, 100)
    assert s["points_per_s"]["wins"] == 1


def test_bench_pairs_writes_the_json_record(tmp_path, monkeypatch):
    # two canned result lines per pair; no commit is checked out or run
    bench = _bench_pairs()
    lines = {"parent": [_result(100, 20), _result(90, 22)],
             "change": [_result(150, 12), _result(160, 11)]}
    calls = []

    def fake_checkout(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "points_per_s", "better": "higher"},
            {"name": "structure_ms_p50", "better": "lower"}]}))
        return dest

    def fake_run(copy, workload, seed, seconds):
        side = copy.name
        calls.append((side, workload, seed))
        return lines[side][sum(c[0] == side for c in calls) - 1]

    monkeypatch.setattr(bench, "checkout", fake_checkout)
    monkeypatch.setattr(bench, "run_benchmark", fake_run)
    monkeypatch.setattr(bench, "resolve", lambda rev: "commit-" + rev)
    out = tmp_path / "BENCH_test.json"
    assert bench.main(["p", "c", "--workload", "limits-fp", "--pairs", "2",
                       "--seeds", "7,11", "--seconds", "1", "--json", str(out)]) == 0
    # the parent runs first in even pairs, the change in odd ones
    assert calls == [("parent", "limits-fp", 7), ("change", "limits-fp", 7),
                     ("change", "limits-fp", 11), ("parent", "limits-fp", 11)]
    rec = json.loads(out.read_text())
    assert rec["commits"] == {"parent": "commit-p", "change": "commit-c"}
    assert rec["settings"] == {"pairs": 2, "seconds": 1.0, "seeds": [7, 11]}
    assert set(rec["host"]) == {"cpu_count", "python", "machine"}
    pairs = rec["workloads"]["limits-fp"]["pairs"]
    assert [(p["seed"], p["first"]) for p in pairs] == [(7, "parent"), (11, "change")]
    assert pairs[1]["change"] == lines["change"][1]
    summary = rec["workloads"]["limits-fp"]["summary"]
    assert summary["points_per_s"]["wins"] == 2
    assert summary["points_per_s"]["parent_quartiles"] == [92.5, 95, 97.5]
    assert summary["structure_ms_p50"]["ratio"] == 11.5 / 21
    assert summary["failed"] == {"parent": 0, "change": 0, "attempted": [200, 200]}


def _no_subprocess(*args, **kwargs):
    raise AssertionError("no command may run: %r" % (args,))


@pytest.mark.parametrize("args, message", [
    (["--pairs", "0"], "error: --pairs must be at least 1, got 0\n"),
    (["--seeds", ""], "error: --seeds must be comma-separated integers, got ''\n"),
    (["--seeds", "7,x"], "error: --seeds must be comma-separated integers, got '7,x'\n"),
    (["--pairs", "ten"], "error: argument --pairs: invalid int value: 'ten'\n"),
], ids=["no-pairs", "no-seeds", "bad-seed", "bad-pairs"])
def test_bench_pairs_rejects_a_bad_argument(args, message, monkeypatch, capsys):
    bench = _bench_pairs()
    monkeypatch.setattr(bench.subprocess, "run", _no_subprocess)
    assert bench.main(["p", "c", "--workload", "suite-q", *args]) == 2
    assert capsys.readouterr().err == message


def test_bench_pairs_rejects_an_unknown_commit(monkeypatch, capsys):
    bench = _bench_pairs()
    monkeypatch.setattr(bench.subprocess, "run", lambda cmd, **kw: subprocess.CompletedProcess(
        cmd, 128, stdout="", stderr="fatal: Needed a single revision\n"))
    assert bench.main(["nosuch", "c", "--workload", "suite-q"]) == 2
    assert capsys.readouterr().err == "error: 'nosuch' is not a commit of this repository\n"


def test_bench_pairs_names_a_failed_run(tmp_path, monkeypatch, capsys):
    # the benchmark exits 2 on the parent side; its own last stderr line is kept
    bench = _bench_pairs()
    runs = []

    def fake_run(cmd, cwd, **kwargs):
        runs.append((Path(cwd).name, cmd))
        return subprocess.CompletedProcess(cmd, 2, stdout="", stderr=(
            "usage: run.py [-h] --workload {aybe-fp,limits-fp,suite-q}\n"
            "run.py: error: argument --workload: invalid choice: 'nosuch'\n"))

    def fake_checkout(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
        return dest

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.setattr(bench, "checkout", fake_checkout)
    monkeypatch.setattr(bench, "resolve", lambda rev: "commit-" + rev)
    assert bench.main(["p", "c", "--workload", "nosuch", "--seeds", "11"]) == 2
    assert capsys.readouterr().err == (
        "error: parent run of workload nosuch at seed 11 exited 2: "
        "run.py: error: argument --workload: invalid choice: 'nosuch'\n")
    assert [side for side, _ in runs] == ["parent"]
    assert runs[0][1][2:6] == ["--workload", "nosuch", "--seed", "11"]


@pytest.mark.parametrize("stdout, message", [
    ("", "error: parent run of workload aybe-fp at seed 13 printed no result line\n"),
    ("  \n\n", "error: parent run of workload aybe-fp at seed 13 printed no result line\n"),
    ('{"metrics": {}}\nwarming up\n', "error: parent run of workload aybe-fp at seed 13 "
     "printed no JSON result line: warming up\n"),
], ids=["empty", "blank", "not-json"])
def test_bench_pairs_names_a_run_with_no_result_line(stdout, message, tmp_path, monkeypatch,
                                                      capsys):
    # the benchmark exits 0 but its last line is no result: one error line,
    # not an IndexError or a JSONDecodeError traceback
    bench = _bench_pairs()

    def fake_checkout(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
        return dest

    monkeypatch.setattr(bench.subprocess, "run", lambda cmd, cwd, **kw: (
        subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")))
    monkeypatch.setattr(bench, "checkout", fake_checkout)
    monkeypatch.setattr(bench, "resolve", lambda rev: "commit-" + rev)
    assert bench.main(["p", "c", "--workload", "aybe-fp", "--seeds", "13"]) == 2
    assert capsys.readouterr().err == message
