"""Smoke tests of the experiment scripts, each run as a subprocess, and of the
benchmark-pair summary on canned result lines."""

import dataclasses
import importlib.util
import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from ybx.tensors import Tensor2

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


_BOTH = ("verify_catalog.py", "worked_example.py")
_NMAX = "error: --nmax must be between 1 and 4"
_BAD_ARGUMENTS = [  # (name, scripts, args, message)
    ("points-0", _BOTH, ["--points", "0"], "error: --points must be >= 1"),
    ("points-negative", _BOTH, ["--points", "-1"], "error: --points must be >= 1"),
    ("small-prime", _BOTH, ["--field", "fp:7"],
     "error: prime-field modulus must exceed 10**9, got 7"),
    ("unknown-field", _BOTH, ["--field", "garbage"],
     "error: unknown field 'garbage' (expected 'q' or 'fp:<prime>')"),
    ("nmax-0", _BOTH[:1], ["--nmax", "0"], _NMAX),
    ("nmax-negative", _BOTH[:1], ["--nmax", "-3"], _NMAX),
    ("nmax-5", _BOTH[:1], ["--nmax", "5"], _NMAX),
    ("points-not-int", _BOTH, ["--points", "abc"],
     "error: argument --points: invalid int value: 'abc'"),
    ("unknown-flag", _BOTH, ["--bogus"], "error: unrecognized arguments: --bogus"),
]


@pytest.mark.parametrize("script, args, message", [
    pytest.param(script, args, message, id="%s-%s" % (name, script))
    for name, scripts, args, message in _BAD_ARGUMENTS for script in scripts])
def test_script_bad_argument_is_one_error_line(script, args, message):
    # zero points would be a vacuous pass; a bad field was a traceback; an
    # --nmax of 0 checked nothing and passed, and a large one never ended;
    # a usage error printed argparse's usage block before its error line
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message + "\n")


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_pairs():
    return _load_script("bench_pairs")


def _wrong_massey(honest):
    def massey_tensor(sol, qu, qv, field):
        mt = honest(sol, qu, qv, field)
        return dataclasses.replace(mt, tensor=mt.tensor + Tensor2.basis(sol.n, field, 0, 0, 0, 0))
    return massey_tensor


def _wrong_residues(honest):
    def residues(sol, which, at_other, field):
        return honest(sol, which, at_other, field) + Tensor2.basis(sol.n, field, 0, 0, 0, 0)
    return residues


def _failing_check(honest):
    def check(*args):
        return dataclasses.replace(honest(*args), failures=1)
    return check


@pytest.mark.parametrize("name, wrong, line", [
    ("massey_tensor", _wrong_massey, "massey tensor == closed form at the sample point: False"),
    ("residues", _wrong_residues, "residue at u=0 is 1(x)1: False"),
    ("check_cybe", _failing_check, "cybe  points=2   failures=1"),
], ids=["massey", "residues", "cybe"])
def test_worked_example_exits_1_when_a_cross_check_fails(name, wrong, line, monkeypatch,
                                                          capsys):
    script = _load_script("worked_example")
    monkeypatch.setattr(sys, "argv", ["worked_example.py", "--points", "2"])
    assert script.main() == 0
    monkeypatch.setattr(script, name, wrong(getattr(script, name)))
    assert script.main() == 1
    assert line in capsys.readouterr().out


# a result line of perfbench/run.py, cut to two metrics, and the context
# line it prints before it, cut to its output digest and one raw reading
_LINE = ('{"correct": true, "attempted": 100, "failed": %d, "metrics": '
         '{"points_per_s": {"value": %s, "unit": "1/s"}, '
         '"structure_ms_p50": {"value": %s, "unit": "ms"}}}')
_CONTEXT = {"digest": "d", "raw": {"setup_s": 0.08}}


def _result(points_per_s, p50, failed=0):
    return dict(json.loads(_LINE % (failed, points_per_s, p50)), context=_CONTEXT)


def test_bench_pairs_summary_on_canned_results():
    metrics = [{"name": "points_per_s", "better": "higher"},
               {"name": "structure_ms_p50", "better": "lower"}]
    pairs = [(_result(100, 20), _result(130, 15)),
             (_result(90, 21), _result(120, 16, failed=1)),
             (_result(110, 19), _result(110, 19)),
             (_result(100, 20), _result(95, 22))]
    s = _bench_pairs().summarize(pairs, metrics, [7, 11, 13, 7])
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
    assert s["digests"] == {"7": True, "11": True, "13": True}
    text = _bench_pairs().format_summary("aybe-fp", s)
    assert "points_per_s" in text and "wins 2/4 (ties 1)" in text
    assert "raw parent" not in text
    assert "failed operations: parent 0 of 400, change 1 of 400" in text


def _timed(setup_s, raw, digest):
    """A result line cut to ``setup_s``, with the context line before it."""
    return {"attempted": 100, "failed": 0, "metrics": {"setup_s": {"value": setup_s}},
            "context": {"raw": {"setup_s": raw}, "setup_ref_ms": 3.3, "digest": digest}}


def test_bench_pairs_summary_reports_raw_readings_and_digests():
    # seed 7's two pairs print one digest on both sides; seed 11's change differs
    bench = _bench_pairs()
    metrics = [{"name": "setup_s", "better": "lower"}]
    pairs = [(_timed(0.16, 0.08, "aa"), _timed(0.14, 0.07, "aa")),
             (_timed(0.18, 0.09, "bb"), _timed(0.24, 0.12, "cc")),
             (_timed(0.20, 0.10, "aa"), _timed(0.22, 0.11, "aa"))]
    s = bench.summarize(pairs, metrics, [7, 11, 7])
    assert s["setup_s"]["raw_medians"] == [0.09, 0.11]
    assert s["digests"] == {"7": True, "11": False}
    text = bench.format_summary("aybe-fp", s)
    assert "raw parent 0.09 change 0.11" in text
    assert "digests agree: seed 7 yes, seed 11 NO" in text


def test_bench_pairs_keeps_the_context_line(tmp_path, monkeypatch):
    bench = _bench_pairs()
    line = _LINE % (0, 100, 20)
    monkeypatch.setattr(bench.subprocess, "run", lambda cmd, cwd, **kw: (
        subprocess.CompletedProcess(cmd, 0, stdout="warming up\n# %s\n%s\n" % (
            json.dumps(_CONTEXT), line), stderr="")))
    result = bench.run_benchmark(tmp_path / "parent", "aybe-fp", 7, 1)
    assert result == dict(json.loads(line), context=_CONTEXT)


def test_bench_pairs_summary_of_one_pair():
    s = _bench_pairs().summarize([(_result(100, 20), _result(150, 10))],
                                 [{"name": "points_per_s", "better": "higher"}], [7])
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
    assert summary["digests"] == {"7": True, "11": True}


def _no_subprocess(*args, **kwargs):
    raise AssertionError("no command may run: %r" % (args,))


@pytest.mark.parametrize("args, message", [
    (["--pairs", "0"], "error: --pairs must be at least 1, got 0\n"),
    (["--seeds", ""], "error: --seeds must be comma-separated integers, got ''\n"),
    (["--seeds", "7,x"], "error: --seeds must be comma-separated integers, got '7,x'\n"),
    (["--pairs", "ten"], "error: argument --pairs: invalid int value: 'ten'\n"),
    (["--seconds", "0"], "error: --seconds must be a positive finite number, got 0\n"),
    (["--seconds", "-1"], "error: --seconds must be a positive finite number, got -1\n"),
    (["--seconds", "nan"], "error: --seconds must be a positive finite number, got nan\n"),
    (["--seconds", "inf"], "error: --seconds must be a positive finite number, got inf\n"),
], ids=["no-pairs", "no-seeds", "bad-seed", "bad-pairs", "no-seconds", "negative-seconds",
        "nan-seconds", "infinite-seconds"])
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
    ('warming up\n{"metrics": {}}\n', "error: parent run of workload aybe-fp at seed 13 "
     "printed no context line before its result line\n"),
    ('{"metrics": {}}\n', "error: parent run of workload aybe-fp at seed 13 "
     "printed no context line before its result line\n"),
], ids=["empty", "blank", "not-json", "no-context", "result-only"])
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


def test_bench_pairs_removes_its_copies_when_terminated(monkeypatch, capsys):
    # SIGTERM during the first benchmark run, delivered by calling the
    # handler the script installed: one error line, no copy left behind,
    # and the previous handler back in place
    bench = _bench_pairs()
    copies = []

    def fake_run(cmd, cwd, **kwargs):
        copies.append(Path(cwd))
        handler = signal.getsignal(signal.SIGTERM)
        assert callable(handler), "no SIGTERM handler is installed"
        handler(signal.SIGTERM, None)
        raise AssertionError("the SIGTERM handler returned")

    def fake_checkout(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
        return dest

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.setattr(bench, "checkout", fake_checkout)
    monkeypatch.setattr(bench, "resolve", lambda rev: "commit-" + rev)
    before = signal.getsignal(signal.SIGTERM)
    assert bench.main(["p", "c", "--workload", "limits-fp", "--seeds", "7"]) == 2
    assert capsys.readouterr().err == "error: stopped by SIGTERM\n"
    assert [copy.name for copy in copies] == ["parent"]
    assert not copies[0].parent.exists()
    assert signal.getsignal(signal.SIGTERM) is before
