"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("aybe-fp", "limits-fp", "suite-q")
SECOND_SEED = 11  # the pinned digests use seed 7
EXACT_COUNTS = (
    "trig.eval_calls", "jets.eval_calls", "tensors.contract_calls",
    "tensors.pair_terms", "tensors.dense_slots", "trig.r_nnz", "massey.families",
)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][2:])


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ybx():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run

    return run.import_ybx()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", "1", "--size", "tiny")
    first, ctx = result(*args)
    second, _ = result(*args)
    assert first["correct"] and second["correct"]
    assert ctx["counts_repeat"] and not ctx["missing_sites"]
    assert set(first["metrics"]) == {m["name"] for m in spec()["per_layer"]}
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_has_no_failures(workload):
    res, ctx = result("--workload", workload, "--seed", str(SECOND_SEED),
                      "--seconds", "0.5", "--trace", "0", "--size", "tiny")
    assert res["correct"] and res["failed"] == 0 and ctx["fail_ratio"] == 0, ctx["problems"]
    assert set(res["metrics"]) == {m["name"] for m in spec()["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pinned_digest_matches(workload):
    res, ctx = result("--workload", workload, "--seed", "7", "--seconds", "0.01",
                      "--trace", "0")
    assert res["correct"], ctx["problems"]
    assert ctx["digest_pinned"] is True


def test_untraced_run_sees_unwrapped_functions(ybx):
    import tracer

    assert tracer.is_pristine(ybx)
    assert ybx.trig.aybe_combine is ybx.tensors.aybe_combine
    t = tracer.Tracer()
    t.install(ybx)
    try:
        assert not t.missing
        assert ybx.trig.aybe_combine is not ybx.tensors.aybe_combine
        assert not tracer.is_pristine(ybx)
    finally:
        t.uninstall()
    assert tracer.is_pristine(ybx)
    assert ybx.trig.aybe_combine is ybx.tensors.aybe_combine
    assert ybx.tensors.Tensor2.unit(2, ybx.RATIONAL).nnz() == 4


def test_pair_terms_counts_collapsed_multiply_adds(ybx):
    import tracer

    f = ybx.RATIONAL
    a = ybx.tensors.Tensor2.unit(2, f)            # 1 (x) 1: 4 nonzeros
    b = ybx.tensors.transposition_p(2, f)         # P: 4 nonzeros
    # a^12 . b^13 contracts a's index 1 with b's index 0: each of a's
    # entries meets the 2 entries of b that share that index
    assert tracer.pair_terms(a, 12, b, 13) == 8


def test_tail_percentile_leaves_ten_samples_above():
    sys.path.insert(0, str(HERE))
    import run

    value, pct = run.tail(list(range(1, 1001)))
    assert pct == 99 and value == 990
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100)


def test_expectations_cover_every_layer_metric():
    expect = json.loads((HERE / "expectations.json").read_text())
    assert set(expect["per_layer"]) == {m["name"] for m in spec()["per_layer"]}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "aybe-fp", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
