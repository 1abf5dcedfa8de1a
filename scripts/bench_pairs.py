"""Alternating benchmark pairs of two commits, each run from a clean copy.

Usage, from the repository root:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload aybe-fp \
        --pairs 10 --seconds 30 --seeds 7,11,13,17,19 [--json BENCH_k.json]

``git archive`` writes each commit into its own fresh directory, so no
working-tree state (``__pycache__``, ``.hypothesis``, untracked files) can
reach a measurement.  Pair i runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each copy, the parent first in even pairs
and the change first in odd ones, with S cycling through ``--seeds``.  The
benchmark runs unchanged; this script only reads the JSON result line it
prints last and the ``# {...}`` context line before it, which it keeps in
the result as ``context``.  The summary gives, per end-to-end metric of the
parent's ``BENCHMARK.json``, each side's median and quartiles, the change's
wins (ties count for neither side) and the ratio of the medians, each
side's median of the raw (unscaled) reading where the context has one, and
whether both sides' output digests agree at each seed.

``--workload`` may list several workloads, comma-separated; each runs its
own pairs in turn.  ``--json PATH`` also writes the record as JSON: the two
commits, the run settings, the host (CPU count, Python version) and, per
workload, every pair's two result lines and the summary.

A bad argument (a ``--pairs`` below 1, a ``--seconds`` that is not a
positive finite number), an unknown commit, a benchmark run that exits
nonzero and one whose last stdout line is missing or not JSON, or follows
no context line, are each one ``error:`` line on stderr and exit 2; a
failed run is named by side, workload and seed, with its exit code and the
last line of its stderr, or with the line it printed last.  A SIGTERM is
one ``error:`` line too, and it removes the clean copies, as any error
does.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class BenchError(Exception):
    """A bad argument or a failed command, reported as one ``error:`` line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise BenchError(message)


def checkout(rev, dest: Path) -> Path:
    """A clean copy of commit ``rev`` of this repository in ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    return dest


def run_benchmark(copy: Path, workload, seed, seconds) -> dict:
    """The JSON result line of one untraced benchmark run in ``copy``, a
    directory named after its side, with the context line before it as
    ``context``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, capture_output=True, text=True)
    run = "%s run of workload %s at seed %s" % (copy.name, workload, seed)
    if proc.returncode:
        last = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
        raise BenchError("%s exited %d: %s" % (run, proc.returncode, last))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed no result line" % run)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError("%s printed no JSON result line: %s" % (run, lines[-1])) from None
    context = lines[-2] if len(lines) > 1 else ""
    if not context.startswith("# "):
        raise BenchError("%s printed no context line before its result line" % run)
    result["context"] = json.loads(context[2:])
    return result


def _quartiles(values):
    """(first quartile, median, third quartile) of a nonempty list."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, metrics, seeds) -> dict:
    """Per metric: each side's quartiles, the change's wins and ties, the
    ratio of the medians (change over parent) and, for a metric the
    context reads raw (unscaled), each side's median raw reading
    (``raw_medians``).  ``digests`` maps each seed to whether every run at
    it, on both sides, printed one output digest.

    ``pairs`` lists (parent result, change result), each a parsed result
    line with its context; ``metrics`` lists the ``end_to_end`` entries of
    BENCHMARK.json; ``seeds`` lists each pair's seed.
    """
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        pq, cq = _quartiles(parent), _quartiles(change)
        out[name] = {
            "parent": parent, "change": change,
            "parent_quartiles": pq, "change_quartiles": cq,
            "wins": wins, "ties": ties, "pairs": len(pairs),
            "ratio": cq[1] / pq[1] if pq[1] else None,
        }
        if name in pairs[0][0]["context"]["raw"]:
            out[name]["raw_medians"] = [statistics.median(r["context"]["raw"][name] for r in side)
                                        for side in zip(*pairs)]
    out["failed"] = {"parent": sum(p["failed"] for p, _ in pairs),
                     "change": sum(c["failed"] for _, c in pairs),
                     "attempted": [sum(p["attempted"] for p, _ in pairs),
                                   sum(c["attempted"] for _, c in pairs)]}
    digests = {}
    for seed, pair in zip(seeds, pairs):
        digests.setdefault(str(seed), set()).update(r["context"]["digest"] for r in pair)
    out["digests"] = {seed: len(found) == 1 for seed, found in digests.items()}
    return out


def format_summary(workload, summary) -> str:
    lines = ["workload %s" % workload]
    for name, s in summary.items():
        if name in ("failed", "digests"):
            continue
        pq, cq = s["parent_quartiles"], s["change_quartiles"]
        raw = s.get("raw_medians")
        lines.append(
            "%-18s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  "
            "ratio %s  wins %d/%d (ties %d)%s"
            % (name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2],
               "n/a" if s["ratio"] is None else "%.3f" % s["ratio"],
               s["wins"], s["pairs"], s["ties"],
               "" if raw is None else "  raw parent %.4g change %.4g" % tuple(raw)))
    f = summary["failed"]
    lines.append("failed operations: parent %d of %d, change %d of %d"
                 % (f["parent"], f["attempted"][0], f["change"], f["attempted"][1]))
    lines.append("digests agree: " + ", ".join(
        "seed %s %s" % (seed, "yes" if agree else "NO")
        for seed, agree in summary["digests"].items()))
    return "\n".join(lines)


def run_pairs(copies, workload, pairs, seconds, seeds, metrics):
    """The pairs of one workload, alternating which side runs first, and
    their summary."""
    out = []
    for i in range(pairs):
        seed = seeds[i % len(seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        result = {side: run_benchmark(copies[side], workload, seed, seconds) for side in order}
        out.append({"seed": seed, "first": order[0], **result})
        print("pair %d seed %d: points_per_s parent %.1f change %.1f" % (
            i, seed, result["parent"]["metrics"]["points_per_s"]["value"],
            result["change"]["metrics"]["points_per_s"]["value"]), flush=True)
    return out, summarize([(p["parent"], p["change"]) for p in out], metrics,
                          [p["seed"] for p in out])


def record(revs, settings, runs) -> dict:
    """The JSON record of a set of runs: ``revs`` maps each side to its
    commit, ``runs`` each workload to its (pairs, summary)."""
    return {
        "commits": revs,
        "settings": settings,
        "host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": {w: {"pairs": pairs, "summary": summary}
                      for w, (pairs, summary) in runs.items()},
    }


def resolve(rev) -> str:
    """The full hash of commit ``rev`` of this repository."""
    proc = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode:
        raise BenchError("%r is not a commit of this repository" % rev)
    return proc.stdout.strip()


def parse_args(argv):
    """The parsed arguments, with ``seeds`` a list of ints; raises
    BenchError on a bad one."""
    ap = _Parser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="commit of the parent side")
    ap.add_argument("change", help="commit of the change side")
    ap.add_argument("--workload", required=True, help="one workload, or several comma-separated")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seeds", default="7,11,13,17,19",
                    help="comma-separated seeds, cycled over the pairs")
    ap.add_argument("--json", metavar="PATH", help="also write the record as JSON to PATH")
    args = ap.parse_args(argv)
    try:
        args.seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise BenchError("--seeds must be comma-separated integers, got %r" % args.seeds) from None
    if args.pairs < 1:
        raise BenchError("--pairs must be at least 1, got %d" % args.pairs)
    if not 0 < args.seconds < math.inf:  # nan fails both
        raise BenchError("--seconds must be a positive finite number, got %g" % args.seconds)
    return args


def _terminated(signum, frame):
    raise BenchError("stopped by SIGTERM")


def run(args) -> None:
    """Check out both commits, run every workload's pairs, print their
    summaries and write the JSON record if asked.

    SIGTERM raises inside the temporary directory's block, so the clean
    copies are removed on the way out (and ``subprocess.run`` kills a
    benchmark still running).
    """
    revs = {"parent": resolve(args.parent), "change": resolve(args.change)}
    runs = {}
    previous = signal.signal(signal.SIGTERM, _terminated)
    try:
        with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
            copies = {side: checkout(rev, Path(tmp) / side) for side, rev in revs.items()}
            metrics = json.loads((copies["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
            for workload in args.workload.split(","):
                runs[workload] = run_pairs(copies, workload, args.pairs, args.seconds,
                                           args.seeds, metrics)
                print(format_summary(workload, runs[workload][1]), flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous)
    if args.json:
        settings = {"pairs": args.pairs, "seconds": args.seconds, "seeds": args.seeds}
        Path(args.json).write_text(json.dumps(record(revs, settings, runs), indent=1) + "\n")


def main(argv=None) -> int:
    try:
        run(parse_args(argv))
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
