"""Alternating benchmark pairs of two commits, each run from a clean copy.

Usage, from the repository root:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload aybe-fp \
        --pairs 10 --seconds 30 --seeds 7,11,13,17,19

``git archive`` writes each commit into its own fresh directory, so no
working-tree state (``__pycache__``, ``.hypothesis``, untracked files) can
reach a measurement.  Pair i runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each copy, the parent first in even pairs
and the change first in odd ones, with S cycling through ``--seeds``.  The
benchmark runs unchanged; this script only reads the JSON result line it
prints last.  The summary gives, per end-to-end metric of the parent's
``BENCHMARK.json``, each side's median and quartiles, the change's wins
(ties count for neither side) and the ratio of the medians.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def checkout(rev, dest: Path) -> Path:
    """A clean copy of commit ``rev`` of this repository in ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    return dest


def run_benchmark(copy: Path, workload, seed, seconds) -> dict:
    """The JSON result line of one untraced benchmark run in ``copy``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    """(first quartile, median, third quartile) of a nonempty list."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, metrics) -> dict:
    """Per metric: each side's quartiles, the change's wins and ties, and
    the ratio of the medians (change over parent).

    ``pairs`` lists (parent result, change result), each a parsed result
    line; ``metrics`` lists the ``end_to_end`` entries of BENCHMARK.json.
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
    out["failed"] = {"parent": sum(p["failed"] for p, _ in pairs),
                     "change": sum(c["failed"] for _, c in pairs),
                     "attempted": [sum(p["attempted"] for p, _ in pairs),
                                   sum(c["attempted"] for _, c in pairs)]}
    return out


def format_summary(workload, summary) -> str:
    lines = ["workload %s" % workload]
    for name, s in summary.items():
        if name == "failed":
            continue
        pq, cq = s["parent_quartiles"], s["change_quartiles"]
        lines.append(
            "%-18s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  "
            "ratio %s  wins %d/%d (ties %d)"
            % (name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2],
               "n/a" if s["ratio"] is None else "%.3f" % s["ratio"],
               s["wins"], s["pairs"], s["ties"]))
    f = summary["failed"]
    lines.append("failed operations: parent %d of %d, change %d of %d"
                 % (f["parent"], f["attempted"][0], f["change"], f["attempted"][1]))
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="commit of the parent side")
    ap.add_argument("change", help="commit of the change side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seeds", default="7,11,13,17,19",
                    help="comma-separated seeds, cycled over the pairs")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        copies = {side: checkout(rev, Path(tmp) / side)
                  for side, rev in (("parent", args.parent), ("change", args.change))}
        metrics = json.loads((copies["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
        pairs = []
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            result = {side: run_benchmark(copies[side], args.workload, seed, args.seconds)
                      for side in order}
            pairs.append((result["parent"], result["change"]))
            print("pair %d seed %d: points_per_s parent %.1f change %.1f" % (
                i, seed, result["parent"]["metrics"]["points_per_s"]["value"],
                result["change"]["metrics"]["points_per_s"]["value"]), flush=True)
    print(format_summary(args.workload, summarize(pairs, metrics)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
