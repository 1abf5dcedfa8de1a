"""Benchmark of the ybx verifier: closed-loop verification sweeps.

Run from the repository root:

    python3 perfbench/run.py --workload aybe-fp --seed 7 --seconds 30 --trace 0

One process, one thread, one client that verifies one structure after
another.  The run imports ``ybx`` from ``src/`` of the checkout, sets up
several times (a fresh import, then inputs from ``--seed`` and
``TrigSolution`` construction where the workload has a build step), then repeats the workload's repetition while at least half
of one more fits in ``--seconds`` of units of work (structures, or
``ybx suite`` calls).

A fixed pure-Python reference loop runs every ``SAMPLE_S`` seconds from a
timer signal.  The host this was built on changes speed by 30% to 60% in
phases of seconds to minutes, so every gated time is scaled to reference
speed: a unit's wall time, less the readings' own time, times the mean of
``REF_MS`` / reading over the unit.  A set-up is scaled the same way by
``setup_ref_ms``, an import-like reference read just before and after it.
The raw wall-clock figures are in the context line.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half with the tracer's wrappers installed and prints the
per-layer metrics (spans go to ``.bench_out/``).  The last line of stdout is
the JSON result; the line before it, starting with ``#``, is context that is
not gated.  Exits 2 without a result when ``src/ybx`` is missing.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import importlib.util
import json
import marshal
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from tracer import Tracer, is_pristine
from workloads import SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
MODULES = ("scalars", "perms", "jets", "tensors", "trig", "surface", "massey",
           "bundles", "catalog", "cli")
SETUPS = 25
REF_LOOP = 6_000
REF_P = 2 ** 61 - 1
#: nominal reference-loop time; gated times are scaled to a host that runs
#: the loop in exactly this long (fixed: changing it rescales every figure)
REF_MS = 4.0
SAMPLE_S = 0.1      # period of the reference readings
#: stdlib modules whose compiled bodies the set-up reference runs
SETUP_REF_MODULES = ("textwrap", "argparse", "argparse", "argparse")
#: nominal set-up reference time; set-up times are scaled to it
SETUP_REF_MS = 4.0


def import_ybx():
    """A fresh import of ``ybx`` and its modules from the checkout's src/."""
    for name in [m for m in sys.modules if m == "ybx" or m.startswith("ybx.")]:
        del sys.modules[name]
    ybx = importlib.import_module("ybx")
    for m in MODULES:
        importlib.import_module("ybx." + m)
    if Path(ybx.__file__).resolve().parent != SRC / "ybx":
        raise SystemExit("imported ybx from %s, not from %s" % (ybx.__file__, SRC))
    return ybx


def host_ref_ms() -> float:
    """A fixed pure-Python loop, timed; tracks the host's speed.

    Like the library's inner loops it multiplies big integers mod a prime
    and builds a dict and a list of tuples; that mix tracks the library's
    speed across host phases far better than a small-integer loop does.
    """
    t0 = time.perf_counter()
    x, acc, out = 3, {}, []
    for i in range(REF_LOOP):
        x = x * 1103515245 % REF_P
        k = i & 63
        acc[k] = acc.get(k, 0) + x
        out.append((k, x))
    return (time.perf_counter() - t0) * 1000


def module_codes():
    """The marshalled code of ``SETUP_REF_MODULES``, compiled once."""
    codes = []
    for name in SETUP_REF_MODULES:
        path = importlib.util.find_spec(name).origin
        codes.append(marshal.dumps(compile(Path(path).read_text(), path, "exec")))
    return codes


def setup_ref_ms(codes) -> float:
    """Unmarshals and runs fixed stdlib module bodies, as an import does;
    tracks the speed of set-up work, which the loop of ``host_ref_ms``
    follows only in part (a set-up slows by about two thirds as much)."""
    t0 = time.perf_counter()
    for data in codes:
        exec(marshal.loads(data), {"__name__": "setup_ref"})
    return (time.perf_counter() - t0) * 1000


def run_setups(build, seed, size, count):
    """Set up ``count`` times; returns the last (ybx, inputs) and, per
    set-up, (wall seconds, mean set-up reference reading around it)."""
    codes = module_codes()
    times = []
    for _ in range(count):
        gc.collect()    # a fresh process holds no garbage of earlier set-ups
        before = setup_ref_ms(codes)
        t0 = time.perf_counter()
        ybx = import_ybx()
        st = build(ybx, seed, size)
        t1 = time.perf_counter()
        times.append((t1 - t0, (before + setup_ref_ms(codes)) / 2))
    return ybx, st, times


class RefClock:
    """Reads host speed while the run goes on.

    A SIGALRM interval timer runs the reference loop every ``SAMPLE_S``
    seconds, in the main thread between two bytecodes of whatever is
    running.  ``stolen`` adds up the time those readings took, so units of
    work can leave it out of their wall time.
    """

    def __init__(self):
        self.times, self.readings = [], []
        self.stolen = 0.0
        self._cells = None

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()        # a collection would scan the interrupted work's heap
        t0 = time.perf_counter()
        host_ref_ms()       # warms the caches the interrupted work left cold
        ms = host_ref_ms()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.times.append((t0 + t1) / 2)
        self.readings.append(ms)
        self.stolen += t1 - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, t0, t1):
        """Mean of REF_MS / reading over [t0, t1].

        Reading j stands for the time nearer to it than to its neighbours.
        Each reading is first replaced by the mean of itself and its two
        neighbours, which halves the noise of a single reading.
        """
        if self._cells is None or len(self._cells[1]) != len(self.readings):
            r = self.readings
            smooth = [statistics.fmean(r[max(0, j - 1):j + 2]) for j in range(len(r))]
            mids = [(a + b) / 2 for a, b in zip(self.times, self.times[1:])]
            self._cells = (mids, smooth)
        mids, refs = self._cells
        i, j = bisect.bisect_right(mids, t0), bisect.bisect_right(mids, t1)
        edges = [t0, *mids[i:j], t1]
        total = sum((b - a) / refs[i + k] for k, (a, b) in enumerate(zip(edges, edges[1:])))
        return REF_MS * total / (t1 - t0)


class Units:
    """Times units of work against ``clock``.

    ``inner``, when given, is a context-manager factory entered inside the
    timing (the tracer's root span of the unit).
    """

    def __init__(self, clock, inner=None):
        self.clock, self.inner = clock, inner
        self.wall, self.when = [], []   # seconds per unit, (start, end)

    @contextmanager
    def __call__(self):
        stolen = self.clock.stolen
        t0 = time.perf_counter()
        if self.inner is None:
            yield
        else:
            with self.inner():
                yield
        t1 = time.perf_counter()
        self.wall.append(t1 - t0 - (self.clock.stolen - stolen))
        self.when.append((t0, t1))

    def scaled(self):
        """Seconds per unit at reference speed."""
        speed = self.clock.speed
        return [w * speed(*when) for w, when in zip(self.wall, self.when)]


def tail(samples):
    """(value, percentile): the highest integer percentile that leaves at
    least 10 samples above it (nearest rank), or the maximum (100) when the
    run has fewer than 20 samples."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    return xs[math.ceil(pct * n / 100) - 1], pct


def run_reps(rep, ybx, st, seconds, units, each=None):
    """Repeat ``rep`` while at least half of one more repetition fits in
    ``seconds`` of units; at least once.  Each returned repetition's
    ``units`` is its slice of ``units``."""
    reps = []
    while not reps or sum(units.wall) * (1 + 0.5 / len(reps)) < seconds:
        lo = len(units.wall)
        reps.append(rep(ybx, st, units))
        reps[-1].units = slice(lo, len(units.wall))
        if each is not None:
            each()
    return reps


def check_digests(reps, pin):
    """One operation per repetition: its digest equals the first one's and,
    where this seed and size are pinned, the pinned digest."""
    first = reps[0].digest.hexdigest()
    failed = sum(1 for r in reps
                 if r.digest.hexdigest() != first or pin not in (None, first))
    return first, failed


def structure_ms(reps, unit_s):
    """One time per structure, in ms: the median of its units over the
    repetitions, which verify the structures in the same order.  Where a
    repetition is one ``ybx suite`` call, each call gives one sample: its
    time over its structure count."""
    per_rep = [unit_s[r.units] for r in reps]
    if len(per_rep[0]) == 1:
        return [u[0] * 1000 / reps[0].per_unit for u in per_rep]
    return [statistics.median(col) * 1000 for col in zip(*per_rep)]


def end_to_end(reps, setups, units):
    """The gated metrics, plus their raw wall-clock values as context.

    ``points_per_s`` is a repetition's points over the median repetition
    time: every repetition does the same work, and the median keeps a unit
    that straddled a change of host phase from moving the figure.
    """
    out, raw = {}, {}
    scaled_setups = [wall * SETUP_REF_MS / ref for wall, ref in setups]
    for into, setup_s, unit_s in ((out, scaled_setups, units.scaled()),
                                  (raw, [wall for wall, _ in setups], units.wall)):
        samples = structure_ms(reps, unit_s)
        tail_ms, pct = tail(samples)
        into.update(setup_s=statistics.median(setup_s),
                    points_per_s=reps[0].points / statistics.median(
                        sum(unit_s[r.units]) for r in reps),
                    structure_ms_p50=statistics.median(samples),
                    structure_ms_tail=tail_ms)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    context = {"raw": raw, "tail_percentile": pct, "structure_samples": len(samples),
               "setup_ref_ms": statistics.median(ref for _, ref in setups)}
    return out, context


def run_traced(ybx, build, rep, args, size, clock):
    """The traced half: wrappers installed, one traced set-up, repetitions."""
    tracer = Tracer()
    tracer.install(ybx)
    try:
        with tracer.span("bench.setup"):
            st = build(ybx, args.seed, size)
        tracer.counts.clear()

        def unit_span():
            if args.workload == "suite-q":
                return tracer.span("bench.call")
            tracer.new_structure()
            return tracer.span("bench.structure")

        units = Units(clock, unit_span)
        regions, counts = [len(tracer.spans)], []

        def mark():
            regions.append(len(tracer.spans))
            counts.append(dict(tracer.counts))
            tracer.counts.clear()

        reps = run_reps(rep, ybx, st, args.seconds / 2, units, each=mark)
    finally:
        tracer.uninstall()
    if not is_pristine(ybx):
        raise SystemExit("tracer wrappers were left installed")
    return tracer, units, reps, regions, counts


def per_layer(tracer, units, reps, regions, counts, plain, plain_reps, args):
    """Per-layer metrics from the traced half's spans and counters."""
    layer_s = tracer.self_seconds(0, regions[0])
    per_rep = [tracer.self_seconds(lo, hi) for lo, hi in zip(regions, regions[1:])]
    for layer in set().union(*per_rep):
        layer_s[layer] += sum(r[layer] for r in per_rep) / len(per_rep)
    calls = [tracer.calls(lo, hi) for lo, hi in zip(regions, regions[1:])]
    c, n = counts[0], calls[0]
    metrics = {
        "scalars.sample_calls": n.get("scalars.sample", 0),
        "scalars.accept_ratio": (c.get("scalars.draws_used", 0) / n["scalars.sample"]
                                 if n.get("scalars.sample") else 1.0),
        "trig.eval_calls": n.get("trig.eval", 0),
        "trig.r_nnz": c.get("trig.r_nnz", 0),
        "jets.eval_calls": n.get("jets.eval", 0),
        "tensors.contract_calls": n.get("tensors.contract", 0),
        "tensors.pair_terms": c.get("tensors.pair_terms", 0),
        "tensors.dense_slots": c.get("tensors.dense_slots", 0),
        "massey.families": c.get("massey.families", 0),
        "trace_overhead": (sum(units.scaled()) / len(reps))
        / (sum(plain.scaled()) / len(plain_reps)),
        "host_ref_ms": statistics.median(plain.clock.readings),
    }
    for layer in tracer.layers():
        metrics[layer + "_s"] = layer_s.get(layer, 0.0)
    OUT.mkdir(exist_ok=True)
    path = OUT / ("trace-%s-seed%d.tsv.gz" % (args.workload, args.seed))
    tracer.write(path)
    context = {
        "traced_reps": len(reps),
        "counts_repeat": all(x == c for x in counts) and all(x == n for x in calls),
        "missing_sites": tracer.missing,
        "spans": len(tracer.spans),
        "span_file": str(path.relative_to(ROOT)),
    }
    return metrics, context


def _summary(xs):
    return {"median": statistics.median(xs), "min": min(xs), "max": max(xs), "n": len(xs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("standard", "tiny"), default="standard")
    args = parser.parse_args(argv)

    if not (SRC / "ybx" / "__init__.py").is_file():
        print("error: %s holds no ybx sources; run from a checkout of the repository"
              % SRC, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    build, rep = WORKLOADS[args.workload]
    size = SIZES[args.workload][args.size]
    pin = json.loads((HERE / "pins.json").read_text()).get(args.workload)
    pinned = (pin is not None and args.size == "standard" and pin["seed"] == args.seed
              and pin["size"] == size)

    ybx, st, setups = run_setups(build, args.seed, size, 1 if args.trace else SETUPS)
    with RefClock() as clock:
        plain_ok = is_pristine(ybx) and ybx.trig.aybe_combine is ybx.tensors.aybe_combine
        units = Units(clock)
        reps = run_reps(rep, ybx, st, args.seconds / 2 if args.trace else args.seconds, units)
        if args.trace:
            traced = run_traced(ybx, build, rep, args, size, clock)
    if args.trace:
        values, context = per_layer(*traced, units, reps, args)
        wanted = spec["per_layer"]
        reps = reps + traced[2]
    else:
        values, context = end_to_end(reps, setups, units)
        wanted = spec["end_to_end"]

    digest, digest_failed = check_digests(reps, pin["sha256"] if pinned else None)
    attempted = sum(r.attempted for r in reps) + len(reps) + 1
    failed = sum(r.failed for r in reps) + digest_failed + (0 if plain_ok else 1)
    problems = [p for r in reps for p in r.problems][:5]
    if digest_failed:
        problems.append("output digest differs%s" % (" from the pinned one" if pinned else ""))
    if not plain_ok:
        problems.append("the untraced run did not see the unwrapped functions")
    context.update(
        workload=args.workload, seed=args.seed, size=args.size, reps=len(reps),
        fail_ratio=failed / attempted, digest=digest,
        digest_pinned=(not digest_failed) if pinned else None, problems=problems,
        host_ref_ms=_summary(clock.readings), python=platform.python_version(),
        cpu_count=os.cpu_count(),
    )
    print("# " + json.dumps(context, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
