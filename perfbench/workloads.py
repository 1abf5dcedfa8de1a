"""The three benchmark workloads: inputs from the seed, one repetition, checks.

A workload has a ``build`` step (corpus or structure generation and
``TrigSolution`` construction, timed as set-up) and a ``rep`` step that
verifies every structure once, one after another, and returns a ``Rep``.
``rep`` runs each timed unit of work (one structure, or one ``ybx suite``
call) inside ``scope()``, which times it and, in the traced run, opens its
root span.  Repetitions of one run verify the same inputs, so they produce
the same output digest.  The library only receives the structures and the
points the benchmark generated from ``--seed``; check seeds are the
workload seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field

#: sizes of each workload: the standard size of every gated run and a
#: tiny size for the benchmark's own tests.  Every check samples 5 points,
#: the count of the measured ``ybx suite --points 5`` run: the user-facing
#: default of 25 makes one ``aybe-fp`` repetition take about a minute and
#: one ``suite-q`` call about 40 s, longer than a run.
SIZES = {
    "aybe-fp": {"standard": {"points": 5, "stride": 1}, "tiny": {"points": 1, "stride": 26}},
    "limits-fp": {"standard": {"points": 5, "per_n": 10}, "tiny": {"points": 1, "per_n": 1}},
    "suite-q": {"standard": {"points": 5, "nmax": 4}, "tiny": {"points": 1, "nmax": 2}},
}


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class Rep:
    """Outcome of one repetition: work done, failed operations, output digest."""

    points: int = 0
    per_unit: int = 1        # structures verified in one timed unit of work
    units: slice = None      # this repetition's units among the run's
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(what)

    def reports(self, reports):
        for r in reports:
            self.digest.update(canonical(r.to_json_dict()) + b"\n")
            self.points += r.points


# -- aybe-fp ------------------------------------------------------------------------


def build_aybe(ybx, seed, size):
    """The acceptance corpus, its solutions and criterion-1 mutation slots."""
    field_ = ybx.scalars.PrimeField(ybx.scalars.DEFAULT_PRIME)
    corpus = ybx.catalog.acceptance_corpus()[:: size["stride"]]
    items = []
    for s in corpus:
        rng = ybx.scalars.derive_rng(seed, "mutant", s.label())
        slot = tuple(rng.randrange(s.n) for _ in range(4))
        items.append((s, ybx.trig.TrigSolution(s), slot))
    return {"field": field_, "items": items, "points": size["points"], "seed": seed}


def rep_aybe(ybx, st, scope):
    trig = ybx.trig
    f, points, seed = st["field"], st["points"], st["seed"]
    out = Rep()
    for s, sol, slot in st["items"]:
        with scope():
            honest = (
                trig.check_aybe(sol, points, seed, f),
                trig.check_skew(sol, points, seed, f),
                trig.check_aybe(trig.hat_involution(sol), points, seed, f),
            )
            mutated = trig.check_aybe(sol, points, seed, f, mutate=slot)
        tag = s.label()
        for r in honest:
            out.op(r.failures == 0, "%s %s: %d failures" % (r.check, tag, r.failures))
        missed = mutated.points - mutated.failures
        out.op(25 * missed <= mutated.points, "mutation %s at %s missed %d" % (slot, tag, missed))
        out.reports(honest + (mutated,))
    return out


# -- limits-fp ------------------------------------------------------------------------


def _random_structure(ybx, rng, n, cycles):
    perms = ybx.perms
    while True:
        c1, c2 = rng.choice(cycles), rng.choice(cycles)
        fixed = perms.fixed_points(perms.commutator(c1, c2))
        a = tuple(x for x in fixed if rng.random() < 0.5)
        if len(a) >= n:
            continue
        s = perms.ABDStructure(n=n, c1=c1, c2=c2, a=a)
        if not perms.validate_abd(s):
            return s


def build_limits(ybx, seed, size):
    """``per_n`` seeded structures for each n in 5, 6, 7, and a residue point each."""
    f = ybx.scalars.PrimeField(ybx.scalars.DEFAULT_PRIME)
    rng = random.Random("limits-fp:%d" % seed)
    items = []
    for n in (5, 6, 7):
        cycles = list(ybx.perms.all_n_cycles(n))
        for _ in range(size["per_n"]):
            s = _random_structure(ybx, rng, n, cycles)
            while True:
                other = f.of_int(rng.randrange(2, f.p - 1))
                if other ** (2 * n) != f.one:
                    break
            items.append((s, ybx.trig.TrigSolution(s), other))
    return {"field": f, "items": items, "points": size["points"], "seed": seed}


def rep_limits(ybx, st, scope):
    trig, tensors = ybx.trig, ybx.tensors
    f, points, seed = st["field"], st["points"], st["seed"]
    out = Rep()
    for s, sol, other in st["items"]:
        n = s.n
        with scope():
            cybe = trig.check_cybe(sol, points, seed, f, jet_order=4)
            res_u = trig.residues(sol, "u", other, f) == tensors.Tensor2.unit(n, f)
            res_v = trig.residues(sol, "v", other, f) == tensors.transposition_p(n, f)
            qybe = trig.qybe_unitarity(sol, points, seed, f)
            nondeg = trig.check_strong_nondegeneracy(sol, points, seed, f)
        tag = s.label()
        for r in (cybe, qybe, nondeg):
            out.op(r.failures == 0, "%s %s: %d failures" % (r.check, tag, r.failures))
        out.op(res_u, "residue in u of %s is not 1(x)1" % tag)
        out.op(res_v, "residue in v of %s is not P" % tag)
        out.points += 2
        out.reports((cybe, qybe, nondeg))
    return out


# -- suite-q ----------------------------------------------------------------------------


def build_suite(ybx, seed, size):
    """The suite's argv; the suite builds its structures inside the call."""
    argv = ["suite", "--field", "q", "--points", str(size["points"]), "--seed", str(seed)]
    if size["nmax"] < 4:
        argv += ["--nmax", str(size["nmax"])]
    return {"argv": argv}


def rep_suite(ybx, st, scope):
    out = Rep()
    buf = io.StringIO()
    with scope(), contextlib.redirect_stdout(buf):
        code = ybx.cli.main(st["argv"])
    text = buf.getvalue()
    out.digest.update(text.encode())
    out.op(code == 0, "ybx suite exited with %r" % code)
    try:
        checks = json.loads(text)["checks"]
    except (ValueError, KeyError, TypeError):
        out.op(False, "ybx suite printed no JSON report")
        return out
    for c in checks:
        out.op(c.get("pass") is True, "suite check %s failed" % c.get("check"))
        out.points += c["points"]
    out.per_unit = max(1, sum(1 for c in checks if c["check"].startswith("aybe[")))
    return out


WORKLOADS = {
    "aybe-fp": (build_aybe, rep_aybe),
    "limits-fp": (build_limits, rep_limits),
    "suite-q": (build_suite, rep_suite),
}
