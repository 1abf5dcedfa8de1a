"""Command-line front end: parsers, the verification-suite driver, reports.

Every command is deterministic for a fixed (inputs, seed, backend) triple;
the JSON report format is schema-stable and carries no wall-clock fields so
identical runs emit identical bytes.  Wall-clock timings are kept on the
report objects (``CheckReport.elapsed_ms``); neither output format shows them.

Each ``cmd_*`` handler returns ``(payload, ok)``: what to report and whether
the command passed.  ``main`` is the one place that emits the payload, in
--format, and sets the exit code: 0 if ok, else 1, and 2 on bad input, which
is one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

from . import bundles as bundles_mod
from . import catalog, trig
from .massey import massey_tensor, novikov_check
from .perms import ABDStructure, PermutationError, validate_abd
from .scalars import derive_rng, field_from_name
from .surface import build_surface, surface_summary
from .tensors import Tensor2, transposition_p
from .trig import (
    CheckReport,
    PoleError,
    TrigSolution,
    check_aybe,
    check_cybe,
    check_skew,
    hat_involution,
    qybe_unitarity,
    residues,
)


def _load_json(path: str, parse):
    """parse(json of the file at path); unreadable or malformed input raises ValueError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc.strerror or exc)) from exc
    except json.JSONDecodeError as exc:
        raise ValueError("%s is not JSON: %s" % (path, exc)) from exc
    try:
        return parse(data)
    except KeyError as exc:
        raise ValueError("malformed input in %s: missing key %s" % (path, exc)) from exc
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        # a scalar where a list or an object belongs, a non-integer number
        # or a non-bijective permutation, a non-finite "lambda" (1e400,
        # Infinity) or a zero denominator in it
        raise ValueError("malformed input in %s: %s" % (path, exc)) from exc


def load_abd(path: str) -> ABDStructure:
    s = _load_json(path, ABDStructure.from_json_dict)
    problems = validate_abd(s)
    if problems:
        raise ValueError("invalid structure in %s: %s" % (path, "; ".join(problems)))
    return s


def load_bundle(path: str) -> bundles_mod.BundleData:
    return _load_json(path, bundles_mod.BundleData.from_json_dict)


def emit(payload, args) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        _emit_text(payload)


def _emit_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                print("%s%s:" % (pad, k))
                _emit_text(v, indent + 1)
            else:
                print("%s%s: %s" % (pad, k, v))
    elif isinstance(payload, list):
        for v in payload:
            _emit_text(v, indent)
            if indent == 0:
                print()
    else:
        print("%s%s" % (pad, payload))


def report_payload(reports) -> dict:
    reports = list(reports)
    return {
        "checks": [r.to_json_dict() for r in reports],
        "pass": all(r.passed for r in reports),
    }


# -- commands -----------------------------------------------------------------


def cmd_validate(args):
    s = _load_json(args.abd, ABDStructure.from_json_dict)
    problems = validate_abd(s)
    return {"structure": s.label(), "violations": problems, "valid": not problems}, not problems


def cmd_surface(args):
    return surface_summary(build_surface(load_abd(args.abd))), True


def _sampled(args, tag=None, count=0):
    """(TrigSolution of --abd, the --field backend, ``count`` pole-free points
    drawn from the RNG of (--seed, tag, field))."""
    s = load_abd(args.abd)
    field = field_from_name(args.field)
    sol = TrigSolution(s)
    if not count:
        return sol, field, ()
    rng = derive_rng(args.seed, tag, field.name)
    return sol, field, trig._pole_free(field, rng, s.n, count)


def cmd_build_r(args):
    sol, field, (qu, qv) = _sampled(args, "build-r", 2)
    return {"n": sol.n, "entries": sol.eval(field, qu, qv).to_sparse_json()}, True


def _mutation(enabled):
    """The slot a mutated run corrupts, or None for an honest run."""
    return (0, 0, 0, 0) if enabled else None


def _hat_checks(sol, *rest):
    """The AYBE and skew reports of the involution image of sol."""
    hat = hat_involution(sol)
    reports = [check_aybe(hat, *rest), check_skew(hat, *rest)]
    for r in reports:
        r.check = "hat-" + r.check
    return reports


# the check commands: each row gives the reports of (mutated slot, solution,
# points, seed, field); the lambdas look the checks up when called, so a
# check replaced on this module is the one that runs
_CHECKS = {
    "check-aybe": lambda mut, *a: [check_aybe(*a, mutate=mut)],
    "check-skew": lambda mut, *a: [check_skew(*a, mutate=mut)],
    "cybe": lambda mut, *a: [check_cybe(*a)],
    "qybe": lambda mut, *a: [qybe_unitarity(*a)],
    "hat": lambda mut, *a: _hat_checks(*a),
}


def cmd_check(args):
    sol, field, _ = _sampled(args)
    reports = _CHECKS[args.command](_mutation(args.mutate), sol, args.points, args.seed, field)
    payload = report_payload(reports)
    return payload, payload["pass"]


def _residues_ok(sol, field):
    """(residue at u = 0 is 1 (x) 1, residue at v = 0 is P), both read
    exactly off the table, with no point."""
    return (residues(sol, "u", None, field) == Tensor2.unit(sol.n, field),
            residues(sol, "v", None, field) == transposition_p(sol.n, field))


def cmd_residues(args):
    sol, field, _ = _sampled(args)
    ok_u, ok_v = _residues_ok(sol, field)
    return {
        "residue_u_is_unit": ok_u,
        "residue_v_is_P": ok_v,
        "pass": ok_u and ok_v,
    }, ok_u and ok_v


def cmd_massey(args):
    sol, field, (qu, qv) = _sampled(args, "massey", 2)
    mt = massey_tensor(sol, qu, qv, field)
    payload = {
        "families": [
            {
                "kind": fam.kind,
                "k": fam.k,
                "m": fam.m,
                "base": fam.base,
                "sign": fam.sign,
                "target": list(fam.target[0]) + list(fam.target[1]),
                "coefficient": str(coeff),
            }
            for fam, coeff in mt.breakdown
        ],
    }
    if args.compare:
        payload["matches_closed_form"] = mt.tensor == sol.eval(field, qu, qv)
    return payload, payload.get("matches_closed_form", True)


def cmd_novikov(args):
    for flag, x in (("--u", args.u), ("--v", args.v), ("--tolerance", args.tolerance)):
        if not cmath.isfinite(x):
            raise ValueError("%s must be finite" % flag)
    if args.tolerance <= 0:
        raise ValueError("--tolerance must be positive")
    result = novikov_check(args.u, args.v, args.terms)
    payload = {
        "partial": repr(result.partial),
        "closed": repr(result.closed),
        "abs_error": result.abs_error,
        "terms": result.terms,
        "pass": result.abs_error < args.tolerance,
    }
    return payload, payload["pass"]


def cmd_bundle(args):
    b = load_bundle(args.infile)
    rep = bundles_mod.is_simple(b)
    payload = {
        "simple": rep.simple,
        "violations": list(rep.violations),
        "type": bundles_mod.type_check(b),
    }
    if rep.simple:
        payload["order_chain"] = list(bundles_mod.order_prec(b))
        abd = bundles_mod.abd_of_bundle(b)
        payload["abd"] = abd.to_json_dict()
        payload["c2_power_of_c1"] = bundles_mod.is_power_of(abd.c2, abd.c1)
        if args.emit_abd:
            return abd.to_json_dict(), True
    return payload, rep.simple


def cmd_abd_iso(args):
    from .perms import abd_isomorphic

    s1 = load_abd(args.first)
    s2 = load_abd(args.second)
    sigma = abd_isomorphic(s1, s2)
    return {
        "isomorphic": sigma is not None,
        "bijection": list(sigma.images) if sigma else None,
    }, sigma is not None


def run_suite(structures, points, seed, field, mutate=False):
    """Run the identity checks over a catalog; deterministic given inputs.

    Per structure: the randomized AYBE and skew checks, the residues read
    exactly off the table, the surface Euler characteristic counted from its
    cells, and the rectangle-count comparison against the closed form at a
    point; then a seeded batch of bundle-chain checks.  In mutation mode the
    randomized checks and the comparison read r plus 1 at (0, 0, 0, 0),
    the checks in their one compile (``trig._Identity.fails``), and are
    expected to fail.
    """
    from .surface import euler_characteristic, topological_invariants

    reports = []
    mut = _mutation(mutate)
    for s in structures:
        sol = TrigSolution(s)
        tag = s.label()
        rep = check_aybe(sol, points, seed, field, mutate=mut)
        rep.check = "aybe[%s]" % tag
        reports.append(rep)
        rep = check_skew(sol, points, seed, field, mutate=mut)
        rep.check = "skew[%s]" % tag
        reports.append(rep)
        with CheckReport.timed("residues[%s]" % tag, 2, seed, field.name) as rep:
            rep.failures = sum(not ok for ok in _residues_ok(sol, field))
        reports.append(rep)
        with CheckReport.timed("surface-euler[%s]" % tag, 1, seed, field.name) as rep:
            surf = build_surface(s)
            genus = topological_invariants(surf).genus
            rep.failures = int(euler_characteristic(surf) != 2 - 2 * genus)
        reports.append(rep)
        with CheckReport.timed("massey-compare[%s]" % tag, 1, seed, field.name) as rep:
            rng = derive_rng(seed, "suite-res", field.name, tag)
            qu, qv = trig._pole_free(field, rng, s.n, 2)
            want = sol.eval(field, qu, qv)
            if mut is not None:
                want += Tensor2.basis(s.n, field, *mut)
            rep.failures = int(massey_tensor(sol, qu, qv, field).tensor != want)
        reports.append(rep)
    # seeded bundle-chain batch
    rng = derive_rng(seed, "suite-bundles", field.name)
    with CheckReport.timed("bundle-chain", 10, seed, field.name) as rep:
        for _ in range(10):
            b = bundles_mod.random_simple_bundle(rng)
            abd = bundles_mod.abd_of_bundle(b)
            if validate_abd(abd) or not bundles_mod.is_power_of(abd.c2, abd.c1):
                rep.failures += 1
            elif check_aybe(TrigSolution(abd), min(points, 3), seed, field).failures:
                rep.failures += 1
    reports.append(rep)
    return reports


def cmd_suite(args):
    field = field_from_name(args.field)
    structures = [s for s in catalog.suite_catalog() if s.n <= args.nmax]
    reports = run_suite(
        structures,
        args.points,
        args.seed,
        field,
        mutate=args.mutate == "one-coefficient",
    )
    payload = report_payload(reports)
    if args.mutate == "one-coefficient":
        # mutated runs are expected to fail; surface that in the payload
        payload["mutation_mode"] = True
        payload["failures_reported"] = sum(1 for r in reports if not r.passed)
    return payload, payload["pass"]


class _Parser(argparse.ArgumentParser):
    """A usage error is one ``error:`` line on stderr and exit 2, like every
    other bad input; ``add_subparsers`` gives the subcommands this class too."""

    def error(self, message):
        self.exit(2, "error: %s\n" % message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ybx",
        description="Exact verification of trigonometric associative "
        "Yang-Baxter solutions and their combinatorics.",
    )
    # the shared flags, each given only to the commands that read it
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="json")
    exact = argparse.ArgumentParser(add_help=False, parents=[fmt])
    exact.add_argument("--field", default="q", help="scalar backend: q or fp:<prime>")
    sampled = argparse.ArgumentParser(add_help=False, parents=[exact])
    sampled.add_argument("--seed", type=int, default=7, help="root RNG seed")
    checked = argparse.ArgumentParser(add_help=False, parents=[sampled])
    checked.add_argument("--points", type=int, default=25, help="points per check")
    sub = parser.add_subparsers(dest="command", required=True)

    # the commands that read one structure file: (name, shared flags,
    # handler, help, their own flags after --abd)
    for name, parent, func, help_, extra in (
        ("validate", fmt, cmd_validate, "validate a structure file", ()),
        ("surface", fmt, cmd_surface, "square-tiled surface summary", ()),
        ("build-r", sampled, cmd_build_r, "emit r at a sample point", ()),
        ("check-aybe", checked, cmd_check, "AYBE residual check",
         [("--mutate", {"action": "store_true", "help": "corrupt one coefficient"})]),
        ("check-skew", checked, cmd_check, "skew-symmetry check",
         [("--mutate", {"action": "store_true"})]),
        ("residues", exact, cmd_residues, "polar term extraction", ()),
        ("cybe", checked, cmd_check, "CYBE check for rbar0", ()),
        ("qybe", checked, cmd_check, "QYBE and unitarity check", ()),
        ("hat", checked, cmd_check, "checks for the involution image", ()),
        ("massey", sampled, cmd_massey, "rectangle-count tensor",
         [("--compare", {"action": "store_true", "help": "compare against the closed form"})]),
    ):
        p = sub.add_parser(name, parents=[parent], help=help_)
        p.add_argument("--abd", required=True)
        for flag, kwargs in extra:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func, mutate=False)

    p = sub.add_parser("novikov", parents=[fmt], help="Novikov series cross-check")
    p.add_argument("--u", type=complex, default="1.0")
    p.add_argument("--v", type=complex, default="1.0")
    p.add_argument("--terms", type=int, default=60, dest="terms")
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.set_defaults(func=cmd_novikov)

    p = sub.add_parser("bundle", parents=[fmt], help="bundle combinatorics")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--emit-abd", action="store_true", dest="emit_abd")
    p.set_defaults(func=cmd_bundle)

    p = sub.add_parser("abd-iso", parents=[fmt], help="structure isomorphism")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_abd_iso)

    p = sub.add_parser("suite", parents=[checked], help="run the built-in catalog")
    p.add_argument("--nmax", type=int, default=4, help="largest n to check (1..4)")
    p.add_argument("--mutate", choices=("one-coefficient",), default=None)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "points", 1) < 1:
        print("error: --points must be >= 1", file=sys.stderr)
        return 2
    if not 1 <= getattr(args, "nmax", 1) <= 4:
        print("error: --nmax must be between 1 and 4", file=sys.stderr)
        return 2
    try:
        payload, ok = args.func(args)
    except (PermutationError, ValueError, PoleError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    emit(payload, args)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
