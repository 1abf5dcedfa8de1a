#!/usr/bin/env python3
"""Walk the 4-square worked example end to end.

Builds the structure (C1 = (1 4 2 3), C2 = (1 2 3 4), A = {3}), prints its
surface topology, the contributing rectangle families with their exact
coefficients at a sample point, and cross-checks the combinatorial tensor
against the closed formula, the polar terms, and the randomized identity
checks.  Exits 1 if any cross-check fails; a usage error, or a bad
--points or --field, is one ``error:`` line and exit 2.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ybx.catalog import example_structure
from ybx.cli import _Parser
from ybx.massey import enumerate_rectangles, massey_tensor
from ybx.scalars import derive_rng, field_from_name
from ybx.surface import build_surface, surface_summary
from ybx.tensors import Tensor2, transposition_p
from ybx.trig import (
    TrigSolution,
    check_aybe,
    check_cybe,
    check_skew,
    qybe_unitarity,
    residues,
    _pole_free,
)


def main():
    ap = _Parser(description=__doc__)
    ap.add_argument("--field", default="fp:2305843009213693951")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--points", type=int, default=25)
    args = ap.parse_args()
    try:
        if args.points < 1:
            raise ValueError("--points must be >= 1")
        field = field_from_name(args.field)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    s = example_structure()
    print("structure:", s.label())
    surf = build_surface(s)
    print("surface:", surface_summary(surf))

    sol = TrigSolution(s)
    print("\nrectangle families:")
    for fam in enumerate_rectangles(sol):
        print(
            "  %-10s k=%d m=%d base=%d sign=%+d holonomy=%s -> e_%s (x) e_%s"
            % (fam.kind, fam.k, fam.m, fam.base, fam.sign, fam.holonomy,
               fam.target[0], fam.target[1])
        )

    rng = derive_rng(args.seed, "worked-example", field.name)
    qu, qv = _pole_free(field, rng, s.n, 2)
    mt = massey_tensor(sol, qu, qv, field)
    closed = sol.eval(field, qu, qv)
    passed = [mt.tensor == closed,
              residues(sol, "u", None, field) == Tensor2.unit(s.n, field),
              residues(sol, "v", None, field) == transposition_p(s.n, field)]
    print("\nmassey tensor == closed form at the sample point:", passed[0])
    print("residue at u=0 is 1(x)1:", passed[1])
    print("residue at v=0 is P:   ", passed[2])

    for name, rep in (
        ("aybe", check_aybe(sol, args.points, args.seed, field)),
        ("skew", check_skew(sol, args.points, args.seed, field)),
        ("cybe", check_cybe(sol, args.points, args.seed, field)),
        ("qybe", qybe_unitarity(sol, args.points, args.seed, field)),
    ):
        print("%-5s points=%-3d failures=%d  (%.0f ms)"
              % (name, rep.points, rep.failures, rep.elapsed_ms))
        passed.append(rep.passed)
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
