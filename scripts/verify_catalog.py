#!/usr/bin/env python3
"""Sweep the exhaustive n <= nmax catalog through every identity check.

Prints one row per structure with the residual-failure counts (all zeros on
a healthy build) and a timing summary.  This is the long-form version of
``ybx suite``; use --mutate to confirm the checks detect a corrupted
coefficient.  A bad --points, --nmax (outside 1..4, as in ``ybx suite``) or
--field is one ``error:`` line and exit 2.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ybx.catalog import corpus, pinned_structures
from ybx.scalars import field_from_name
from ybx.trig import (
    TrigSolution,
    check_aybe,
    check_cybe,
    check_skew,
    qybe_unitarity,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--field", default="fp:2305843009213693951")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--points", type=int, default=10)
    ap.add_argument("--nmax", type=int, default=3)
    ap.add_argument("--mutate", action="store_true")
    args = ap.parse_args()
    try:
        if args.points < 1:
            raise ValueError("--points must be >= 1")
        if not 1 <= args.nmax <= 4:
            raise ValueError("--nmax must be between 1 and 4")
        field = field_from_name(args.field)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    structures = corpus(args.nmax) + [
        s for s in pinned_structures() if s.n > args.nmax
    ]
    mut = (0, 0, 0, 0) if args.mutate else None
    t0 = time.perf_counter()
    total_failures = 0
    for s in structures:
        sol = TrigSolution(s)
        aybe = check_aybe(sol, args.points, args.seed, field, mutate=mut)
        skew = check_skew(sol, args.points, args.seed, field, mutate=mut)
        cybe = check_cybe(sol, args.points, args.seed, field)
        qybe = qybe_unitarity(sol, args.points, args.seed, field)
        failures = aybe.failures + skew.failures + cybe.failures + qybe.failures
        total_failures += failures
        print(
            "%-44s aybe=%-2d skew=%-2d cybe=%-2d qybe=%-2d"
            % (s.label(), aybe.failures, skew.failures, cybe.failures, qybe.failures)
        )
    print(
        "\n%d structures, %d total failures, %.1fs"
        % (len(structures), total_failures, time.perf_counter() - t0)
    )
    if args.mutate:
        return 0 if total_failures > 0 else 1
    return 0 if total_failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
