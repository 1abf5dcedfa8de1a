"""Built-in corpus of Belavin-Drinfeld structures.

The exhaustive enumeration walks every pair of transitive cycles on n points
and every admissible proper subset of the commutator's fixed points; the two
pinned regression structures are the 4-square worked example and the
plumbing-picture pair.
"""

from __future__ import annotations

from .perms import (
    ABDStructure,
    all_n_cycles,
    commutator,
    fixed_points,
    is_valid_abd,
    parse_cycles,
)


def _subsets(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield tuple(items[i] for i in range(len(items)) if mask >> i & 1)


def enumerate_structures(n: int, commuting_only: bool = False):
    """All valid structures on n points, in a deterministic order."""
    cycles_n = list(all_n_cycles(n))
    for c1 in cycles_n:
        for c2 in cycles_n:
            comm = commutator(c1, c2)
            if commuting_only and not comm.is_identity():
                continue
            admissible = fixed_points(comm)
            for a in _subsets(admissible):
                if len(a) >= n:
                    continue  # A must be proper
                s = ABDStructure(n=n, c1=c1, c2=c2, a=a)
                assert is_valid_abd(s)
                yield s


def corpus(n_max: int = 4, commuting_only: bool = False):
    out = []
    for n in range(1, n_max + 1):
        out.extend(enumerate_structures(n, commuting_only))
    return out


def example_structure(filled: bool = True) -> ABDStructure:
    """The 4-square worked example: C1 = (1 4 2 3), C2 = (1 2 3 4); the unique
    commutator fixed point is 3 (1-based)."""
    c1 = parse_cycles("(1 4 2 3)", 4)
    c2 = parse_cycles("(1 2 3 4)", 4)
    return ABDStructure(n=4, c1=c1, c2=c2, a=(2,) if filled else ())


def figure2_structure(filled: bool = False) -> ABDStructure:
    """The plumbing example pair: C1 = (1 2 3 4), C2 = (1 3 2 4); the unique
    commutator fixed point is 1 (1-based)."""
    c1 = parse_cycles("(1 2 3 4)", 4)
    c2 = parse_cycles("(1 3 2 4)", 4)
    return ABDStructure(n=4, c1=c1, c2=c2, a=(0,) if filled else ())


def pinned_structures():
    return [
        example_structure(filled=False),
        example_structure(filled=True),
        figure2_structure(filled=False),
        figure2_structure(filled=True),
    ]


def _with_pinned(structures):
    """structures, then the pinned structures not among them, in order."""
    unique = {}
    for s in structures + pinned_structures():
        unique.setdefault((s.n, s.c1.images, s.c2.images, s.a), s)
    return list(unique.values())


def acceptance_corpus():
    """Exhaustive n <= 4 plus the pinned structures (deduplicated)."""
    return _with_pinned(corpus(4))


def suite_catalog():
    """The CLI suite catalog: commuting structures with n <= 4 plus the
    pinned examples."""
    return _with_pinned(corpus(4, commuting_only=True))
