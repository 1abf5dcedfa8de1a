"""Permutations of {0,..,n-1} and associative Belavin-Drinfeld structures.

A permutation is stored by its images array: ``p.images[i]`` is the image of
``i``.  Composition follows the function convention ``(p*q)(x) = p(q(x))``
(q applied first) and the commutator is ``[p,q] = p^-1 q^-1 p q``; with these
conventions the worked 4-square example of the square-tiled construction has
commutator fixed-point set {3} (1-based).

All text I/O is 1-based cycle notation; everything internal is 0-based.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field


class PermutationError(ValueError):
    pass


@dataclass(frozen=True)
class Permutation:
    images: tuple

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise PermutationError("images %r are not a bijection of range(%d)" % (self.images, n))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __pow__(self, k: int) -> "Permutation":
        n = self.n
        if k < 0:
            return inverse(self) ** (-k)
        result = identity(n)
        base = self
        while k:
            if k & 1:
                result = compose(result, base)
            k >>= 1
            if k:
                base = compose(base, base)
        return result

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def __str__(self):
        return format_cycles(self)


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p*q)(x) = p(q(x)); q is applied first."""
    if p.n != q.n:
        raise PermutationError("size mismatch: %d vs %d" % (p.n, q.n))
    return Permutation(tuple(p.images[q.images[x]] for x in range(p.n)))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.n
    for x, y in enumerate(p.images):
        inv[y] = x
    return Permutation(tuple(inv))


def commutator(p: Permutation, q: Permutation) -> Permutation:
    """[p, q] = p^-1 q^-1 p q."""
    return compose(compose(inverse(p), inverse(q)), compose(p, q))


def cycles(p: Permutation) -> list:
    """Cycle decomposition; each cycle starts at its smallest element and the
    cycles are sorted by that element.  Fixed points appear as 1-cycles."""
    seen = [False] * p.n
    out = []
    for start in range(p.n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p.images[start]
        while x != start:
            seen[x] = True
            cyc.append(x)
            x = p.images[x]
        out.append(tuple(cyc))
    return out


def cycle_type(p: Permutation):
    """Multiset of cycle lengths (sorted tuple) plus the fixed-point set."""
    cycs = cycles(p)
    lengths = tuple(sorted(len(c) for c in cycs))
    fixed = tuple(sorted(c[0] for c in cycs if len(c) == 1))
    return lengths, fixed


def fixed_points(p: Permutation) -> tuple:
    return tuple(x for x in range(p.n) if p.images[x] == x)


def is_transitive_cycle(p: Permutation) -> bool:
    return len(cycles(p)) == 1


def from_cycles(cycs, n: int) -> Permutation:
    images = list(range(n))
    touched = set()
    for cyc in cycs:
        for x in cyc:
            if not 0 <= x < n:
                raise PermutationError("point %d outside range(%d)" % (x, n))
            if x in touched:
                raise PermutationError("point %d repeated in cycle notation" % x)
            touched.add(x)
        for i, x in enumerate(cyc):
            images[x] = cyc[(i + 1) % len(cyc)]
    return Permutation(tuple(images))


def all_n_cycles(n: int):
    """All transitive cycles on {0,..,n-1} ((n-1)! of them)."""
    for rest in itertools.permutations(range(1, n)):
        # each point maps to the next along (0,) + rest, the last back to 0
        images = [0] * n
        for x, y in zip((0,) + rest, rest):
            images[x] = y
        yield Permutation(tuple(images))


# -- 1-based cycle-notation text form ---------------------------------------

_TOKEN = re.compile(r"\s*(\(|\)|,|\d+)")


def parse_cycles(text: str, n=None) -> Permutation:
    """Parse 1-based cycle notation like ``(1 4 2 3)`` or ``(1,2)(3,4)``.

    Unlisted points are fixed.  ``n`` defaults to the largest point seen.
    """
    pos = 0
    cycs = []
    current = None
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PermutationError("syntax error at position %d: %r" % (pos, text[pos:]))
            break
        tok = m.group(1)
        pos = m.end()
        if tok == "(":
            if current is not None:
                raise PermutationError("nested '(' at position %d" % pos)
            current = []
        elif tok == ")":
            if current is None or not current:
                raise PermutationError("empty or unopened cycle at position %d" % pos)
            cycs.append(current)
            current = None
        elif tok == ",":
            if current is None:
                raise PermutationError("',' outside cycle at position %d" % pos)
        else:
            if current is None:
                raise PermutationError("number outside cycle at position %d" % pos)
            k = int(tok)
            if k < 1:
                raise PermutationError("points are 1-based; got %d" % k)
            current.append(k - 1)
    if current is not None:
        raise PermutationError("unclosed '(' at end of input")
    if not cycs:
        raise PermutationError("no cycles found in %r" % text)
    top = max(max(c) for c in cycs) + 1
    if n is None:
        n = top
    elif top > n:
        raise PermutationError("point %d exceeds n=%d" % (top, n))
    return from_cycles(cycs, n)


def format_cycles(p: Permutation) -> str:
    """1-based cycle notation; fixed points omitted, identity printed as (1)."""
    nontrivial = [c for c in cycles(p) if len(c) > 1]
    if not nontrivial:
        return "(1)"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in nontrivial)


# -- associative Belavin-Drinfeld structures ---------------------------------

@dataclass(frozen=True)
class ABDStructure:
    """(S, C1, C2, A): two transitive cycles on n points plus a proper subset
    on which they commute pointwise."""

    n: int
    c1: Permutation
    c2: Permutation
    a: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(sorted(set(self.a))))

    def label(self) -> str:
        return "n=%d c1=%s c2=%s a=%s" % (
            self.n,
            format_cycles(self.c1),
            format_cycles(self.c2),
            "{" + ",".join(str(x + 1) for x in self.a) + "}",
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "c1": list(self.c1.images),
            "c2": list(self.c2.images),
            "a": list(self.a),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ABDStructure":
        json_object(d, ("n", "c1", "c2", "a"), "a structure")
        a = tuple(json_int(x, "a") for x in d["a"])
        if len(set(a)) != len(a):
            raise ValueError("a repeats a point: %r" % (list(a),))
        return cls(
            n=json_int(d["n"], "n"),
            c1=Permutation(tuple(json_int(x, "c1") for x in d["c1"])),
            c2=Permutation(tuple(json_int(x, "c2") for x in d["c2"])),
            a=a,
        )


def json_object(d, keys: tuple, what: str) -> None:
    """ValueError unless ``d`` is a JSON object whose keys are among ``keys``,
    those ``to_json_dict`` writes: a misspelt key is rejected, not ignored."""
    if type(d) is not dict:
        raise ValueError("%s must be a JSON object with keys %s" % (what, ", ".join(keys)))
    unknown = next((k for k in d if k not in keys), None)
    if unknown is not None:
        raise ValueError("unknown key %r in %s (expected %s)" % (unknown, what, ", ".join(keys)))


def json_int(value, key: str) -> int:
    """``value`` if it is a JSON integer, else ValueError (no float, bool or string)."""
    if type(value) is not int:
        raise ValueError("%s must hold JSON integers, got %r" % (key, value))
    return value


def validate_abd(s: ABDStructure) -> list:
    """Return the list of violated invariants (empty list = valid)."""
    problems = []
    if s.c1.n != s.n or s.c2.n != s.n:
        problems.append("permutation size differs from n")
        return problems
    if not is_transitive_cycle(s.c1):
        problems.append("c1 is not a single n-cycle")
    if not is_transitive_cycle(s.c2):
        problems.append("c2 is not a single n-cycle")
    if not all(0 <= x < s.n for x in s.a):
        problems.append("a contains points outside range(n)")
        return problems
    if len(s.a) >= s.n:
        problems.append("a is not a proper subset")
    bad = [x for x in s.a if s.c1(s.c2(x)) != s.c2(s.c1(x))]
    if bad:
        problems.append(
            "c1 and c2 do not commute at %s" % "{" + ",".join(str(x + 1) for x in bad) + "}"
        )
    return problems


def is_valid_abd(s: ABDStructure) -> bool:
    return not validate_abd(s)


def a_km(s: ABDStructure, k: int, m: int) -> tuple:
    """A(k,m): elements whose k x m grid of c1/c2-translates stays inside A."""
    if k < 1 or m < 1:
        raise ValueError("k and m must be positive")
    aset = set(s.a)
    out = []
    for x in s.a:
        row = x
        ok = True
        for _ in range(m):
            col = row
            for _ in range(k):
                if col not in aset:
                    ok = False
                    break
                col = s.c1(col)
            if not ok:
                break
            row = s.c2(row)
        if ok:
            out.append(x)
    return tuple(out)


def _rectangle_members(s: ABDStructure) -> dict:
    """{(k, m): A(k,m)} for every nonempty A(k,m), 1 <= k, m < n, in (k, m)
    order, each listing its members in the order of ``s.a``, in one pass.

    x is in A(k,m) exactly when each of x, C2 x, ..., C2^(m-1) x starts a
    run of at least k points of A along C1; ``run`` holds those run
    lengths, capped at n.
    """
    n, c1, c2 = s.n, s.c1.images, s.c2.images
    inside = [False] * n
    for x in s.a:
        inside[x] = True
    run = [0] * n
    for x in s.a:
        y = x
        while inside[y] and run[x] < n:
            run[x] += 1
            y = c1[y]
    members = {}
    for x in s.a:
        low, y = n, x
        for m in range(1, n):
            low = min(low, run[y])
            y = c2[y]
            for k in range(1, min(low, n - 1) + 1):
                members.setdefault((k, m), []).append(x)
    return {km: tuple(members[km]) for km in sorted(members)}


def rectangle_terms(s: ABDStructure) -> tuple:
    """The rectangle families of ``s``, grouped by the coefficient they share in r.

    Each group is a tuple ``(kind, k, m, sign, bases, flats)``: ``bases``
    lists the base square of every family in the group and ``flats`` the
    flat index ((i*n + j)*n + k)*n + l of the basis tensor e_ij (x) e_kl it
    contributes to, in the same order.  With j = C1^k(i) or C2^m(i):

    - ("diagonal", 0, 0, +1): e_ii (x) e_ii for every square i;
    - ("horizontal", k, 0, +1), 1 <= k < n: e_jj (x) e_ii, j = C1^k(i);
    - ("vertical", 0, m, +1), 1 <= m < n: e_ij (x) e_ji, j = C2^m(i);
    - ("a_rect", k, m, +1) and ("a_rect", k, m, -1) for every nonempty
      A(k,m): e_{C2^m a, a} (x) e_{C1^k a, C1^k C2^m a}, and the same two
      factors swapped.
    """
    n = s.n
    c1, c2 = s.c1.images, s.c2.images
    pow1, pow2 = [tuple(range(n))], [tuple(range(n))]
    for _ in range(1, n):
        pow1.append(tuple(map(c1.__getitem__, pow1[-1])))
        pow2.append(tuple(map(c2.__getitem__, pow2[-1])))

    def flat(i, j, k, l):
        return ((i * n + j) * n + k) * n + l

    squares = pow1[0]
    terms = [("diagonal", 0, 0, 1, squares, tuple(flat(i, i, i, i) for i in squares))]
    for k in range(1, n):
        terms.append(("horizontal", k, 0, 1, squares,
                      tuple(flat(j, j, i, i) for i, j in enumerate(pow1[k]))))
    for m in range(1, n):
        terms.append(("vertical", 0, m, 1, squares,
                      tuple(flat(i, j, j, i) for i, j in enumerate(pow2[m]))))
    for (k, m), members in _rectangle_members(s).items():
        blocks = [((pow2[m][a], a), (pow1[k][a], pow1[k][pow2[m][a]])) for a in members]
        terms.append(("a_rect", k, m, 1, members,
                      tuple(flat(*left, *right) for left, right in blocks)))
        terms.append(("a_rect", k, m, -1, members,
                      tuple(flat(*right, *left) for left, right in blocks)))
    return tuple(terms)


def term_target(n: int, flat: int) -> tuple:
    """The basis tensor ((i, j), (k, l)) at a flat index of ``rectangle_terms``."""
    flat, l = divmod(flat, n)
    flat, k = divmod(flat, n)
    i, j = divmod(flat, n)
    return (i, j), (k, l)


def gamma_pair(s: ABDStructure):
    """The graph-subset form: Gamma1 = {(a, C1 a)}, Gamma2 = {(C2 a, C1 C2 a)}."""
    g1 = frozenset((x, s.c1(x)) for x in s.a)
    g2 = frozenset((s.c2(x), s.c1(s.c2(x))) for x in s.a)
    return g1, g2


def abd_isomorphic(s1: ABDStructure, s2: ABDStructure):
    """A relabeling bijection sigma with sigma c1 = c1' sigma, sigma c2 = c2' sigma
    and sigma(a) = a', or None.

    Transitivity of c1 pins sigma by the image of one point, so only n
    candidates are tried.
    """
    if s1.n != s2.n or len(s1.a) != len(s2.a):
        return None
    n = s1.n
    a2 = set(s2.a)
    for t in range(n):
        sigma = [None] * n
        x, y = 0, t
        for _ in range(n):
            sigma[x] = y
            x, y = s1.c1(x), s2.c1(y)
        if any(v is None for v in sigma):
            continue
        if any(sigma[s1.c2(x)] != s2.c2(sigma[x]) for x in range(n)):
            continue
        if {sigma[x] for x in s1.a} != a2:
            continue
        return Permutation(tuple(sigma))
    return None


def abd_isomorphic_bruteforce(s1: ABDStructure, s2: ABDStructure):
    """All-bijections oracle for abd_isomorphic (use only for small n)."""
    if s1.n != s2.n:
        return None
    n = s1.n
    a2 = set(s2.a)
    for images in itertools.permutations(range(n)):
        if any(images[s1.c1(x)] != s2.c1(images[x]) for x in range(n)):
            continue
        if any(images[s1.c2(x)] != s2.c2(images[x]) for x in range(n)):
            continue
        if {images[x] for x in s1.a} != a2:
            continue
        return Permutation(images)
    return None


def relabel_abd(s: ABDStructure, sigma: Permutation) -> ABDStructure:
    """Conjugate both cycles by sigma and map a through it."""
    inv = inverse(sigma)
    return ABDStructure(
        n=s.n,
        c1=compose(compose(sigma, s.c1), inv),
        c2=compose(compose(sigma, s.c2), inv),
        a=tuple(sigma(x) for x in s.a),
    )
