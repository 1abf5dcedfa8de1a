"""Simple vector bundles on a cycle of n projective lines, combinatorially.

A bundle is the data of a rank r, an r x n integer degree matrix m (rows
indexed by Z/r, 0-based; columns by the components 0..n-1) and a nonzero
gluing constant lambda.  Simplicity, the complete order on Z/r, and the
derived Belavin-Drinfeld structure are all read off the rn-periodic
unrolled degree sequence d.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .perms import ABDStructure, Permutation, identity, json_int


class SimplicityError(ValueError):
    """An operation that requires a simple bundle received a non-simple one."""


@dataclass(frozen=True)
class BundleData:
    r: int
    n: int
    m: tuple              # r rows of n integers each
    lam: Fraction = Fraction(1)

    def __post_init__(self):
        if self.r < 1 or self.n < 1:
            raise ValueError("rank and component count must be positive")
        if len(self.m) != self.r or any(len(row) != self.n for row in self.m):
            raise ValueError("degree matrix must be r x n")
        object.__setattr__(self, "m", tuple(tuple(row) for row in self.m))
        if not self.lam:
            raise ValueError("gluing constant lambda must be nonzero")

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "n": self.n,
            "m": [list(row) for row in self.m],
            "lambda": "%d/%d" % (self.lam.numerator, self.lam.denominator),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "BundleData":
        lam = d.get("lambda", "1/1")
        if type(lam) not in (str, int, float):
            raise ValueError("lambda must be a JSON string or number, got %r" % (lam,))
        return cls(
            r=json_int(d["r"], "r"),
            n=json_int(d["n"], "n"),
            m=tuple(tuple(json_int(x, "m") for x in row) for row in d["m"]),
            lam=Fraction(lam),
        )


def unroll_d(b: BundleData):
    """The sequence t -> d_t with d_{qn+j} = m[(-q) mod r][j]; rn-periodic in t."""

    def d(t: int) -> int:
        q, j = divmod(t, b.n)
        return b.m[(-q) % b.r][j]

    return d


@dataclass(frozen=True)
class SimplicityReport:
    simple: bool
    violations: tuple

    def __bool__(self):
        return self.simple


def is_simple(b: BundleData) -> SimplicityReport:
    """Column spread <= 1, and every shifted difference sequence alternates.

    Condition (2) runs over shifts q = 1..r-1 (shifts by multiples of r
    repeat by periodicity): the rn-periodic sequence d_{qn+t} - d_t must not
    vanish identically and its nonzero entries, read cyclically, must
    alternate between +1 and -1.
    """
    violations = []
    for j in range(b.n):
        col = [b.m[i][j] for i in range(b.r)]
        if max(col) - min(col) > 1:
            violations.append("column %d has degree spread > 1" % j)
    if not violations:
        d = unroll_d(b)
        period = b.r * b.n
        for q in range(1, b.r):
            diff = [d(q * b.n + t) - d(t) for t in range(period)]
            signs = [x for x in diff if x]
            if not signs:
                violations.append("difference sequence at shift %d vanishes" % q)
                continue
            if any(abs(x) != 1 for x in signs):
                violations.append("difference sequence at shift %d leaves {-1,0,1}" % q)
                continue
            for t in range(len(signs)):
                if signs[t] == signs[(t + 1) % len(signs)]:
                    violations.append(
                        "signs fail to alternate cyclically at shift %d" % q
                    )
                    break
    return SimplicityReport(simple=not violations, violations=tuple(violations))


POSITIVE = "positive"
NONNEGATIVE = "nonnegative"
NEITHER = "neither"


def type_check(b: BundleData) -> str:
    entries = [x for row in b.m for x in row]
    if all(x > 0 for x in entries):
        return POSITIVE
    if all(x >= 0 for x in entries):
        return NONNEGATIVE
    return NEITHER


def twist(b: BundleData, shift: int) -> BundleData:
    """Tensor by O(N(p_1+..+p_n)): every restriction degree rises by N."""
    return BundleData(
        r=b.r,
        n=b.n,
        m=tuple(tuple(x + shift for x in row) for row in b.m),
        lam=b.lam,
    )


def _order_keys(b: BundleData) -> list:
    """Per row i, the one-period window (d_{j-in})_{j<rn} of the unrolled sequence.

    The complete order on Z/r is the lexicographic order of these keys: the
    first nonzero of (d_{j-in} - d_{j-i'n})_j is negative exactly when row
    i's key is the smaller, and one period rn covers every difference.
    """
    d = unroll_d(b)
    period = b.r * b.n
    return [tuple(d(j - i * b.n) for j in range(period)) for i in range(b.r)]


def compare_prec(b: BundleData, i: int, ip: int) -> bool:
    """i < i' in the complete order: the first nonzero of
    (d_{j-in} - d_{j-i'n})_{j=0,1,..} is negative.

    Equal windows (see ``_order_keys``) for i != i' mean the bundle was not
    simple after all.
    """
    if i == ip:
        return False
    keys = _order_keys(b)
    if keys[i] == keys[ip]:
        raise SimplicityError(
            "rows %d and %d are incomparable; inconsistent with simplicity" % (i, ip)
        )
    return keys[i] < keys[ip]


def order_prec(b: BundleData) -> tuple:
    """The chain of Z/r sorted by the complete order (least first)."""
    rep = is_simple(b)
    if not rep:
        raise SimplicityError("; ".join(rep.violations))
    keys = _order_keys(b)
    if len(set(keys)) < b.r:
        raise SimplicityError("two rows are incomparable; inconsistent with simplicity")
    return tuple(sorted(range(b.r), key=keys.__getitem__))


def abd_of_bundle(b: BundleData) -> ABDStructure:
    """ABD(V, p): C1 walks the order chain, C2(i) = i - 1, and A collects the
    rows i with i-1 < C1(i)-1 whose degree row matches its successor's away
    from the marked component (the i' of the defining condition is read as
    C1(i))."""
    chain = order_prec(b)
    r = b.r
    images = [0] * r
    rank = [0] * r           # position in the chain: the order of the keys
    for pos, row in enumerate(chain):
        images[row] = chain[(pos + 1) % r]
        rank[row] = pos
    c1 = Permutation(tuple(images))
    c2 = Permutation(tuple((i - 1) % r for i in range(r)))
    a = []
    for i in range(r):
        succ = c1(i)
        if i == succ or rank[(i - 1) % r] > rank[(succ - 1) % r]:
            continue
        if all(b.m[i][j] == b.m[succ][j] for j in range(1, b.n)):
            a.append(i)
    return ABDStructure(n=r, c1=c1, c2=c2, a=tuple(a))


def is_power_of(p: Permutation, q: Permutation) -> bool:
    """Is p a power of q?"""
    cur = identity(q.n)
    for _ in range(q.n):
        if cur.images == p.images:
            return True
        cur = q * cur
    return cur.images == p.images


def bundle_solution(b: BundleData):
    """The trigonometric solution attached to ABD(V, p)."""
    from .trig import TrigSolution

    return TrigSolution(abd_of_bundle(b))


def random_simple_bundle(rng: random.Random, r_max=4, n_max=3, max_tries=500) -> BundleData:
    """Seeded rejection sampler for simple bundles with r <= r_max, n <= n_max."""
    for _ in range(max_tries):
        r = rng.randrange(1, r_max + 1)
        n = rng.randrange(1, n_max + 1)
        base = [rng.randrange(-2, 3) for _ in range(n)]
        m = tuple(
            tuple(base[j] + rng.randrange(0, 2) for j in range(n)) for _ in range(r)
        )
        lam_num = rng.choice((-3, -2, -1, 1, 2, 3))
        lam_den = rng.choice((1, 1, 2))
        b = BundleData(r=r, n=n, m=m, lam=Fraction(lam_num, lam_den))
        if is_simple(b):
            return b
    raise RuntimeError("no simple bundle found after %d tries" % max_tries)
