"""The trigonometric r-matrix of a Belavin-Drinfeld structure and its checks.

Evaluation convention: instead of u and v the evaluators take the sampled
quantities q_u = exp(u/(2n)) and q_v = exp(v/(2n)), so that

    exp(u/n) = q_u**2,   exp(u) = q_u**(2n),   exp(u/2) = q_u**n

are all Laurent monomials in q_u (and likewise for v).  This covers the 1/n
exponents of the closed formula and the half-integer exponents of the QYBE
rescaling with no root extraction.  Every identity is verified by exact
evaluation at seeded random points avoiding the poles.

Every solution is one linear table: r(u, v) is the sum of price_g(u, v)
at flat index f over its rows (g, f), g a group of the rectangle-family
table.  ``point_factors`` computes the factors of every price at a point,
which read no table, and ``price_terms`` gathers a table's prices from them
as integer numerators over one denominator, ``(nums, den)``, with no
division; ``eval`` boxes them on any ring (fields and jets).
``limit_prices`` prices the constant term of each group at u = 0 (or
v = 0) the same way, so r0 is exact, with no jets, and ``residue_prices``
the coefficient of 1/u (or 1/v).  The hat, a gauge and pr (x) pr are one
linear image of a table (``_Image``), fixed per solution: rows with integer
coefficients over one denominator, the hat's a rotation of the flat indices
priced with u and v exchanged (at the ``Point``'s swap).

The AYBE, skew, CYBE, QYBE and unitarity checks state their products in
the paper's notation, each evaluation of r in the slots it occupies ((1, 2)
for r12, (2, 1) for flip(r), () for a scalar), and compile them once per
call into one random linear form of the residual
(``tensors.projected_residual``).  What a check needs and no structure
decides is computed once per process, in bounded ``functools.lru_cache``
memos that every structure of one n shares: its samples (``_points``),
each the ``Point``s it reads r at, which keep the factors of their prices
(``point_factors``) once computed, and its weights, drawn from their own
RNG so the points drawn do not move (``_weights``).  Each table
says how a residual reads it, as the (size, flats, reads) entries that the
form and the exact ``tensors.product_residual`` both compile (``entries``)
and the values they read at a point (``read``): r, the hat and a mutated
table by their rows, each at its group's price as ``price`` returns it,
and a scaled image (a gauge, pr (x) pr), whose rows outnumber its flats,
by its support, each flat's rows summed by ``values``; the CYBE reads
rbar0 that way too.  Each point tests the form on each distinct
evaluation once, on those integers: no field element is boxed and no
tensor is built.

A sampled PASS carries two false-pass chances per point.  The form's is
at most 6/|S| for a triple residual and 4/|S| for a pair one (skew,
unitarity), |S| = p in GF(p) and 2^61 in q.  The point's (Schwartz-Zippel)
is at most d/(p - 3) in GF(p) for a nonzero residual of degree d in the
sampled q's, its Laurent monomial cleared: the sampler draws uniformly from
2..p - 2 (the pole rejection, which discards a share of order n/p of the
tuples, raises that by a factor 1 + O(n/p)).  On q the sampler has only 96
values, the likeliest with chance 5/216, so d times that exceeds 1 once
d > 43 (a mutated AYBE residual has d = 64 already at n = 2), and no useful
point bound holds there: only a proof at the generic point would say more.

A mutated check reads its corrupted factor off a table with one more row,
priced 1, at the mutation slot (``_corrupted``).  The residues are read
off the table exactly (``residue_prices``), with no point and no jets.
Strong nondegeneracy compiles the block-diagonal structure of r and of
transpose(r).P, as n^2 x n^2 matrices, once per call from the support, and
tests each block on those integers.  No check evaluates r as a tensor;
jets serve only ``_jet_eval``, for evaluators with no table and as the
reference for the exact pricings.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, repeat
from operator import mul, ne, pos, sub

from .jets import JetRing, exp_jet
from .perms import ABDStructure, rectangle_terms, validate_abd
from .scalars import derive_rng
from .tensors import Tensor2, _eliminate, flat_entries, kron2, matrix_inverse, projected_residual
# unused here: the benchmark tracer wraps these at their trig names
from .tensors import (  # noqa: F401
    aybe_combine,
    cybe_residual,
    embed_triple,
    pair_embed_product,
    transposition_p,
)


class PoleError(ZeroDivisionError):
    """An evaluation point hit a pole of the r-matrix."""


@dataclass
class CheckReport:
    check: str
    points: int
    failures: int
    seed: int
    backend: str
    elapsed_ms: float = 0.0
    details: list = dc_field(default_factory=list)

    @classmethod
    @contextmanager
    def timed(cls, check, points, seed, backend):
        """A report with no failures yet; ``elapsed_ms`` times the with-block."""
        report = cls(check=check, points=points, failures=0, seed=seed, backend=backend)
        t0 = time.perf_counter()
        yield report
        report.elapsed_ms = (time.perf_counter() - t0) * 1000

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json_dict(self, with_timing=False) -> dict:
        d = {
            "check": self.check,
            "points": self.points,
            "failures": self.failures,
            "pass": self.passed,
            "seed": self.seed,
            "backend": self.backend,
        }
        if self.details:
            d["details"] = list(self.details)
        if with_timing:
            d["elapsed_ms"] = self.elapsed_ms
        return d


def _even_powers(x, n, reduce):
    """[x^0, x^2, ..., x^(2n)]."""
    x2 = reduce(x * x)
    out = [1]
    for _ in range(n):
        out.append(reduce(out[-1] * x2))
    return out


def _monomials(x, y, n, reduce):
    """The even monomials of degrees 2n and 2n - 2 in (x, y):
    [x^2k y^(2n-2k) for k in 0..n] and [x^2k y^(2n-2-2k) for k < n].

    Where y is 1 (a field's ``integral`` in GF(p), and on jets) they are
    x's even powers, and y's are never taken.
    """
    px = _even_powers(x, n, reduce)
    if y == 1:
        return px, px[:n]
    py = _even_powers(y, n, reduce)
    return ([reduce(p * q) for p, q in zip(px, reversed(py))],
            [reduce(p * q) for p, q in zip(px, reversed(py[:n]))])


def price_recipe(n, terms):
    """The two factors of each group's price, as indices into the factors
    of ``point_factors``.

    With q_u = a/b, q_v = c/d, A = a^2n - b^2n, C = c^2n - d^2n and
    X = (abcd)^(2n-2), each price of a ``rectangle_terms`` group is a
    polynomial over den = A C X:

    - diagonal, 1/(e^u - 1) + 1/(1 - e^-v): (b^2n C + d^2n A + A C) . X;
    - horizontal, e^{ku/n}/(e^u - 1): a^2k b^(2n-2k) . C X;
    - vertical, e^{mv/n}/(e^v - 1): c^2m d^(2n-2m) . A X;
    - A-rectangle, sign +1, e^{-(ku+mv)/n}:
      b^2k a^2(n-1-k) A C (bd)^(2n-2) . d^2m c^2(n-1-m);
    - sign -1, -e^{(ku+mv)/n}: the same with a <-> b and c <-> d, negated.
    """
    # the factors of point_factors: the degree-2n monomials in (a, b) and in
    # (c, d), the degree-(2n-2) ones in (c, d), C X, A X, X, the diagonal's
    # first factor, then the rectangles' u factors for k in range(n) with
    # sign +1 and with sign -1
    ha, hc, mc = 0, n + 1, 2 * n + 2
    cx, ax, x, diag = range(3 * n + 2, 3 * n + 6)
    plus, minus = 3 * n + 6, 4 * n + 6
    recipe = []
    for kind, k, m, sign, _, _ in terms:
        if kind == "diagonal":
            recipe.append((diag, x))
        elif kind == "horizontal":
            recipe.append((ha + k, cx))
        elif kind == "vertical":
            recipe.append((hc + m, ax))
        elif sign > 0:
            recipe.append((plus + k, mc + n - 1 - m))
        else:
            recipe.append((minus + k, mc + m))
    return tuple(zip(*recipe))


def point_factors(ring, n, q_u, q_v):
    """(factors, den): the structure-independent part of every price at
    (q_u, q_v), the factors ``price_recipe`` indexes and the denominator,
    with no division; q_u = a/b and q_v = c/d come from ``ring.integral``
    (b = d = 1 in GF(p)).  Raises PoleError where den = 0.

    A ``Point`` keeps them; the factors are a tuple, since every table
    priced there shares them.
    """
    reduce = ring.reduce
    (a,), b = ring.integral((q_u,))
    (c,), d = ring.integral((q_v,))
    ha, ma = _monomials(a, b, n, reduce)
    hc, mc = _monomials(c, d, n, reduce)
    big_a, big_c = reduce(ha[n] - ha[0]), reduce(hc[n] - hc[0])
    ac = reduce(big_a * big_c)
    # (bd)^(2n-2) and (ac)^(2n-2)
    low, high = reduce(ma[0] * mc[0]), reduce(ma[n - 1] * mc[n - 1])
    x = reduce(high * low)
    den = reduce(ac * x)
    if not den:
        raise PoleError("denominator vanished at the evaluation point")
    plus, minus = reduce(ac * low), reduce(-ac * high)
    return (*ha, *hc, *mc, reduce(big_c * x), reduce(big_a * x), x,
            reduce(ha[0] * big_c + hc[0] * big_a + ac),
            *[reduce(ma[n - 1 - k] * plus) for k in range(n)],
            *[reduce(ma[k] * minus) for k in range(n)]), den


def price_terms(ring, recipe, priced):
    """(nums, den): nums[g] / den is the price of group g of a ``price_recipe``
    at a point, gathered from its ``point_factors`` (factors, den)."""
    (first, second), (factors, den) = recipe, priced
    get = factors.__getitem__
    return list(map(ring.reduce, map(mul, map(get, first), map(get, second)))), den


def limit_prices(ring, n, terms, which, q):
    """(nums, den): nums[g] / den is the constant term of the price of group
    g of ``terms`` in the Laurent expansion at u = 0 (``which`` "u", q = q_v)
    or at v = 0 (``which`` "v", q = q_u), exactly and with no division.

    At u = 0, with q_v = c/d, C = c^2n - d^2n and Y = (cd)^(2n-2), each
    price is a polynomial over den = 2n C Y:

    - diagonal, -1/2 + e^v/(e^v - 1): n (c^2n + d^2n) Y;
    - horizontal, k/n - 1/2: (2k - n) C Y;
    - vertical, e^{mv/n}/(e^v - 1): 2n c^2m d^(2n-2m) Y;
    - A-rectangle, sign +1, e^{-mv/n}: 2n C d^(2n-2) . d^2m c^2(n-1-m);
    - sign -1, -e^{mv/n}: -2n C c^(2n-2) . c^2m d^2(n-1-m).

    At v = 0 the same holds with q_u = a/b for q_v, k for m, and the
    horizontal and vertical groups swapped.
    """
    reduce = ring.reduce
    (c,), d = ring.integral((q,))
    h, m = _monomials(c, d, n, reduce)
    big_c = reduce(h[n] - h[0])
    y = reduce(m[0] * m[n - 1])
    cy = reduce(big_c * y)
    den = reduce(2 * n * cy)
    if not den:
        raise PoleError("denominator vanished at the evaluation point")
    diag, two_n_y = reduce(n * (h[n] + h[0]) * y), 2 * n * y
    plus, minus = reduce(2 * n * big_c * m[0]), reduce(-2 * n * big_c * m[n - 1])
    constant = "horizontal" if which == "u" else "vertical"
    nums = []
    for kind, k, mm, sign, _, _ in terms:
        j = mm if which == "u" else k
        if kind == "diagonal":
            nums.append(diag)
        elif kind == constant:
            nums.append(reduce((2 * (k + mm) - n) * cy))
        elif kind != "a_rect":
            nums.append(reduce(two_n_y * h[j]))
        elif sign > 0:
            nums.append(reduce(plus * m[n - 1 - j]))
        else:
            nums.append(reduce(minus * m[j]))
    return nums, den


def residue_prices(terms, which):
    """(nums, den): nums[g] / den is the coefficient of 1/u (``which`` "u")
    or of 1/v ("v") in the price of group g of ``terms``, exactly.

    Every pole of a price is simple, with residue 1: the diagonal's
    1/(e^u - 1) + 1/(1 - e^-v) has one at u = 0 and one at v = 0, a
    horizontal group's e^{ku/n}/(e^u - 1) one at u = 0, and a vertical
    group's e^{mv/n}/(e^v - 1) one at v = 0; the A-rectangles have none.
    """
    polar = ("diagonal", "horizontal" if which == "u" else "vertical")
    return [int(t[0] in polar) for t in terms], 1


class Point:
    """A point (q_u, q_v) at which the tables of one n are priced in
    ``ring``.  It keeps the factors of its prices (``point_factors``) and
    its swap (q_v, q_u), the hat's point, once computed, so every table
    priced there shares them.

    The sampled checks take their points from ``_points``, whose entries
    are shared by every structure of one n: the factors at a check's points
    are computed once per process, and held as long as its point set.
    """

    __slots__ = ("ring", "n", "q_u", "q_v", "_priced", "_swapped")

    def __init__(self, ring, n, q_u, q_v):
        self.ring, self.n, self.q_u, self.q_v = ring, n, q_u, q_v
        self._priced = self._swapped = None

    def factors(self):
        """The point's ``point_factors``, (factors, den)."""
        if self._priced is None:
            self._priced = point_factors(self.ring, self.n, self.q_u, self.q_v)
        return self._priced

    def swapped(self):
        """The point (q_v, q_u)."""
        if self._swapped is None:
            self._swapped = Point(self.ring, self.n, self.q_v, self.q_u)
        return self._swapped


def assemble(sol, ring, prices) -> Tensor2:
    """The tensor with price g at flat f for every row (g, f) of the
    solution's table, summed; a group missing from ``prices`` is 0."""
    data = {}
    for g, f in zip(sol.groups, sol.flats):
        price = prices.get(g)
        if price is None:
            continue
        v = data.pop(f, None)
        v = price if v is None else v + price
        if v:
            data[f] = v
    return Tensor2(sol.n, ring, data)


def _boxed(sol, ring, prices) -> Tensor2:
    """The tensor of the solution's table at prices (nums, den), boxed in
    ``ring``."""
    nums, den = prices
    return assemble(sol, ring, ring.box_nonzero(dict(enumerate(nums)), den))


class _TableSolution:
    """An r-matrix as one linear table: rows (groups[i], flats[i]), with
    r(u, v) the sum of price_g(u, v) at flat f over the rows, and
    ``price(ring, point)`` giving every price_g at a ``Point`` as
    nums[g] / den, a list of ``prices`` numerators, ``price_limit(ring,
    which, q)`` their constant terms at u = 0 or v = 0 the same way
    (``limit_prices``), and
    ``price_residue(which)`` their residues there (``residue_prices``).
    ``support`` lists the distinct flats in ascending order.
    """

    def _set_rows(self, groups, flats, prices):
        self.groups, self.flats, self.prices = tuple(groups), tuple(flats), prices
        order = sorted(range(len(self.flats)), key=self.flats.__getitem__)
        by_flat = list(map(self.flats.__getitem__, order))
        self._groups_by_flat = list(map(self.groups.__getitem__, order))
        self._last = list(map(ne, by_flat, by_flat[1:])) + [True]
        self.support = tuple(compress(by_flat, self._last))

    def eval(self, ring, *qs) -> Tensor2:
        """r at (q_u, q_v); entries live in ``ring``."""
        return _boxed(self, ring, self.price(ring, self.point(ring, *qs)))

    def point(self, ring, q_u, q_v):
        """The point ``price`` reads for (q_u, q_v): a new ``Point``."""
        return Point(ring, self.n, q_u, q_v)

    def values(self, ring, point):
        """(the integer numerator at every flat of ``support``, their
        denominator) at a point: each flat's rows summed, as running sums
        over the rows sorted by flat.  The projected zero test reads them
        only where rows outnumber flats, a scaled ``_Image`` such as a
        gauge or the CYBE's rbar0 (``entries``); the nondegeneracy test's
        blocks always do."""
        nums, den = self.price(ring, point)
        ends = list(compress(accumulate(map(nums.__getitem__, self._groups_by_flat)),
                             self._last))
        return list(map(sub, ends, [0] + ends[:-1])), den

    def entries(self):
        """The table as ``tensors.projected_residual`` and
        ``product_residual`` compile it, (size, flats, reads): each row
        (g, f) is an entry at flat f reading price g of ``read``, so the
        residual adds up a flat's rows itself."""
        return self.prices, self.flats, self.groups

    def read(self, ring, point):
        """The (nums, den) that ``entries`` index at a point: the prices."""
        return self.price(ring, point)


class TrigSolution(_TableSolution):
    """Evaluator for the closed-form trigonometric solution of an ABD structure.

    ``terms`` is the rectangle-family table of ``perms.rectangle_terms``;
    the linear table has one row (g, f) per target f of each group g.
    """

    def __init__(self, abd: ABDStructure):
        problems = validate_abd(abd)
        if problems:
            raise ValueError("invalid structure: " + "; ".join(problems))
        self.abd = abd
        self.n = abd.n
        self.terms = rectangle_terms(abd)
        self._recipe = price_recipe(self.n, self.terms)
        self._set_rows(chain.from_iterable(repeat(g, len(t[-1]))
                                           for g, t in enumerate(self.terms)),
                       chain.from_iterable(t[-1] for t in self.terms), len(self.terms))

    def price(self, ring, point):
        return price_terms(ring, self._recipe, point.factors())

    def price_limit(self, ring, which, q):
        return limit_prices(ring, self.n, self.terms, which, q)

    def price_residue(self, which):
        return residue_prices(self.terms, which)


def _group_parts(sol):
    """Each group's part of the solution's table: {group: {flat: multiplicity}}."""
    parts = {}
    for grp, f in zip(sol.groups, sol.flats):
        part = parts.setdefault(grp, {})
        part[f] = part.get(f, 0) + 1
    return parts


class _Image(_TableSolution):
    """A linear image of a base table, fixed per solution: the hat, a gauge
    and pr (x) pr.

    A row (g, f, c) of the image puts c / ``coef_den`` times the price of
    base group g at flat f, c an integer; with ``swap`` set, the base is
    priced with u and v exchanged.  Each (g, c) pair is a group of its own,
    priced as c times the base price; a flat may carry one row per base
    group, and ``values`` sums them.  Where every coefficient is 1 (the
    hat), the image keeps the base's groups and prices, unscaled: scaling
    them by 1 took about 1.5% of the ``aybe-fp`` benchmark's time.

    A scaled image is read by its support (``entries``), each flat's rows
    summed by ``values``: its rows outnumber its flats (387 against 93 for
    pr (x) pr at n = 7, more than n^4 for a dense gauge), and compiling the
    rows made the ``limits-fp`` benchmark 0.78x as fast.
    """

    def __init__(self, base, rows, coef_den=1, swap=False):
        self.base, self.n, self.coef_den, self.swap = base, base.n, coef_den, swap
        if coef_den == 1 and all(c == 1 for *_, c in rows):
            self._scaled = None
            groups = [grp for grp, _, _ in rows]
        else:
            scaled = {}
            groups = [scaled.setdefault((grp, c), len(scaled)) for grp, _, c in rows]
            self._scaled = tuple(scaled)
        self._set_rows(groups, [f for _, f, _ in rows],
                       base.prices if self._scaled is None else len(self._scaled))

    def _scale(self, prices, reduce=pos):
        """The base's prices (nums, den) as the image's; plain integer
        prices, such as the residues', need no ``reduce``."""
        if self._scaled is None:
            return prices
        nums, den = prices
        return ([reduce(c * nums[g]) for g, c in self._scaled],
                reduce(den * self.coef_den))

    def entries(self):
        return super().entries() if self._scaled is None else flat_entries(self.support)

    def read(self, ring, point):
        return (self.price if self._scaled is None else self.values)(ring, point)

    def _base_which(self, which):
        return ("v" if which == "u" else "u") if self.swap else which

    def price(self, ring, point):
        return self._scale(self.base.price(ring, point.swapped() if self.swap else point),
                           ring.reduce)

    def price_limit(self, ring, which, q):
        return self._scale(self.base.price_limit(ring, self._base_which(which), q), ring.reduce)

    def price_residue(self, which):
        return self._scale(self.base.price_residue(self._base_which(which)))


class _ProjectedR0(_Image):
    """rbar0(v) = (pr (x) pr) r0(v), pr(X) = X - (tr X / n) 1, as a table
    priced at q_v, its point: the image of the base's r0.

    n^2 (pr (x) pr) X = n^2 X - n (1 (x) tr1 X) - n (tr2 X (x) 1)
    + (tr (x) tr)(X) (1 (x) 1) for each group's part X, the identity of
    ``Tensor2.project_sl``: a factor's flat part x is e_ii's exactly when
    x % (n + 1) == 0, tr1 traces the first factor, keyed by the second's
    part, and tr2 the reverse.
    """

    def __init__(self, base):
        n = base.n
        nn = n * n
        diag = range(0, nn, n + 1)
        rows = []
        for grp, part in _group_parts(base).items():
            image = {f: nn * mult for f, mult in part.items()}
            tr1, tr2 = {}, {}
            for f, mult in part.items():
                a, b = divmod(f, nn)
                if a % (n + 1) == 0:
                    tr1[b] = tr1.get(b, 0) + mult
                if b % (n + 1) == 0:
                    tr2[a] = tr2.get(a, 0) + mult
            full = sum(tr1.get(d, 0) for d in diag)
            corrections = [(d * nn + b, -n * t) for b, t in tr1.items() for d in diag]
            corrections += [(a * nn + d, -n * t) for a, t in tr2.items() for d in diag]
            corrections += [(d * nn + e, full) for d in diag for e in diag]
            for f, c in corrections:
                image[f] = image.get(f, 0) + c
            rows += [(grp, f, c) for f, c in image.items() if c]
        super().__init__(base, rows, nn)

    def point(self, ring, q_v):
        return q_v

    def price(self, ring, q_v):
        return self.price_limit(ring, "u", q_v)


def gauge_transform(sol, phi, field) -> _Image:
    """(phi (x) phi) r (phi (x) phi)^-1 for a constant invertible matrix phi.

    Each group's part of r's table is conjugated once, here, in ``field``,
    and the coefficients are cleared to integers over one denominator
    (``integral``).
    """
    phi_inv = matrix_inverse(phi, field)
    g, g_inv = kron2(phi, phi, field), kron2(phi_inv, phi_inv, field)
    rows = [(grp, f, v) for grp, part in _group_parts(sol).items()
            for f, v in (g * Tensor2(sol.n, field, {f: field.of_int(m) for f, m in part.items()})
                         * g_inv).data.items()]
    coefs, coef_den = field.integral([v for *_, v in rows])
    return _Image(sol, [(grp, f, c) for (grp, f, _), c in zip(rows, coefs)], coef_den)


def hat_involution(sol) -> _Image:
    """The involution image: hat(r)(u,v) = transpose(r(v,u)) . P.

    transpose(t) . P relabels t's entries as ``Tensor2.transpose_p`` does,
    (i,j,k,l) -> (j,k,l,i), so hat(r)'s table is r's with every flat index
    rotated by one digit, priced at the swapped point; hat(hat(r)) is
    ``flip`` of r.
    """
    n3 = sol.n ** 3
    return _Image(sol, [(g, f % n3 * sol.n + f // n3, 1) for g, f in zip(sol.groups, sol.flats)],
                  swap=True)


# -- point sampling -----------------------------------------------------------


def _pole_free(field, rng, n, count, extra=()):
    """Sample ``count`` scalars q with q^(2n) != 1, rejecting jointly until the
    listed extra constraints (callables of the tuple) are nonzero."""
    one = field.one
    for _ in range(200):
        qs = []
        ok = True
        for _ in range(count):
            q = field.sample(rng)
            if not q or q ** (2 * n) == one:
                ok = False
                break
            qs.append(q)
        if not ok:
            continue
        if all(bool(c(*qs)) for c in extra):
            return tuple(qs)
    raise PoleError("could not find a pole-free sample tuple")


def _slot_flat(n, slot) -> int:
    """The flat index of a mutation slot (i, j, k, l), each index in range(n)."""
    if len(slot) != 4 or not all(isinstance(x, int) and 0 <= x < n for x in slot):
        raise ValueError("a mutation slot is four indices in range(%d), got %r" % (n, slot))
    f = 0
    for x in slot:
        f = f * n + x
    return f


class _PlusOne(_TableSolution):
    """The base table with one more row, at flat ``f`` in group 0, priced
    den / den = 1; the base's groups are shifted up by one.  ``price``
    forwards any point, so any base's price works.  It is read as its
    base is, with one more entry, reading value 0 (``entries``)."""

    def __init__(self, base, f):
        self.n, self.base = base.n, base
        self._set_rows((0,) + tuple(g + 1 for g in base.groups), (f,) + base.flats,
                       base.prices + 1)

    def point(self, ring, *qs):
        return self.base.point(ring, *qs)

    def price(self, ring, point):
        nums, den = self.base.price(ring, point)
        return [den] + nums, den

    def entries(self):
        size, flats, reads = self.base.entries()
        return size + 1, (self.flats[0], *flats), [0] + [i + 1 for i in reads]

    def read(self, ring, point):
        nums, den = self.base.read(ring, point)
        return [den] + nums, den


def _corrupted(sol, slot):
    """sol with 1 added at the mutation slot (i, j, k, l), as a table with
    one more row; sol itself when ``slot`` is None."""
    if slot is None:
        return sol
    return _PlusOne(sol, _slot_flat(sol.n, slot))


#: point sets (``_points``) and weight sets (``_weights``) kept per process:
#: one ``ybx suite --points 25`` run on one field uses 12 point sets and 8
#: weight sets, one repetition of the ``aybe-fp`` benchmark 8 and 8
_CHECK_MEMO = 32


@lru_cache(maxsize=_CHECK_MEMO)
def _points(field, seed, tag, n, num_points, sample):
    """The ``num_points`` samples of a check, each ``sample(field, rng, n)``,
    drawn from the RNG derived from (seed, tag, backend): the points, as
    ``Point``s, and any other value the check reads there.

    They read no structure, so they are memoized per process: every
    structure of one n is tested at the same points, which keep the
    factors of their prices.
    """
    rng = derive_rng(seed, tag, field.name)
    return tuple(sample(field, rng, n) for _ in range(num_points))


def _sampled_check(check, tag, sol, num_points, seed, field, sample, fails,
                   mutate=None) -> CheckReport:
    """The seeded Schwartz-Zippel loop behind every identity check.

    Calls ``fails(*values)`` at each sample of ``_points``.  ``fails``
    returns a falsy value where the identity holds, and True or a note
    naming the failure where it does not; the first three notes become the
    report's details.  A run with ``mutate`` set is reported as
    ``check(mutated)``.
    """
    if mutate is not None:
        check += "(mutated)"
    with CheckReport.timed(check, num_points, seed, field.name) as report:
        for values in _points(field, seed, tag, sol.n, num_points, sample):
            failed = fails(*values)
            if failed:
                report.failures += 1
                if failed is not True and len(report.details) < 3:
                    report.details.append(failed)
    return report


# -- identity checks -----------------------------------------------------------


@lru_cache(maxsize=_CHECK_MEMO)
def _weights(field, seed, tag, n):
    """The projection weights of a check: six vectors of n raw weights of
    ``field``, one per output digit, from their own RNG, so the points
    drawn do not move; memoized per process, as ``_points`` is."""
    rng = derive_rng(seed, tag, "weights", field.name)
    return tuple(tuple(field.sample_weight(rng) for _ in range(n)) for _ in range(6))


def _aybe_fails(sol, field, weights, mutate=None):
    """The AYBE test at the points of one ``_aybe_sample``: True where the
    residual's projection, compiled here once from the tables' entries,
    does not vanish."""
    first = _corrupted(sol, mutate)
    program = projected_residual(field, sol.n, [first.entries()] + [sol.entries()] * 5, [
        (1, 0, (1, 2), 1, (1, 3)), (-1, 2, (2, 3), 3, (1, 2)), (1, 4, (1, 3), 5, (2, 3))],
        weights)
    read_first, read = first.read, sol.read

    def fails(at_first, *at):
        return not program.is_zero(field, [read_first(field, at_first),
                                           *[read(field, point) for point in at]])

    return fails


def check_aybe(sol, num_points, seed, field, mutate=None) -> CheckReport:
    """AYBE residual r12(-u',v) r13(u+u',v+v') - r23(u+u',v') r12(u,v)
    + r13(u,v+v') r23(u',v') at seeded random points (must vanish).

    With ``mutate`` set to an index 4-tuple, the first factor is read off
    r's table with one more row, priced 1, at that entry (``_corrupted``);
    ``failures`` then counts the points where the corruption was detected
    (the honest reading: the identity fails there), so a working check
    reports a failing run.

    Each point tests one random linear form of the residual, so a PASS also
    carries the form's false-pass chance, at most 6/|S| per point (the
    module docstring).
    """
    return _sampled_check("aybe", "aybe", sol, num_points, seed, field, _aybe_sample,
                          _aybe_fails(sol, field, _weights(field, seed, "aybe", sol.n), mutate),
                          mutate)


def _aybe_sample(field, rng, n):
    """``_aybe_at`` a point (u, u', v, v') that also avoids the poles at
    u + u' and v + v'."""
    return _aybe_at(field, n, *_pole_free(field, rng, n, 4, (
        lambda a, b, c, d: (a * b) ** (2 * n) - 1,
        lambda a, b, c, d: (c * d) ** (2 * n) - 1,
    )))


def _aybe_at(field, n, qu, qup, qv, qvp):
    """The points of the AYBE's six factors at (u, u', v, v')."""
    return (Point(field, n, qup ** -1, qv),         # r(-u', v), corrupted when mutated
            Point(field, n, qu * qup, qv * qvp),    # r(u+u', v+v')
            Point(field, n, qu * qup, qvp),         # r(u+u', v')
            Point(field, n, qu, qv),                # r(u, v)
            Point(field, n, qu, qv * qvp),          # r(u, v+v')
            Point(field, n, qup, qvp))              # r(u', v')


def _skew_fails(sol, field, weights, mutate=None):
    """The skew test at the points of one ``_skew_sample``: True where the
    projection of flip(r(-u,-v)) + r(u,v), compiled here once from the
    tables' entries, does not vanish."""
    right = _corrupted(sol, mutate)
    program = projected_residual(field, sol.n, [sol.entries(), right.entries()],
                                 [(1, 0, (2, 1)), (1, 1, (1, 2))], weights)

    def fails(at_minus, at):
        return not program.is_zero(field, (sol.read(field, at_minus), right.read(field, at)))

    return fails


def check_skew(sol, num_points, seed, field, mutate=None) -> CheckReport:
    """Skew-symmetry: flip(r(-u,-v)) + r(u,v) = 0 at seeded points.

    Each point tests one random linear form of the residual, so a PASS also
    carries the form's false-pass chance, at most 4/|S| per point (the
    module docstring).
    """
    return _sampled_check("skew", "skew", sol, num_points, seed, field, _skew_sample,
                          _skew_fails(sol, field, _weights(field, seed, "skew", sol.n), mutate),
                          mutate)


def _skew_sample(field, rng, n):
    """``_skew_at`` a point (u, v)."""
    return _skew_at(field, n, *_pole_free(field, rng, n, 2))


def _skew_at(field, n, qu, qv):
    """The points (-u, -v) and (u, v) of the skew test at (u, v)."""
    return Point(field, n, qu ** -1, qv ** -1), Point(field, n, qu, qv)


def _block_plan(edges, m):
    """The diagonal blocks of an m x m matrix whose entry e can be nonzero
    only at edges[e] = (row, column), up to a permutation of its rows and
    of its columns: the connected components of its row-column graph.

    Each block is its size and its entries (row, column within the block,
    e).  None when a block is not square, an empty row for one: the matrix
    is then singular wherever it is evaluated.
    """
    parent = list(range(2 * m))  # the rows, then the columns

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row, col in edges:
        parent[root(row)] = root(m + col)
    blocks, place = {}, []
    for x in range(2 * m):
        lines = blocks.setdefault(root(x), ([], []))[x >= m]
        place.append(len(lines))
        lines.append(x)
    if any(len(rows) != len(cols) for rows, cols in blocks.values()):
        return None
    entries = {b: [] for b in blocks}
    for e, (row, col) in enumerate(edges):
        entries[root(row)].append((place[row], place[m + col], e))
    return [(len(blocks[b][0]), entries[b]) for b in blocks]


def _nondegeneracy_fails(sol, field):
    """The strong nondegeneracy test at a point: a note where r
    or transpose_p(r), as an n^2 x n^2 matrix, is singular.

    Both matrices hold the numerators at the support over den, in rows and
    columns read off each flat (``transpose_p`` rotates its digits), so
    their block plans are compiled here once from the support.  den != 0,
    so the numerators decide: a 1 x 1 block by a nonzero test, a larger one
    by ``_eliminate``.
    """
    n = sol.n
    nn, n3 = n * n, n ** 3
    plans = [_block_plan([divmod(f, nn) for f in sol.support], nn),
             _block_plan([divmod(f % n3 * n + f // n3, nn) for f in sol.support], nn)]
    if None in plans:
        return lambda point: "degenerate point found"
    blocks = list(chain.from_iterable(plans))
    singles = [entries[0][2] for size, entries in blocks if size == 1]
    blocks = [block for block in blocks if block[0] > 1]
    reduce = field.reduce

    def fails(point):
        vals, _ = sol.values(field, point)
        if not all(map(reduce, map(vals.__getitem__, singles))):
            return "degenerate point found"
        for size, entries in blocks:
            a = [[0] * size for _ in range(size)]
            for i, j, e in entries:
                a[i][j] = vals[e]
            if not _eliminate(a, field):
                return "degenerate point found"
        return None

    return fails


def check_strong_nondegeneracy(sol, num_points, seed, field) -> CheckReport:
    """Both r and transpose(r).P invertible as n^2 x n^2 matrices at each
    point, tested block by block on the integer numerators of the table
    (``_nondegeneracy_fails``); no tensor is built.

    One point with an invertible r shows that det r is not identically
    zero, so a PASS here is exact, not a sampled bound.
    """
    return _sampled_check("strong-nondegeneracy", "nondeg", sol, num_points, seed,
                          field, _nondegeneracy_sample, _nondegeneracy_fails(sol, field))


def _nondegeneracy_sample(field, rng, n):
    """A point (u, v) of the nondegeneracy test."""
    return (Point(field, n, *_pole_free(field, rng, n, 2)),)


# -- residues and the CYBE limit -------------------------------------------------


def _jet_eval(sol, field, jet_order, which, at_other):
    """Evaluate r with the chosen variable as a Laurent jet.

    Returns a Tensor2 with jet entries; exp(w/(2n)) is realized as
    exp_jet(1/(2n), jet_order) in the jet variable.
    """
    n = sol.n
    ring = JetRing(field, var=which)
    q_jet = exp_jet(field, Fraction(1, 2 * n), jet_order, var=which)
    q_const = ring.constant(at_other)
    if which == "u":
        return sol.eval(ring, q_jet, q_const)
    return sol.eval(ring, q_const, q_jet)


def tensor_valuation(t: Tensor2):
    vals = [v.valuation() for v in t.data.values()]
    vals = [v for v in vals if v is not None]
    return min(vals) if vals else None


def _jet_coefficient(sol, field, jet_order, which, at_other, power) -> Tensor2:
    """The coefficient of ``which``**power in the jet expansion of r, with the
    other variable at ``at_other``.  Raises if any entry has a pole worse
    than simple.
    """
    t = _jet_eval(sol, field, jet_order, which, at_other)
    val = tensor_valuation(t)
    if val is not None and val < -1:
        raise ArithmeticError(
            "valuation %d < -1: pole is not simple (invariant violation)" % val
        )
    return Tensor2(sol.n, field, {f: c for f, v in t.data.items()
                                  if (c := v.coefficient(power))})


def residues(sol, which, at_other, field) -> Tensor2:
    """The coefficient of 1/u (resp. 1/v) of r.

    A table solution prices it exactly from its table (``residue_prices``),
    with no point, so ``at_other`` is not read.  An evaluator with only
    ``eval`` is expanded as a jet to order 2, which determines every entry
    through its constant term, with the other variable at ``at_other``;
    that raises if any entry has a pole worse than simple.
    """
    if which not in ("u", "v"):
        raise ValueError("which must be 'u' or 'v'")
    if not isinstance(sol, _TableSolution):
        return _jet_coefficient(sol, field, 2, which, at_other, -1)
    return _boxed(sol, field, sol.price_residue(which))


def r0_tensor(sol, q_v, field) -> Tensor2:
    """r0(v): the u^0 Laurent coefficient of r(u, v) at u = 0, priced
    exactly from the solution's table (``limit_prices``) and boxed."""
    return _boxed(sol, field, sol.price_limit(field, "u", q_v))


def _cybe_fails(sol, field, weights, mutate=None):
    """The CYBE test at the points of one ``_cybe_sample``: True where the
    projection of [X12,Y13] + [X12,Z23] + [Y13,Z23], compiled here once
    from the entries of rbar0 = (pr (x) pr) r0, its support, does not
    vanish."""
    rbar0 = _ProjectedR0(sol)
    x_table = _corrupted(rbar0, mutate)
    x, y, z = 0, 1, 2
    program = projected_residual(field, sol.n, [x_table.entries()] + [rbar0.entries()] * 2, [
        (1, x, (1, 2), y, (1, 3)), (-1, y, (1, 3), x, (1, 2)), (1, x, (1, 2), z, (2, 3)),
        (-1, z, (2, 3), x, (1, 2)), (1, y, (1, 3), z, (2, 3)), (-1, z, (2, 3), y, (1, 3))],
        weights)

    def fails(qv, qv_sum, qvp):
        return not program.is_zero(field, [x_table.read(field, qv),
                                           rbar0.read(field, qv_sum),
                                           rbar0.read(field, qvp)])

    return fails


def check_cybe(sol, num_points, seed, field, jet_order=4, mutate=None) -> CheckReport:
    """CYBE for rbar0 = (pr (x) pr) r0:  [X12,Y13] + [X12,Z23] + [Y13,Z23] = 0
    with X = rbar0(v), Y = rbar0(v+v'), Z = rbar0(v').

    r0 is priced exactly from the solution's table, and pr (x) pr is a
    linear image of that table, so ``jet_order`` no longer changes the
    result; it is accepted for callers that pass it.  With ``mutate`` set
    to an index 4-tuple, X is read off rbar0's table with one more row,
    priced 1, at that entry (``_corrupted``).

    Each point tests one random linear form of the residual, so a PASS also
    carries the form's false-pass chance, at most 6/|S| per point (the
    module docstring).
    """
    return _sampled_check("cybe", "cybe", sol, num_points, seed, field, _cybe_sample,
                          _cybe_fails(sol, field, _weights(field, seed, "cybe", sol.n), mutate),
                          mutate)


def _cybe_sample(field, rng, n):
    """``_cybe_at`` a point (v, v') that also avoids the pole at v + v'."""
    return _cybe_at(*_pole_free(field, rng, n, 2, (lambda a, b: (a * b) ** (2 * n) - 1,)))


def _cybe_at(qv, qvp):
    """rbar0's points v, v + v' and v' at (v, v')."""
    return qv, qv * qvp, qvp


# -- QYBE / unitarity --------------------------------------------------------------


def _half(q, n):
    """e^{w/2} - e^{-w/2} at q = e^{w/(2n)}."""
    return q ** n - q ** (-n)


def _qybe_fails(sol, field, weights):
    """The unitarity and QYBE tests at a sample of ``_qybe_sample``: a note
    naming the first that fails, from the projections of residuals compiled here
    once from the table's entries.

    Unitarity is r(u,v) . flip(r(u,-v)) - s (1 (x) 1), the scalar s one
    evaluation and the unit another, with s = 1/a^2 - 1/b^2 passed as
    (b^2 - a^2) / (a^2 b^2), so no field element is inverted; the QYBE is
    r12 r13 r23 - r23 r13 r12.
    """
    n, entries, read = sol.n, sol.entries(), sol.read
    unit = Tensor2.unit(n, field).data
    unitarity = projected_residual(field, n, [entries, entries, flat_entries([0]),
                                              flat_entries(list(unit))],
                                   [(1, 0, (1, 2), 1, (2, 1)), (-1, 2, (), 3, (1, 2))], weights)
    qybe = projected_residual(field, n, [entries] * 3, [(1, 0, (1, 2), 1, (1, 3), 2, (2, 3)),
                                                        (-1, 2, (2, 3), 1, (1, 3), 0, (1, 2))],
                              weights)
    ones = field.integral(unit.values())

    def fails(at, at_minus, at_sum, at_prime, scalar):
        r12 = read(field, at)
        if not unitarity.is_zero(field, (r12, read(field, at_minus), scalar, ones)):
            return "unitarity failed"
        if not qybe.is_zero(field, (r12, read(field, at_sum), read(field, at_prime))):
            return "qybe failed"
        return None

    return fails


def qybe_unitarity(sol, num_points, seed, field) -> CheckReport:
    """Unitarity R(u,v) flip(R(u,-v)) = 1 (x) 1 and the fixed-u QYBE
    R12(u,v) R13(u,v+v') R23(u,v') = R23(u,v') R13(u,v+v') R12(u,v) of the
    rescaled R = sigma r, sigma(u,v) = ab/(a+b) with a = e^{u/2} - e^{-u/2}
    and b = e^{v/2} - e^{-v/2}.

    sigma is a nonzero scalar at every sampled point, so both QYBE sides carry
    the same factor sigma(u,v) sigma(u,v+v') sigma(u,v') and the QYBE is
    tested on r itself; unitarity is r(u,v) flip(r(u,-v)) = (1 (x) 1) times
    1/(sigma(u,v) sigma(u,-v)) = 1/a^2 - 1/b^2.  Both residuals are compiled
    once per call from the solution's support and tested on its integer
    numerators at each point, each as one random linear form, so a PASS
    also carries the forms' false-pass chance, at most 4/|S| per point for
    unitarity and 6/|S| for the QYBE (the module docstring).
    """
    return _sampled_check("qybe-unitarity", "qybe", sol, num_points, seed, field,
                          _qybe_sample, _qybe_fails(sol, field, _weights(field, seed, "qybe", sol.n)))


def _qybe_sample(field, rng, n):
    """``_qybe_at`` a point (u, v, v') that also avoids the pole at v + v'
    and the zeros of sigma's denominators."""
    # R = sigma r is defined only where sigma's denominators at (u,v),
    # (u,v+v'), (u,v') and (u,-v) are nonzero, so the points avoid them even
    # though the tests of _qybe_fails divide by none of them
    return _qybe_at(field, n, *_pole_free(field, rng, n, 3, (
        lambda a, b, c: (b * c) ** (2 * n) - 1,
        lambda a, b, c: _half(a, n) + _half(b, n),
        lambda a, b, c: _half(a, n) + _half(b * c, n),
        lambda a, b, c: _half(a, n) + _half(c, n),
        lambda a, b, c: _half(a, n) - _half(b, n),
    )))


def _qybe_at(field, n, qu, qv, qvp):
    """The points (u, v), (u, -v), (u, v + v') and (u, v') and the scalar s
    of the unitarity and QYBE tests at (u, v, v')."""
    a, b = _half(qu, n), _half(qv, n)
    (num, den), _ = field.integral((b * b - a * a, a * a * b * b))
    return (Point(field, n, qu, qv), Point(field, n, qu, qv ** -1),
            Point(field, n, qu, qv * qvp), Point(field, n, qu, qvp), ([num], den))


def qybe_float_shadow(u: float, v: float) -> float:
    """|R(u,v) R(u,-v) - 1| for the n=1 solution in ordinary floats."""
    import math

    def r(uu, vv):
        return 1.0 / (math.exp(uu) - 1.0) + 1.0 / (1.0 - math.exp(-vv))

    def sigma(uu, vv):
        a = math.exp(uu / 2) - math.exp(-uu / 2)
        b = math.exp(vv / 2) - math.exp(-vv / 2)
        return a * b / (a + b)

    big = sigma(u, v) * r(u, v)
    big_neg = sigma(u, -v) * r(u, -v)
    return abs(big * big_neg - 1.0)
