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
table.  r is described once, in one table of each group's price as a
sum of monomials (``_monomial_table``, the only place a group's kind is
read), and generic readers of its exponents (``_layout``, which also
numbers the group keys (kind, k, m, sign) of each n):
``point_factors`` gives the factors of every price at a point, each
variable's ``side_prices``, and a ``Point`` gathers from them one price
table for its n, integer numerators by key number over one denominator,
``(nums, den)``, with no division, filling each key the first time a
table reads it there; r's rows name their group by key number, so every
structure of one n reads that one table, and ``eval`` boxes its groups'
prices on any ring (fields and jets).
Every reading of r is a price at a ``Point``.  A side at None reads its
parts' constant terms at w = 0, so r0 is r priced at (None, q_v)
(``r0_tensor``), exactly, with no jets; a side at ``RESIDUE`` reads their
residues there, so r's residue at u = 0 is r priced at (``RESIDUE``,
None) and at v = 0 at its swap (``residues``).
The hat, a gauge and pr (x) pr are one linear image of a table
(``_Image``), fixed per solution: rows with integer coefficients over one
denominator, the hat's a rotation of the flat indices priced with u and v
exchanged (at the ``Point``'s swap).

The AYBE, skew, CYBE and QYBE/unitarity checks are one ``_Identity``
record each: name, tag, arity, pole constraints, the points and tables its
evaluations read, and its residuals in the paper's notation, each
evaluation of r in the slots it occupies ((1, 2) for r12, (2, 1) for
flip(r), () for a scalar).  ``_Identity.fails``, the one compile, turns
each residual once per call into one random linear form of it
(``tensors.projected_residual``).  What a check needs and no structure
decides is computed once per process, in bounded
``functools.lru_cache`` memos that every structure of one n shares: its
samples (``_points``, keyed by the record's ``sample``), each the
``Point``s it reads r at, which keep the factors of their prices
(``point_factors``) and each key's price once computed, so a point is
priced once per group key for every structure, its weights, drawn from
their own RNG so the points drawn do not move (``_weights``), and each
residual's compile plan, the key and weight of every flat its factors
meet (``tensors._plan``).  Each table says how a residual reads it, as the
(size, flats, reads) entries that the form and the exact
``tensors.product_residual`` both compile (``entries``) and the values
they read at a point (``read``): r and the hat by their rows, each at its
group key's price in the ``Point``'s table, and a scaled image (a gauge,
pr (x) pr), whose rows outnumber its flats, by its support, each flat's
rows summed by ``values``; the CYBE reads rbar0 that way too.  Each point
tests the form on each distinct evaluation once, on those integers: no
field element is boxed and no tensor is built.

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

A mutated check corrupts one evaluation in its one compile: the record
names which (``corrupts``), and ``fails`` gives it one more entry, at the
mutation slot, reading den / den = 1, with the honest jobs.  Strong
nondegeneracy compiles the block-diagonal structure of r and of
transpose(r).P, as n^2 x n^2 matrices, once per call from the support,
and tests each block on those integers.  No check evaluates r as a
tensor; jets serve only ``_jet_eval``, the reference for the exact
pricings.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, chain, compress, repeat
from operator import mul, ne, sub

from .jets import JetRing, exp_jet
from .perms import ABDStructure, rectangle_terms, validate_abd
from .scalars import derive_rng
from .tensors import (_CHECK_MEMO, Tensor2, _eliminate, flat_entries, kron2,
                      matrix_inverse, projected_residual, rotated, sl_image)
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


def _monomial_table(n):
    """The one description of r: the price of every group (kind, k, m,
    sign) a ``rectangle_terms`` table at n can hold, as a sum of monomials
    (c, α, p_u, β, p_v), each c e^{(αu+βv)/n} / ((e^u - 1)^p_u (e^v - 1)^p_v):

    - diagonal, 1/(e^u - 1) + e^v/(e^v - 1): (1, 0, 1, 0, 0), (1, 0, 0, n, 1);
    - horizontal, e^{ku/n}/(e^u - 1): (1, k, 1, 0, 0);
    - vertical, e^{mv/n}/(e^v - 1): (1, 0, 0, m, 1);
    - A-rectangle, sign +1, e^{-(ku+mv)/n}: (1, -k, 0, -m, 0);
    - sign -1, -e^{(ku+mv)/n}: (-1, k, 0, m, 0).

    Every price, r0 and residue is read off these exponents (``_layout``);
    no other code reads a group's kind.
    """
    table = {("diagonal", 0, 0, 1): ((1, 0, 1, 0, 0), (1, 0, 0, n, 1))}
    for k in range(1, n):
        table["horizontal", k, 0, 1] = ((1, k, 1, 0, 0),)
        table["vertical", 0, k, 1] = ((1, 0, 0, k, 1),)
        for m in range(1, n):
            table["a_rect", k, m, 1] = ((1, -k, 0, -m, 0),)
            table["a_rect", k, m, -1] = ((-1, k, 0, m, 0),)
    return table


def side_prices(ring, n, q, parts):
    """(nums, den): nums[i] / den is c e^{αw/n} / (e^w - 1)^p for part i,
    (c, α, p), at q = e^{w/(2n)} = a/b (``ring.integral``), over
    den = (a^2n - b^2n)(ab)^(2n-2) with no division: c a^2α b^(2n-2α)
    (ab)^(2n-2) where p = 1 (0 <= α <= n), c a^2(n-1+α) b^2(n-1-α)
    (a^2n - b^2n) where p = 0 (|α| < n).  Raises PoleError where den = 0.
    """
    reduce = ring.reduce
    (a,), b = ring.integral((q,))
    a2, b2 = reduce(a * a), reduce(b * b)
    pa, pb = [1], [1]
    for _ in range(max(n, 2 * n - 2)):
        pa.append(reduce(pa[-1] * a2))
        pb.append(reduce(pb[-1] * b2))
    s, y = reduce(pa[n] - pb[n]), reduce(pa[n - 1] * pb[n - 1])
    den = reduce(s * y)
    if not den:
        raise PoleError("denominator vanished at the evaluation point")
    return [reduce(c * pa[alpha] * pb[n - alpha] * y) if p
            else reduce(c * pa[n - 1 + alpha] * pb[n - 1 - alpha] * s)
            for c, alpha, p in parts], den


#: the side of a ``Point`` that reads each part's residue at w = 0
RESIDUE = "residue"

#: how every price at n is read off the monomial table: its distinct u
#: parts (c, α, p_u) and v parts (1, β, p_v) (``sides``), their constant
#: terms at w = 0 over 2n, c (2α - n) where p = 1 and 2n c where p = 0
#: (``limits``), and their residues there over 1, c where p = 1 and 0
#: where p = 0 (``residues``), each group of two monomials (the diagonal)
#: as index pairs into the sides (``sums``), each group key (kind, k, m,
#: sign) to its position in the table's key order, the index of its price
#: in every ``Point``'s table (``keys``), and, over the keys in that order,
#: each key's two factors in (*u, *v, *sums, 1), two tuples (``recipe``)
_Layout = namedtuple("_Layout", "sides limits residues sums keys recipe")


@lru_cache(maxsize=_CHECK_MEMO)
def _layout(n):
    """The ``_Layout`` of the monomial table at n."""
    table = _monomial_table(n)
    u, v = {}, {}
    for mon in chain.from_iterable(table.values()):
        u.setdefault(mon[:3], len(u))
        v.setdefault((1, *mon[3:]), len(v))
    base, sums, recipe = len(u) + len(v), [], []
    for mons in table.values():
        pair = [(u[mon[:3]], len(u) + v[(1, *mon[3:])]) for mon in mons]
        if len(pair) > 1:  # a factor of its own, times the final 1
            sums.append(pair)
            pair = [(base + len(sums) - 1, -1)]
        recipe.append(pair[0])
    return _Layout((tuple(u), tuple(v)),
                   [([c * (2 * alpha - n) if p else 2 * n * c for c, alpha, p in side], 2 * n)
                    for side in (u, v)],
                   [([c if p else 0 for c, _, p in side], 1) for side in (u, v)],
                   sums, {key: i for i, key in enumerate(table)}, tuple(zip(*recipe)))


def point_factors(ring, n, q_u, q_v):
    """(factors, den): every u part's side price at q_u = a/b and v part's
    at q_v = c/d, then the diagonal's sum, over den = (a^2n - b^2n)
    (c^2n - d^2n)(abcd)^(2n-2); no structure decides them, and a ``Point``
    keeps them, as a tuple, to price any key there.  A side at None holds
    its parts' constant terms at u = 0 (or v = 0), over 2n instead, and a
    side at ``RESIDUE`` their residues there, over 1 (``_layout``)."""
    layout, reduce = _layout(n), ring.reduce
    (u, den_u), (v, den_v) = [
        limit if q is None else residue if q is RESIDUE else side_prices(ring, n, q, parts)
        for q, parts, limit, residue in zip((q_u, q_v), layout.sides, layout.limits,
                                            layout.residues)]
    uv = u + v
    summed = [reduce(sum(uv[i] * uv[j] for i, j in pairs)) for pairs in layout.sums]
    return (*uv, *summed, 1), reduce(den_u * den_v)


class Point:
    """A point (q_u, q_v) at which the tables of one n are priced in
    ``ring``, a side at None meaning u = 0 (or v = 0), where each price
    is its constant term (r0), and a side at ``RESIDUE`` its residue there
    (``residues``).  It keeps the factors of its prices
    (``point_factors``), one price table for its n and its swap (q_v, q_u),
    the hat's point, once computed, so every table priced there shares
    them.  The price table is a tuple over the group keys of ``_layout``
    (``keys``); a key's slot holds None until a table reads that key here,
    and is then filled from the kept factors, once (``prices``).

    The sampled checks take their points from ``_points``, one tuple per
    sample of an ``_Identity`` record, shared by every structure of one n:
    each point is priced once per group key for all of them, and what it
    keeps is held as long as its point set; the record's one compile
    (``fails``) reads it.
    """

    __slots__ = ("ring", "n", "q_u", "q_v", "_priced", "_table", "_swapped")

    def __init__(self, ring, n, q_u, q_v):
        self.ring, self.n, self.q_u, self.q_v = ring, n, q_u, q_v
        self._priced = self._table = self._swapped = None

    def factors(self):
        """The point's ``point_factors``, (factors, den)."""
        if self._priced is None:
            self._priced = point_factors(self.ring, self.n, self.q_u, self.q_v)
        return self._priced

    def prices(self, keys):
        """(nums, den): the point's price table, nums[i] / den the price of
        the i-th group key of ``_layout`` here, filled at least at the key
        indices ``keys``."""
        table = self._table
        if table is None or None in map(table.__getitem__, keys):
            table = self._fill(keys)
        return table, self._priced[1]

    def _fill(self, keys):
        """The price table with every empty slot of ``keys`` filled: each
        key's two factors gathered and multiplied, as one C-level pass.

        The table is a tuple, built anew on each fill, so no reader can
        change what the others read, and the garbage collector, once it
        finds that a table holds only ints and None, no longer scans it:
        kept as lists of 32513 slots at n = 128, the tables made each full
        collection during strong nondegeneracy about 4x as long."""
        (factors, _), (first, second) = self.factors(), _layout(self.n).recipe
        table = [None] * len(first) if self._table is None else list(self._table)
        missing = [k for k in keys if table[k] is None]
        get = factors.__getitem__
        for k, price in zip(missing, map(self.ring.reduce, map(
                mul, map(get, map(first.__getitem__, missing)),
                map(get, map(second.__getitem__, missing))))):
            table[k] = price
        self._table = tuple(table)
        return self._table

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
    ``ring``: only the groups its rows read, so a ``Point``'s price slots
    of other keys, empty or not, are never boxed."""
    nums, den = prices
    return assemble(sol, ring, ring.box_nonzero({g: nums[g] for g in set(sol.groups)}, den))


class _TableSolution:
    """An r-matrix as one linear table: rows (groups[i], flats[i]), with
    r(u, v) the sum of price_g(u, v) at flat f over the rows, and
    ``price(ring, point)`` giving price_g at a ``Point`` as nums[g] / den
    for every group g of the rows, nums a sequence of ``prices``
    numerators that may hold other slots, which no row reads, such as a
    ``Point``'s table.  Every reading of the table is such a price: at
    (q_u, q_v) (``eval``), its constant terms at (None, q_v) (r0) and its
    residues at (``RESIDUE``, None) and its swap (``residues``).
    ``support`` lists the distinct flats in ascending order.
    """

    def _set_rows(self, groups, flats, prices):
        self.groups, self.flats, self.prices = tuple(groups), tuple(flats), prices
        order = sorted(range(len(self.flats)), key=self.flats.__getitem__)
        by_flat = list(map(self.flats.__getitem__, order))
        self._groups_by_flat = list(map(self.groups.__getitem__, order))
        self._last = list(map(ne, by_flat, by_flat[1:])) + [True]
        self.support = tuple(compress(by_flat, self._last))

    def eval(self, ring, q_u, q_v) -> Tensor2:
        """r at (q_u, q_v), priced at a new ``Point``; entries live in ``ring``."""
        return _boxed(self, ring, self.price(ring, Point(ring, self.n, q_u, q_v)))

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

    ``terms`` is the rectangle-family table of ``perms.rectangle_terms``,
    and ``keys`` the index of each term's group key (kind, k, m, sign) in
    ``_layout``'s key order; the linear table has one row (keys[t], f) per
    target f of each term t, so it reads its prices straight off a
    ``Point``'s table, over all the keys of its n.
    """

    def __init__(self, abd: ABDStructure):
        problems = validate_abd(abd)
        if problems:
            raise ValueError("invalid structure: " + "; ".join(problems))
        self.abd = abd
        self.n = abd.n
        self.terms = rectangle_terms(abd)
        index = _layout(self.n).keys
        self.keys = tuple(index[t[:4]] for t in self.terms)
        self._set_rows(chain.from_iterable(repeat(key, len(t[-1]))
                                           for key, t in zip(self.keys, self.terms)),
                       chain.from_iterable(t[-1] for t in self.terms), len(index))

    def price(self, ring, point):
        return point.prices(self.keys)


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

    def entries(self):
        return super().entries() if self._scaled is None else flat_entries(self.support)

    def read(self, ring, point):
        return (self.price if self._scaled is None else self.values)(ring, point)

    def price(self, ring, point):
        prices = self.base.price(ring, point.swapped() if self.swap else point)
        if self._scaled is None:
            return prices
        (nums, den), reduce = prices, ring.reduce
        return [reduce(c * nums[g]) for g, c in self._scaled], reduce(den * self.coef_den)


def projected_r0(sol) -> _Image:
    """rbar0(v) = (pr (x) pr) r0(v), pr(X) = X - (tr X / n) 1, as the
    image of r's table whose rows are ``tensors.sl_image`` of each group's
    integer part, over n^2, priced at the ``Point`` (None, q_v), where r's
    prices are r0's.
    """
    return _Image(sol, [(grp, f, c) for grp, part in _group_parts(sol).items()
                        for f, c in sl_image(sol.n, part).items()], sol.n ** 2)


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
    ``rotated`` by one digit, priced at the swapped point; hat(hat(r)) is
    ``flip`` of r.
    """
    return _Image(sol, [(g, f, 1) for g, f in zip(sol.groups, rotated(sol.n, sol.flats))],
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


def _sampled_check(check, tag, sol, num_points, seed, field, sample, fails) -> CheckReport:
    """The seeded Schwartz-Zippel loop behind every identity check.

    Calls ``fails(*values)`` at each sample of ``_points``.  ``fails``
    returns a falsy value where the identity holds, and True or a note
    naming the failure where it does not; the first three notes become the
    report's details.
    """
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


class _Given:
    """A table whose values at a sample are the sample's own (nums, den):
    unitarity's scalar, at flat 0, and its unit, at the flats of 1 (x) 1."""

    def __init__(self, flats):
        self._entries = flat_entries(flats)

    def entries(self):
        return self._entries

    def read(self, ring, values):
        return values


@dataclass(frozen=True, eq=False)
class _Identity:
    """One sampled product check, as the facts every test of it reads.

    A sample is ``arity`` scalars q, each with q^(2n) != 1 and each of
    ``poles`` nonzero at (n, *qs); ``at(field, n, *qs)`` gives what each
    evaluation reads there (a ``Point``, rbar0's q_v, a ``_Given``'s
    values), ``tables(sol, field)`` the table each reads, and ``corrupts``
    the evaluation a mutated run corrupts (None: no run is mutated).  Each
    residual is (jobs in ``tensors.product_residual``'s slot notation, the
    evaluations they read, the note its failure reports).  Compared and
    hashed by identity: ``_points`` keys on ``sample``.
    """

    name: str
    tag: str
    arity: int
    poles: tuple
    at: Callable
    tables: Callable
    corrupts: int | None
    residuals: tuple

    def sample(self, field, rng, n):
        """What the evaluations read at one pole-free sample."""
        qs = _pole_free(field, rng, n, self.arity, [partial(pole, n) for pole in self.poles])
        return self.at(field, n, *qs)

    def fails(self, sol, field, weights, mutate=None):
        """The test at one ``sample``: the note of the first residual whose
        projection does not vanish, or None.  Each residual is compiled once
        here, by ``projected_residual`` as looked up at call time.

        With ``mutate`` set to a slot (i, j, k, l), evaluation ``corrupts``
        has one more entry, at the slot's flat, reading one more value,
        den / den = 1: it reads r + e_ij (x) e_kl.  The jobs stay the
        honest ones, so the compile shares their plan (``tensors._plan``).
        """
        tables = self.tables(sol, field)
        entries = [table.entries() for table in tables]
        readers = [table.read for table in tables]
        if mutate is not None:
            size, flats, reads = entries[self.corrupts]
            entries[self.corrupts] = (size + 1, (*flats, _slot_flat(sol.n, mutate)),
                                      (*reads, size))
            read = readers[self.corrupts]

            def corrupted(ring, at):
                nums, den = read(ring, at)
                return [*nums, den], den

            readers[self.corrupts] = corrupted
        programs = [(projected_residual(field, sol.n, list(map(entries.__getitem__, reads)),
                                        jobs, weights), reads, note)
                    for jobs, reads, note in self.residuals]

        def fails(*at):
            values = [read(field, point) for read, point in zip(readers, at)]
            for program, reads, note in programs:
                if not program.is_zero(field, list(map(values.__getitem__, reads))):
                    return note
            return None

        return fails

    def run(self, sol, num_points, seed, field, mutate=None) -> CheckReport:
        """The check's report on ``sol`` at ``num_points`` seeded samples,
        ``name(mutated)`` when ``mutate`` is set."""
        name = self.name if mutate is None else self.name + "(mutated)"
        return _sampled_check(name, self.tag, sol, num_points, seed, field, self.sample,
                              self.fails(sol, field, _weights(field, seed, self.tag, sol.n),
                                         mutate))


def _aybe_at(field, n, qu, qup, qv, qvp):
    """The points of the AYBE's six factors at (u, u', v, v')."""
    return (Point(field, n, qup ** -1, qv),         # r(-u', v)
            Point(field, n, qu * qup, qv * qvp),    # r(u+u', v+v')
            Point(field, n, qu * qup, qvp),         # r(u+u', v')
            Point(field, n, qu, qv),                # r(u, v)
            Point(field, n, qu, qv * qvp),          # r(u, v+v')
            Point(field, n, qup, qvp))              # r(u', v')


_AYBE = _Identity(
    "aybe", "aybe", 4,
    (lambda n, a, b, c, d: (a * b) ** (2 * n) - 1,   # the poles at u + u'
     lambda n, a, b, c, d: (c * d) ** (2 * n) - 1),  # and at v + v'
    _aybe_at,
    lambda sol, field: [sol] * 6, 0,  # a mutated run corrupts r(-u', v)
    (([(1, 0, (1, 2), 1, (1, 3)), (-1, 2, (2, 3), 3, (1, 2)), (1, 4, (1, 3), 5, (2, 3))],
      range(6), True),))


def check_aybe(sol, num_points, seed, field, mutate=None) -> CheckReport:
    """AYBE residual r12(-u',v) r13(u+u',v+v') - r23(u+u',v') r12(u,v)
    + r13(u,v+v') r23(u',v') at seeded random points (must vanish).

    With ``mutate`` set to an index 4-tuple, the first factor reads r plus
    1 at that entry (``_Identity.fails``); ``failures`` then counts the
    points where the corruption was detected (the honest reading: the
    identity fails there), so a working check reports a failing run.

    Each point tests one random linear form of the residual, so a PASS also
    carries the form's false-pass chance, at most 6/|S| per point (the
    module docstring).
    """
    return _AYBE.run(sol, num_points, seed, field, mutate)


# flip(r(-u,-v)) + r(u,v), at the points (-u, -v) and (u, v)
_SKEW = _Identity(
    "skew", "skew", 2, (),
    lambda field, n, qu, qv: (Point(field, n, qu ** -1, qv ** -1), Point(field, n, qu, qv)),
    lambda sol, field: [sol, sol], 1,  # a mutated run corrupts r(u, v)
    (([(1, 0, (2, 1)), (1, 1, (1, 2))], range(2), True),))


def check_skew(sol, num_points, seed, field, mutate=None) -> CheckReport:
    """Skew-symmetry: flip(r(-u,-v)) + r(u,v) = 0 at seeded points.

    Each point tests one random linear form of the residual, so a PASS also
    carries the form's false-pass chance, at most 4/|S| per point (the
    module docstring).
    """
    return _SKEW.run(sol, num_points, seed, field, mutate)


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
    columns read off each flat (``rotated`` for transpose_p), so
    their block plans are compiled here once from the support.  den != 0,
    so the numerators decide: a 1 x 1 block by a nonzero test, a larger one
    by ``_eliminate``.
    """
    nn = sol.n ** 2
    plans = [_block_plan([divmod(f, nn) for f in flats], nn)
             for flats in (sol.support, rotated(sol.n, sol.support))]
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
    """Evaluate r with the chosen variable as a Laurent jet: the reference
    for the exact pricings of the table.

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


@lru_cache(maxsize=_CHECK_MEMO)
def _residue_point(ring, n):
    """The ``Point`` (``RESIDUE``, None) of n in ``ring``, kept per process
    as ``_points`` are, so it and its swap are priced once per group key."""
    return Point(ring, n, RESIDUE, None)


def residues(sol, which, at_other, field) -> Tensor2:
    """The coefficient of 1/u (resp. 1/v) of r, exactly: r priced at the
    ``Point`` (``RESIDUE``, None) (resp. its swap).  Every polar monomial
    is constant in the other variable, so ``at_other`` is not read.  Its
    reference is the jet's coefficient (``_jet_coefficient``), which
    raises if any entry has a pole worse than simple.
    """
    if which not in ("u", "v"):
        raise ValueError("which must be 'u' or 'v'")
    point = _residue_point(field, sol.n)
    return _boxed(sol, field, sol.price(field, point if which == "u" else point.swapped()))


def r0_tensor(sol, q_v, field) -> Tensor2:
    """r0(v): the u^0 Laurent coefficient of r(u, v) at u = 0, exactly: r
    at the ``Point`` (None, q_v), whose u side reads its parts' constant
    terms."""
    return sol.eval(field, None, q_v)


# [X12,Y13] + [X12,Z23] + [Y13,Z23] for rbar0 = (pr (x) pr) r0, read by its
# support, at the points (0, v), (0, v + v') and (0, v'); a mutated run
# corrupts X
_CYBE = _Identity(
    "cybe", "cybe", 2, (lambda n, a, b: (a * b) ** (2 * n) - 1,),  # the pole at v + v'
    lambda field, n, qv, qvp: tuple(Point(field, n, None, q) for q in (qv, qv * qvp, qvp)),
    lambda sol, field: [projected_r0(sol)] * 3, 0,
    (([(1, 0, (1, 2), 1, (1, 3)), (-1, 1, (1, 3), 0, (1, 2)), (1, 0, (1, 2), 2, (2, 3)),
       (-1, 2, (2, 3), 0, (1, 2)), (1, 1, (1, 3), 2, (2, 3)), (-1, 2, (2, 3), 1, (1, 3))],
      range(3), True),))


def check_cybe(sol, num_points, seed, field, jet_order=4, mutate=None) -> CheckReport:
    """CYBE for rbar0 = (pr (x) pr) r0:  [X12,Y13] + [X12,Z23] + [Y13,Z23] = 0
    with X = rbar0(v), Y = rbar0(v+v'), Z = rbar0(v').

    r0 is priced exactly from the solution's table, and pr (x) pr is a
    linear image of that table, so ``jet_order`` no longer changes the
    result; it is accepted for callers that pass it.  With ``mutate`` set
    to an index 4-tuple, X reads rbar0 plus 1 at that entry
    (``_Identity.fails``).

    Each point tests one random linear form of the residual, so a PASS also
    carries the form's false-pass chance, at most 6/|S| per point (the
    module docstring).
    """
    return _CYBE.run(sol, num_points, seed, field, mutate)


# -- QYBE / unitarity --------------------------------------------------------------


def _half(q, n):
    """e^{w/2} - e^{-w/2} at q = e^{w/(2n)}."""
    return q ** n - q ** (-n)


def _qybe_at(field, n, qu, qv, qvp):
    """The points (u, v), (u, -v), (u, v + v') and (u, v') of the unitarity
    and QYBE tests at (u, v, v'), then unitarity's scalar s = 1/a^2 - 1/b^2,
    as (b^2 - a^2) / (a^2 b^2) so that no field element is inverted, and
    its unit 1 (x) 1, each entry 1."""
    a, b = _half(qu, n), _half(qv, n)
    (num, den), _ = field.integral((b * b - a * a, a * a * b * b))
    return (Point(field, n, qu, qv), Point(field, n, qu, qv ** -1),
            Point(field, n, qu, qv * qvp), Point(field, n, qu, qvp), ([num], den),
            ([1] * (n * n), 1))


# unitarity, r(u,v) . flip(r(u,-v)) - s (1 (x) 1), then the QYBE, r12 r13 r23 -
# r23 r13 r12; the samples avoid the zeros of sigma's denominators at (u,v),
# (u,v+v'), (u,v') and (u,-v), where R = sigma r is undefined, though no test divides
_QYBE = _Identity(
    "qybe-unitarity", "qybe", 3,
    (lambda n, a, b, c: (b * c) ** (2 * n) - 1,
     lambda n, a, b, c: _half(a, n) + _half(b, n),
     lambda n, a, b, c: _half(a, n) + _half(b * c, n),
     lambda n, a, b, c: _half(a, n) + _half(c, n),
     lambda n, a, b, c: _half(a, n) - _half(b, n)),
    _qybe_at,
    lambda sol, field: [sol] * 4 + [_Given([0]), _Given(list(Tensor2.unit(sol.n, field).data))],
    None,
    (([(1, 0, (1, 2), 1, (2, 1)), (-1, 2, (), 3, (1, 2))], (0, 1, 4, 5), "unitarity failed"),
     ([(1, 0, (1, 2), 1, (1, 3), 2, (2, 3)), (-1, 2, (2, 3), 1, (1, 3), 0, (1, 2))],
      (0, 2, 3), "qybe failed")))


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
    return _QYBE.run(sol, num_points, seed, field)


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
