"""Exact arithmetic on Mat_n (x) Mat_n and Mat_n (x) Mat_n (x) Mat_n.

A tensor is a sparse map from flat index to nonzero scalar: entry
(i,j,k,l) of a ``Tensor2``, the coefficient of e_ij (x) e_kl, sits at flat
index ((i*n + j)*n + k)*n + l, and a ``Tensor3`` appends a third index pair
the same way.  Zeros are never stored, so the zero test is an emptiness
test and equality is map equality; ``items()`` yields entries in ascending
flat index, which fixes the order of every serialized tensor.  One codec
turns index tuples into flat indices and back, behind ``items()`` and item
access; products, sums and the structural maps (flip, transposes, pr (x) pr,
contraction sides) do digit arithmetic on the flat index directly, and only
``tensor_rank``, the reference for the block-by-block nondegeneracy test
of ``trig``, densifies (the reshaped n^2 x n^2 matrix).

The one Gaussian elimination runs on the field's raw values (``raw``,
``reduce``, ``inverse``, ``box`` of the scalar backend), and contractions
on integer numerators over a common denominator (``integral`` and
``box_nonzero``); both box their results once, so this module never sees
how a field stores them.

Every join of two Tensor2s, a pair product a^sa . b^sb (``_PAIR_RULES``)
or the product a . flip(b) (``_FLIP_PRODUCT_RULE``), is one rule of the
same shape: each factor's key digits and the output positions of its
others.  ``_rule_terms`` reads any rule into terms (outs, xs, ys), and the
reference products (``_contract``) and the compiled residuals
(``Residual``) both consume those terms.  A ``Residual`` is compiled once
from the supports of its distinct evaluations (``pair_residual``,
``triple_residual``), each job naming its factors by index; at each point it
takes every evaluation once, as the (nums, den) pair a table's ``values``
returns, and tests each output entry for zero with C-level gathers, products
and running sums, boxing nothing.  The tensor products stay as the
reference those residuals are tested against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, repeat
from math import lcm
from operator import add, mul, ne

from .scalars import BackendMismatchError


class _SparseTensor:
    """Shared storage and algebra of ``Tensor2`` (two factors) and ``Tensor3``."""

    __slots__ = ("n", "ring", "data")
    factors = 0

    def __init__(self, n, ring, data=None):
        self.n = n
        self.ring = ring
        self.data = data if data is not None else {}

    @classmethod
    def unit(cls, n, ring):
        """1 (x) 1 (x) ... : the diagonal e_ii entry in every factor."""
        flats = [0]
        for _ in range(cls.factors):
            flats = [f * n * n + i * (n + 1) for f in flats for i in range(n)]
        return cls(n, ring, dict.fromkeys(flats, ring.one))

    # -- indexing ----------------------------------------------------------

    def _flat(self, *idx):
        n = self.n
        f = 0
        for x in idx:
            f = f * n + x
        return f

    def _index(self, flat):
        n = self.n
        idx = []
        for _ in range(2 * self.factors):
            flat, x = divmod(flat, n)
            idx.append(x)
        return tuple(reversed(idx))

    def __getitem__(self, idx):
        return self.data.get(self._flat(*idx), self.ring.zero)

    def __setitem__(self, idx, value):
        f = self._flat(*idx)
        if value:
            self.data[f] = value
        else:
            self.data.pop(f, None)

    def items(self):
        """Yield (index tuple, value) over nonzero entries, in ascending flat index."""
        data = self.data
        for f in sorted(data):
            yield self._index(f), data[f]

    def nnz(self) -> int:
        return len(self.data)

    def is_zero(self) -> bool:
        return not self.data

    # -- linear structure --------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise BackendMismatchError("tensor size mismatch")
        if self.ring != other.ring:
            raise BackendMismatchError("tensor backend mismatch")

    def _combine(self, other, sign):
        self._check(other)
        data = dict(self.data)
        for f, v in other.data.items():
            if sign < 0:
                v = -v
            w = data.pop(f, None)
            w = v if w is None else w + v
            if w:
                data[f] = w
        return type(self)(self.n, self.ring, data)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return type(self)(self.n, self.ring, {f: -v for f, v in self.data.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.data == other.data

    __hash__ = None

    # -- algebra product ---------------------------------------------------

    def _col_parts(self, flats):
        """The part of each flat index carried by the column index of every factor."""
        n, nn = self.n, self.n * self.n
        cols = [f % n for f in flats]
        w = 1
        for _ in range(self.factors - 1):
            w *= nn
            cols = [c + f // w % n * w for c, f in zip(cols, flats)]
        return cols

    def __mul__(self, other):
        """Componentwise algebra product (a (x) b)(c (x) d) = ac (x) bd.

        Entry (row r, column x) of self meets entry (row x, column c) of other
        at (r, c); a row part is n times the column part with the same digits.
        """
        self._check(other)
        n, a, b = self.n, self.data, other.data
        left = [(c, f - c) for f, c in zip(a, self._col_parts(a))]
        right = [((f - c) // n, c) for f, c in zip(b, self._col_parts(b))]
        return _contract(type(self), n, self.ring,
                         [(1, _join(left, right), a.values(), b.values())])

    def __repr__(self):
        return "%s(n=%d, nnz=%d)" % (type(self).__name__, self.n, self.nnz())


class Tensor2(_SparseTensor):
    __slots__ = ()
    factors = 2

    @classmethod
    def basis(cls, n, ring, i, j, k, l):
        """e_ij (x) e_kl."""
        t = cls(n, ring)
        t[i, j, k, l] = ring.one
        return t

    def scale(self, c):
        data = {}
        for f, v in self.data.items():
            w = c * v
            if w:
                data[f] = w
        return Tensor2(self.n, self.ring, data)

    # -- structural maps ------------------------------------------------------

    def flip(self):
        """Transposition of tensor factors: sum a (x) b -> sum b (x) a."""
        nn = self.n * self.n
        return Tensor2(self.n, self.ring,
                       {f % nn * nn + f // nn: v for f, v in self.data.items()})

    def transpose(self):
        """Factorwise matrix transpose: sum a (x) b -> sum a^t (x) b^t."""
        n, nn = self.n, self.n * self.n
        swap = [x % n * n + x // n for x in range(nn)]  # e_ij -> e_ji on one factor
        return Tensor2(n, self.ring, {swap[f // nn] * nn + swap[f % nn]: v
                                      for f, v in self.data.items()})

    def transpose_p(self):
        """transpose(self) . P, a relabeling: entry (i,j,k,l) moves to (j,k,l,i)."""
        n3 = self.n ** 3
        return Tensor2(self.n, self.ring,
                       {f % n3 * self.n + f // n3: v for f, v in self.data.items()})

    def project_sl(self):
        """Apply pr (x) pr, pr(X) = X - (tr X / n) 1, in both slots."""
        n, nn, ring = self.n, self.n * self.n, self.ring
        zero = ring.zero
        inv_n = ring.one / ring.of_int(n)
        # a factor's flat part x is a diagonal e_ii exactly when x % (n + 1) == 0;
        # tr1 traces slot 1, keyed by the slot-2 part, and tr2 the reverse
        diag = range(0, nn, n + 1)
        tr1, tr2 = {}, {}
        for f, v in self.data.items():
            a, b = divmod(f, nn)
            if a % (n + 1) == 0:
                tr1[b] = tr1.get(b, zero) + v
            if b % (n + 1) == 0:
                tr2[a] = tr2.get(a, zero) + v
        # subtract id/n (x) tr1 and tr2 (x) id/n, add back the double trace
        full = inv_n * inv_n * sum((tr1.get(d, zero) for d in diag), zero)
        corrections = [(d * nn + b, -inv_n * v) for b, v in tr1.items() for d in diag]
        corrections += [(a * nn + d, -inv_n * v) for a, v in tr2.items() for d in diag]
        corrections += [(d * nn + e, full) for d in diag for e in diag]
        out = dict(self.data)
        for f, c in corrections:
            out[f] = out.get(f, zero) + c
        return Tensor2(n, ring, {f: v for f, v in out.items() if v})

    # -- nondegeneracy ---------------------------------------------------------

    def tensor_rank(self):
        """(determinant of the reshaped matrix M[(i,j),(k,l)] = t[i,j,k,l],
        invertible flag)."""
        nn, ring = self.n * self.n, self.ring
        raw = ring.raw
        zero = raw(ring.zero)
        rows = [[zero] * nn for _ in range(nn)]
        for f, v in self.data.items():
            rows[f // nn][f % nn] = raw(v)
        det = _determinant(rows, ring)
        return det, bool(det)

    # -- serialization -----------------------------------------------------------

    def to_sparse_json(self):
        raw = self.ring.raw
        out = []
        for (i, j, k, l), v in self.items():
            c = raw(v)
            c = "%d/%d" % (c.numerator, c.denominator) if isinstance(c, Fraction) else str(c)
            out.append({"i": i, "j": j, "k": k, "l": l, "c": c})
        return out


def transposition_p(n, ring) -> Tensor2:
    """P = sum e_ij (x) e_ji, the transposition operator P(x (x) y) = y (x) x."""
    one = ring.one
    return Tensor2(n, ring, {((i * n + j) * n + j) * n + i: one
                             for i in range(n) for j in range(n)})


class Tensor3(_SparseTensor):
    __slots__ = ()
    factors = 3


def embed_triple(t: Tensor2, slot: int) -> Tensor3:
    """Embed a Tensor2 into the triple algebra, identity in the omitted slot.

    ``slot`` is one of 12, 13, 23.
    """
    n = t.n
    nn = n * n
    # weights of the first pair, the second pair and the identity pair
    weights = {12: (nn * nn, nn, 1), 13: (nn * nn, 1, nn), 23: (nn, 1, nn * nn)}
    if slot not in weights:
        raise ValueError("slot must be 12, 13 or 23, got %r" % slot)
    wa, wb, wd = weights[slot]
    diag = [p * (n + 1) * wd for p in range(n)]
    data = {}
    for f, v in t.data.items():
        base = f // nn * wa + f % nn * wb
        for d in diag:
            data[base + d] = v
    return Tensor3(n, t.ring, data)


def _contract(cls, n, ring, jobs):
    """A ``cls`` tensor summing sign * va[x] * vb[y] at flat index out.

    Each job is (sign, (outs, xs, ys), va, vb): the terms of a join
    (``_join``), as a ``Residual`` takes them, and the values of its two
    sides.  Each side is cleared of denominators once (``integral``: va =
    a / den_a), so the sums run on plain ints over the common denominator
    D, the lcm of the jobs' den_a * den_b, and each output entry is divided
    by D, reduced and boxed once.  In GF(p) every den is 1.
    """
    integral = ring.integral
    den, sides = 1, []
    for sign, terms, va, vb in jobs:
        a, den_a = integral(va)
        b, den_b = integral(vb)
        d = den_a * den_b
        den = lcm(den, d)
        sides.append((sign, d, terms, a, b))
    acc = {}
    for sign, d, (outs, xs, ys), a, b in sides:
        scale = sign * (den // d)
        for flat, x, y in zip(outs, xs, ys):
            acc[flat] = acc.get(flat, 0) + scale * a[x] * b[y]
    return cls(n, ring, ring.box_nonzero(acc, den))


# A join rule of two Tensor2s is (a's key digits, the output positions of
# a's other digits, b's key digits, those of b's), a factor's digits
# numbered 0..3 as (row, column) of its first and of its second factor.
#
# Products of identity-padded tensors collapse to one-index contractions of
# the underlying Tensor2s; for each ordered slot pair the key is the
# contracted digit of each factor, and the others land in the 6-digit output
_PAIR_RULES = {
    (12, 13): ((1,), (0, 2, 3), (0,), (1, 4, 5)),
    (13, 12): ((1,), (0, 4, 5), (0,), (1, 2, 3)),
    (12, 23): ((3,), (0, 1, 2), (0,), (3, 4, 5)),
    (23, 12): ((1,), (2, 4, 5), (2,), (0, 1, 3)),
    (13, 23): ((3,), (0, 1, 4), (2,), (2, 3, 5)),
    (23, 13): ((3,), (2, 3, 4), (2,), (0, 1, 5)),
}

# the Tensor2 product a . flip(b), into a 4-digit output: a's column digits
# (positions 1 and 3) meet flip(b)'s row digits, which are b's digits 2 and
# 0; a's rows land at 0 and 2 of the output, and b's digits 1 and 3 at 3 and 1
_FLIP_PRODUCT_RULE = ((1, 3), (0, 2), (2, 0), (3, 1))


@lru_cache(maxsize=None)
def _digit_tables(n, key_pos, out_pos, width):
    """Per factor part x = row * n + col of the first and of the second
    factor, its share of the key and of the offset of ``_join_entries``."""
    kweights, oweights = [0] * 4, [0] * 4
    for i, p in enumerate(key_pos):
        kweights[p] = n ** (len(key_pos) - 1 - i)
    for p, o in zip([p for p in range(4) if p not in key_pos], out_pos):
        oweights[p] = n ** (width - 1 - o)
    parts = range(n * n)
    return tuple(tuple(x // n * w[0] + x % n * w[1] for x in parts)
                 for w in (kweights[:2], kweights[2:], oweights[:2], oweights[2:]))


def _join_entries(n, flats, key_pos, out_pos, width):
    """(key, offset) of each flat index of a join side.

    Of a flat index's four digits (row, column of the first factor, row,
    column of the second), the digits at ``key_pos`` form the key, the
    first most significant, and the others, in order, land at ``out_pos``
    of a ``width``-digit output.
    """
    k1, k2, o1, o2 = _digit_tables(n, key_pos, out_pos, width)
    nn = n * n
    return [(k1[x1] + k2[x2], o1[x1] + o2[x2]) for x1, x2 in (divmod(f, nn) for f in flats)]


class Residual:
    """A residual compiled once from the supports of its evaluations.

    Its factors are evaluations: evaluation e is a list of ``sizes[e]``
    values at fixed rows.  A job is (sign, evals, outs, rows): its k-th
    term adds sign times the product, over the job's evaluations evals[p],
    of the value at row rows[p][k] to the output entry outs[k].  Every job
    has the same number of factors, and a job's factors are distinct
    evaluations (a ValueError otherwise); an evaluation may be a factor of
    any number of jobs.

    Only the values change from point to point, so the terms are sorted by
    output entry once.  Each (job, factor) owns a slot of the values, in
    job order, and ``cols[p]`` indexes each term's p-th factor in the
    concatenation of those slots; ``last`` marks each entry's last term.
    """

    def __init__(self, sizes, jobs):
        self.sizes = list(sizes)
        self.jobs = [(sign, evals) for sign, evals, _, _ in jobs]
        if any(len(set(evals)) != len(evals) for _, evals in self.jobs):
            raise ValueError("a job's factors must be distinct evaluations")
        outs = list(chain.from_iterable(job_outs for _, _, job_outs, _ in jobs))
        order = sorted(range(len(outs)), key=outs.__getitem__)
        outs = list(map(outs.__getitem__, order))
        cols, offset = [[] for _ in jobs[0][1]], 0
        for _, evals, _, rows in jobs:
            for col, e, factor_rows in zip(cols, evals, rows):
                col += map(add, factor_rows, repeat(offset))
                offset += self.sizes[e]
        self.cols = [list(map(col.__getitem__, order)) for col in cols]
        self.last = list(map(ne, outs, outs[1:])) + [True]

    def is_zero(self, ring, evaluations) -> bool:
        """Whether the residual vanishes when evaluation e is evaluations[e]
        = (nums, den), integer numerators over one nonzero denominator, as
        a table's ``values`` returns them; ValueError where the sizes differ
        from the compiled ones.

        Each job's first factor is scaled by the dens of the evaluations it
        does not read, so the sums run on plain ints.  The running sum of the
        sorted terms is zero at every entry's last term iff every entry is,
        and ``ring.reduce`` tests each of those sums for zero.
        """
        sizes = [len(nums) for nums, _ in evaluations]
        if sizes != self.sizes:
            raise ValueError("evaluation sizes %r, compiled for %r" % (sizes, self.sizes))
        reduce = ring.reduce
        flat = []
        for sign, evals in self.jobs:
            scale = sign
            for e, (_, den) in enumerate(evaluations):
                if e not in evals:
                    scale = reduce(scale * den)
            flat += map(reduce, map(mul, evaluations[evals[0]][0], repeat(scale)))
            for e in evals[1:]:
                flat += evaluations[e][0]
        get = flat.__getitem__
        terms = map(get, self.cols[0])
        for col in self.cols[1:]:
            terms = map(mul, terms, map(get, col))
        return not any(map(reduce, compress(accumulate(terms), self.last)))


def _join(left, right):
    """(outs, xs, ys) over every two entries of two join sides with equal
    keys: output base + off, left row x and right row y."""
    by_key = {}
    for y, (key, off) in enumerate(right):
        offs, rows = by_key.setdefault(key, ([], []))
        offs.append(off)
        rows.append(y)
    outs, xs, ys = [], [], []
    for x, (key, base) in enumerate(left):
        if key in by_key:
            offs, rows = by_key[key]
            outs += map(base.__add__, offs)
            xs += repeat(x, len(rows))
            ys += rows
    return outs, xs, ys


def _rule_terms(n, rule, width, flats_a, flats_b):
    """The terms (outs, xs, ys) of the join of a and b by ``rule``, into a
    ``width``-digit output, a and b at the listed flat indices."""
    a_key, a_out, b_key, b_out = rule
    return _join(_join_entries(n, flats_a, a_key, a_out, width),
                 _join_entries(n, flats_b, b_key, b_out, width))


def _pair_terms(n, flats_a, sa, flats_b, sb):
    """The terms (outs, xs, ys) of a^sa . b^sb, a and b at the listed flats."""
    return _rule_terms(n, _PAIR_RULES[(sa, sb)], 6, flats_a, flats_b)


def pair_residual(n, supports, jobs) -> Residual:
    """The compiled residual of signed pair products a^sa . b^sb over
    evaluations whose values sit at the flat indices ``supports[e]`` (a
    flat may repeat), each job given as (sign, a, sa, b, sb) with a and b
    distinct evaluation indices."""
    compiled = []
    for sign, a, sa, b, sb in jobs:
        outs, xs, ys = _pair_terms(n, supports[a], sa, supports[b], sb)
        compiled.append((sign, (a, b), outs, (xs, ys)))
    return Residual(map(len, supports), compiled)


def triple_residual(n, supports, jobs) -> Residual:
    """The compiled residual of signed triple products a^sa . b^sb . c^sc
    over evaluations at the flat indices ``supports[e]``, each job given as
    (sign, a, sa, b, sb, c, sc) with a, b and c distinct evaluation
    indices, (sa, sb) a ``_PAIR_RULES`` pair and sc one of 12, 13, 23.

    Each term of a^sa . b^sb meets the entries of c whose row digits equal
    its column digits in c's two slots; the product puts c's column digits
    there.
    """
    compiled = []
    for sign, a, sa, b, sb, c, sc in jobs:
        outs, xs, ys = _pair_terms(n, supports[a], sa, supports[b], sb)
        # the column digit of slot s sits at position 2s - 1 of six
        s, t = divmod(sc, 10)
        ws, wt = n ** (6 - 2 * s), n ** (6 - 2 * t)
        cols = [(o // ws % n, o // wt % n) for o in outs]
        left = [(cs * n + ct, o - cs * ws - ct * wt) for o, (cs, ct) in zip(outs, cols)]
        outs, ts, zs = _join(left, _join_entries(n, supports[c], (0, 2),
                                                 (2 * s - 1, 2 * t - 1), 6))
        compiled.append((sign, (a, b, c), outs,
                         (list(map(xs.__getitem__, ts)), list(map(ys.__getitem__, ts)), zs)))
    return Residual(map(len, supports), compiled)


def flip_product_terms(n, flats_a, flats_b):
    """The terms (outs, xs, ys) of the Tensor2 product a . flip(b), a and b
    at the listed flat indices."""
    return _rule_terms(n, _FLIP_PRODUCT_RULE, 4, flats_a, flats_b)


def _pair_products(*products) -> Tensor3:
    """The sum of signed products a^sa . b^sb given as (sign, a, sa, b, sb)."""
    a = products[0][1]
    return _contract(Tensor3, a.n, a.ring, [
        (sign, _pair_terms(a.n, a.data, sa, b.data, sb), a.data.values(), b.data.values())
        for sign, a, sa, b, sb in products])


def pair_embed_product(a: Tensor2, sa: int, b: Tensor2, sb: int) -> Tensor3:
    """a^sa . b^sb for distinct slots; equals
    embed_triple(a, sa) * embed_triple(b, sb)."""
    if (sa, sb) not in _PAIR_RULES:
        raise ValueError("unsupported slot pair (%r, %r)" % (sa, sb))
    return _pair_products((1, a, sa, b, sb))


def aybe_combine(r_a, r_b, r_c, r_d, r_e, r_f) -> Tensor3:
    """r_a^12 r_b^13 - r_c^23 r_d^12 + r_e^13 r_f^23 for six evaluated tensors
    (the triple-space product being the componentwise algebra product)."""
    return _pair_products((1, r_a, 12, r_b, 13), (-1, r_c, 23, r_d, 12),
                          (1, r_e, 13, r_f, 23))


def cybe_residual(x: Tensor2, y: Tensor2, z: Tensor2) -> Tensor3:
    """[x^12, y^13] + [x^12, z^23] + [y^13, z^23]."""
    return _pair_products((1, x, 12, y, 13), (-1, y, 13, x, 12),
                          (1, x, 12, z, 23), (-1, z, 23, x, 12),
                          (1, y, 13, z, 23), (-1, z, 23, y, 13))


# -- exact linear algebra -----------------------------------------------------


def exact_determinant(matrix, ring):
    """Determinant over the field, as one of its elements (a ``Fraction`` in q):
    the signed product of the pivots of ``_eliminate``."""
    raw = ring.raw
    return _determinant([[raw(x) for x in row] for row in matrix], ring)


def _determinant(a, ring):
    """Determinant of the square matrix ``a`` of raw values (eliminated in place)."""
    det = _eliminate(a, ring)  # the sign of the row swaps, 0 if singular
    reduce = ring.reduce
    for i, row in enumerate(a):
        det = reduce(det * row[i])
    return ring.box(det)


def _eliminate(a, ring):
    """Forward Gaussian elimination, in place, of the rows ``a`` of raw values.

    Pivots run down the leading square block; every row operation acts on
    whole rows, so columns appended to the block follow along.  A row is
    reduced when it becomes the pivot row, and each candidate pivot and
    each factor before it is used; the other rows stay unreduced, as each
    entry only gains at most one reduced product per pivot.  Returns the
    sign of the row swaps, or 0 (leaving ``a`` half reduced) if the block
    is singular; on success the pivot rows, and so the diagonal, are reduced.
    """
    reduce, inverse = ring.reduce, ring.inverse
    m = len(a)
    sign = 1
    for col in range(m):
        piv = next((r for r in range(col, m) if reduce(a[r][col])), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        pivot_row = a[col] = [reduce(x) for x in a[col]]
        inv = inverse(pivot_row[col])
        for r in range(col + 1, m):
            if a[r][col]:
                factor = reduce(a[r][col] * inv)
                a[r] = [x - factor * y for x, y in zip(a[r], pivot_row)]
    return sign


def matrix_inverse(matrix, ring):
    """Inverse over the field: eliminate [A | I], then back-substitute.

    Raises ZeroDivisionError if A is singular.
    """
    raw, reduce, inverse, box = ring.raw, ring.reduce, ring.inverse, ring.box
    zero, one = raw(ring.zero), raw(ring.one)
    m = len(matrix)
    a = [[raw(x) for x in row] + [one if i == j else zero for j in range(m)]
         for i, row in enumerate(matrix)]
    if not _eliminate(a, ring):
        raise ZeroDivisionError("singular matrix")
    inv = [None] * m
    for i in reversed(range(m)):
        row = a[i]
        x = row[m:]
        for k in range(i + 1, m):
            if row[k]:
                x = [y - row[k] * z for y, z in zip(x, inv[k])]
        pivot_inv = inverse(row[i])
        inv[i] = [reduce(y * pivot_inv) for y in x]
    return [[box(y) for y in row] for row in inv]


def kron2(phi, psi, ring) -> Tensor2:
    """phi (x) psi as a Tensor2 (entries phi[i][j] * psi[k][l])."""
    n = len(phi)
    a = [(i * n + j, x) for i, row in enumerate(phi) for j, x in enumerate(row) if x]
    b = [(k * n + l, y) for k, row in enumerate(psi) for l, y in enumerate(row) if y]
    return Tensor2(n, ring, {f * n * n + g: w for f, x in a for g, y in b if (w := x * y)})
