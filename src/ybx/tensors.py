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

Every product, compiled or reference, is derived from the slots its
factors occupy: a factor in slots (1, 2) is r^12, in (2, 1) flip(r), in
(1, 2, 3) a triple tensor and in () a scalar.  Slot k's open column sits
at output digit 2k - 1; the next factor in slot k meets it with its row
and writes its own column there.  One function (``_digit_roles``) tells
each digit of each factor whether it is an output digit or a key label
it shares with exactly one other factor.

An evaluation is compiled from its entries, (size, flats, reads): its
k-th entry puts value reads[k] of ``size`` values at flat flats[k], and
entries at one flat add up, so a table's rows can read its group prices
directly.  A ``Residual`` (``product_residual``) and a
``ProjectedResidual`` (``projected_residual``) take the same evaluations
and jobs, each job naming its factors by index; at each point they take
every evaluation once, as (nums, den), all its values as integers over
one denominator, and box nothing.  A ``Residual`` sums each output entry
with C-level gathers, products and running sums (``sums``), its terms
found by a walk over the assignments of the labels (``_key_rows``).  A
``ProjectedResidual``, with one random weight vector per output digit,
tests one random linear form of the residual: each entry weighed by its
digits' weights.  The digits two factors share are summed over, so a
point takes one gather-multiply-running-sum pass over every factor's
entries, giving each factor's weighted sums as a dense array over all n^L
keys of its L labels, then contracts each job's arrays: a dot product for
a pair, a staged matrix product for the QYBE's triple.  What no table
decides, each flat's key and weight and where each array sits, depends
on (ring, n, jobs, weights) alone, so it is kept per process, in a
bounded plan (``_plan``) that every structure of one n shares.  Where the
residual does not vanish, the form vanishes with chance at most 2w/|S|
for a residual of w slots and weights drawn from S (Schwartz-Zippel):
6/|S| for a triple residual, 4/|S| for a pair one.  The sampled checks of
``trig`` test the form; ``Residual`` stays exact, the reference the form
is tested against and the program for a proof, where weights would break
exactness.  The tensor products (``Tensor2.__mul__``, ``embed_triple``,
``pair_embed_product``, ``aybe_combine``, ``cybe_residual``) run on the
same ``Residual``, one evaluation per factor, and stay the reference the
checks are tested against.  pr (x) pr is one ring-generic map,
``sl_image``, which ``Tensor2.project_sl`` and ``trig``'s rbar0 table share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, islice, product, repeat
from math import prod
from operator import add, floordiv, mod, mul, ne, sub

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

    def __mul__(self, other):
        """Componentwise algebra product (a (x) b)(c (x) d) = ac (x) bd: both
        factors occupy every slot, in order."""
        self._check(other)
        slots = tuple(range(1, self.factors + 1))
        return _products(type(self), (1, self, slots, other, slots))

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
        """transpose(self) . P, a relabeling: entry (i,j,k,l) moves to (j,k,l,i)
        (``rotated``)."""
        return Tensor2(self.n, self.ring, dict(zip(rotated(self.n, self.data),
                                                   self.data.values())))

    def project_sl(self):
        """Apply pr (x) pr, pr(X) = X - (tr X / n) 1, in both slots: ``sl_image``
        over n^2."""
        inv = self.ring.one / self.ring.of_int(self.n * self.n)
        return Tensor2(self.n, self.ring,
                       {f: inv * v for f, v in sl_image(self.n, self.data).items()})

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


def rotated(n, flats) -> list:
    """The flat index of entry (j,k,l,i) for the entry (i,j,k,l) at each of
    ``flats``: its digits rotated by one, as transpose(t) . P moves them."""
    n3 = n ** 3
    return [f % n3 * n + f // n3 for f in flats]


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

    ``slot`` is one of 12, 13, 23: t^slot is t times 1 (x) 1 in a pair of
    slots that covers the omitted one.
    """
    if slot not in _SLOTS:
        raise ValueError("slot must be 12, 13 or 23, got %r" % slot)
    unit = Tensor2.unit(t.n, t.ring)
    return _products(Tensor3, (1, t, _SLOTS[slot], unit, _SLOTS[23 if slot == 12 else 12]))


def _digit_roles(specs):
    """The role of each digit of each factor of a product whose factors
    occupy the slots ``specs``, in order, most significant digit first:
    (label, None) where the digit meets another factor's, a key label of
    the product, summed over, or (None, d) where it is output digit d.

    The output has as many slots as the highest one occupied, slot k's row
    at digit 2k - 2 and its open column at 2k - 1; the first factor in a
    slot writes both, and each later one meets the open column there with
    its row and writes its own column there.  Each (slot, later factor)
    meeting is one label, numbered in factor order.
    """
    taken, labels = set(), {}
    for p, slots in enumerate(specs):
        for k in slots:
            if k in taken:
                labels[k, p] = len(labels)
        taken.update(slots)
    roles = []
    for p, slots in enumerate(specs):
        mine = []
        for k in slots:
            later = next((q for q in range(p + 1, len(specs)) if k in specs[q]), None)
            mine += [(labels[k, p], None) if (k, p) in labels else (None, 2 * k - 2),
                     (labels[k, later], None) if later is not None else (None, 2 * k - 1)]
        roles.append(mine)
    return roles


def _keyed(n, flats, roles, tables, op, start):
    """(keys, values, labels) of a factor's ``flats``, its digits playing
    ``roles`` (``_digit_roles``): a flat's key holds its digit d of label L
    as d * n^L, its value folds tables[out][d] over its digits d at output
    digits out with ``op``, from ``start``, and labels are the factor's."""
    keys, values = repeat(0), repeat(start)
    for place, (label, out) in zip(range(len(roles) - 1, -1, -1), roles):
        digits = map(mod, map(floordiv, flats, repeat(n ** place)), repeat(n))
        if out is None:
            keys = map(add, keys, map(mul, digits, repeat(n ** label)))
        else:
            values = map(op, values, map(tables[out].__getitem__, digits))
    size = len(flats)
    return (list(islice(keys, size)), list(islice(values, size)),
            [label for label, _ in roles if label is not None])


def _product_terms(n, factors):
    """(outs, rows) of the product of factors (flats, slots), in order: its
    k-th term multiplies the entry at flats[rows[p][k]] of every factor p
    into the output entry outs[k].  Each factor's entries are grouped by
    key (``_keyed``), the groups met at each assignment of the labels the
    factors share (``_key_rows``), and each entry's output digits place it
    in the output.
    """
    specs = [slots for _, slots in factors]
    width = 2 * max(chain.from_iterable(specs), default=0)
    digit_offsets = [[d * n ** (width - 1 - out) for d in range(n)] for out in range(width)]
    groups, offsets, owned = [], [], []
    for (flats, _), roles in zip(factors, _digit_roles(specs)):
        keys, offs, labels = _keyed(n, flats, roles, digit_offsets, add, 0)
        by_key = {}
        for i, key in enumerate(keys):
            by_key.setdefault(key, []).append(i)
        groups.append(by_key)
        offsets.append(offs)
        owned.append(labels)
    terms = [term for picks in _key_rows(n, groups, owned) for term in product(*picks)]
    rows = [list(row) for row in zip(*terms)] or [[] for _ in factors]
    outs = [0] * len(terms)
    for offs, row in zip(offsets, rows):
        outs = list(map(add, outs, map(offs.__getitem__, row)))
    return outs, rows


def _job_scales(ring, sizes, jobs, evaluations):
    """Each job's sign times the dens of the evaluations it does not read,
    ``rest`` in (sign, evals, rest, ...), reduced, evaluation e being
    evaluations[e] = (nums, den); ValueError where the sizes differ."""
    got = [len(nums) for nums, _ in evaluations]
    if got != sizes:
        raise ValueError("evaluation sizes %r, compiled for %r" % (got, sizes))
    reduce, dens = ring.reduce, [den for _, den in evaluations]
    return [reduce(sign * prod(map(dens.__getitem__, rest))) for sign, _, rest, *_ in jobs]


def _rest(evals, size):
    """The evaluations of ``range(size)`` that a job reading ``evals`` does not."""
    return tuple(e for e in range(size) if e not in evals)


class Residual:
    """A residual compiled once from the entries of its evaluations: the one
    exact product program, behind the reference tensor products too.

    Its factors are evaluations (size, flats, reads) (``product_residual``).
    A job is (sign, evals, outs, rows): its k-th term adds sign times the
    product, over the job's evaluations evals[p], of the value that entry
    rows[p][k] of evals[p] reads to the output entry outs[k], as
    ``_product_terms`` derives them.  Every job has the same number of
    factors, and a job's factors are distinct evaluations (``_parsed_jobs``);
    an evaluation may be a factor of any number of jobs.  ``jobs`` keeps
    each job's (sign, evals, rest) for ``_job_scales``.

    Only the values change from point to point, so the terms are sorted by
    output entry once.  Each (job, factor) owns a segment of the values,
    in job order, then the job's scale; ``cols[p]`` indexes the value each
    term's p-th factor reads (the last, its scale) in the concatenation of
    those segments, each entry's read folded in here; ``last`` marks each
    output entry's last term, and ``outs`` lists the distinct output
    entries' flats in ascending order.
    """

    def __init__(self, evaluations, jobs):
        self.sizes = [size for size, _, _ in evaluations]
        self.jobs = [(sign, evals, _rest(evals, len(evaluations))) for sign, evals, _, _ in jobs]
        outs = list(chain.from_iterable(job_outs for _, _, job_outs, _ in jobs))
        order = sorted(range(len(outs)), key=outs.__getitem__)
        outs = list(map(outs.__getitem__, order))
        cols, offset = [[] for _ in range(len(jobs[0][1]) + 1)], 0
        for _, evals, job_outs, rows in jobs:
            for col, e, factor_rows in zip(cols, evals, rows):
                col += map(add, map(evaluations[e][2].__getitem__, factor_rows), repeat(offset))
                offset += self.sizes[e]
            cols[-1] += repeat(offset, len(job_outs))
            offset += 1
        self.cols = [list(map(col.__getitem__, order)) for col in cols]
        self.last = list(map(ne, outs, outs[1:])) + [True]
        self.outs = list(compress(outs, self.last))

    def sums(self, ring, evaluations) -> dict:
        """The residual's nonzero output entries {flat: int}, each times the
        product D of the dens, reduced, when evaluation e is passed as
        evaluations[e] = (nums, den), all its values as integer numerators
        over one nonzero denominator; ValueError where the sizes differ from
        the compiled ones.

        Each term is also multiplied by its job's scale, the dens of the
        evaluations it does not read (``_job_scales``), so the sums run on
        plain ints and read only the values the entries name: the running
        sum of the sorted terms, differenced at each entry's last term, is
        that entry's sum.
        """
        reduce = ring.reduce
        flat = []
        scales = _job_scales(ring, self.sizes, self.jobs, evaluations)
        for (_, evals, _), scale in zip(self.jobs, scales):
            for e in evals:
                flat += evaluations[e][0]
            flat.append(scale)
        get = flat.__getitem__
        terms = map(get, self.cols[0])
        for col in self.cols[1:]:
            terms = map(mul, terms, map(get, col))
        ends = list(compress(accumulate(terms), self.last))
        return {out: v for out, v in zip(self.outs, map(reduce, map(sub, ends, [0] + ends[:-1])))
                if v}

    def is_zero(self, ring, evaluations) -> bool:
        """Whether the residual vanishes at the evaluations of ``sums``."""
        return not self.sums(ring, evaluations)


def product_residual(n, evaluations, jobs) -> Residual:
    """The compiled residual of signed products of evaluations placed in
    slots.

    Evaluation e is (size, flats, reads): it is passed as ``size`` values,
    and its k-th entry puts value reads[k] at flat flats[k].  A flat may
    repeat and a value may be read by several entries; the evaluation's
    value at a flat is the sum of its entries' values.  A table's rows are
    entries that read its group prices; ``flat_entries`` gives one entry
    per distinct flat.

    Each job is (sign, a, sa, b, sb, ...): distinct evaluation indices,
    each followed by the slots it occupies, a tuple: (1, 2) places r as
    r^12, (2, 1) as flip(r), (1, 2, 3) is a triple tensor and () a scalar.
    The residual has as many slots as the highest one occupied, and every
    job must occupy every one of them (``_parsed_jobs``).
    """
    return Residual(evaluations, [
        (sign, evals, *_product_terms(n, [(evaluations[e][1], s) for e, s in zip(evals, specs)]))
        for sign, evals, specs in _parsed_jobs(jobs)])


def _parsed_jobs(jobs):
    """[(sign, evals, specs)] of jobs (sign, a, sa, b, sb, ...): each job's
    evaluations and their slots.  A ValueError where a job leaves one of the
    slots up to the highest one occupied empty, reads one evaluation twice,
    or has another number of factors than the first job.
    """
    width = max((s for job in jobs for slots in job[2::2] for s in slots), default=0)
    parsed = []
    for sign, *factors in jobs:
        evals, specs = tuple(factors[0::2]), factors[1::2]
        if set(chain.from_iterable(specs)) != set(range(1, width + 1)):
            raise ValueError("job %r leaves one of %d slots unoccupied"
                             % ((sign, *factors), width))
        if len(set(evals)) != len(evals):
            raise ValueError("a job's factors must be distinct evaluations")
        if len(evals) != len(parsed[0][1] if parsed else evals):
            raise ValueError("every job must have the same number of factors")
        parsed.append((sign, evals, specs))
    return parsed


class ProjectedResidual:
    """One random linear form of a residual, compiled once from the entries
    of its evaluations: output entry (d_1, ..., d_2w) of a residual with w
    slots weighs weights[0][d_1] ... weights[2w - 1][d_2w].

    A digit of a factor's entry that meets another factor's (``_digit_roles``)
    is summed over, not weighed, so each entry of a factor compiles to a
    key, its flat's summed digits, and a weight, the product of its other
    digits' (``_keyed``).  At a point the values of every evaluation are
    laid end to end, each once, then one 0, and every factor of every job
    owns a segment of one list over them: each entry's value (``gather``,
    its index there) and weight (``weights``), sorted by key, and whether
    it is its key's last (``ends``), with one entry reading the trailing 0
    at each key the factor has no entry at.  One gather-multiply-running-
    sum pass, differenced at the key ends, gives every factor's weighted
    sums densely, at all n^L keys of its L labels.  A job is (sign, evals,
    rest, segments), ``rest`` the evaluations it does not read
    (``_job_scales``): for one or two factors, which share all their
    labels, ``segments`` are slices of those sums that line up key by key,
    and the job is their dot product; a triple is sum_a sum_b X[a][b]
    (Y[a] . Z[b]), its ``segments`` each factor's sums as an index matrix
    (``_plan``).  No term of the residual is formed.

    The form is a polynomial of degree 2w in the weights, and distinct output
    entries weigh distinct monomials, so where the residual does not vanish,
    weights drawn uniformly from a set S make the form vanish with chance at
    most 2w/|S| (Schwartz-Zippel).
    """

    def __init__(self, sizes, jobs, gather, weights, ends):
        self.sizes, self.jobs = list(sizes), jobs
        self.gather, self.weights, self.ends = gather, weights, ends

    def _total(self, ring, evaluations):
        """The form's value times the product D of the evaluations' dens, as
        an unreduced int: each job scaled by the dens it does not read."""
        reduce = ring.reduce
        scales = _job_scales(ring, self.sizes, self.jobs, evaluations)
        values = list(chain.from_iterable(nums for nums, _ in evaluations))
        values.append(0)
        ends = list(compress(accumulate(map(mul, map(values.__getitem__, self.gather),
                                            self.weights)), self.ends))
        sums = list(map(reduce, map(sub, ends, chain((0,), ends))))
        total = 0
        for (_, evals, _, segments), scale in zip(self.jobs, scales):
            if len(evals) == 3:
                x, y, z = ([list(map(sums.__getitem__, row)) for row in grid] for grid in segments)
                total += scale * sum(sum(map(mul, xa, [sum(map(mul, ya, zb)) for zb in z]))
                                     for xa, ya in zip(x, y))
            else:
                segments = [sums[span] for span in segments]
                total += scale * sum(map(mul, *segments) if segments[1:] else segments[0])
        return total

    def is_zero(self, ring, evaluations) -> bool:
        """Whether the form vanishes when evaluation e is evaluations[e] =
        (nums, den), as for ``Residual.sums``; ValueError where the sizes
        differ from the compiled ones."""
        return not ring.reduce(self._total(ring, evaluations))

    def value(self, ring, evaluations):
        """The form's value at the evaluations, as a field element."""
        den = 1
        for _, d in evaluations:
            den = ring.reduce(den * d)
        return ring.box(ring.reduce(self._total(ring, evaluations))) / ring.box(den)


#: entries kept per process by each bounded memo of the sampled checks: the
#: compile plans here (``_plan``) and ``trig``'s point sets (``_points``),
#: weight sets (``_weights``) and residue points (``_residue_point``, one per
#: ring and n).  One ``ybx suite --points 25`` run on one field uses 8
#: plans, 12 point sets in q (11 in GF(2^61 - 1)), 8 weight sets and 4
#: residue points, and its mutated run no more; one repetition of the
#: ``aybe-fp`` benchmark uses 8, 8, 8 and none, so none is evicted
#: (``cache_info``).
_CHECK_MEMO = 32


@lru_cache(maxsize=_CHECK_MEMO)
def _plan(ring, n, jobs, weights):
    """What ``projected_residual`` compiles that no table decides: per job,
    (sign, evals, factors, segments), each factor (roles, size, key_of,
    weight_of): its digits' ``_digit_roles``, each label renumbered by its
    rank k among the factor's own, so a key holds digit d of it as d * n^k
    and is the key's place among all ``size`` = n^L; and two maps, from
    each flat of it seen so far to that flat's key and reduced weight
    (``_keyed``).  ``segments`` place each factor's key sums among every
    factor's: a slice each for one or two factors, and for a triple each
    factor's places as a matrix (``_grid``), by the labels it shares with
    the first and the second of the other two.  More factors: ValueError.

    The maps start empty and grow as compiles meet new flats, so they hold
    the flats the structures of one n actually put there, not all n^4 or
    n^6; every compile of the same jobs and weights in one ring shares them.
    """
    plans, start = [], 0
    for sign, evals, specs in _parsed_jobs(jobs):
        if len(evals) > 3:
            raise ValueError("a projected job has at most three factors")
        roles = _digit_roles(specs)
        owned = [sorted(label for label, _ in mine if label is not None) for mine in roles]
        starts = list(accumulate((n ** len(own) for own in owned), initial=start))
        if len(evals) == 3:
            segments = [_grid(n, own, at, *(sorted(set(own).intersection(other))
                                            for other in owned if other is not own))
                        for own, at in zip(owned, starts)]
        else:
            segments = list(map(slice, starts, starts[1:]))
        factors = [([(None if label is None else own.index(label), out) for label, out in mine],
                    n ** len(own), {}, {}) for mine, own in zip(roles, owned)]
        plans.append((sign, evals, factors, segments))
        start = starts[-1]
    return plans


def _grid(n, own, start, rows, cols):
    """The places of a factor's key sums, from ``start`` on, as a matrix
    over the assignments of its labels ``rows`` and ``cols``, the factor's
    key holding digit d of the k-th of its sorted labels ``own`` as d * n^k."""
    rows, cols = ([sum(map(mul, digits, [n ** own.index(label) for label in labels]))
                   for digits in product(range(n), repeat=len(labels))] for labels in (rows, cols))
    return [[start + a + b for b in cols] for a in rows]


def projected_residual(ring, n, evaluations, jobs, weights) -> ProjectedResidual:
    """The ``ProjectedResidual`` of the evaluations and jobs of
    ``product_residual``, with raw int weights of ``ring``, one vector of n
    per output digit: one flat program, whose every point costs one
    gather-multiply-running-sum pass over all its factors' entries and,
    per job, one contraction of its factors' dense key sums.

    Each flat's key and reduced weight come from the per-process ``_plan``
    of (ring, n, jobs, weights), computed the first time any compile meets
    that flat; the compile only gathers them, pads each factor's missing
    keys and sorts its entries by key.
    """
    reduce = ring.reduce
    weights = tuple(map(tuple, weights))
    offsets = list(accumulate((size for size, _, _ in evaluations), initial=0))
    gather, weighed, ends, compiled = [], [], [], []
    for sign, evals, factors, segments in _plan(ring, n, tuple(jobs), weights):
        for e, (roles, size, key_of, weight_of) in zip(evals, factors):
            _, flats, reads = evaluations[e]
            try:
                keys = list(map(key_of.__getitem__, flats))
            except KeyError:  # flats that no compile of this plan has met
                new = list(set(flats).difference(key_of))
                keys, wts, _ = _keyed(n, new, roles, weights, mul, 1)
                key_of.update(zip(new, keys))
                weight_of.update(zip(new, map(reduce, wts)))
                keys = list(map(key_of.__getitem__, flats))
            missing = set(range(size)).difference(keys)
            at = [*map(add, reads, repeat(offsets[e])), *repeat(offsets[-1], len(missing))]
            wts = [*map(weight_of.__getitem__, flats), *repeat(1, len(missing))]
            keys += missing
            order = sorted(range(len(keys)), key=keys.__getitem__)
            keys = list(map(keys.__getitem__, order))
            gather += map(at.__getitem__, order)
            weighed += map(wts.__getitem__, order)
            ends += map(ne, keys, keys[1:] + [None])
        compiled.append((sign, evals, _rest(evals, len(evaluations)), segments))
    return ProjectedResidual([size for size, _, _ in evaluations], compiled, gather, weighed,
                             ends)


def flat_entries(flats):
    """The (size, flats, reads) of ``product_residual`` for an evaluation
    valued at each of the distinct ``flats`` in turn: entry i reads value i."""
    return len(flats), flats, range(len(flats))


def _key_rows(n, groups, owned):
    """Each assignment of a product's labels, numbered 0, 1, ..., as the
    entries of every factor at it: ``groups[p]`` maps factor p's keys to its
    entries, a key holding digit d of label L as d * n^L, and factor p owns
    the labels ``owned[p]``.  A walk over all n^m assignments of the m
    labels, kept for the exact products, whose reference tensors are sparse."""
    for digits in product(range(n), repeat=len(set(chain.from_iterable(owned)))):
        yield [group.get(sum(digits[label] * n ** label for label in mine), ())
               for group, mine in zip(groups, owned)]


def _products(cls, *products) -> _SparseTensor:
    """The ``cls`` tensor summing signed products a . b, each given as
    (sign, a, sa, b, sb) with the slots each factor occupies: the exact
    ``Residual`` of one evaluation per factor (``flat_entries`` of its flats,
    its values cleared of denominators by ``integral``), its ``sums`` boxed
    over the product D of the dens."""
    n, ring = products[0][1].n, products[0][1].ring
    factors = [t for _, a, _, b, _ in products for t in (a, b)]
    program = product_residual(n, [flat_entries(list(t.data)) for t in factors],
                               [(sign, 2 * k, sa, 2 * k + 1, sb)
                                for k, (sign, _, sa, _, sb) in enumerate(products)])
    evaluations = [ring.integral(t.data.values()) for t in factors]
    den = prod(d for _, d in evaluations)
    return cls(n, ring, ring.box_nonzero(program.sums(ring, evaluations), den))


def sl_image(n, data):
    """n^2 (pr (x) pr)(X), pr(X) = X - (tr X / n) 1, of the pair tensor X
    given as {flat: value}, as its nonzero entries: n^2 X - n (1 (x) tr1 X)
    - n (tr2 X (x) 1) + (tr (x) tr)(X) (1 (x) 1).  A factor's flat part x is
    e_ii's exactly when x % (n + 1) == 0; tr1 traces the first factor, keyed
    by the second's part, and tr2 the reverse.  Nothing is divided, so the
    values may be ints or elements of either field."""
    nn = n * n
    diag = range(0, nn, n + 1)
    image = {f: nn * v for f, v in data.items()}
    tr1, tr2 = {}, {}
    for f, v in data.items():
        a, b = divmod(f, nn)
        if a % (n + 1) == 0:
            tr1[b] = tr1.get(b, 0) + v
        if b % (n + 1) == 0:
            tr2[a] = tr2.get(a, 0) + v
    full = sum(tr1.get(d, 0) for d in diag)
    corrections = [(d * nn + b, -n * t) for b, t in tr1.items() for d in diag]
    corrections += [(a * nn + d, -n * t) for a, t in tr2.items() for d in diag]
    corrections += [(d * nn + e, full) for d in diag for e in diag]
    for f, c in corrections:
        image[f] = image.get(f, 0) + c
    return {f: c for f, c in image.items() if c}


_SLOTS = {12: (1, 2), 13: (1, 3), 23: (2, 3)}


def pair_embed_product(a: Tensor2, sa: int, b: Tensor2, sb: int) -> Tensor3:
    """a^sa . b^sb for distinct slots 12, 13 and 23; equals
    embed_triple(a, sa) * embed_triple(b, sb)."""
    if sa == sb or sa not in _SLOTS or sb not in _SLOTS:
        raise ValueError("unsupported slot pair (%r, %r)" % (sa, sb))
    return _products(Tensor3, (1, a, _SLOTS[sa], b, _SLOTS[sb]))


def aybe_combine(r_a, r_b, r_c, r_d, r_e, r_f) -> Tensor3:
    """r_a^12 r_b^13 - r_c^23 r_d^12 + r_e^13 r_f^23 for six evaluated tensors
    (the triple-space product being the componentwise algebra product)."""
    return _products(Tensor3, (1, r_a, (1, 2), r_b, (1, 3)), (-1, r_c, (2, 3), r_d, (1, 2)),
                     (1, r_e, (1, 3), r_f, (2, 3)))


def cybe_residual(x: Tensor2, y: Tensor2, z: Tensor2) -> Tensor3:
    """[x^12, y^13] + [x^12, z^23] + [y^13, z^23]."""
    return _products(Tensor3, (1, x, (1, 2), y, (1, 3)), (-1, y, (1, 3), x, (1, 2)),
                     (1, x, (1, 2), z, (2, 3)), (-1, z, (2, 3), x, (1, 2)),
                     (1, y, (1, 3), z, (2, 3)), (-1, z, (2, 3), y, (1, 3)))


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
