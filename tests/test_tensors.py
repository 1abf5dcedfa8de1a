import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybx.catalog import corpus
from ybx.scalars import RATIONAL, derive_rng
from ybx.tensors import (
    Tensor2,
    Tensor3,
    aybe_combine,
    cybe_residual,
    embed_triple,
    exact_determinant,
    flat_entries,
    kron2,
    matrix_inverse,
    pair_embed_product,
    product_residual,
    projected_residual,
    transposition_p,
)
from ybx.trig import TrigSolution, _pole_free


def random_tensor(n, field, rng, density=0.3):
    t = Tensor2(n, field)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if rng.random() < density:
                        t[i, j, k, l] = field.of_int(rng.randrange(-4, 5))
    return t


def test_p_is_unit_square(field):
    for n in range(1, 6):
        p = transposition_p(n, field)
        assert p * p == Tensor2.unit(n, field)


def test_p_n1_is_unit(field):
    assert transposition_p(1, field) == Tensor2.unit(1, field)


def test_p_swaps_basis_vectors(field):
    # P(x (x) y) = y (x) x on all basis pairs for n = 3: as matrices, the
    # reshaped P maps column-index (k,l) pairs to (l,k)
    n = 3
    p = transposition_p(n, field)
    for a in range(n):
        for b in range(n):
            # P . (e_a (x) e_b) where vectors embed as columns: entry check
            # P[i,j,k,l] nonzero iff j=l... use operator action on e_aj (x) e_bl
            assert p[a, b, b, a] == field.one


def test_unit_is_neutral(field):
    rng = derive_rng(1, "tensor-unit")
    t = random_tensor(3, field, rng)
    one = Tensor2.unit(3, field)
    assert one * t == t
    assert t * one == t


def test_matrix_units_multiply(field):
    e01_e00 = Tensor2.basis(2, field, 0, 1, 0, 0)
    e10_e00 = Tensor2.basis(2, field, 1, 0, 0, 0)
    assert e01_e00 * e10_e00 == Tensor2.basis(2, field, 0, 0, 0, 0)


def test_product_associative(field):
    rng = derive_rng(2, "tensor-assoc")
    a = random_tensor(2, field, rng)
    b = random_tensor(2, field, rng)
    c = random_tensor(2, field, rng)
    assert (a * b) * c == a * (b * c)


def test_conjugation_by_p_is_flip(field):
    rng = derive_rng(3, "tensor-flip")
    for n in range(2, 6):
        t = random_tensor(n, field, rng, density=0.2)
        p = transposition_p(n, field)
        assert p * t * p == t.flip()


def test_flip_of_p(field):
    assert transposition_p(4, field).flip() == transposition_p(4, field)


def test_transpose_basis(field):
    t = Tensor2.basis(3, field, 0, 1, 2, 0)
    assert t.transpose() == Tensor2.basis(3, field, 1, 0, 0, 2)


def test_flip_transpose_involutions_commute(field):
    rng = derive_rng(4, "tensor-inv")
    t = random_tensor(3, field, rng)
    assert t.flip().flip() == t
    assert t.transpose().transpose() == t
    assert t.flip().transpose() == t.transpose().flip()


def test_transpose_antihomomorphism_on_monomials(field):
    # transpose(a.b) = transpose(a).transpose(b): factorwise transposes
    # reverse order inside each slot, and the componentwise product keeps
    # slot order, so on the tensor square the map is a homomorphism... it is
    # an antihomomorphism slotwise: check on monomial tensors.
    a = Tensor2.basis(2, field, 0, 1, 1, 0)
    b = Tensor2.basis(2, field, 1, 0, 0, 1)
    lhs = (a * b).transpose()
    rhs = b.transpose() * a.transpose()
    assert lhs == rhs


def test_projection_kills_unit(field):
    assert Tensor2.unit(3, field).project_sl().is_zero()


def test_projection_idempotent(field):
    rng = derive_rng(5, "tensor-proj")
    t = random_tensor(3, field, rng)
    assert t.project_sl().project_sl() == t.project_sl()


def test_embed_unit(field):
    assert embed_triple(Tensor2.unit(2, field), 12) == Tensor3.unit(2, field)
    assert embed_triple(Tensor2.unit(2, field), 13) == Tensor3.unit(2, field)
    assert embed_triple(Tensor2.unit(2, field), 23) == Tensor3.unit(2, field)
    with pytest.raises(ValueError):
        embed_triple(Tensor2.unit(2, field), 21)


def test_p13_p12_identity(field):
    # P^13 P^12 = P^12 P^23 as Tensor3 equality
    for n in (2, 3):
        p = transposition_p(n, field)
        p12 = embed_triple(p, 12)
        p13 = embed_triple(p, 13)
        p23 = embed_triple(p, 23)
        assert p13 * p12 == p12 * p23
        assert p13 * p23 == p12 * p13


def test_p_conjugation_acts_as_transposition_exhaustive(field):
    # conjugating by P^{ij} permutes the tensor slots; exhaustive on basis
    # tensors for n = 2
    n = 2
    p = transposition_p(n, field)
    embeds = {12: embed_triple(p, 12), 13: embed_triple(p, 13), 23: embed_triple(p, 23)}

    def slots(i, j, k, l, pp, q, which):
        pairs = [(i, j), (k, l), (pp, q)]
        if which == 12:
            pairs[0], pairs[1] = pairs[1], pairs[0]
        elif which == 13:
            pairs[0], pairs[2] = pairs[2], pairs[0]
        else:
            pairs[1], pairs[2] = pairs[2], pairs[1]
        return pairs

    for which, pt in embeds.items():
        for idx in itertools.product(range(n), repeat=6):
            t = Tensor3(n, field)
            t[idx] = field.one
            conj = pt * t * pt
            expected = Tensor3(n, field)
            (a, b), (c, d), (e, f) = slots(*idx, which)
            expected[a, b, c, d, e, f] = field.one
            assert conj == expected


def test_aybe_combine_constant_unit(field):
    one = Tensor2.unit(2, field)
    assert aybe_combine(one, one, one, one, one, one) == Tensor3.unit(2, field)


def test_pair_embed_product_equals_general_route(field):
    # the collapsed contraction must agree with the componentwise triple
    # product of the identity-padded tensors, for every ordered slot pair
    rng = derive_rng(8, "pair-embed", field.name)
    for n in (2, 3):
        for sa, sb in ((12, 13), (13, 12), (12, 23), (23, 12), (13, 23), (23, 13)):
            a = random_tensor(n, field, rng, density=0.4)
            b = random_tensor(n, field, rng, density=0.4)
            fast = pair_embed_product(a, sa, b, sb)
            general = embed_triple(a, sa) * embed_triple(b, sb)
            assert fast == general, (n, sa, sb)
    with pytest.raises(ValueError):
        pair_embed_product(a, 12, b, 12)


def test_aybe_combine_equals_general_route(field):
    rng = derive_rng(9, "combine-gen", field.name)
    ts = [random_tensor(2, field, rng, density=0.5) for _ in range(6)]
    fast = aybe_combine(*ts)
    general = (
        embed_triple(ts[0], 12) * embed_triple(ts[1], 13)
        - embed_triple(ts[2], 23) * embed_triple(ts[3], 12)
        + embed_triple(ts[4], 13) * embed_triple(ts[5], 23)
    )
    assert fast == general


def test_cybe_residual_equals_general_route(field):
    rng = derive_rng(10, "cybe-gen", field.name)
    x = random_tensor(2, field, rng, density=0.5)
    y = random_tensor(2, field, rng, density=0.5)
    z = random_tensor(2, field, rng, density=0.5)
    x12, y13, z23 = embed_triple(x, 12), embed_triple(y, 13), embed_triple(z, 23)
    general = (
        (x12 * y13 - y13 * x12)
        + (x12 * z23 - z23 * x12)
        + (y13 * z23 - z23 * y13)
    )
    assert cybe_residual(x, y, z) == general


def test_tensor_rank_unit_and_p(field):
    # under the (i,j) x (k,l) reshaping the algebra unit is an honest
    # rank-one tensor for n >= 2; only at n = 1 is it invertible
    det, inv = Tensor2.unit(1, field).tensor_rank()
    assert inv and det == field.one
    det, inv = Tensor2.unit(3, field).tensor_rank()
    assert not inv
    det, inv = transposition_p(3, field).tensor_rank()
    assert inv and det in (field.one, -field.one)
    det, inv = Tensor2(3, field).tensor_rank()
    assert not inv and det == field.zero


def test_tensor_rank_flip_invariance(field):
    rng = derive_rng(6, "tensor-rank")
    for _ in range(5):
        t = random_tensor(3, field, rng)
        d1, i1 = t.tensor_rank()
        d2, i2 = t.flip().tensor_rank()
        assert i1 == i2
        assert d1 in (d2, -d2)


def test_determinant_rational_bareiss():
    m = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(1, 5), Fraction(1, 7)],
    ]
    assert exact_determinant(m, RATIONAL) == Fraction(1, 14) - Fraction(1, 15)


def test_determinant_fp_matches_rational(fp):
    rng = derive_rng(7, "det-cross")
    for _ in range(10):
        size = rng.randrange(1, 5)
        entries = [[rng.randrange(-9, 10) for _ in range(size)] for _ in range(size)]
        dq = exact_determinant([[Fraction(x) for x in row] for row in entries], RATIONAL)
        dp = exact_determinant([[fp.of_int(x) for x in row] for row in entries], fp)
        assert fp.of_fraction(dq) == dp


def test_matrix_inverse(field):
    m = [[field.of_int(2), field.of_int(1)], [field.of_int(1), field.of_int(1)]]
    inv = matrix_inverse(m, field)
    prod = [
        [sum((m[i][k] * inv[k][j] for k in range(2)), field.zero) for j in range(2)]
        for i in range(2)
    ]
    assert prod[0][0] == field.one and prod[1][1] == field.one
    assert prod[0][1] == field.zero and prod[1][0] == field.zero
    with pytest.raises(ZeroDivisionError):
        matrix_inverse([[field.zero]], field)


def _leibniz(matrix, zero):
    """sum over permutations s of sign(s) * prod_i matrix[i][s(i)]."""
    m = len(matrix)
    total = zero
    for perm in itertools.permutations(range(m)):
        inversions = sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        total = total + term
    return total


# zeros force row swaps; every nonzero entry is a proper fraction
_ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.fractions(-5, 5, max_denominator=7).filter(lambda x: x.denominator > 1),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda m: st.lists(st.lists(_ENTRY, min_size=m, max_size=m), min_size=m, max_size=m)))
def test_determinant_matches_leibniz(fp, matrix):
    dq = exact_determinant(matrix, RATIONAL)
    assert dq == _leibniz(matrix, Fraction(0))
    dp = exact_determinant([[fp.of_fraction(x) for x in row] for row in matrix], fp)
    assert dp == fp.of_fraction(dq)


def _inverse_cases(field):
    """Invertible matrices of size 1..4; the second to fourth need a row swap."""
    z, i = field.zero, field.of_int
    yield [[field.of_fraction(Fraction(3, 2))]]
    yield [[z, i(1)], [i(1), z]]
    yield [[z, i(2), i(1)], [i(1), i(1), z], [i(2), z, i(3)]]
    # column 0 is fine, but eliminating it zeroes the second pivot
    yield [[i(1), i(2), z, i(1)], [i(2), i(4), i(1), z], [z, i(1), i(1), i(1)],
           [i(1), z, z, i(2)]]
    rng = derive_rng(11, "inverse", field.name)
    for size in (1, 2, 3, 4, 4, 4):
        a = [[field.of_fraction(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
              if rng.random() < 0.6 else z for _ in range(size)] for _ in range(size)]
        if exact_determinant(a, field):
            yield a


def test_matrix_inverse_is_two_sided(field):
    def mul(x, y):
        return [[sum((x[r][k] * y[k][c] for k in range(len(y))), field.zero)
                 for c in range(len(y[0]))] for r in range(len(x))]

    for a in _inverse_cases(field):
        m = len(a)
        ident = [[field.one if r == c else field.zero for c in range(m)] for r in range(m)]
        inv = matrix_inverse(a, field)
        assert mul(a, inv) == ident, a
        assert mul(inv, a) == ident, a


def _matmul(x, y, field):
    return [[sum((x[r][k] * y[k][c] for k in range(len(y))), field.zero)
             for c in range(len(y[0]))] for r in range(len(x))]


@pytest.mark.parametrize("size", [8, 12, 16])
def test_dense_fp_determinant_and_inverse(fp, size):
    # dense entries in (-p, p): every row that is not yet a pivot row collects
    # one unreduced product per pivot above it
    rng = derive_rng(size, "dense-fp")
    entries = [[rng.randrange(1 - fp.p, fp.p) for _ in range(size)] for _ in range(size)]
    a = [[fp.of_int(x) for x in row] for row in entries]
    dq = exact_determinant([[Fraction(x) for x in row] for row in entries], RATIONAL)
    assert exact_determinant(a, fp) == fp.of_fraction(dq) != fp.zero
    ident = [[fp.one if r == c else fp.zero for c in range(size)] for r in range(size)]
    inv = matrix_inverse(a, fp)
    assert _matmul(a, inv, fp) == ident
    assert _matmul(inv, a, fp) == ident
    # the last row made the sum of the first two: zero only after reduction
    entries[-1] = [x + y for x, y in zip(entries[0], entries[1])]
    a = [[fp.of_int(x) for x in row] for row in entries]
    assert exact_determinant(a, fp) == fp.zero
    with pytest.raises(ZeroDivisionError):
        matrix_inverse(a, fp)


@pytest.mark.parametrize("entries, det", [
    ([], 1),
    ([[1, 2], [2, 4]], 0),
    ([[2, 1], [1, 1]], 1),
], ids=["empty", "singular", "regular"])
def test_determinant_is_a_field_element(field, entries, det):
    got = exact_determinant([[field.of_int(x) for x in row] for row in entries], field)
    assert type(got) is type(field.one)
    assert got == field.of_int(det)


def test_kron2(field):
    phi = [[field.of_int(1), field.of_int(2)], [field.zero, field.of_int(1)]]
    t = kron2(phi, phi, field)
    assert t[0, 1, 0, 1] == field.of_int(4)
    assert t[0, 0, 1, 1] == field.one


def test_sparse_json(field):
    t = Tensor2.basis(2, field, 0, 1, 1, 0)
    js = t.to_sparse_json()
    assert js == [{"i": 0, "j": 1, "k": 1, "l": 0, "c": js[0]["c"]}]


# -- the sparse representation against a dense componentwise reference ---------


def _entries(n, slots):
    """Random entries, zeros included, keyed by index tuple."""
    index = st.tuples(*[st.integers(0, n - 1)] * slots)
    return st.dictionaries(index, st.integers(-3, 3), max_size=2 * n ** 2)


def _build(cls, n, field, entries):
    t = cls(n, field)
    for idx, v in entries.items():
        t[idx] = field.of_int(v)
    return t


def _dense(t, slots):
    """Every entry of t, zeros included, keyed by index tuple."""
    return {idx: t[idx] for idx in itertools.product(range(t.n), repeat=slots)}


def _dense_mul2(a, b, n, field):
    # (a b)[i,j,k,l] = sum_{x,y} a[i,x,k,y] b[x,j,y,l]
    out = {}
    for i, j, k, l in itertools.product(range(n), repeat=4):
        acc = field.zero
        for x, y in itertools.product(range(n), repeat=2):
            acc = acc + a[i, x, k, y] * b[x, j, y, l]
        out[i, j, k, l] = acc
    return out


def _dense_project_sl(da, n, field):
    # (pr (x) pr) t = t - 1/n (x) tr_1 t - tr_2 t (x) 1/n + tr t (1 (x) 1)/n^2
    inv_n = field.one / field.of_int(n)
    tr1 = {(k, l): sum((da[x, x, k, l] for x in range(n)), field.zero)
           for k, l in itertools.product(range(n), repeat=2)}
    tr2 = {(i, j): sum((da[i, j, y, y] for y in range(n)), field.zero)
           for i, j in itertools.product(range(n), repeat=2)}
    full = sum((tr1[y, y] for y in range(n)), field.zero)
    return {(i, j, k, l): v - (i == j) * inv_n * tr1[k, l] - (k == l) * inv_n * tr2[i, j]
            + (i == j and k == l) * inv_n * inv_n * full
            for (i, j, k, l), v in da.items()}


def _stores_no_zero(t):
    return all(v for _, v in t.items())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sparse_tensor2_matches_dense_reference(field, data):
    n = data.draw(st.sampled_from((2, 3)))
    a = _build(Tensor2, n, field, data.draw(_entries(n, 4)))
    b = _build(Tensor2, n, field, data.draw(_entries(n, 4)))
    c = field.of_int(data.draw(st.integers(-3, 3)))
    da, db = _dense(a, 4), _dense(b, 4)
    rotated = {(i, j, k, l): da[l, i, j, k] for i, j, k, l in da}
    cases = {
        "+": (a + b, {idx: da[idx] + db[idx] for idx in da}),
        "-": (a - b, {idx: da[idx] - db[idx] for idx in da}),
        "scale": (a.scale(c), {idx: c * da[idx] for idx in da}),
        "flip": (a.flip(), {(i, j, k, l): da[k, l, i, j] for i, j, k, l in da}),
        "transpose": (a.transpose(), {(i, j, k, l): da[j, i, l, k] for i, j, k, l in da}),
        "transpose_p": (a.transpose_p(), rotated),
        "transpose * P": (a.transpose() * transposition_p(n, field), rotated),
        "*": (a * b, _dense_mul2(a, b, n, field)),
        "project_sl": (a.project_sl(), _dense_project_sl(da, n, field)),
    }
    for name, (got, want) in cases.items():
        assert _dense(got, 4) == want, name
        assert _stores_no_zero(got), name
        assert got.nnz() == sum(1 for v in want.values() if v), name


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_sparse_tensor3_matches_dense_reference(field, data):
    n = 2
    a = _build(Tensor3, n, field, data.draw(_entries(n, 6)))
    b = _build(Tensor3, n, field, data.draw(_entries(n, 6)))
    da, db = _dense(a, 6), _dense(b, 6)
    want = {}
    for i, j, k, l, p, q in da:
        acc = field.zero
        for x, y, z in itertools.product(range(n), repeat=3):
            acc = acc + a[i, x, k, y, p, z] * b[x, j, y, l, z, q]
        want[i, j, k, l, p, q] = acc
    assert _dense(a * b, 6) == want
    assert _dense(a - b, 6) == {idx: da[idx] - db[idx] for idx in da}
    assert _stores_no_zero(a * b) and _stores_no_zero(a - b)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_cancelling_sum_is_zero(field, data):
    n = data.draw(st.sampled_from((2, 3)))
    a = _build(Tensor2, n, field, data.draw(_entries(n, 4)))
    b = _build(Tensor2, n, field, data.draw(_entries(n, 4)))
    for zero in (a + (-a), a - a, a.scale(field.zero), (a + b) - b - a):
        assert zero.is_zero()
        assert zero == Tensor2(n, field)
        assert zero.nnz() == 0
    for idx, _ in list(a.items()):
        a[idx] = field.zero
    assert a.is_zero() and a == Tensor2(n, field)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_items_ascending_flat_order(field, data):
    n = data.draw(st.sampled_from((2, 3)))
    for cls, slots in ((Tensor2, 4), (Tensor3, 6)):
        t = _build(cls, n, field, data.draw(_entries(n, slots)))
        flats = []
        for idx, _ in t.items():
            f = 0
            for x in idx:
                f = f * n + x
            flats.append(f)
        assert flats == sorted(set(flats))
        assert len(flats) == t.nnz()


# -- contractions over mixed denominators against a Fraction reference ----------

_SLOT_PAIRS = (((1, 2), (1, 3)), ((1, 3), (1, 2)), ((1, 2), (2, 3)), ((2, 3), (1, 2)),
               ((1, 3), (2, 3)), ((2, 3), (1, 3)))


def _sources(n):
    """Entries as Fractions: an empty side, integers only, or mixed denominators."""
    index = st.tuples(*[st.integers(0, n - 1)] * 4)
    integers = st.integers(-5, 5).map(Fraction)
    mixed = st.fractions(-8, 8, max_denominator=12)
    return st.one_of(st.just({}),
                     st.dictionaries(index, integers, max_size=2 * n ** 2),
                     st.dictionaries(index, mixed, max_size=2 * n ** 2))


def _tensor(src, n, field):
    return Tensor2(n, field, {((i * n + j) * n + k) * n + l: w
                              for (i, j, k, l), v in src.items()
                              if (w := field.of_fraction(v))})


def _embed_ref(src, slot, n):
    """The identity-padded triple tensor of ``src``, entry by entry."""
    out = {}
    for (i, j, k, l), v in src.items():
        for d in range(n):
            out[{(1, 2): (i, j, k, l, d, d), (1, 3): (i, j, d, d, k, l),
                 (2, 3): (d, d, i, j, k, l)}[slot]] = v
    return out


def _reference(n, *terms):
    """sum of sign * a^sa b^sb over (sign, a, sa, b, sb) with Fraction sources,
    as {6-index: Fraction}: X[i,x,k,y,p,z] Y[x,j,y,l,z,q] lands at (i,j,k,l,p,q)."""
    out = {}
    for sign, a, sa, b, sb in terms:
        rows = {}
        for idx, w in _embed_ref(b, sb, n).items():
            rows.setdefault(idx[0::2], []).append((idx[1::2], w))
        for (i, x, k, y, p, z), v in _embed_ref(a, sa, n).items():
            for (j, l, q), w in rows.get((x, y, z), ()):
                key = (i, j, k, l, p, q)
                out[key] = out.get(key, 0) + sign * v * w
    return out


def _assert_matches_reference(got, want, field):
    want = {idx: w for idx, v in want.items() if (w := field.of_fraction(v))}
    assert dict(got.items()) == want
    for v in got.data.values():
        if field is RATIONAL:
            assert type(v) is Fraction and v.denominator > 0
            assert math.gcd(v.numerator, v.denominator) == 1
        else:
            assert type(v) is type(field.one) and 0 < v.v < field.p


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_contractions_match_fraction_reference(field, data):
    n = data.draw(st.sampled_from((1, 2, 3)))
    srcs = [data.draw(_sources(n)) for _ in range(6)]
    a, b, c, d, e, f = [_tensor(s, n, field) for s in srcs]
    sa, sb = data.draw(st.sampled_from(_SLOT_PAIRS))
    _assert_matches_reference(pair_embed_product(a, 10 * sa[0] + sa[1], b, 10 * sb[0] + sb[1]),
                              _reference(n, (1, srcs[0], sa, srcs[1], sb)), field)
    _assert_matches_reference(aybe_combine(a, b, c, d, e, f), _reference(
        n, (1, srcs[0], (1, 2), srcs[1], (1, 3)), (-1, srcs[2], (2, 3), srcs[3], (1, 2)),
        (1, srcs[4], (1, 3), srcs[5], (2, 3))), field)
    x, y, z = srcs[:3]
    _assert_matches_reference(cybe_residual(a, b, c), _reference(
        n, (1, x, (1, 2), y, (1, 3)), (-1, y, (1, 3), x, (1, 2)), (1, x, (1, 2), z, (2, 3)),
        (-1, z, (2, 3), x, (1, 2)), (1, y, (1, 3), z, (2, 3)), (-1, z, (2, 3), y, (1, 3))), field)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_corrupted_aybe_leaves_the_reference_residual(field, data):
    # r at honest points has AYBE residual zero; one corrupted coefficient
    # must leave exactly the Fraction reference's nonzero residual
    s = data.draw(st.sampled_from([s for s in corpus(3) if s.n > 1]))
    n, sol = s.n, TrigSolution(s)
    qu, qup, qv, qvp = _pole_free(
        RATIONAL, derive_rng(data.draw(st.integers(0, 10 ** 6)), "corrupt"), n, 4,
        (lambda a, b, c, d: (a * b) ** (2 * n) - 1, lambda a, b, c, d: (c * d) ** (2 * n) - 1))
    rs = [sol.eval(RATIONAL, u, v) for u, v in ((qup ** -1, qv), (qu * qup, qv * qvp),
                                                (qu * qup, qvp), (qu, qv),
                                                (qu, qv * qvp), (qup, qvp))]
    assert aybe_combine(*rs).is_zero()
    srcs = [dict(r.items()) for r in rs]
    slot = data.draw(st.tuples(*[st.integers(0, n - 1)] * 4))
    srcs[0][slot] = srcs[0].get(slot, 0) + data.draw(
        st.fractions(-8, 8, max_denominator=12).filter(bool))
    srcs[0] = {idx: v for idx, v in srcs[0].items() if v}
    want = _reference(n, (1, srcs[0], (1, 2), srcs[1], (1, 3)),
                      (-1, srcs[2], (2, 3), srcs[3], (1, 2)), (1, srcs[4], (1, 3), srcs[5], (2, 3)))
    assert any(want.values())
    got = aybe_combine(*[_tensor(src, n, field) for src in srcs])
    _assert_matches_reference(got, want, field)


# -- the compiled pair residual ----------------------------------------------------


def _evaluation(n, flats=None):
    """Rows of one evaluation: flats (repeats allowed), integer numerators, a
    den; where ``flats`` is given, the flats are drawn from it and no
    numerator is 0."""
    if flats is None:
        row = st.tuples(st.integers(0, n ** 4 - 1), st.integers(-4, 4))
    else:
        row = st.tuples(st.sampled_from(flats), st.integers(-4, 4).filter(bool))
    return st.tuples(st.lists(row, min_size=1, max_size=8), st.integers(1, 5))


def _as_source(n, rows, den):
    """The evaluation summed per entry, as {index tuple: Fraction}."""
    out = {}
    for f, v in rows:
        idx = (f // n ** 3, f // n ** 2 % n, f // n % n, f % n)
        out[idx] = out.get(idx, 0) + Fraction(v, den)
    return {idx: v for idx, v in out.items() if v}


# the CYBE's six commutator terms over X, Y, Z, and the QYBE's two triple
# products over r12, r13, r23: jobs sharing three evaluations
_CYBE_JOBS = ((1, 0, (1, 2), 1, (1, 3)), (-1, 1, (1, 3), 0, (1, 2)),
              (1, 0, (1, 2), 2, (2, 3)), (-1, 2, (2, 3), 0, (1, 2)),
              (1, 1, (1, 3), 2, (2, 3)), (-1, 2, (2, 3), 1, (1, 3)))
_QYBE_JOBS = ((1, 0, (1, 2), 1, (1, 3), 2, (2, 3)), (-1, 2, (2, 3), 1, (1, 3), 0, (1, 2)))


def _job(sign, evals, slots):
    """(sign, a, sa, b, sb[, c, sc]) from the evaluation indices and slots."""
    return (sign,) + tuple(itertools.chain.from_iterable(zip(evals, slots)))


def _shared_jobs(data, n, shape, width):
    """A pool of evaluations and jobs reading it: ``shape`` over three
    evaluations half the time where n > 1 (at n = 1 the CYBE and QYBE
    shapes vanish identically), else 1-4 random jobs, each reading ``width``
    distinct evaluations of a pool of 3-4.  Every evaluation of the pool
    takes its flats from one small random set, those whose four digits lie
    in two index values, so that most products meet.  Half the time the
    pool gains a copy of itself with rescaled numerators, and every job a
    twin of the opposite sign reading the copies, so the residual cancels."""
    if n > 1 and data.draw(st.booleans()):
        m, jobs = 3, list(shape)
    else:
        m, jobs = data.draw(st.integers(3, 4)), []
        for _ in range(data.draw(st.integers(1, 4))):
            slots = data.draw(st.sampled_from(_SLOT_PAIRS))
            if width == 3:
                slots += (data.draw(st.sampled_from(((1, 2), (1, 3), (2, 3)))),)
            jobs.append(_job(data.draw(st.sampled_from((1, -1))),
                             data.draw(st.permutations(range(m)))[:width], slots))
    digits = data.draw(st.lists(st.integers(0, n - 1), min_size=min(n, 2), max_size=2,
                                unique=True))
    flats = [((i * n + j) * n + k) * n + l for i, j, k, l in itertools.product(digits, repeat=4)]
    evals = [data.draw(_evaluation(n, flats)) for _ in range(m)]
    if data.draw(st.booleans()):
        k = data.draw(st.integers(2, 3))
        evals += [([(f, k * v) for f, v in rows], k * den) for rows, den in evals]
        jobs += [_job(-job[0], [e + m for e in job[1::2]], job[2::2]) for job in jobs]
    return evals, jobs


def _compiled(n, field, evals, jobs):
    """The verdict of the residual compiled over the evaluations' flats, and
    its ``sums`` over D, the product of the dens, as a triple tensor."""
    program = product_residual(n, _row_entries(evals), jobs)
    values = [([field.reduce(v) for _, v in rows], den) for rows, den in evals]
    den = field.of_int(math.prod(d for _, d in values))
    return program.is_zero(field, values), Tensor3(
        n, field, {f: field.box(v) / den for f, v in program.sums(field, values).items()})


def _drawn_weights(data, n, field):
    """Six weight vectors of n, from an RNG seeded by a drawn int."""
    rng = derive_rng(data.draw(st.integers(0, 2 ** 32)), "weights", field.name)
    return [[field.sample_weight(rng) for _ in range(n)] for _ in range(6)]


def _weighted_sum(entries, weights, field):
    """The sum of the (index, value) ``entries`` of a residual, entry
    (d_1, ..., d_2w) weighing weights[0][d_1] ... weights[2w - 1][d_2w]."""
    total = field.zero
    for idx, v in entries:
        for ws, d in zip(weights, idx):
            v = v * field.of_int(ws[d])
        total = total + v
    return total


def _row_entries(evals):
    """The entries of each evaluation's rows: row i reads value i."""
    return [flat_entries([f for f, _ in rows]) for rows, _ in evals]


def _assert_projection_matches(data, n, field, evals, jobs, entries, verdict):
    """The projected residual of the same jobs, under drawn weights, has the
    exact residual's ``verdict``, and its value is the weighted sum of the
    reference residual's ``entries``."""
    weights = _drawn_weights(data, n, field)
    program = projected_residual(field, n, _row_entries(evals), jobs, weights)
    values = [([field.reduce(v) for _, v in rows], den) for rows, den in evals]
    assert program.value(field, values) == _weighted_sum(entries, weights, field)
    assert program.is_zero(field, values) == verdict


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_residual_is_zero_iff_the_reference_is(field, data):
    n = data.draw(st.sampled_from((1, 2, 3)))
    evals, jobs = _shared_jobs(data, n, _CYBE_JOBS, 2)
    got, sums = _compiled(n, field, evals, jobs)
    srcs = [_as_source(n, rows, den) for rows, den in evals]
    want = _reference(n, *[(sign, srcs[a], sa, srcs[b], sb) for sign, a, sa, b, sb in jobs])
    assert got == (not any(field.of_fraction(v) for v in want.values()))
    _assert_matches_reference(sums, want, field)
    _assert_projection_matches(data, n, field, evals, jobs,
                               [(idx, field.of_fraction(v)) for idx, v in want.items()], got)


def _times_embedded(x, c, sc, n):
    """The 6-index product of ``x`` and c^sc, entry by entry."""
    rows = {}
    for idx, w in _embed_ref(c, sc, n).items():
        rows.setdefault(idx[0::2], []).append((idx[1::2], w))
    out = {}
    for (i, x1, k, y1, p, z1), v in x.items():
        for (j, l, q), w in rows.get((x1, y1, z1), ()):
            key = (i, j, k, l, p, q)
            out[key] = out.get(key, 0) + v * w
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_triple_residual_is_zero_iff_the_reference_is(field, data):
    n = data.draw(st.sampled_from((1, 2, 3)))
    evals, jobs = _shared_jobs(data, n, _QYBE_JOBS, 3)
    got, sums = _compiled(n, field, evals, jobs)
    srcs = [_as_source(n, rows, den) for rows, den in evals]
    want = {}
    for sign, a, sa, b, sb, c, sc in jobs:
        term = _times_embedded(_reference(n, (sign, srcs[a], sa, srcs[b], sb)), srcs[c], sc, n)
        for idx, v in term.items():
            want[idx] = want.get(idx, 0) + v
    assert got == (not any(field.of_fraction(v) for v in want.values()))
    _assert_matches_reference(sums, want, field)
    _assert_projection_matches(data, n, field, evals, jobs,
                               [(idx, field.of_fraction(v)) for idx, v in want.items()], got)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_flip_product_terms_match_the_tensor_product(field, data):
    # the unitarity shape a . flip(b) - s c, or the skew shape flip(a) - c
    # with s = 1; c is the product itself (s = 1), a random evaluation or
    # the unit, and against the unit, half the time a = s (1 (x) 1) and
    # b = 1 (x) 1, so that the residual vanishes
    n = data.draw(st.sampled_from((1, 2, 3)))
    skew = data.draw(st.booleans())
    kind = data.draw(st.sampled_from(("product", "random", "unit")))
    s = (Fraction(1) if skew or kind == "product"
         else data.draw(st.fractions(-3, 3, max_denominator=4).filter(bool)))
    unit = Tensor2.unit(n, field)
    if kind == "unit" and data.draw(st.booleans()):
        evals = [([(f, s.numerator) for f in unit.data], s.denominator),
                 ([(f, 1) for f in unit.data], 1)]
    else:
        evals = [data.draw(_evaluation(n)) for _ in range(2)]
    a, b = (_tensor(_as_source(n, rows, den), n, field) for rows, den in evals)
    product = a.flip() if skew else a * b.flip()
    if kind == "product":
        c = product
    elif kind == "unit":
        c = unit
    else:
        c = _tensor(_as_source(n, *data.draw(_evaluation(n))), n, field)
    jobs = ([(1, 0, (2, 1)), (-1, 3, (1, 2))] if skew
            else [(1, 0, (1, 2), 1, (2, 1)), (-1, 2, (), 3, (1, 2))])
    entries = _row_entries(evals) + [flat_entries([0]), flat_entries(list(c.data))]
    program = product_residual(n, entries, jobs)
    values = ([([field.reduce(v) for _, v in rows], den) for rows, den in evals]
              + [field.integral([field.of_fraction(s)]), field.integral(c.data.values())])
    got = program.is_zero(field, values)
    assert got == (product == c.scale(field.of_fraction(s)))
    weights = _drawn_weights(data, n, field)
    projected = projected_residual(field, n, entries, jobs, weights)
    assert projected.is_zero(field, values) == got
    residual = product - c.scale(field.of_fraction(s))
    assert projected.value(field, values) == _weighted_sum(residual.items(), weights, field)


@pytest.mark.parametrize("shape, width", [(_CYBE_JOBS, 2), (_QYBE_JOBS, 3)],
                         ids=["pair", "triple"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_entries_sharing_flats_and_values_add_up(field, shape, width, data):
    # each evaluation is read off a list of values, as r is off its group
    # prices: its entries repeat flats and several read one value, and some
    # value may be read by none; the form equals the one compiled over the
    # distinct flats, each valued at its entries' sum
    n = data.draw(st.sampled_from((1, 2, 3)))
    evals, jobs = _shared_jobs(data, n, shape, width)
    priced, summed = [], []
    for rows, den in evals:
        size = data.draw(st.integers(1, len(rows) + 1))
        nums = [field.reduce(v) for v in data.draw(
            st.lists(st.integers(-4, 4), min_size=size, max_size=size))]
        flats = [f for f, _ in rows]
        reads = [data.draw(st.integers(0, size - 1)) for _ in rows]
        priced.append(((size, flats, reads), (nums, den)))
        at_flat = {}
        for f, i in zip(flats, reads):
            at_flat[f] = at_flat.get(f, 0) + nums[i]
        summed.append((flat_entries(sorted(at_flat)),
                       ([at_flat[f] for f in sorted(at_flat)], den)))
    weights = _drawn_weights(data, n, field)
    (read, read_values), (distinct, distinct_values) = [
        (projected_residual(field, n, [e for e, _ in evaluations], jobs, weights),
         [v for _, v in evaluations]) for evaluations in (priced, summed)]
    assert read.value(field, read_values) == distinct.value(field, distinct_values)
    assert read.is_zero(field, read_values) == distinct.is_zero(field, distinct_values)
    exact_read, exact_distinct = [product_residual(n, [e for e, _ in evaluations], jobs)
                                  for evaluations in (priced, summed)]
    assert exact_read.is_zero(field, read_values) == exact_distinct.is_zero(field, distinct_values)


def test_projected_residual_checks_the_size_not_the_highest_index(field):
    # an evaluation is passed as all its values, whichever its entries read:
    # the compiled length is the size given, not the highest index + 1, for
    # the projected and the exact residual alike
    evaluations, jobs = [(3, [0, 5], [0, 1])] * 2, [(1, 0, (1, 2), 1, (2, 1))]
    for program in (projected_residual(field, 2, evaluations, jobs, [[1, 2]] * 6),
                    product_residual(2, evaluations, jobs)):
        assert program.is_zero(field, [([1, 0, 7], 1), ([0, 0, 9], 1)])
        assert not program.is_zero(field, [([1, 0, 7], 1), ([1, 0, 9], 1)])
        with pytest.raises(ValueError):
            program.is_zero(field, [([1, 0], 1), ([0, 0], 1)])


@pytest.mark.parametrize("change", (-1, 1))
def test_residual_rejects_an_evaluation_of_the_wrong_length(field, change):
    # a list one entry short or long would shift every later evaluation's
    # entries; the compiled sizes catch it
    flats = [0, 5, 10, 15]
    program = product_residual(2, [flat_entries(flats)] * 3, _CYBE_JOBS)
    good = ([1, 2, 3, 4], 1)
    assert program.is_zero(field, [good] * 3) is False
    bad = ([1, 2, 3, 4, 5][:4 + change], 1)
    with pytest.raises(ValueError):
        program.is_zero(field, [bad, good, good])
    with pytest.raises(ValueError):
        program.is_zero(field, [good, good])
    rng = derive_rng(12, "weights", field.name)
    weights = [[field.sample_weight(rng) for _ in range(2)] for _ in range(6)]
    projected = projected_residual(field, 2, [flat_entries(flats)] * 3, _CYBE_JOBS, weights)
    assert projected.is_zero(field, [good] * 3) is False
    for evaluations in ([bad, good, good], [good, good]):
        with pytest.raises(ValueError):
            projected.is_zero(field, evaluations)


def test_residual_reads_only_the_values_its_entries_name(field):
    # a Point's price table holds None at the keys no table has read there;
    # each evaluation here is the first factor of some job, and the exact
    # residual reads such a table as it is, its sums those of the table
    # with those slots zero-filled
    flats = [0, 5, 10, 15]
    evaluations = [(6, flats, [0, 2, 4, 2]), (5, flats, [4, 3, 1, 0]), (4, flats, [1, 1, 2, 3])]
    program = product_residual(2, evaluations, _CYBE_JOBS)
    held = [([3, None, 7, None, field.reduce(-2), None], 2),
            ([1, 2, None, 9, 4], 5),
            ([None, 4, field.reduce(-1), 6], 3)]
    filled = [([0 if v is None else v for v in nums], den) for nums, den in held]
    sums = program.sums(field, held)
    assert sums and sums == program.sums(field, filled)


def _at(*digits):
    """The flat index at n = 2 of the entry ``digits``, most significant first."""
    return sum(d << k for k, d in enumerate(reversed(digits)))


# evaluations (size, flats, reads) and their (nums, den) for the one-pass
# layout of the projected residual, at n = 2: X's columns are all 0 and Y's
# rows all 1, so X^12 Y^13 and X^12 Z^23-type jobs keep a join where the
# other factor order has none; an evaluation with no entries, sitting
# between two with entries; values that hold None at every slot no entry
# reads, as a Point's price table does
_X = ((3, [_at(0, 0, 1, 1), _at(1, 0, 0, 1), _at(0, 0, 0, 0), _at(1, 0, 0, 1)], [0, 1, 2, 2]),
      ([3, -2, 5], 2))
_Y = ((2, [_at(1, 1, 0, 0), _at(1, 0, 1, 1)], [0, 1]), ([4, -1], 3))
_Z = ((3, [_at(0, 1, 1, 0), _at(1, 1, 1, 1), _at(0, 0, 1, 1)], [2, 0, 1]), ([1, 6, -3], 1))
_EMPTY = ((2, [], []), ([5, 7], 3))
_HELD = ((6, [_at(1, 0, 1, 0), _at(0, 1, 0, 1), _at(1, 0, 1, 0)], [4, 0, 2]),
         ([2, None, -5, None, 3, None], 4))


@pytest.mark.parametrize("shape", [_CYBE_JOBS, _QYBE_JOBS], ids=["pair", "triple"])
@pytest.mark.parametrize("evaluations, vanishes", [  # vanishes: (pair, triple)
    ((_X, _Y, _Z), (False, False)),
    ((_X, _EMPTY, _Z), (False, True)),
    ((_EMPTY, _EMPTY, _EMPTY), (True, True)),
    ((_HELD, _Y, _HELD), (False, False)),
    ((_Z, _HELD, _EMPTY), (False, True)),
], ids=["empty-join", "no-entries", "all-empty", "none-at-unread", "none-and-empty"])
def test_projected_residual_segments_match_the_exact_residual(field, shape, evaluations,
                                                              vanishes):
    # the projected program lays every evaluation's values end to end and
    # every factor's entries in one list, its key sums cut into one slice
    # per (job, factor): a job with an empty join, an evaluation with no
    # entries and values holding None where no entry reads must leave every
    # other slice where it is.  The form's value is the weighted sum of the
    # exact residual, whose verdict it shares; the triple vanishes wherever
    # one evaluation has no entries
    entries = [e for e, _ in evaluations]
    values = [([None if v is None else field.reduce(v) for v in nums], den)
              for _, (nums, den) in evaluations]
    rng = derive_rng(61, "one-pass", field.name)
    weights = [[field.sample_weight(rng) for _ in range(2)] for _ in range(6)]
    exact = product_residual(2, entries, shape)
    den = field.box(field.reduce(math.prod(d for _, d in values)))
    residual = Tensor3(2, field, {f: field.box(v) / den
                                  for f, v in exact.sums(field, values).items()})
    projected = projected_residual(field, 2, entries, shape, weights)
    assert projected.value(field, values) == _weighted_sum(residual.items(), weights, field)
    assert (projected.is_zero(field, values) == exact.is_zero(field, values)
            == vanishes[shape is _QYBE_JOBS])


def test_residual_rejects_a_job_reading_one_evaluation_twice():
    # each job is scaled by the dens of the evaluations it does not read,
    # which needs a job's factors to be distinct evaluations
    with pytest.raises(ValueError):
        product_residual(2, [flat_entries([0, 5])] * 2, [(1, 0, (1, 2), 0, (1, 3))])


_MALFORMED_JOBS = pytest.mark.parametrize("jobs", [
    [(1, 0, (1, 3))],
    [(1, 0, (), 1, (2, 3))],
    [(1, 0, (1, 2), 1, (1, 2)), (1, 0, (1, 2), 1, (2, 3))],
    [(1, 0, (1, 2), 0, (2, 1))],
    [(1, 0, (2, 1)), (1, 0, (1, 2), 1, (1, 2))],
], ids=["slot-2-empty", "slot-1-empty", "one-job-narrower", "reads-twice", "factor-counts-differ"])


@_MALFORMED_JOBS
def test_product_residual_rejects_a_malformed_job(jobs):
    # the residual has as many slots as the highest one occupied, and every
    # job fills each of them: (1, 2) . (1, 2) is a product of width 2 only;
    # a job's factors are distinct evaluations, as many as every other job's
    with pytest.raises(ValueError):
        product_residual(2, [flat_entries([0, 5])] * 2, jobs)


@_MALFORMED_JOBS
def test_projected_residual_rejects_a_malformed_job(field, jobs):
    with pytest.raises(ValueError):
        projected_residual(field, 2, [flat_entries([0, 5])] * 2, jobs, [[1, 2]] * 6)
