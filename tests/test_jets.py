from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ybx.jets import JetPrecisionError, JetRing, LaurentJet, exp_jet
from ybx.scalars import RATIONAL


def jet(lo, coeffs, hi=None):
    return LaurentJet(RATIONAL, lo, [Fraction(c) for c in coeffs], hi)


def test_exp_jet_zero_scale():
    j = exp_jet(RATIONAL, Fraction(0), 4)
    assert j.coefficient(0) == 1
    assert all(j.coefficient(k) == 0 for k in range(1, 5))


def test_exp_jet_taylor():
    j = exp_jet(RATIONAL, Fraction(1), 2)
    assert j.coefficient(0) == 1
    assert j.coefficient(1) == 1
    assert j.coefficient(2) == Fraction(1, 2)
    with pytest.raises(JetPrecisionError):
        j.coefficient(3)


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=-3, max_value=3), st.integers(min_value=1, max_value=6))
def test_exp_jet_multiplicative_inverse(s, d):
    # series-multiplication oracle: exp(su) * exp(-su) = 1 to order d
    prod = exp_jet(RATIONAL, s, d) * exp_jet(RATIONAL, -s, d)
    assert prod.coefficient(0) == 1
    assert all(prod.coefficient(k) == 0 for k in range(1, d + 1))


@pytest.mark.parametrize("d", [3, 4, 6, 9])
def test_classical_expansion(d):
    # 1/(e^u - 1) = 1/u - 1/2 + u/12 - ...
    inv = (exp_jet(RATIONAL, Fraction(1), d) - 1).inverse()
    assert inv.valuation() == -1
    assert inv.coefficient(-1) == 1
    assert inv.coefficient(0) == Fraction(-1, 2)
    assert inv.coefficient(1) == Fraction(1, 12)


def test_prime_field_jets(fp):
    j = exp_jet(fp, Fraction(1, 4), 5)
    prod = j * j.inverse()
    assert prod.coefficient(0) == fp.one
    assert all(prod.coefficient(k) == fp.zero for k in range(1, 6))


def test_division_exact_to_tracked_order():
    a = jet(-1, [2, 3, 5, 7], 3)
    b = jet(0, [1, 4, 1, 1], 4)
    q = a * b.inverse()
    back = q * b
    for e in range(-1, min(3, q.hi + 0)):
        assert back.coefficient(e) == a.coefficient(e)


def test_precision_bookkeeping_mul():
    a = jet(1, [1, 1], 3)       # u + u^2 + O(u^3)
    b = jet(-1, [1, 0, 2], 2)   # 1/u + 2u + O(u^2)
    c = a * b
    # known exactly through exponent min(3 + -1, 2 + 1) - 1 = 1
    assert c.hi == 2
    assert c.coefficient(0) == 1
    assert c.coefficient(1) == 1
    with pytest.raises(JetPrecisionError):
        c.coefficient(2)


def test_zero_jet_tracking():
    z = jet(2, [], 2)           # O(u^2)
    b = jet(1, [3], 2)          # 3u + O(u^2)
    prod = z * b
    assert not prod
    assert prod.hi == 3
    s = z + b
    assert s.coefficient(1) == 3
    assert s.hi == 2


def test_valuation_and_leading():
    j = jet(0, [0, 0, 5], 3)
    assert j.valuation() == 2
    assert j.coefficient(0) == 0
    assert jet(0, [], 4).valuation() is None


def test_inverse_requires_leading_term():
    with pytest.raises(ZeroDivisionError):
        jet(1, [], 3).inverse()


def test_exact_constant_inverse():
    c = LaurentJet.constant(RATIONAL, Fraction(4))
    assert (c.inverse() * c).coefficient(0) == 1
    assert c.inverse().hi is None


def test_jet_ring():
    ring = JetRing(RATIONAL)
    assert ring.one.coefficient(0) == 1
    assert not ring.zero


def test_exp_jet_order_floor(fp):
    with pytest.raises(ValueError):
        exp_jet(RATIONAL, Fraction(1), -1)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.fractions(min_value=-4, max_value=4), min_size=1, max_size=5),
    st.lists(st.fractions(min_value=-4, max_value=4), min_size=1, max_size=5),
)
@example([Fraction(4), 0, 0], [Fraction(-4), 0, 0])
def test_mul_commutes_and_distributes(xs, ys):
    a = jet(0, xs, len(xs))
    b = jet(0, ys, len(ys))
    assert a * b == b * a
    c = jet(0, [1, 1], 2)
    lhs = (a + b) * c
    rhs = a * c + b * c
    # a + b may cancel to a zero jet, whose order (a + b) * c then keeps:
    # with a = 4 + O(u^3) and b = -4 + O(u^3), lhs is 0 + O(u^3) and rhs
    # 0 + O(u^2), so the two agree only below the lower order
    assert lhs.hi >= rhs.hi
    assert all(lhs.coefficient(e) == rhs.coefficient(e) for e in range(min(lhs.hi, rhs.hi)))


def _jets(field):
    """Truncated or exact jets, exact monomials among them, with zero coefficients."""
    coeffs = st.lists(st.integers(-3, 3).map(field.of_int), max_size=5)
    monomial = st.tuples(st.integers(-2, 2), st.integers(1, 3).map(lambda c: [field.of_int(c)]),
                         st.just(True))
    return st.one_of(st.tuples(st.integers(-2, 2), coeffs, st.booleans()), monomial).map(
        lambda t: LaurentJet(field, t[0], t[1], None if t[2] else t[0] + len(t[1])))


def _product_reference(a, b):
    """a * b by the definition: coefficient e is sum over i + j = e of
    a_i b_j, known below min(a.hi + b.lo, b.hi + a.lo)."""
    field = a.field
    if (not a.coeffs and a.hi is None) or (not b.coeffs and b.hi is None):
        return a if not a.coeffs and a.hi is None else b
    bounds = [h for h in (a.hi is not None and a.hi + b.lo, b.hi is not None and b.hi + a.lo)
              if h is not False]
    hi = min(bounds) if bounds else None
    lo = a.lo + b.lo
    if hi is not None and hi <= lo:
        return LaurentJet(field, hi, (), hi)
    end = hi if hi is not None else lo + len(a.coeffs) + len(b.coeffs) - 1
    out = [field.zero] * (end - lo)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if i + j < end - lo:
                out[i + j] = out[i + j] + x * y
    return LaurentJet(field, lo, out, hi)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mul_matches_the_convolution(field, data):
    a, b = data.draw(_jets(field)), data.draw(_jets(field))
    assert a * b == _product_reference(a, b)
    assert b * a == _product_reference(a, b)
    k = data.draw(st.integers(-3, 3))
    assert a * k == k * a == _product_reference(a, LaurentJet.constant(field, field.of_int(k)))
