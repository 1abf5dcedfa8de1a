import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybx.scalars import (
    DEFAULT_PRIME,
    MR_EXACT_BOUND,
    BackendMismatchError,
    PrimeField,
    RATIONAL,
    derive_rng,
    field_from_name,
    is_probable_prime,
)
from ybx.trig import PoleError, _pole_free


def test_rational_arithmetic():
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)


def test_prime_field_division(fp):
    small = PrimeField  # the 10**9 floor forbids tiny fields; emulate 2/3 = 3 mod 7 at scale
    a = fp.of_int(2)
    b = fp.of_int(3)
    assert (a / b) * b == a
    assert int(a / b) == (2 * pow(3, fp.p - 2, fp.p)) % fp.p


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(7)            # below the size floor
    with pytest.raises(ValueError):
        PrimeField(10 ** 9 + 8)  # composite above the floor


def test_default_prime_is_prime():
    assert is_probable_prime(DEFAULT_PRIME)
    assert not is_probable_prime(DEFAULT_PRIME - 1)


def test_backend_mismatch(fp):
    other = PrimeField(2305843009213693967)
    with pytest.raises(BackendMismatchError):
        fp.of_int(1) + other.of_int(1)


def test_field_from_name(fp):
    assert field_from_name("q") is RATIONAL
    assert field_from_name("fp:%d" % fp.p) == fp
    with pytest.raises(ValueError):
        field_from_name("float")
    for name in ("fp:abc", "fp:", "fp:2.5"):
        with pytest.raises(ValueError, match="^unknown field %r" % name):
            field_from_name(name)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=-10**6, max_value=10**6).filter(bool))
def test_inverse_roundtrip(fp, k):
    a = fp.of_int(k)
    assert a * (fp.one / a) == fp.one


@settings(max_examples=100, deadline=None)
@given(st.fractions(-10**9, 10**9, max_denominator=10**6),
       st.fractions(-10**9, 10**9, max_denominator=10**6))
def test_raw_values_compute_the_field_operations(field, x, y):
    a, b = field.of_fraction(x), field.of_fraction(y)
    raw, reduce, box = field.raw, field.reduce, field.box
    assert box(reduce(raw(a) * raw(b))) == a * b
    assert box(reduce(raw(a) - raw(b))) == a - b
    if a:
        assert box(reduce(raw(a) * field.inverse(reduce(raw(a))))) == field.one


def test_an_integer_numerator_inverts_exactly(field):
    # integer numerators are raw values too: the nondegeneracy test
    # eliminates blocks of a table's numerators
    assert field.box(field.inverse(3)) == field.one / field.of_int(3)


def test_box_nonzero_drops_exact_multiples_of_p(fp):
    p = fp.p
    got = fp.box_nonzero({0: p, 1: -2 * p, 2: p + 3, 3: -1, 4: 0})
    assert got == {2: fp.of_int(3), 3: fp.of_int(-1)}
    assert all(type(v) is type(fp.one) for v in got.values())


def test_box_nonzero_drops_exact_zeros_in_q():
    got = RATIONAL.box_nonzero({0: Fraction(0), 1: Fraction(1, 3) - Fraction(1, 3),
                                2: Fraction(2, 5)})
    assert got == {2: Fraction(2, 5)}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(-10**6, 10**6, max_denominator=10**4), max_size=8))
def test_integral_round_trips(field, xs):
    values = [field.of_fraction(x) for x in xs]
    ints, den = field.integral(values)
    assert all(type(a) is int for a in ints) and type(den) is int
    if field is RATIONAL:
        # the least common denominator of the values
        assert den == math.lcm(*(x.denominator for x in values))
    else:
        assert den == 1 and ints == [int(x) for x in values]
    boxed = field.box_nonzero(dict(enumerate(ints)), den)
    assert [boxed.get(i, field.zero) for i in range(len(values))] == values


def test_box_nonzero_divides_by_the_denominator(field):
    got = field.box_nonzero({0: 6, 1: 4, 2: 0, 3: -3}, 4)
    assert got == {0: field.of_fraction(Fraction(3, 2)), 1: field.one,
                   3: field.of_fraction(Fraction(-3, 4))}


def test_fraction_embedding(fp):
    x = fp.of_fraction(Fraction(2, 3))
    assert x * fp.of_int(3) == fp.of_int(2)


def test_pole_free_is_deterministic(fp):
    assert _pole_free(fp, derive_rng(99), 3, 2) == _pole_free(fp, derive_rng(99), 3, 2)


def test_pole_free_respects_constraints(field):
    # each forbidden locus holds a sizeable share of raw draws: the quadratic
    # residues of GF(p), and q = +-2 among the small sampled rationals
    one = field.one
    if field is RATIONAL:
        def allowed(q):
            return q * q - 4
    else:
        def allowed(q):
            return q ** ((field.p - 1) // 2) - one
    rng = derive_rng(5, "sampling", field.name)
    for _ in range(200):
        qs = _pole_free(field, rng, 2, 2, extra=(lambda a, b: allowed(a),
                                                 lambda a, b: allowed(b)))
        for q in qs:
            assert q and q ** 4 != one and allowed(q)


def test_pole_free_gives_up():
    rng = derive_rng(5, "hopeless")
    with pytest.raises(PoleError):
        _pole_free(RATIONAL, rng, 2, 1, extra=(lambda q: RATIONAL.zero,))


def test_smoke_no_constraint_violations(fp):
    # 10^4 draws stay clear of the forbidden loci
    rng = derive_rng(17, "smoke")
    one = fp.one
    for _ in range(10 ** 4):
        q = fp.sample(rng)
        assert q and q != one


def test_derive_rng_stable():
    assert derive_rng(1, "x").random() == derive_rng(1, "x").random()
    assert derive_rng(1, "x").random() != derive_rng(2, "x").random()


def test_strong_pseudoprime_to_witnesses_up_to_37_is_rejected():
    # psi_12: the least strong pseudoprime to every prime base 2..37
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_probable_prime(psi12)
    with pytest.raises(ValueError):
        PrimeField(psi12)


def test_primality_refuses_moduli_beyond_exact_bound():
    assert is_probable_prime(MR_EXACT_BOUND - 1) is False  # even, still answered
    with pytest.raises(ValueError):
        is_probable_prime(MR_EXACT_BOUND)
    with pytest.raises(ValueError):
        PrimeField(MR_EXACT_BOUND + 2)
