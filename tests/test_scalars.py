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
    SamplingError,
    derive_rng,
    field_from_name,
    is_probable_prime,
    sample_point,
)


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


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=-10**6, max_value=10**6).filter(bool))
def test_inverse_roundtrip(fp, k):
    a = fp.of_int(k)
    assert a * (fp.one / a) == fp.one


def test_fraction_embedding(fp):
    x = fp.of_fraction(Fraction(2, 3))
    assert x * fp.of_int(3) == fp.of_int(2)


def test_sample_point_determinism(fp):
    a = sample_point(fp, 99, forbidden=(lambda q: q - fp.one,))
    b = sample_point(fp, 99, forbidden=(lambda q: q - fp.one,))
    assert a == b


def test_sample_point_respects_constraints(fp):
    rng = derive_rng(5, "sampling")
    for _ in range(200):
        q = sample_point(fp, rng, forbidden=(lambda q: q, lambda q: q * q - fp.one))
        assert q and q * q != fp.one


def test_sample_point_rational_constraints():
    rng = derive_rng(5, "sampling-q")
    for _ in range(200):
        q = sample_point(RATIONAL, rng, forbidden=(lambda q: q * q - 1,))
        assert q not in (0, 1, -1)


def test_sample_point_gives_up():
    rng = derive_rng(5, "hopeless")
    with pytest.raises(SamplingError):
        sample_point(RATIONAL, rng, forbidden=(lambda q: RATIONAL.zero,), max_tries=10)


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
