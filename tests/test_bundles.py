from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybx.bundles import (
    NEITHER,
    NONNEGATIVE,
    POSITIVE,
    BundleData,
    SimplicityError,
    abd_of_bundle,
    bundle_solution,
    compare_prec,
    is_power_of,
    is_simple,
    order_prec,
    random_simple_bundle,
    twist,
    type_check,
    unroll_d,
)
from ybx.perms import identity, is_valid_abd
from ybx.scalars import RATIONAL, derive_rng
from ybx.surface import build_surface, topological_invariants
from ybx.tensors import Tensor2, transposition_p
from ybx.trig import check_aybe, check_skew, residues, _pole_free


PINNED = BundleData(2, 1, ((0,), (1,)))


def test_bundle_validation():
    with pytest.raises(ValueError):
        BundleData(0, 1, ())
    with pytest.raises(ValueError):
        BundleData(1, 1, ((0,),), lam=Fraction(0))
    with pytest.raises(ValueError):
        BundleData(2, 2, ((0, 0),))


def test_unroll_rank_one():
    b = BundleData(1, 3, ((5, 7, 9),))
    d = unroll_d(b)
    for q in range(-3, 4):
        for j in range(3):
            assert d(q * 3 + j) == b.m[0][j]


def test_unroll_alternates():
    b = BundleData(2, 1, ((1,), (0,)))
    d = unroll_d(b)
    assert d(0) == 1         # m^0_0
    assert d(1) == 0         # row -1 mod 2 = 1
    assert d(2) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-40, max_value=40),
    st.randoms(use_true_random=False),
)
def test_unroll_periodicity(r, n, t, rng):
    m = tuple(tuple(rng.randrange(-2, 3) for _ in range(n)) for _ in range(r))
    d = unroll_d(BundleData(r, n, m))
    assert d(t + r * n) == d(t)


def test_simplicity_rank_one_vacuous():
    assert is_simple(BundleData(1, 2, ((3, -1),))).simple


def test_simplicity_spread_violation():
    rep = is_simple(BundleData(2, 1, ((0,), (2,))))
    assert not rep.simple
    assert "spread" in rep.violations[0]


def test_simplicity_pinned():
    rep = is_simple(PINNED)
    assert rep.simple
    # difference sequence at shift 1 is (+1, -1): alternating
    d = unroll_d(PINNED)
    assert [d(1 + t) - d(t) for t in range(2)] == [1, -1]


def test_simplicity_constant_rows_not_simple():
    rep = is_simple(BundleData(2, 1, ((0,), (0,))))
    assert not rep.simple
    assert "vanishes" in rep.violations[0]


def test_type_check_and_twist():
    assert type_check(BundleData(1, 2, ((1, 1),))) == POSITIVE
    assert type_check(PINNED) == NONNEGATIVE
    assert type_check(BundleData(1, 1, ((-1,),))) == NEITHER
    up = twist(PINNED, 1)
    assert up.m == ((1,), (2,))
    assert type_check(up) == POSITIVE


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=-5, max_value=5), st.randoms(use_true_random=False))
def test_twist_preserves_simplicity(shift, rng):
    rng2 = derive_rng(rng.randrange(10 ** 6), "twist")
    b = random_simple_bundle(rng2)
    assert is_simple(twist(b, shift)).simple == is_simple(b).simple


def test_order_rank_one():
    assert order_prec(BundleData(1, 2, ((4, 5),))) == (0,)


def test_order_pinned_chain():
    assert order_prec(PINNED) == (0, 1)
    assert compare_prec(PINNED, 0, 1)
    assert not compare_prec(PINNED, 1, 0)


def test_order_requires_simplicity():
    with pytest.raises(SimplicityError):
        order_prec(BundleData(2, 1, ((0,), (0,))))


def test_order_total_on_random_corpus():
    rng = derive_rng(31, "order-corpus")
    for _ in range(40):
        b = random_simple_bundle(rng)
        chain = order_prec(b)
        assert sorted(chain) == list(range(b.r))
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                assert compare_prec(b, chain[i], chain[j])
                assert not compare_prec(b, chain[j], chain[i])


def test_abd_of_bundle_rank_one():
    abd = abd_of_bundle(BundleData(1, 2, ((3, 4),)))
    assert abd.n == 1 and abd.c1 == identity(1) and abd.a == ()


def test_abd_of_bundle_pinned():
    abd = abd_of_bundle(PINNED)
    assert abd.c1.images == (1, 0)
    assert abd.c2.images == (1, 0)
    assert abd.a == (1,)
    assert is_valid_abd(abd)


def test_abd_of_bundle_random_corpus():
    rng = derive_rng(32, "abd-corpus")
    for _ in range(100):
        b = random_simple_bundle(rng)
        abd = abd_of_bundle(b)
        assert is_valid_abd(abd), b
        assert is_power_of(abd.c2, abd.c1), b
        # bundle-derived structures are genus 1
        surf = build_surface(abd)
        assert topological_invariants(surf).genus == 1


def test_lambda_does_not_affect_abd():
    for lam in (Fraction(1), Fraction(-2), Fraction(3, 7)):
        b = BundleData(2, 1, ((0,), (1,)), lam=lam)
        assert abd_of_bundle(b) == abd_of_bundle(PINNED)


def test_relabeling_components_preserves_simplicity():
    rng = derive_rng(33, "relabel")
    for _ in range(20):
        b = random_simple_bundle(rng)
        if b.n == 1:
            continue
        # rotate the components j -> j+1 with the induced row reindexing:
        # the unrolled sequence shifts by one, so conditions are preserved
        shifted = BundleData(
            b.r,
            b.n,
            tuple(
                tuple(b.m[(i + (1 if j == 0 else 0)) % b.r][(j - 1) % b.n]
                      for j in range(b.n))
                for i in range(b.r)
            ),
            lam=b.lam,
        )
        assert is_simple(shifted).simple == is_simple(b).simple


def test_bundle_solution_rank_one_scalar():
    sol = bundle_solution(BundleData(1, 2, ((2, 3),)))
    qu, qv = Fraction(2), Fraction(3)
    t = sol.eval(RATIONAL, qu, qv)
    assert t[0, 0, 0, 0] == 1 / (qu ** 2 - 1) + 1 / (1 - qv ** -2)


def test_bundle_solution_pinned_residues(fp):
    sol = bundle_solution(PINNED)
    rng = derive_rng(34, "bundle-res")
    (other,) = _pole_free(fp, rng, 2, 1)
    assert residues(sol, "u", other, fp) == Tensor2.unit(2, fp)
    assert residues(sol, "v", other, fp) == transposition_p(2, fp)


def test_bundle_solution_aybe(fp):
    sol = bundle_solution(PINNED)
    assert check_aybe(sol, 5, 7, fp).passed
    assert check_skew(sol, 5, 7, fp).passed


def test_json_roundtrip():
    assert BundleData.from_json_dict(PINNED.to_json_dict()) == PINNED
    assert PINNED.to_json_dict() == {"r": 2, "n": 1, "m": [[0], [1]], "lambda": "1/1"}
