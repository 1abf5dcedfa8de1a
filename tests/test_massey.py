from fractions import Fraction

import pytest

from ybx.catalog import corpus, enumerate_structures, example_structure
from ybx.massey import (
    develop_rectangle,
    enumerate_rectangles,
    massey_n1_breakdown,
    massey_tensor,
    novikov_check,
)
from ybx.perms import ABDStructure, Permutation, a_km, identity
from ybx.scalars import RATIONAL, derive_rng
from ybx.surface import build_surface
from ybx.trig import TrigSolution, _pole_free


def test_enumerate_n1():
    sol = TrigSolution(ABDStructure(1, identity(1), identity(1), ()))
    fams = enumerate_rectangles(sol)
    assert [f.kind for f in fams] == ["diagonal"]


def test_enumerate_commuting_n2():
    swap = Permutation((1, 0))
    sol = TrigSolution(ABDStructure(2, swap, swap, ()))
    fams = enumerate_rectangles(sol)
    kinds = sorted((f.kind, f.k, f.m, f.base) for f in fams)
    assert kinds == [
        ("diagonal", 0, 0, 0),
        ("diagonal", 0, 0, 1),
        ("horizontal", 1, 0, 0),
        ("horizontal", 1, 0, 1),
        ("vertical", 0, 1, 0),
        ("vertical", 0, 1, 1),
    ]


def test_enumerate_example_a_rect_pair():
    sol = TrigSolution(example_structure())
    pairs = [f for f in enumerate_rectangles(sol) if f.kind == "a_rect"]
    assert len(pairs) == 2
    assert {(f.k, f.m, f.base, f.sign) for f in pairs} == {(1, 1, 2, 1), (1, 1, 2, -1)}
    assert {f.holonomy for f in pairs} == {(-1, -1), (1, 1)}


def test_enumeration_is_order_stable():
    sol = TrigSolution(example_structure())
    assert enumerate_rectangles(sol) == enumerate_rectangles(sol)


def test_develop_unit_square():
    surf = build_surface(example_structure())
    assert develop_rectangle(surf, 2, 1, 1)        # a in A: the unit square exists
    assert not develop_rectangle(surf, 0, 1, 1)    # a not in A
    assert not develop_rectangle(surf, 2, 1, 2)    # c2(3) is not in A
    with pytest.raises(ValueError):
        develop_rectangle(surf, 2, 0, 1)


def test_develop_oracle_equals_akm_exhaustive_n5():
    # the anti-hallucination core: the geometric development agrees with the
    # membership formula for every structure with n <= 5 and all k, m < n
    for n in range(1, 6):
        for s in enumerate_structures(n):
            surf = build_surface(s)
            upper = max(2, n)
            for k in range(1, upper):
                for m in range(1, upper):
                    members = set(a_km(s, k, m))
                    for a in range(n):
                        assert develop_rectangle(surf, a, k, m) == (a in members), (
                            s.label(),
                            a,
                            k,
                            m,
                        )


def test_massey_n1_closed_form():
    sol = TrigSolution(ABDStructure(1, identity(1), identity(1), ()))
    qu, qv = Fraction(2), Fraction(3)
    mt = massey_tensor(sol, qu, qv, RATIONAL)
    eu, ev = qu ** 2, qv ** 2
    assert mt.tensor[0, 0, 0, 0] == 1 / (eu - 1) + 1 / (1 - ev ** -1)


def test_massey_equals_closed_form_corpus(field):
    for s in corpus(3) + [example_structure(), example_structure(filled=False)]:
        sol = TrigSolution(s)
        rng = derive_rng(19, "massey", field.name, s.label())
        for _ in range(3):
            qu, qv = _pole_free(field, rng, s.n, 2)
            mt = massey_tensor(sol, qu, qv, field)
            assert mt.tensor == sol.eval(field, qu, qv), s.label()


def test_massey_equals_closed_form_n5_sample(field):
    # seeded stand-in for the exhaustive n <= 5 sweep (out of unit-test budget)
    rng = derive_rng(22, "massey-n5")
    pool = list(enumerate_structures(5))
    for _ in range(10):
        s = pool[rng.randrange(len(pool))]
        sol = TrigSolution(s)
        qu, qv = _pole_free(field, rng, s.n, 2)
        assert massey_tensor(sol, qu, qv, field).tensor == sol.eval(field, qu, qv)


def test_breakdown_sums_to_tensor(field):
    sol = TrigSolution(example_structure())
    rng = derive_rng(20, "massey-sum", field.name)
    qu, qv = _pole_free(field, rng, 4, 2)
    mt = massey_tensor(sol, qu, qv, field)
    from ybx.tensors import Tensor2

    total = Tensor2(4, field)
    for fam, coeff in mt.breakdown:
        (i, j), (k, l) = fam.target
        total[i, j, k, l] = total[i, j, k, l] + coeff
    assert total == mt.tensor


def test_breakdown_contains_pinned_a_terms():
    # the A-rectangle pair of the worked example carries e^{-(u+v)/4} on
    # e_{C2(3),3} (x) e_{C1(3),C1C2(3)} and -e^{(u+v)/4} on the swapped slots
    sol = TrigSolution(example_structure())
    qu, qv = Fraction(2), Fraction(3)
    mt = massey_tensor(sol, qu, qv, RATIONAL)
    hol = (qu * qu) * (qv * qv)   # e^{(u+v)/4}
    by_family = {
        (fam.kind, fam.sign): (fam.target, coeff) for fam, coeff in mt.breakdown
        if fam.kind == "a_rect"
    }
    target_plus, coeff_plus = by_family[("a_rect", 1)]
    target_minus, coeff_minus = by_family[("a_rect", -1)]
    # 1-based: C2(3)=4, C1(3)=1, C1C2(3)=2 -> 0-based rows (3,2) and (0,1)
    assert target_plus == ((3, 2), (0, 1))
    assert coeff_plus == 1 / hol
    assert target_minus == ((0, 1), (3, 2))
    assert coeff_minus == -hol


def test_telescoping_identity(field):
    # e^{ku/n}(1 + e^u/(1-e^u)) = e^{ku/n}/(1-e^u), evaluated two ways
    rng = derive_rng(21, "telescope", field.name)
    qu, = _pole_free(field, rng, 4, 1)
    eu = qu ** 8
    eu_n = qu * qu
    one = field.one
    for k in range(1, 4):
        lhs = (eu_n ** k) * (one + eu / (one - eu))
        rhs = (eu_n ** k) / (one - eu)
        assert lhs == rhs


def test_massey_n1_breakdown_values():
    qu, qv = Fraction(2), Fraction(3)
    br = massey_n1_breakdown(qu, qv, RATIONAL)
    eu, ev = qu ** 2, qv ** 2
    assert br.h1_coeff == eu / (eu - 1)
    assert br.h2_coeff == 1 / (ev - 1)
    assert br.mu3 == 1
    assert br.mu2_p_m0 == 1
    assert br.mu2_n0_p == ev
    assert br.combined == 1 + eu / (1 - eu) + ev / (1 - ev)
    assert br.combined == 1 / (1 - eu) + 1 / (ev ** -1 - 1)


def test_massey_n1_symmetric_point():
    # at e^u = e^v the two correction terms coincide
    br = massey_n1_breakdown(Fraction(2), Fraction(2), RATIONAL)
    eu = Fraction(4)
    assert br.h1_coeff * br.mu2_p_m0 == br.h2_coeff * br.mu2_n0_p
    assert br.combined == 1 - 2 * eu / (eu - 1)


def test_novikov_converges():
    res = novikov_check(1.0, 1.0, 60)
    assert res.abs_error < 1e-10


FLOAT_FLOOR = 1e-14  # double-precision noise; the true tail is monotone


def test_novikov_error_monotone():
    errs = [novikov_check(1.0, 1.5, L).abs_error for L in range(0, 61, 5)]
    assert all(b <= a or (a < FLOAT_FLOOR and b < FLOAT_FLOOR)
               for a, b in zip(errs, errs[1:]))
    assert errs[0] > errs[-1]


def test_novikov_l0_drops_tails():
    res = novikov_check(2.0, 3.0, 0)
    import math

    tail = sum(math.exp(-l * 2.0) + math.exp(-l * 3.0) for l in range(1, 200))
    assert res.abs_error == pytest.approx(math.exp(-6.0) * tail, rel=1e-6)


def test_novikov_rejects_divergent_region():
    with pytest.raises(ValueError):
        novikov_check(1j, 1.0, 10)
    with pytest.raises(ValueError):
        novikov_check(-1.0, 1.0, 10)
    with pytest.raises(ValueError):
        novikov_check(1.0, 1e-17, 10)  # 1 - e^-v rounds to 0


def test_novikov_complex_parameters():
    res = novikov_check(1.5 + 0.7j, 1.0 - 0.3j, 80)
    assert res.abs_error < 1e-10
