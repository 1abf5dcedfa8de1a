"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is exact (residual = 0 in an exact field) except the two
float-only checks (the QYBE shadow at 1e-9 and the Novikov series at 1e-10).
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import time
from contextlib import contextmanager

import pytest

from ybx.bundles import (
    BundleData,
    abd_of_bundle,
    bundle_solution,
    is_power_of,
    order_prec,
    random_simple_bundle,
)
from ybx.catalog import acceptance_corpus, example_structure
from ybx.massey import (
    develop_rectangle,
    massey_n1_breakdown,
    massey_tensor,
    novikov_check,
)
from ybx.perms import (
    ABDStructure,
    Permutation,
    a_km,
    abd_isomorphic,
    abd_isomorphic_bruteforce,
    commutator,
    identity,
    is_valid_abd,
    relabel_abd,
)
from ybx.scalars import PrimeField, RATIONAL, derive_rng
from ybx.surface import (
    build_surface,
    puncture_analysis,
    topological_invariants,
)
from ybx.tensors import Tensor2, transposition_p
from ybx.trig import (
    TrigSolution,
    check_aybe,
    check_cybe,
    check_skew,
    check_strong_nondegeneracy,
    hat_involution,
    qybe_float_shadow,
    qybe_unitarity,
    residues,
    _pole_free,
)

SEED = 7
FP = PrimeField()


@contextmanager
def criterion(number, name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %2d %-28s FAIL  (%.1fs)" % (number, name, time.perf_counter() - t0))
        raise
    print("ACCEPTANCE %2d %-28s PASS  (%.1fs)" % (number, name, time.perf_counter() - t0))


@pytest.fixture(scope="module")
def corpus():
    return acceptance_corpus()


@pytest.fixture(scope="module")
def solutions(corpus):
    return [(s, TrigSolution(s)) for s in corpus]


def test_criterion_1_aybe(solutions):
    with criterion(1, "AYBE exactness + mutation"):
        for s, sol in solutions:
            rep = check_aybe(sol, 25, SEED, FP)
            assert rep.failures == 0, s.label()
            rep = check_aybe(sol, 25, SEED, RATIONAL)
            assert rep.failures == 0, s.label()
            # corrupt one seeded coefficient: >= 24 of 25 points must notice
            rng = derive_rng(SEED, "mutant", s.label())
            slot = tuple(rng.randrange(s.n) for _ in range(4))
            rep = check_aybe(sol, 25, SEED, FP, mutate=slot)
            assert rep.failures >= 24, (s.label(), slot, rep.failures)
        # rational-backend mutation spot check
        for s, sol in solutions[:3]:
            rep = check_aybe(sol, 25, SEED, RATIONAL, mutate=(0, 0, 0, 0))
            assert rep.failures >= 24


def test_criterion_2_skew(solutions):
    with criterion(2, "skew-symmetry"):
        for s, sol in solutions:
            assert check_skew(sol, 25, SEED, FP).failures == 0, s.label()
            assert check_skew(sol, 25, SEED, RATIONAL).failures == 0, s.label()


def test_criterion_3_residues(solutions):
    from ybx.trig import _jet_eval, tensor_valuation

    with criterion(3, "residue structure"):
        for s, sol in solutions:
            rng = derive_rng(SEED, "residue-pt", s.label())
            (other,) = _pole_free(FP, rng, s.n, 1)
            for which in ("u", "v"):
                jet_tensor = _jet_eval(sol, FP, 4, which, other)
                assert tensor_valuation(jet_tensor) == -1, (s.label(), which)
            assert residues(sol, "u", other, FP) == Tensor2.unit(s.n, FP)
            assert residues(sol, "v", other, FP) == transposition_p(s.n, FP)


def test_criterion_4_n1_closed_form():
    with criterion(4, "n=1 closed form"):
        sol = TrigSolution(ABDStructure(1, identity(1), identity(1), ()))
        rng = derive_rng(SEED, "n1")
        for _ in range(5):
            qu, qv = _pole_free(RATIONAL, rng, 1, 2)
            eu, ev = qu ** 2, qv ** 2
            expected = 1 / (eu - 1) + 1 / (1 - ev ** -1)
            assert sol.eval(RATIONAL, qu, qv)[0, 0, 0, 0] == expected
            br = massey_n1_breakdown(qu, qv, RATIONAL)
            assert -br.combined == expected


def test_criterion_5_massey_equals_closed_form(solutions):
    with criterion(5, "combinatorial oracle"):
        for s, sol in solutions:
            rng = derive_rng(SEED, "massey-acc", s.label())
            for _ in range(10):
                qu, qv = _pole_free(FP, rng, s.n, 2)
                assert massey_tensor(sol, qu, qv, FP).tensor == sol.eval(FP, qu, qv)


def test_criterion_6_develop_oracle(corpus):
    with criterion(6, "geometric oracle"):
        for s in corpus:
            surf = build_surface(s)
            for k in range(1, s.n):
                for m in range(1, s.n):
                    members = set(a_km(s, k, m))
                    for a in range(s.n):
                        assert develop_rectangle(surf, a, k, m) == (a in members)


def test_criterion_7_surface_topology(corpus):
    with criterion(7, "surface topology"):
        surf = build_surface(example_structure())
        rep = puncture_analysis(surf)
        topo = topological_invariants(surf)
        assert rep.b == 2 and rep.b_k == {1: 1, 3: 1}
        assert topo.chi == -4 and topo.genus == 2
        assert rep.fixed_point_punctures == (2,)   # {3} 1-based
        for s in corpus:
            surf = build_surface(s)
            rep = puncture_analysis(surf)
            topo = topological_invariants(surf)
            assert 2 - 2 * topo.genus - rep.b == -s.n
            assert (topo.genus == 1) == commutator(s.c1, s.c2).is_identity()


def test_criterion_8_involution(solutions):
    with criterion(8, "involution closure"):
        for s, sol in solutions:
            hat = hat_involution(sol)
            assert check_aybe(hat, 25, SEED, FP).failures == 0, s.label()
            assert check_skew(hat, 25, SEED, FP).failures == 0, s.label()
            hathat = hat_involution(hat)
            rng = derive_rng(SEED, "hathat", s.label())
            for _ in range(10):
                qu, qv = _pole_free(FP, rng, s.n, 2)
                assert hathat.eval(FP, qu, qv) == sol.eval(FP, qu, qv).flip()


def test_criterion_9_cybe(solutions):
    with criterion(9, "CYBE limit"):
        for s, sol in solutions:
            rep = check_cybe(sol, 25, SEED, FP, jet_order=4)
            assert rep.failures == 0, s.label()


def test_criterion_10_qybe_unitarity(solutions):
    with criterion(10, "QYBE / unitarity"):
        for s, sol in solutions:
            rep = qybe_unitarity(sol, 10, SEED, FP)
            assert rep.failures == 0, (s.label(), rep.details)
        assert qybe_float_shadow(1.0, 0.7) < 1e-9


def test_criterion_11_strong_nondegeneracy(solutions):
    with criterion(11, "strong nondegeneracy"):
        for s, sol in solutions:
            rep = check_strong_nondegeneracy(sol, 10, SEED, FP)
            assert rep.failures == 0, s.label()


def test_criterion_12_bundle_chain():
    with criterion(12, "bundle chain"):
        rng = derive_rng(SEED, "bundle-corpus")
        for _ in range(100):
            b = random_simple_bundle(rng, r_max=4, n_max=3)
            abd = abd_of_bundle(b)
            assert is_valid_abd(abd)
            assert is_power_of(abd.c2, abd.c1)
            assert topological_invariants(build_surface(abd)).genus == 1
            sol = bundle_solution(b)
            assert check_aybe(sol, 25, SEED, FP).failures == 0
            assert check_skew(sol, 25, SEED, FP).failures == 0
            prng = derive_rng(SEED, "bundle-res", b.to_json_dict()["m"].__repr__())
            (other,) = _pole_free(FP, prng, abd.n, 1)
            assert residues(sol, "u", other, FP) == Tensor2.unit(abd.n, FP)
            assert residues(sol, "v", other, FP) == transposition_p(abd.n, FP)
        # pinned regression: r=2, n=1, m=(0,1)
        pinned = BundleData(2, 1, ((0,), (1,)))
        assert order_prec(pinned) == (0, 1)
        abd = abd_of_bundle(pinned)
        assert abd.c1.images == (1, 0)
        assert abd.c2.images == (1, 0)
        assert abd.a == (1,)


def test_criterion_13_isomorphism():
    with criterion(13, "ABD isomorphism"):
        rng = derive_rng(SEED, "iso-acceptance")
        from ybx.catalog import enumerate_structures

        pool = {n: list(enumerate_structures(n)) for n in range(2, 7)}
        for trial in range(50):
            n = rng.randrange(2, 7)
            s1 = rng.choice(pool[n])
            if trial % 2 == 0:
                images = list(range(n))
                rng.shuffle(images)
                s2 = relabel_abd(s1, Permutation(tuple(images)))
            else:
                s2 = rng.choice(pool[n])
            fast = abd_isomorphic(s1, s2)
            slow = abd_isomorphic_bruteforce(s1, s2)
            assert (fast is None) == (slow is None)
            if fast is not None:
                relabeled = relabel_abd(s1, fast)
                assert (relabeled.c1, relabeled.c2, relabeled.a) == (
                    s2.c1,
                    s2.c2,
                    s2.a,
                )


def test_criterion_14_novikov():
    with criterion(14, "Novikov remark"):
        floor = 1e-14   # double-precision noise; the exact tail is monotone
        for u, v in ((1.0, 1.0), (1.0, 1.5), (1.25, 2.0), (2.0, 1.0), (3.0, 2.5)):
            assert novikov_check(u, v, 60).abs_error < 1e-10
            errs = [novikov_check(u, v, L).abs_error for L in range(0, 61, 4)]
            assert all(
                b <= a or (a < floor and b < floor) for a, b in zip(errs, errs[1:])
            )
