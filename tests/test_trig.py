import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from ybx.catalog import (acceptance_corpus, corpus, enumerate_structures, example_structure,
                         suite_catalog)
from ybx.perms import (ABDStructure, Permutation, commutator, fixed_points, identity,
                       relabel_abd, validate_abd)
from ybx.scalars import RATIONAL, PrimeField, derive_rng, field_from_name
from ybx import tensors as tensors_module
from ybx import trig as trig_module
from ybx.tensors import (
    Tensor2,
    aybe_combine,
    cybe_residual,
    embed_triple,
    exact_determinant,
    kron2,
    matrix_inverse,
    pair_embed_product,
    product_residual,
    projected_residual,
    transposition_p,
)
from ybx.trig import (
    PoleError,
    TrigSolution,
    check_aybe,
    check_cybe,
    check_skew,
    check_strong_nondegeneracy,
    gauge_transform,
    hat_involution,
    qybe_unitarity,
    qybe_float_shadow,
    r0_tensor,
    residues,
    tensor_valuation,
    _pole_free,
)


def trivial_solution():
    return TrigSolution(ABDStructure(1, identity(1), identity(1), ()))


def small_corpus():
    return [s for n in (1, 2, 3) for s in enumerate_structures(n)]


def test_eval_n1_closed_form():
    sol = trivial_solution()
    qu, qv = Fraction(2), Fraction(3)
    t = sol.eval(RATIONAL, qu, qv)
    eu, ev = qu ** 2, qv ** 2
    assert t[0, 0, 0, 0] == 1 / (eu - 1) + 1 / (1 - ev ** -1)


def test_eval_pole_rejected():
    sol = trivial_solution()
    with pytest.raises(PoleError):
        sol.eval(RATIONAL, Fraction(1), Fraction(3))


def test_eval_requires_valid_structure():
    swap = ABDStructure(4, example_structure().c1, example_structure().c2, (0,))
    with pytest.raises(ValueError):
        TrigSolution(swap)


def test_aybe_small_corpus(field):
    for s in small_corpus():
        rep = check_aybe(TrigSolution(s), 5, 7, field)
        assert rep.passed, s.label()


def test_skew_small_corpus(field):
    for s in small_corpus():
        rep = check_skew(TrigSolution(s), 5, 7, field)
        assert rep.passed, s.label()


def test_aybe_mutation_detected(field):
    # a corrupted coefficient must make the identity fail at >= 24 of 25 points
    sol = TrigSolution(example_structure())
    rep = check_aybe(sol, 25, 7, field, mutate=(0, 1, 2, 2))
    assert rep.failures >= 24
    assert not rep.passed


def test_skew_mutation_detected(field):
    sol = TrigSolution(example_structure())
    rep = check_skew(sol, 25, 7, field, mutate=(1, 1, 0, 0))
    assert rep.failures == 25


def test_residues_unit_and_p(field):
    for s in small_corpus() + [example_structure()]:
        sol = TrigSolution(s)
        rng = derive_rng(13, "res", s.label())
        (other,) = _pole_free(field, rng, s.n, 1)
        assert residues(sol, "u", other, field) == Tensor2.unit(s.n, field)
        assert residues(sol, "v", other, field) == transposition_p(s.n, field)


def test_residue_valuation_is_exactly_minus_one(field):
    from ybx.trig import _jet_eval

    sol = TrigSolution(example_structure())
    rng = derive_rng(14, "val")
    (other,) = _pole_free(field, rng, sol.n, 1)
    for which in ("u", "v"):
        t = _jet_eval(sol, field, 5, which, other)
        assert tensor_valuation(t) == -1


class _SquaredEntry:
    """r with entry (0,0,0,0) squared: a double pole at u = 0 and at v = 0."""

    def __init__(self, base):
        self.base = base
        self.n = base.n

    def eval(self, ring, q_u, q_v):
        t = self.base.eval(ring, q_u, q_v)
        t[0, 0, 0, 0] = t[0, 0, 0, 0] * t[0, 0, 0, 0]
        return t


def test_residues_reject_a_double_pole(field):
    # the jet reference of ``residues``
    sol = _SquaredEntry(TrigSolution(example_structure()))
    (other,) = _pole_free(field, derive_rng(15, "double-pole"), sol.n, 1)
    for which in ("u", "v"):
        with pytest.raises(ArithmeticError, match="pole is not simple"):
            trig_module._jet_coefficient(sol, field, 2, which, other, -1)


def test_residues_n1():
    sol = trivial_solution()
    res = residues(sol, "u", Fraction(5), RATIONAL)
    assert res == Tensor2.unit(1, RATIONAL)


def test_r0_n1_value():
    # r0(v) = -1/2 + 1/(1 - e^-v) for the one-point structure
    sol = trivial_solution()
    qv = Fraction(3)
    ev = qv ** 2
    r0 = r0_tensor(sol, qv, RATIONAL)
    assert r0[0, 0, 0, 0] == Fraction(-1, 2) + 1 / (1 - ev ** -1)
    # and rbar0 = 0, so the CYBE is trivially satisfied
    assert r0.project_sl().is_zero()


def test_cybe_small_corpus(fp):
    for s in small_corpus():
        rep = check_cybe(TrigSolution(s), 5, 7, fp)
        assert rep.passed, s.label()


def test_cybe_example_rational():
    rep = check_cybe(TrigSolution(example_structure()), 3, 7, RATIONAL)
    assert rep.passed


def test_cybe_mutation_detected(fp):
    s = example_structure()
    rep = check_cybe(TrigSolution(s), 5, 7, fp, mutate=(0, 1, 2, 2))
    assert rep.failures == 5   # every point notices the corrupted bracket


def test_hat_involution_n1_is_swap():
    sol = trivial_solution()
    hat = hat_involution(sol)
    qu, qv = Fraction(2), Fraction(3)
    assert hat.eval(RATIONAL, qu, qv) == sol.eval(RATIONAL, qv, qu)


def test_hat_passes_aybe_and_skew(fp):
    for s in small_corpus() + [example_structure()]:
        hat = hat_involution(TrigSolution(s))
        assert check_aybe(hat, 5, 11, fp).passed, s.label()
        assert check_skew(hat, 5, 11, fp).passed, s.label()


def test_hat_hat_is_flip(field):
    sol = TrigSolution(example_structure())
    hathat = hat_involution(hat_involution(sol))
    rng = derive_rng(15, "hathat", field.name)
    for _ in range(5):
        qu, qv = _pole_free(field, rng, sol.n, 2)
        assert hathat.eval(field, qu, qv) == sol.eval(field, qu, qv).flip()


def test_relabeling_maps_every_flat_digitwise(fp):
    # r of relabel_abd(s, sigma) is r of s with entry (i, j, k, l) moved to
    # (sigma i, sigma j, sigma k, sigma l), at one point per structure
    rng = derive_rng(17, "relabel")
    for s in corpus(4):
        n = s.n
        sigma = Permutation(tuple(rng.sample(range(n), n)))
        qu, qv = _pole_free(fp, rng, n, 2)
        moved = Tensor2(n, fp)
        for idx, v in TrigSolution(s).eval(fp, qu, qv).items():
            moved[tuple(map(sigma, idx))] = v
        assert TrigSolution(relabel_abd(s, sigma)).eval(fp, qu, qv) == moved, s.label()


@pytest.mark.parametrize("name, sha256", [
    ("q", "b5760951716d97e05a458b2c474167dcbf4a489964f9dc5b8063c93626f51895"),
    ("fp:2305843009213693951",
     "ddc65a3e90fda92cbd93f4a5167abeb64d5f0a0b52ce1dba62dcc8df2faeedea"),
], ids=["q", "fp"])
def test_hat_entries_are_pinned(name, sha256):
    # hat(r) of the worked example at the `ybx build-r --seed 7` point
    field = field_from_name(name)
    qu, qv = _pole_free(field, derive_rng(7, "build-r", field.name), 4, 2)
    hat = hat_involution(TrigSolution(example_structure())).eval(field, qu, qv)
    entries = json.dumps(hat.to_sparse_json(), sort_keys=True)
    assert hashlib.sha256(entries.encode()).hexdigest() == sha256


def test_strong_nondegeneracy(fp):
    for s in small_corpus() + [example_structure()]:
        rep = check_strong_nondegeneracy(TrigSolution(s), 4, 7, fp)
        assert rep.passed, s.label()


def test_zero_tensor_is_degenerate(fp):
    _, invertible = Tensor2(3, fp).tensor_rank()
    assert not invertible


def test_qybe_unitarity(fp):
    for s in small_corpus() + [example_structure()]:
        rep = qybe_unitarity(TrigSolution(s), 4, 7, fp)
        assert rep.passed, (s.label(), rep.details)


def test_qybe_float_shadow():
    assert qybe_float_shadow(1.0, 0.7) < 1e-9


def test_gauge_transform_identity(fp):
    sol = TrigSolution(example_structure())
    phi = [[fp.one if i == j else fp.zero for j in range(4)] for i in range(4)]
    g = gauge_transform(sol, phi, fp)
    rng = derive_rng(16, "gauge-id")
    qu, qv = _pole_free(fp, rng, 4, 2)
    assert g.eval(fp, qu, qv) == sol.eval(fp, qu, qv)


def test_gauge_transform_diagonal(fp):
    sol = TrigSolution(example_structure())
    diag = [2, 1, 3, 1]
    phi = [
        [fp.of_int(diag[i]) if i == j else fp.zero for j in range(4)]
        for i in range(4)
    ]
    g = gauge_transform(sol, phi, fp)
    assert check_aybe(g, 5, 7, fp).passed
    assert check_skew(g, 5, 7, fp).passed
    rng = derive_rng(17, "gauge-rank")
    qu, qv = _pole_free(fp, rng, 4, 2)
    _, inv1 = sol.eval(fp, qu, qv).tensor_rank()
    _, inv2 = g.eval(fp, qu, qv).tensor_rank()
    assert inv1 == inv2


def test_gauge_transform_singular_rejected(fp):
    sol = TrigSolution(example_structure())
    phi = [[fp.zero] * 4 for _ in range(4)]
    with pytest.raises(ZeroDivisionError):
        gauge_transform(sol, phi, fp)


def test_n5_spot_check_both_backends(field):
    # the exhaustive n <= 5 sweep at 25 points is out of unit-test budget;
    # a seeded sample of the n = 5 enumeration stands in for it
    rng = derive_rng(23, "n5-sample")
    pool = list(enumerate_structures(5))
    sample = [pool[rng.randrange(len(pool))] for _ in range(8)]
    for s in sample:
        sol = TrigSolution(s)
        assert check_aybe(sol, 3, 7, field).passed, s.label()
        assert check_skew(sol, 3, 7, field).passed, s.label()


def _seeded_structure(n):
    """The first valid structure of random.Random("large-n:<n>"): c1 and c2
    random n-cycles (a shuffled order, each point mapped to the next) and A
    each fixed point of their commutator with chance 1/2."""
    rng = random.Random("large-n:%d" % n)

    def cycle():
        order = list(range(n))
        rng.shuffle(order)
        images = [0] * n
        for x, y in zip(order, order[1:] + order[:1]):
            images[x] = y
        return Permutation(tuple(images))

    while True:
        c1, c2 = cycle(), cycle()
        a = tuple(x for x in fixed_points(commutator(c1, c2)) if rng.random() < 0.5)
        if len(a) < n:
            s = ABDStructure(n=n, c1=c1, c2=c2, a=a)
            if not validate_abd(s):
                return s


def test_a_seeded_structure_at_n_16_passes_and_its_mutants_fail(fp):
    # no benchmark workload goes past n = 7; at n = 16 every factor of the
    # projected checks holds all n or n^2 keys of its labels, and a corrupted
    # coefficient must still show in the AYBE and the CYBE
    sol = TrigSolution(_seeded_structure(16))
    for check in (check_aybe, check_cybe, qybe_unitarity):
        assert check(sol, 3, 7, fp).failures == 0, check.__name__
    for check in (check_aybe, check_cybe):
        assert check(sol, 3, 7, fp, mutate=(0, 1, 1, 0)).failures == 3, check.__name__


@pytest.mark.parametrize("check, mutate, name, failures", [
    (check_aybe, None, "aybe", 0),
    (check_skew, None, "skew", 0),
    (check_cybe, None, "cybe", 0),
    (qybe_unitarity, None, "qybe-unitarity", 0),
    (check_strong_nondegeneracy, None, "strong-nondegeneracy", 0),
    (check_aybe, (0, 1, 2, 2), "aybe(mutated)", 3),
    (check_skew, (1, 1, 0, 0), "skew(mutated)", 3),
    (check_cybe, (0, 1, 2, 2), "cybe(mutated)", 3),
], ids=["aybe", "skew", "cybe", "qybe", "nondeg", "aybe-mutated", "skew-mutated",
        "cybe-mutated"])
def test_report_shape(check, mutate, name, failures, fp):
    # mutated runs count failing points but carry no details
    kwargs = {} if mutate is None else {"mutate": mutate}
    rep = check(TrigSolution(example_structure()), 3, 5, fp, **kwargs)
    assert rep.to_json_dict() == {
        "check": name,
        "points": 3,
        "failures": failures,
        "pass": failures == 0,
        "seed": 5,
        "backend": fp.name,
    }
    assert rep.elapsed_ms >= 0


class _Doubled(trig_module._TableSolution):
    """2 r: unitarity fails at every point."""

    def __init__(self, base):
        self.base, self.n = base, base.n
        self._set_rows(base.groups, base.flats, base.prices)

    def price(self, ring, point):
        nums, den = self.base.price(ring, point)
        return [x if x is None else 2 * x for x in nums], den


class _EvenGauge(trig_module._TableSolution):
    """r conjugated by phi(v) (x) phi(v), phi(v) = diag(1, q_v^2 + q_v^-2 + 1, 1, 1):
    phi is even in v, so unitarity holds, but the QYBE fails.

    Entry (i,j,k,l) gains the factor t^e, t = phi(v)_11 and
    e = [i = 1] - [j = 1] + [k = 1] - [l = 1]; group (g, e) prices it.
    """

    def __init__(self, base):
        self.base, self.n = base, base.n
        groups = {}
        n = base.n
        exps = [sum(w for w, d in zip((1, -1, 1, -1), (f // n ** 3, f // n ** 2, f // n, f))
                    if d % n == 1)
                for f in base.flats]
        self._set_rows([groups.setdefault((g, e), len(groups))
                        for g, e in zip(base.groups, exps)], base.flats, len(groups))
        self._groups = tuple(groups)

    def price(self, ring, point):
        nums, den = self.base.price(ring, point)
        q_v = point.q_v
        (t,), t_den = ring.integral((q_v ** 2 + q_v ** -2 + ring.one,))
        # t^e = t_num^(e+2) t_den^(2-e) / (t_num t_den)^2
        return ([ring.reduce(nums[g] * t ** (e + 2) * t_den ** (2 - e))
                 for g, e in self._groups], ring.reduce(den * (t * t_den) ** 2))


def test_even_gauge_table_is_the_conjugated_r(field):
    base = TrigSolution(example_structure())
    rng = derive_rng(38, "even-gauge", field.name)
    for _ in range(3):
        qu, qv = _pole_free(field, rng, 4, 2)
        phi = [[field.one if i == j else field.zero for j in range(4)] for i in range(4)]
        phi[1][1] = qv ** 2 + qv ** -2 + field.one
        assert (_EvenGauge(base).eval(field, qu, qv)
                == gauge_transform(base, phi, field).eval(field, qu, qv))


class _Zero(trig_module._TableSolution):
    """The zero r-matrix, an empty table: degenerate at every point."""

    n = 2

    def __init__(self):
        self._set_rows((), (), 0)

    def price(self, ring, point):
        return [], 1


@pytest.mark.parametrize("check, sol, name, note", [
    (qybe_unitarity, _Doubled(TrigSolution(example_structure())), "qybe-unitarity",
     "unitarity failed"),
    (qybe_unitarity, _EvenGauge(TrigSolution(example_structure())), "qybe-unitarity",
     "qybe failed"),
    (check_strong_nondegeneracy, _Zero(), "strong-nondegeneracy", "degenerate point found"),
], ids=["qybe", "qybe-gauge", "nondeg"])
def test_failure_details_are_capped_at_three(check, sol, name, note, fp):
    rep = check(sol, 4, 5, fp)
    assert rep.to_json_dict() == {
        "check": name,
        "points": 4,
        "failures": 4,
        "pass": False,
        "seed": 5,
        "backend": fp.name,
        "details": [note] * 3,
    }


# -- the compiled AYBE and skew residuals ----------------------------------------


def _n2_structure():
    return next(iter(enumerate_structures(2)))


@pytest.mark.parametrize("check", [check_aybe, check_skew, check_cybe],
                         ids=["aybe", "skew", "cybe"])
@pytest.mark.parametrize("slot", [(0, 0, 0, 2), (0, 0, 0), (5, 0, 0, 0), (0, -1, 0, 0)],
                         ids=["index-n", "short", "index-5", "negative"])
def test_bad_mutation_slot_is_rejected(check, slot, fp):
    # each of these once aliased onto another entry or addressed a flat
    # index outside the n^4 slots, so the "detected" failures meant nothing
    with pytest.raises(ValueError, match="mutation slot"):
        check(TrigSolution(_n2_structure()), 2, 7, fp, mutate=slot)


def _sparse_phi(n, field):
    """diag(2, 1, 3, 1, ...) plus 1 at (0, n - 1): invertible, and it mixes entries."""
    phi = [[field.of_int((2, 1, 3)[i % 3]) if i == j else field.zero for j in range(n)]
           for i in range(n)]
    phi[0][n - 1] = phi[0][n - 1] + field.one
    return phi


def _kinds(s, field):
    # single images, and compositions: a swap of a swap, a scale of a swap
    # and a swap of a scale
    sol = TrigSolution(s)
    phi = _sparse_phi(s.n, field)
    hat, gauge = hat_involution(sol), gauge_transform(sol, phi, field)
    return [("trig", sol), ("hat", hat), ("gauge", gauge),
            ("hat-hat", hat_involution(hat)), ("gauge-hat", gauge_transform(hat, phi, field)),
            ("hat-gauge", hat_involution(gauge))]


class _Corrupted(trig_module._TableSolution):
    """A solution whose table has one row twice: one coefficient becomes 2."""

    def __init__(self, base, row):
        self.base, self.n = base, base.n
        self._set_rows(base.groups + (base.groups[row],), base.flats + (base.flats[row],),
                       base.prices)

    def price(self, ring, point):
        return self.base.price(ring, point)


def _reference_aybe(sol, field, slot, qu, qup, qv, qvp):
    """The AYBE residual, by tensor products."""
    evals = [sol.eval(field, *point) for point in (
        (qup ** -1, qv), (qu * qup, qv * qvp), (qu * qup, qvp),
        (qu, qv), (qu, qv * qvp), (qup, qvp))]
    if slot is not None:
        evals[0] = evals[0] + Tensor2.basis(sol.n, field, *slot)
    return aybe_combine(*evals)


def _reference_skew(sol, field, slot, qu, qv):
    """The skew residual flip(r(-u,-v)) + r(u,v), by tensor maps."""
    r = sol.eval(field, qu, qv)
    if slot is not None:
        r = r + Tensor2.basis(sol.n, field, *slot)
    return sol.eval(field, qu ** -1, qv ** -1).flip() + r


def _weighted(t, weights, field):
    """The weighted sum of a reference residual: entry (d_1, ..., d_2w)
    weighs weights[0][d_1] ... weights[2w - 1][d_2w]."""
    total = field.zero
    for idx, v in t.items():
        for ws, d in zip(weights, idx):
            v = v * field.of_int(ws[d])
        total = total + v
    return total


class _Pinned:
    """A projected residual as ``trig`` compiles it, whose every zero test
    must give the verdict of the exact ``Residual`` compiled from the same
    evaluations and jobs; it keeps the form's value at each test."""

    def __init__(self, values, ring, n, evaluations, jobs, weights):
        self.values = values
        self.projected = projected_residual(ring, n, evaluations, jobs, weights)
        self.exact = product_residual(n, evaluations, jobs)

    def is_zero(self, ring, evaluations):
        verdict = self.projected.is_zero(ring, evaluations)
        # r's values are a Point's price table, None at the keys no table has
        # read there, which neither program reads
        assert verdict == self.exact.is_zero(ring, evaluations)
        self.values.append(self.projected.value(ring, evaluations))
        return verdict


@contextmanager
def _pinned_to_the_exact_residual():
    """Inside the block, every residual ``trig`` compiles is a ``_Pinned``;
    yields the list that collects the form's value at each test, in order."""
    values = []
    compile_ = trig_module.projected_residual
    trig_module.projected_residual = lambda *args: _Pinned(values, *args)
    try:
        yield values
    finally:
        trig_module.projected_residual = compile_


def _pin_to_reference(sol, field, slot, points, tag):
    """The compiled AYBE and skew verdicts equal the references' and the
    exact residual's at each point, and the projections' values the
    references' weighted sums."""
    n, aybe_record, skew_record = sol.n, trig_module._AYBE, trig_module._SKEW
    weights = trig_module._weights(field, 31, tag, n)
    with _pinned_to_the_exact_residual() as values:
        aybe = aybe_record.fails(sol, field, weights, slot)
        skew = skew_record.fails(sol, field, weights, slot)
        rng = derive_rng(31, "compiled", tag, field.name)
        extra = [functools.partial(pole, n) for pole in aybe_record.poles]
        verdicts = []
        for _ in range(points):
            qs = _pole_free(field, rng, n, 4, extra)
            verdict = bool(aybe(*aybe_record.at(field, n, *qs)))
            want = _reference_aybe(sol, field, slot, *qs)
            assert verdict == (not want.is_zero()), tag
            assert values.pop() == _weighted(want, weights, field), tag
            want = _reference_skew(sol, field, slot, *qs[::2])
            assert bool(skew(*skew_record.at(field, n, *qs[::2]))) == (not want.is_zero()), tag
            assert values.pop() == _weighted(want, weights, field), tag
            verdicts.append(verdict)
    return verdicts


def _compiled_corpus():
    # 20 of the 260 acceptance structures: all of n <= 2, every 7th of n = 3
    # and every 19th of n = 4
    return [s for n, step in ((1, 1), (2, 1), (3, 7), (4, 19))
            for s in list(enumerate_structures(n))[::step]]


def test_compiled_checks_match_the_reference(field):
    for s in _compiled_corpus():
        for kind, sol in _kinds(s, field):
            tag = "%s %s" % (kind, s.label())
            assert not any(_pin_to_reference(sol, field, None, 2, tag)), tag
            rng = derive_rng(32, "slot", tag)
            slot = tuple(rng.randrange(s.n) for _ in range(4))
            assert all(_pin_to_reference(sol, field, slot, 1, tag + " mutated")), tag


def test_compiled_checks_match_the_reference_at_every_slot(field):
    # r and the hat, read by their rows, and a gauge, read by its support:
    # the mutated entry at every slot, on and off the support
    for s in [s for n in (1, 2) for s in enumerate_structures(n)]:
        sol = TrigSolution(s)
        for kind, table in (("trig", sol), ("hat", hat_involution(sol)),
                            ("gauge", gauge_transform(sol, _sparse_phi(s.n, field), field))):
            for slot in itertools.product(range(s.n), repeat=4):
                tag = "%s %s %s" % (kind, s.label(), slot)
                assert all(_pin_to_reference(table, field, slot, 1, tag)), tag


def test_a_corrupted_table_coefficient_is_detected(field):
    for s in _compiled_corpus()[1::3]:
        for kind, sol in _kinds(s, field):
            bad = _Corrupted(sol, len(sol.flats) // 2)
            tag = "%s %s corrupted" % (kind, s.label())
            assert all(_pin_to_reference(bad, field, None, 1, tag)), tag


def _dense_phi(n, field, rng):
    """A random invertible n x n matrix with entries in -3..3."""
    while True:
        phi = [[field.of_int(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
        if exact_determinant(phi, field):
            return phi


def test_gauge_table_equals_the_conjugated_product(field):
    # the reference: kron2(phi, phi) . r . kron2(phi^-1, phi^-1), a product of tensors
    sol = TrigSolution(example_structure())
    rng = derive_rng(33, "gauge-ref", field.name)
    phi = _dense_phi(4, field, rng)
    g = gauge_transform(sol, phi, field)
    phi_inv = matrix_inverse(phi, field)
    for _ in range(3):
        qu, qv = _pole_free(field, rng, 4, 2)
        reference = kron2(phi, phi, field) * sol.eval(field, qu, qv) * kron2(
            phi_inv, phi_inv, field)
        assert g.eval(field, qu, qv) == reference


def test_dense_gauge_checks_stay_within_the_support(field):
    # a dense phi gives one table row per (base group, entry); the compiled
    # residuals run over the distinct flats, at most n^4 of them
    sol = TrigSolution(example_structure())
    g = gauge_transform(sol, _dense_phi(4, field, derive_rng(34, "dense", field.name)), field)
    assert len(g.flats) > 4 ** 4 >= len(g.support)
    assert check_aybe(g, 2, 7, field).passed
    assert check_skew(g, 3, 7, field).passed
    assert check_aybe(g, 1, 7, field, mutate=(1, 2, 3, 0)).failures == 1
    assert not any(_pin_to_reference(g, field, None, 1, "dense gauge"))


# -- the compiled CYBE, QYBE and unitarity residuals ------------------------------


def _jet_r0(sol, field, qv):
    """The reference r0(v): the u^0 coefficient of r's jet, to order 6."""
    return trig_module._jet_coefficient(sol, field, 6, "u", qv, 0)


def _reference_cybe(sol, field, slot, qv, qvp):
    """The CYBE residual of rbar0 read off r's jets, by tensor products."""
    x, y, z = (_jet_r0(sol, field, q).project_sl() for q in (qv, qv * qvp, qvp))
    if slot is not None:
        x = x + Tensor2.basis(sol.n, field, *slot)
    return cybe_residual(x, y, z)


def _reference_qybe(sol, field, qu, qv, qvp):
    """The unitarity residual, then the QYBE's, by tensor products."""
    n = sol.n
    r12 = sol.eval(field, qu, qv)
    unit = Tensor2.unit(n, field).scale((qu ** n - qu ** -n) ** -2 - (qv ** n - qv ** -n) ** -2)
    r13, r23 = sol.eval(field, qu, qv * qvp), sol.eval(field, qu, qvp)
    return (r12 * sol.eval(field, qu, qv ** -1).flip() - unit,
            pair_embed_product(r12, 12, r13, 13) * embed_triple(r23, 23)
            - pair_embed_product(r23, 23, r13, 13) * embed_triple(r12, 12))


def _pin_limits_to_reference(sol, field, slot, points, tag, qybe=True):
    """The compiled CYBE verdicts, and the QYBE/unitarity notes, equal the
    references' and the exact residuals' at each point, and the
    projections' values the references' weighted sums; returns the CYBE
    verdicts and the notes."""
    n, one = sol.n, field.one
    weights = trig_module._weights(field, 35, tag, n)
    with _pinned_to_the_exact_residual() as values:
        cybe = trig_module._CYBE.fails(sol, field, weights, slot)
        qybe_fails = trig_module._QYBE.fails(sol, field, weights) if qybe else None
        rng = derive_rng(35, "compiled-limits", tag, field.name)
        verdicts, notes = [], []
        for _ in range(points):
            qu, qv, qvp = _pole_free(field, rng, n, 3,
                                     (lambda a, b, c: (b * c) ** (2 * n) - one,))
            verdict = bool(cybe(*trig_module._CYBE.at(field, n, qv, qvp)))
            want = _reference_cybe(sol, field, slot, qv, qvp)
            assert verdict == (not want.is_zero()), tag
            assert values.pop() == _weighted(want, weights, field), tag
            verdicts.append(verdict)
            if qybe:
                note = qybe_fails(*trig_module._QYBE.at(field, n, qu, qv, qvp))
                unitarity, qybe_residual = _reference_qybe(sol, field, qu, qv, qvp)
                tested = [unitarity] if note == "unitarity failed" else [unitarity, qybe_residual]
                assert values == [_weighted(t, weights, field) for t in tested], tag
                values.clear()
                assert note == ("unitarity failed" if not unitarity.is_zero()
                                else "qybe failed" if not qybe_residual.is_zero() else None), tag
                notes.append(note)
    return verdicts, notes


@pytest.mark.parametrize("n", range(1, 6))
def test_side_prices_are_the_monomials_over_one_den(n, field):
    # every part (c, α, p) a side reads, nums[i] / den against
    # c q^2α / (q^2n - 1)^p computed in the field; the table's parts are
    # among them, and q = -1 is a pole
    parts = ([(c, alpha, 1) for c in (1, -1) for alpha in range(n + 1)]
             + [(c, alpha, 0) for c in (1, -1) for alpha in range(1 - n, n)])
    sides = trig_module._layout(n).sides
    assert set(sides[0]) | set(sides[1]) <= set(parts)
    rng = derive_rng(44, "side", n, field.name)
    for q in _pole_free(field, rng, n, 3):
        nums, den = trig_module.side_prices(field, n, q, parts)
        for (c, alpha, p), num in zip(parts, nums):
            want = field.of_int(c) * q ** (2 * alpha) / (q ** (2 * n) - field.one) ** p
            assert field.box(num) / field.box(den) == want, (c, alpha, p)
    with pytest.raises(PoleError):
        trig_module.side_prices(field, n, -field.one, parts)


@pytest.mark.parametrize("n", range(1, 8))
def test_every_polar_monomial_is_constant_in_the_other_variable(n):
    # what lets the residues read no point, for every group a table can hold
    for mons in trig_module._monomial_table(n).values():
        for c, alpha, p_u, beta, p_v in mons:
            assert not p_u or (beta, p_v) == (0, 0), mons
            assert not p_v or (alpha, p_u) == (0, 0), mons


def test_table_r0_equals_the_jet_coefficient(field):
    for s in _compiled_corpus():
        for kind, sol in _kinds(s, field):
            rng = derive_rng(36, "r0", kind, s.label(), field.name)
            for _ in range(2):
                (qv,) = _pole_free(field, rng, s.n, 1)
                assert r0_tensor(sol, qv, field) == _jet_r0(sol, field, qv), (kind, s.label())


def test_table_residues_equal_the_jet_coefficient(field):
    # the first row doubled, a diagonal group's: its residue in u is no
    # longer 1 (x) 1, and the table still reads what the jets read
    for s in _compiled_corpus():
        for kind, sol in _kinds(s, field):
            rng = derive_rng(40, "residues", kind, s.label(), field.name)
            points = _pole_free(field, rng, s.n, 2)
            bad = _Corrupted(sol, 0)
            for which in ("u", "v"):
                for r in (sol, bad):
                    res = residues(r, which, points[0], field)
                    assert residues(r, which, points[1], field) == res, (kind, s.label())
                    for other in points:
                        jet = trig_module._jet_coefficient(r, field, 2, which, other, -1)
                        assert res == jet, (kind, s.label(), which)
            assert residues(bad, "u", points[0], field) != Tensor2.unit(s.n, field)
            with pytest.raises(ValueError):
                residues(sol, "w", points[0], field)


def test_projected_table_equals_project_sl(field):
    for s in _compiled_corpus():
        for kind, sol in _kinds(s, field):
            rng = derive_rng(39, "rbar0", kind, s.label(), field.name)
            (qv,) = _pole_free(field, rng, s.n, 1)
            rbar0 = trig_module.projected_r0(sol).eval(field, None, qv)
            assert rbar0 == r0_tensor(sol, qv, field).project_sl(), (kind, s.label())


def test_compiled_limits_match_the_reference(field):
    for s in _compiled_corpus():
        for kind, sol in _kinds(s, field):
            tag = "%s %s" % (kind, s.label())
            verdicts, notes = _pin_limits_to_reference(sol, field, None, 2, tag)
            assert not any(verdicts) and not any(notes), tag
            rng = derive_rng(37, "slot", tag)
            slot = tuple(rng.randrange(s.n) for _ in range(4))
            verdicts, _ = _pin_limits_to_reference(sol, field, slot, 1, tag + " mutated",
                                                   qybe=False)
            # pr (x) pr leaves nothing of an n = 1 structure to corrupt
            assert all(verdicts) == (s.n > 1), tag


def test_compiled_cybe_matches_the_reference_at_every_slot(field):
    for s in [s for n in (1, 2) for s in enumerate_structures(n)]:
        sol = TrigSolution(s)
        for slot in itertools.product(range(s.n), repeat=4):
            _pin_limits_to_reference(sol, field, slot, 1, "%s %s" % (s.label(), slot),
                                     qybe=False)


def test_a_corrupted_table_coefficient_fails_the_limits(field):
    # the first row doubled in the table, a diagonal group's, whose r0 price
    # never vanishes (a horizontal row with 2k = n would leave r0 as it is):
    # CYBE and QYBE/unitarity must fail where the references do, at every point
    for s in [s for s in _compiled_corpus() if s.n > 1][::2]:
        for kind, sol in _kinds(s, field):
            bad = _Corrupted(sol, 0)
            tag = "%s %s corrupted" % (kind, s.label())
            verdicts, notes = _pin_limits_to_reference(bad, field, None, 1, tag)
            assert all(verdicts) and all(notes), tag
            assert not check_cybe(bad, 1, 7, field).passed, tag
            assert not qybe_unitarity(bad, 1, 7, field).passed, tag


# -- the compiled strong nondegeneracy test ---------------------------------------


def _block_tables():
    """n = 2 tables, (name, table, singular at every point), each flat
    priced as group 0 (diagonal) or 1 (horizontal) of an n = 2 solution;
    flat row * 4 + column of the 4 x 4 matrix.

    The singular ones: a zero row, a 2 x 2 block of equal entries after an
    invertible one, a 1 x 1 block whose rows cancel, P (invertible, but its
    transpose_p has empty rows) and the empty table.  The invertible one
    has a block on rows {0, 1} and columns {2, 3}: its rows and columns
    are different index sets.
    """
    sol = TrigSolution(_n2_structure())
    image = trig_module._Image
    return [
        ("zero-row", image(sol, [(g, f, 1) for g, f in zip(sol.groups, sol.flats) if f // 4]),
         True),
        ("proportional", image(sol, [(0, 0, 1), (1, 1, 1), (1, 4, 1), (0, 5, 1)]
                               + [(0, f, 1) for f in (10, 11, 14, 15)]), True),
        ("cancelled", image(sol, [(0, f, 1) for f in (0, 5, 10, 15)] + [(0, 5, -1)]), True),
        ("p", image(sol, [(0, f, 1) for f in (0, 6, 9, 15)]), True),
        ("empty", _Zero(), True),
        ("crossed", image(sol, [(0, 2, 1), (1, 3, 1), (1, 6, 1), (0, 7, 1), (0, 8, 1),
                                (0, 13, 1)]), False),
    ]


def _pin_nondegeneracy(sol, field, tag):
    """The compiled verdicts equal the dense determinants' at two points."""
    fails = trig_module._nondegeneracy_fails(sol, field)
    rng = derive_rng(41, "nondeg", tag, field.name)
    verdicts = []
    for _ in range(2):
        qu, qv = _pole_free(field, rng, sol.n, 2)
        r = sol.eval(field, qu, qv)
        invertible = r.tensor_rank()[1] and r.transpose_p().tensor_rank()[1]
        verdict = fails(trig_module.Point(field, sol.n, qu, qv))
        assert (verdict is None) == invertible, tag
        verdicts.append(verdict)
    return verdicts


def test_compiled_nondegeneracy_matches_the_dense_reference(field):
    for s in _compiled_corpus():
        for kind, sol in _kinds(s, field):
            tag = "%s %s" % (kind, s.label())
            assert not any(_pin_nondegeneracy(sol, field, tag)), tag
    for name, sol, singular in _block_tables():
        verdicts = _pin_nondegeneracy(sol, field, name)
        assert [bool(v) for v in verdicts] == [singular] * len(verdicts), name


# -- the per-process memos of structure-independent inputs ----------------------

_MEMOS = (trig_module._points, trig_module._weights, trig_module._residue_point,
          tensors_module._plan)


def _clear_memos():
    for memo in _MEMOS:
        memo.cache_clear()


def test_points_price_from_the_factors_they_keep(field):
    # every acceptance-corpus table, read twice at each Point of its n (the
    # first structure of an n fills its keys' slots, every later read takes
    # the kept ones and fills only keys not yet read there): each slot its
    # rows read, against its key's two factors of point_factors computed
    # afresh, through _layout; the hat reads at the swapped point.  Every
    # table reads the point's own price table, not a copy
    points = {}
    for s in acceptance_corpus():
        if s.n not in points:
            rng = derive_rng(43, "memo", s.n, field.name)
            points[s.n] = [trig_module.Point(field, s.n, *_pole_free(field, rng, s.n, 2))
                           for _ in range(2)]
        sol = TrigSolution(s)
        first, second = trig_module._layout(s.n).recipe

        def reference(q_u, q_v):
            factors, den = trig_module.point_factors(field, s.n, q_u, q_v)
            return ({k: field.reduce(factors[first[k]] * factors[second[k]]) for k in sol.keys},
                    den)

        for point in points[s.n]:
            want = reference(point.q_u, point.q_v)
            for table, at, expected in ((sol, point, want),
                                        (hat_involution(sol), point.swapped(),
                                         reference(point.q_v, point.q_u))):
                for _ in range(2):
                    nums, den = table.read(field, point)
                    assert ({g: nums[g] for g in set(table.groups)}, den) == expected, s.label()
                    assert nums is at._table, s.label()
            sums = dict.fromkeys(sol.support, 0)
            for g, f in zip(sol.groups, sol.flats):
                sums[f] += want[0][g]
            assert sol.values(field, point) == (list(sums.values()), want[1]), s.label()
            assert point.factors() is point.factors()
            assert point.swapped() is point.swapped()
            assert point.swapped().swapped() is point
            assert (point.swapped().q_u, point.swapped().q_v) == (point.q_v, point.q_u)


def test_residues_price_one_point_per_ring_n_and_side(fp, monkeypatch):
    # both residues of every n <= 4 suite structure and of its hat, in q and
    # in GF(2^61 - 1), read the Point (RESIDUE, None) of their ring and n, or
    # its swap, and the hat's v residue the swap of that swap, the point
    # itself: each is priced once, whatever number of structures reads it.
    # The hat rotates r(v, u)'s flats by one digit, which takes P to 1 (x) 1
    # and back
    priced = Counter()
    point_factors = trig_module.point_factors

    def counted_price(ring, n, q_u, q_v):
        priced[ring.name, n, q_u is trig_module.RESIDUE] += 1
        return point_factors(ring, n, q_u, q_v)

    monkeypatch.setattr(trig_module, "point_factors", counted_price)
    _clear_memos()
    structures = suite_catalog()
    for ring in (RATIONAL, fp):
        for s in structures:
            for sol in (TrigSolution(s), hat_involution(TrigSolution(s))):
                assert residues(sol, "u", None, ring) == Tensor2.unit(s.n, ring), s.label()
                assert residues(sol, "v", None, ring) == transposition_p(s.n, ring), s.label()
    assert priced == Counter({(ring.name, n, side): 1 for ring in (RATIONAL, fp)
                              for n in {s.n for s in structures} for side in (True, False)})


def test_reports_are_identical_cold_and_warm(field):
    # each check once with every memo cleared, then all of them again warm
    sol = TrigSolution(example_structure())
    runs = [(check_aybe, sol, {}), (check_aybe, sol, {"mutate": (0, 1, 2, 2)}),
            (check_aybe, hat_involution(sol), {}), (check_skew, sol, {}),
            (check_cybe, sol, {}), (qybe_unitarity, sol, {}),
            (qybe_unitarity, _Doubled(sol), {}), (check_strong_nondegeneracy, sol, {})]
    cold = []
    for check, table, kwargs in runs:
        _clear_memos()
        cold.append(check(table, 4, 9, field, **kwargs).to_json_dict())
    warm = [check(table, 4, 9, field, **kwargs).to_json_dict() for check, table, kwargs in runs]
    assert cold == warm
    assert [r["failures"] for r in cold] == [0, 4, 0, 0, 0, 0, 4, 0]


@pytest.mark.parametrize("check, per_sample, mutate", [
    (check_aybe, 6, {"mutate": (0, 1, 2, 2)}),
    (check_skew, 2, {"mutate": (0, 1, 2, 2)}),
    (check_cybe, 3, {"mutate": (0, 1, 2, 2)}),  # rbar0 at (0, v), (0, v + v'), (0, v')
    (qybe_unitarity, 4, {}),
], ids=["aybe", "skew", "cybe", "qybe"])
def test_structures_of_one_n_draw_and_price_their_points_once(check, per_sample, mutate, fp,
                                                              monkeypatch):
    # each check's samples are drawn and priced once per n: a sample callable
    # built anew per call would miss the memo silently, costing time only.
    # Each (Point, group key) is priced at most once across every run, and
    # a point's table holds only the keys read there: after the first
    # structure's check, exactly that structure's
    drawn, priced, fills = [], [], Counter()
    pole_free, point_factors = trig_module._pole_free, trig_module.point_factors
    fill = trig_module.Point._fill

    def counted_fill(point, keys):
        # a slot priced by this call holds a new object
        before = list(point._table or ())
        table = fill(point, keys)
        fills.update((point, k) for k, price in enumerate(table) if price is not None
                     and (k >= len(before) or price is not before[k]))
        return table

    def filled(point):
        return {k for k, price in enumerate(point._table) if price is not None}

    def counted_draw(field, rng, n, count, extra=()):
        drawn.append(n)
        return pole_free(field, rng, n, count, extra)

    def counted_price(ring, n, q_u, q_v):
        priced.append(n)
        return point_factors(ring, n, q_u, q_v)

    monkeypatch.setattr(trig_module, "_pole_free", counted_draw)
    monkeypatch.setattr(trig_module, "point_factors", counted_price)
    monkeypatch.setattr(trig_module.Point, "_fill", counted_fill)
    _clear_memos()
    first, second = list(enumerate_structures(3))[:2]
    check(TrigSolution(first), 3, 7, fp)
    assert (drawn, priced) == ([3] * 3, [3] * 3 * per_sample)
    read = {point for point, _ in fills}
    assert len(read) == 3 * per_sample
    assert all(filled(point) == set(TrigSolution(first).keys) for point in read)
    check(TrigSolution(second), 3, 7, fp)
    check(TrigSolution(second), 3, 7, fp, **mutate)
    assert (drawn, priced) == ([3] * 3, [3] * 3 * per_sample)
    check(hat_involution(TrigSolution(second)), 3, 7, fp)
    assert (drawn, priced) == ([3] * 3, [3] * 6 * per_sample)  # the swapped points
    check(hat_involution(TrigSolution(first)), 3, 7, fp)
    assert (drawn, priced) == ([3] * 3, [3] * 6 * per_sample)
    check(TrigSolution(example_structure()), 3, 7, fp)
    assert (drawn, priced) == ([3] * 3 + [4] * 3, [3] * 6 * per_sample + [4] * 3 * per_sample)
    assert max(fills.values()) == 1


def test_points_of_different_fields_never_share_a_memo_entry(fp):
    # equal integers in q, in GF(2^61 - 1) and in a smaller prime field
    _clear_memos()
    small = PrimeField(1_000_000_007)
    rings = (RATIONAL, fp, small)
    points = [trig_module.Point(ring, 4, ring.of_int(100003), ring.of_int(7))
              for ring in rings]
    factors = [point.factors() for point in points]
    assert len(set(factors)) == 3
    for ring, got in zip(rings, factors):
        assert got == trig_module.point_factors(ring, 4, ring.of_int(100003), ring.of_int(7))
    samples = [trig_module._points(ring, 7, "aybe", 2, 2, trig_module._AYBE.sample)
               for ring in rings]
    assert trig_module._points.cache_info().misses == 3
    for ring, drawn in zip(rings, samples):
        for point in drawn[0]:
            assert point.ring is ring
            assert {type(point.q_u), type(point.q_v)} == {type(ring.one)}
            assert point.factors() == trig_module.point_factors(ring, 2, point.q_u, point.q_v)


def test_compile_plans_of_different_rings_and_weights_never_mix(fp):
    # one job list compiled for two structures of one n in three rings, with
    # two weight sets; each weight set is the same raw ints in every ring, so
    # only the ring tells their plans apart: a flat's reduced weight, the
    # product of three of them, differs mod p, mod p' and in q.  The
    # mutated AYBE form does not vanish, so its values show a mixed plan
    record = trig_module._AYBE
    sols = [TrigSolution(s) for s in list(enumerate_structures(3))[:2]]
    rng = derive_rng(53, "plan-weights")
    weight_sets = [[[rng.randrange(10 ** 9) for _ in range(3)] for _ in range(6)]
                   for _ in range(2)]
    runs = [(ring, weights, sol) for ring in (fp, PrimeField(1_000_000_007), RATIONAL)
            for weights in weight_sets for sol in sols]

    def values(ring, weights, sol):
        with _pinned_to_the_exact_residual() as got:
            fails = record.fails(sol, ring, weights, (0, 1, 2, 2))
            for at in trig_module._points(ring, 7, "aybe", 3, 2, record.sample):
                fails(*at)
        return got

    _clear_memos()
    warm = [values(*run) for run in runs]
    assert tensors_module._plan.cache_info().misses == 6  # one per (ring, weights)
    cold = []
    for run in runs:
        tensors_module._plan.cache_clear()
        cold.append(values(*run))
    assert warm == cold
    assert all(any(got) for got in cold)


def test_every_memo_is_bounded_and_empty_at_import():
    for memo in _MEMOS:
        assert 0 < memo.cache_info().maxsize <= 64, memo.__name__
    src = str(Path(trig_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # every memo of _MEMOS, named by its module and name
    code = "import ybx.tensors, ybx.trig; print([m.cache_info().currsize for m in (%s,)])" % (
        ", ".join("%s.%s" % (memo.__module__, memo.__name__) for memo in _MEMOS))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == str([0] * len(_MEMOS))
