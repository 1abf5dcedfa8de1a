"""The trigonometric r-matrix of a Belavin-Drinfeld structure and its checks.

Evaluation convention: instead of u and v the evaluators take the sampled
quantities q_u = exp(u/(2n)) and q_v = exp(v/(2n)), so that

    exp(u/n) = q_u**2,   exp(u) = q_u**(2n),   exp(u/2) = q_u**n

are all Laurent monomials in q_u (and likewise for v).  This covers the 1/n
exponents of the closed formula and the half-integer exponents of the QYBE
rescaling with no root extraction.  Every identity is verified by exact
evaluation at seeded random points avoiding the poles.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .jets import JetRing, LaurentJet, exp_jet
from .perms import ABDStructure, rectangle_terms, validate_abd
from .scalars import derive_rng
from .tensors import (
    Tensor2,
    aybe_combine,
    cybe_residual,
    embed_triple,
    kron2,
    matrix_inverse,
    pair_embed_product,
    transposition_p,  # unused here; the benchmark tracer wraps trig.transposition_p
)


class PoleError(ZeroDivisionError):
    """An evaluation point hit a pole of the r-matrix."""


@dataclass
class CheckReport:
    check: str
    points: int
    failures: int
    seed: int
    backend: str
    elapsed_ms: float = 0.0
    details: list = dc_field(default_factory=list)

    @classmethod
    @contextmanager
    def timed(cls, check, points, seed, backend):
        """A report with no failures yet; ``elapsed_ms`` times the with-block."""
        report = cls(check=check, points=points, failures=0, seed=seed, backend=backend)
        t0 = time.perf_counter()
        yield report
        report.elapsed_ms = (time.perf_counter() - t0) * 1000

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json_dict(self, with_timing=False) -> dict:
        d = {
            "check": self.check,
            "points": self.points,
            "failures": self.failures,
            "pass": self.passed,
            "seed": self.seed,
            "backend": self.backend,
        }
        if self.details:
            d["details"] = list(self.details)
        if with_timing:
            d["elapsed_ms"] = self.elapsed_ms
        return d


def _invert(ring, x):
    """1/x with pole reporting for scalars and jets alike."""
    if isinstance(x, LaurentJet):
        if not x:
            raise PoleError("jet denominator vanishes to tracked order")
        return x.inverse()
    if not x:
        raise PoleError("denominator vanished at the evaluation point")
    return ring.one / x


class TrigSolution:
    """Evaluator for the closed-form trigonometric solution of an ABD structure.

    ``terms`` is the rectangle-family table of ``perms.rectangle_terms``;
    ``eval`` prices each of its groups once and adds the price at the
    group's target entries.
    """

    def __init__(self, abd: ABDStructure):
        problems = validate_abd(abd)
        if problems:
            raise ValueError("invalid structure: " + "; ".join(problems))
        self.abd = abd
        self.n = abd.n
        self.terms = rectangle_terms(abd)

    def eval(self, ring, q_u, q_v) -> Tensor2:
        """r at the point (q_u, q_v); entries live in ``ring``.

        Group prices: diagonal 1/(e^u - 1) + 1/(1 - e^-v), horizontal
        e^{ku/n}/(e^u - 1), vertical e^{mv/n}/(e^v - 1), and the A-rectangle
        pair e^{-(ku+mv)/n} (sign +1) and -e^{(ku+mv)/n} (sign -1).
        """
        n = self.n
        one = ring.one
        eu = q_u ** (2 * n)        # exp(u)
        ev = q_v ** (2 * n)        # exp(v)
        inv_eu_m1 = _invert(ring, eu - one)          # 1/(e^u - 1)
        inv_ev_m1 = _invert(ring, ev - one)          # 1/(e^v - 1)
        diag = inv_eu_m1 + inv_ev_m1 + one           # 1/(1 - e^-v) = 1/(e^v - 1) + 1
        eu_n = q_u * q_u           # exp(u/n)
        ev_n = q_v * q_v           # exp(v/n)
        pw_u, pw_v = [one], [one]  # exp(ku/n) and exp(mv/n) for 0 <= k, m < n
        for _ in range(1, n):
            pw_u.append(pw_u[-1] * eu_n)
            pw_v.append(pw_v[-1] * ev_n)
        prices = []
        for kind, k, m, sign, _, _ in self.terms:
            if kind == "diagonal":
                prices.append(diag)
            elif kind == "horizontal":
                prices.append(pw_u[k] * inv_eu_m1)
            elif kind == "vertical":
                prices.append(pw_v[m] * inv_ev_m1)
            else:
                w = pw_u[k] * pw_v[m]                # exp((ku+mv)/n)
                prices.append(_invert(ring, w) if sign > 0 else -w)
        return assemble_terms(n, ring, self.terms, prices)


def assemble_terms(n, ring, terms, prices) -> Tensor2:
    """The tensor with each group's price added at every target of the group."""
    data = {}
    for (*_, flats), price in zip(terms, prices):
        for f in flats:
            v = data.pop(f, None)
            v = price if v is None else v + price
            if v:
                data[f] = v
    return Tensor2(n, ring, data)


class HatSolution:
    """The involution image: hat(r)(u,v) = transpose(r(v,u)) . P.

    transpose(t) . P only relabels t's entries (``Tensor2.transpose_p``), so
    hat(hat(r)) is ``flip`` of r.
    """

    def __init__(self, base):
        self.base = base
        self.n = base.n

    def eval(self, ring, q_u, q_v) -> Tensor2:
        return self.base.eval(ring, q_v, q_u).transpose_p()


class GaugeSolution:
    """(phi (x) phi) r (phi (x) phi)^-1 for a constant invertible matrix phi."""

    def __init__(self, base, phi, field):
        self.base = base
        self.n = base.n
        self.field = field
        self.phi = phi
        self.phi_inv = matrix_inverse(phi, field)

    def eval(self, ring, q_u, q_v) -> Tensor2:
        g = kron2(self.phi, self.phi, ring)
        g_inv = kron2(self.phi_inv, self.phi_inv, ring)
        return g * self.base.eval(ring, q_u, q_v) * g_inv


def gauge_transform(sol, phi, field) -> GaugeSolution:
    return GaugeSolution(sol, phi, field)


def hat_involution(sol) -> HatSolution:
    return HatSolution(sol)


# -- point sampling -----------------------------------------------------------


def _pole_free(field, rng, n, count, extra=()):
    """Sample ``count`` scalars q with q^(2n) != 1, rejecting jointly until the
    listed extra constraints (callables of the tuple) are nonzero."""
    one = field.one
    for _ in range(200):
        qs = []
        ok = True
        for _ in range(count):
            q = field.sample(rng)
            if not q or q ** (2 * n) == one:
                ok = False
                break
            qs.append(q)
        if not ok:
            continue
        if all(bool(c(*qs)) for c in extra):
            return tuple(qs)
    raise PoleError("could not find a pole-free sample tuple")


def _mutated(t: Tensor2, slot, ring) -> Tensor2:
    """t with ring.one added at ``slot``; t itself when ``slot`` is None."""
    if slot is None:
        return t
    out = Tensor2(t.n, ring, dict(t.data))
    out[slot] = out[slot] + ring.one
    return out


def _sampled_check(check, tag, sol, num_points, seed, field, count, fails,
                   extra=(), mutate=None) -> CheckReport:
    """The seeded Schwartz-Zippel loop behind every identity check.

    Draws ``num_points`` pole-free ``count``-tuples (subject to ``extra``)
    from the RNG derived from (seed, tag, backend) and calls ``fails(*qs)``
    at each.  ``fails`` returns a falsy value where the identity holds, and
    True or a note naming the failure where it does not; the first three
    notes become the report's details.  A run with ``mutate`` set is
    reported as ``check(mutated)``.
    """
    if mutate is not None:
        check += "(mutated)"
    with CheckReport.timed(check, num_points, seed, field.name) as report:
        rng = derive_rng(seed, tag, field.name)
        for _ in range(num_points):
            failed = fails(*_pole_free(field, rng, sol.n, count, extra))
            if failed:
                report.failures += 1
                if failed is not True and len(report.details) < 3:
                    report.details.append(failed)
    return report


# -- identity checks -----------------------------------------------------------


def check_aybe(sol, num_points, seed, field, mutate=None) -> CheckReport:
    """AYBE residual r12(-u',v) r13(u+u',v+v') - r23(u+u',v') r12(u,v)
    + r13(u,v+v') r23(u',v') at seeded random points (must vanish).

    With ``mutate`` set to an index 4-tuple, one coefficient of the first
    factor is corrupted before combining; ``failures`` then counts the
    points where the corruption was detected (the honest reading: the
    identity fails there), so a working check reports a failing run.
    """
    n, one = sol.n, field.one

    def fails(qu, qup, qv, qvp):
        r_a = sol.eval(field, qup ** -1, qv)          # r(-u', v)
        r_b = sol.eval(field, qu * qup, qv * qvp)     # r(u+u', v+v')
        r_c = sol.eval(field, qu * qup, qvp)          # r(u+u', v')
        r_d = sol.eval(field, qu, qv)                 # r(u, v)
        r_e = sol.eval(field, qu, qv * qvp)           # r(u, v+v')
        r_f = sol.eval(field, qup, qvp)               # r(u', v')
        r_a = _mutated(r_a, mutate, field)
        return not aybe_combine(r_a, r_b, r_c, r_d, r_e, r_f).is_zero()

    extra = (
        lambda a, b, c, d: (a * b) ** (2 * n) - one,
        lambda a, b, c, d: (c * d) ** (2 * n) - one,
    )
    return _sampled_check("aybe", "aybe", sol, num_points, seed, field, 4, fails,
                          extra, mutate)


def check_skew(sol, num_points, seed, field, mutate=None) -> CheckReport:
    """Skew-symmetry: flip(r(-u,-v)) + r(u,v) = 0 at seeded points."""

    def fails(qu, qv):
        r = _mutated(sol.eval(field, qu, qv), mutate, field)
        r_neg = sol.eval(field, qu ** -1, qv ** -1)
        return not (r_neg.flip() + r).is_zero()

    return _sampled_check("skew", "skew", sol, num_points, seed, field, 2, fails,
                          mutate=mutate)


def check_strong_nondegeneracy(sol, num_points, seed, field) -> CheckReport:
    """Both r and transpose(r).P invertible as n^2 x n^2 matrices at each point."""

    def fails(qu, qv):
        r = sol.eval(field, qu, qv)
        if r.tensor_rank()[1] and r.transpose_p().tensor_rank()[1]:
            return None
        return "degenerate point found"

    return _sampled_check("strong-nondegeneracy", "nondeg", sol, num_points, seed,
                          field, 2, fails)


# -- residues and the CYBE limit -------------------------------------------------


def _jet_eval(sol, field, jet_order, which, at_other):
    """Evaluate r with the chosen variable as a Laurent jet.

    Returns a Tensor2 with jet entries; exp(w/(2n)) is realized as
    exp_jet(1/(2n), jet_order) in the jet variable.
    """
    n = sol.n
    ring = JetRing(field, var=which)
    q_jet = exp_jet(field, Fraction(1, 2 * n), jet_order, var=which)
    q_const = ring.constant(at_other)
    if which == "u":
        return sol.eval(ring, q_jet, q_const)
    return sol.eval(ring, q_const, q_jet)


def tensor_valuation(t: Tensor2):
    vals = [v.valuation() for v in t.data.values()]
    vals = [v for v in vals if v is not None]
    return min(vals) if vals else None


def _jet_coefficient(sol, field, jet_order, which, at_other, power) -> Tensor2:
    """The coefficient of ``which``**power in the jet expansion of r, with the
    other variable at ``at_other``.  Raises if any entry has a pole worse
    than simple.
    """
    t = _jet_eval(sol, field, jet_order, which, at_other)
    val = tensor_valuation(t)
    if val is not None and val < -1:
        raise ArithmeticError(
            "valuation %d < -1: pole is not simple (invariant violation)" % val
        )
    return Tensor2(sol.n, field, {f: c for f, v in t.data.items()
                                  if (c := v.coefficient(power))})


def residues(sol, which, at_other, field) -> Tensor2:
    """The coefficient of 1/u (resp. 1/v) of r, with the other variable held
    at a generic point.  Raises if any entry has a pole worse than simple.

    Jets to order 2 determine every entry through its constant term, one
    order past the coefficient read here.
    """
    if which not in ("u", "v"):
        raise ValueError("which must be 'u' or 'v'")
    return _jet_coefficient(sol, field, 2, which, at_other, -1)


def r0_tensor(sol, q_v, field, jet_order=6) -> Tensor2:
    """r0(v): the u^0 Laurent coefficient of r(u, v) at u = 0."""
    return _jet_coefficient(sol, field, jet_order, "u", q_v, 0)


def check_cybe(sol, num_points, seed, field, jet_order=4, mutate=None) -> CheckReport:
    """CYBE for rbar0 = (pr (x) pr) r0:  [X12,Y13] + [X12,Z23] + [Y13,Z23] = 0
    with X = rbar0(v), Y = rbar0(v+v'), Z = rbar0(v')."""
    n, one = sol.n, field.one

    def fails(qv, qvp):
        x = r0_tensor(sol, qv, field, jet_order).project_sl()
        y = r0_tensor(sol, qv * qvp, field, jet_order).project_sl()
        z = r0_tensor(sol, qvp, field, jet_order).project_sl()
        return not cybe_residual(_mutated(x, mutate, field), y, z).is_zero()

    extra = (lambda a, b: (a * b) ** (2 * n) - one,)
    return _sampled_check("cybe", "cybe", sol, num_points, seed, field, 2, fails,
                          extra, mutate)


# -- QYBE / unitarity --------------------------------------------------------------


def qybe_unitarity(sol, num_points, seed, field) -> CheckReport:
    """Unitarity R(u,v) flip(R(u,-v)) = 1 (x) 1 and the fixed-u QYBE
    R12(u,v) R13(u,v+v') R23(u,v') = R23(u,v') R13(u,v+v') R12(u,v) of the
    rescaled R = sigma r, sigma(u,v) = ab/(a+b) with a = e^{u/2} - e^{-u/2}
    and b = e^{v/2} - e^{-v/2}.

    sigma is a nonzero scalar at every sampled point, so both QYBE sides carry
    the same factor sigma(u,v) sigma(u,v+v') sigma(u,v') and the QYBE is
    tested on r itself; unitarity is r(u,v) flip(r(u,-v)) = (1 (x) 1) times
    1/(sigma(u,v) sigma(u,-v)) = 1/a^2 - 1/b^2.
    """
    n, one = sol.n, field.one
    unit2 = Tensor2.unit(n, field)

    def half(q):  # e^{w/2} - e^{-w/2} at q = e^{w/(2n)}
        return q ** n - q ** (-n)

    def fails(qu, qv, qvp):
        r12 = sol.eval(field, qu, qv)
        r_neg = sol.eval(field, qu, qv ** -1)
        if r12 * r_neg.flip() != unit2.scale(half(qu) ** -2 - half(qv) ** -2):
            return "unitarity failed"
        r13 = sol.eval(field, qu, qv * qvp)
        r23 = sol.eval(field, qu, qvp)
        lhs = pair_embed_product(r12, 12, r13, 13) * embed_triple(r23, 23)
        rhs = pair_embed_product(r23, 23, r13, 13) * embed_triple(r12, 12)
        if lhs != rhs:
            return "qybe failed"
        return None

    # R = sigma r is defined only where sigma's denominators at (u,v),
    # (u,v+v'), (u,v') and (u,-v) are nonzero, so the points avoid them even
    # though the tests above divide by none of them
    extra = (
        lambda a, b, c: (b * c) ** (2 * n) - one,
        lambda a, b, c: half(a) + half(b),
        lambda a, b, c: half(a) + half(b * c),
        lambda a, b, c: half(a) + half(c),
        lambda a, b, c: half(a) - half(b),
    )
    return _sampled_check("qybe-unitarity", "qybe", sol, num_points, seed, field, 3,
                          fails, extra)


def qybe_float_shadow(u: float, v: float) -> float:
    """|R(u,v) R(u,-v) - 1| for the n=1 solution in ordinary floats."""
    import math

    def r(uu, vv):
        return 1.0 / (math.exp(uu) - 1.0) + 1.0 / (1.0 - math.exp(-vv))

    def sigma(uu, vv):
        a = math.exp(uu / 2) - math.exp(-uu / 2)
        b = math.exp(vv / 2) - math.exp(-vv / 2)
        return a * b / (a + b)

    big = sigma(u, v) * r(u, v)
    big_neg = sigma(u, -v) * r(u, -v)
    return abs(big * big_neg - 1.0)
