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
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .jets import JetRing, LaurentJet, exp_jet
from .perms import ABDStructure, a_km, validate_abd
from .scalars import derive_rng
from .tensors import (
    Tensor2,
    aybe_combine,
    cybe_residual,
    embed_triple,
    kron2,
    matrix_inverse,
    pair_embed_product,
    transposition_p,
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
    """Evaluator for the closed-form trigonometric solution of an ABD structure."""

    def __init__(self, abd: ABDStructure):
        problems = validate_abd(abd)
        if problems:
            raise ValueError("invalid structure: " + "; ".join(problems))
        self.abd = abd
        self.n = abd.n
        n = abd.n
        # image tables of c1^k and c2^m for 0 <= k, m <= n-1
        self.pow1 = [tuple(range(n))]
        self.pow2 = [tuple(range(n))]
        for _ in range(1, n):
            self.pow1.append(tuple(abd.c1(x) for x in self.pow1[-1]))
            self.pow2.append(tuple(abd.c2(x) for x in self.pow2[-1]))
        # A(k,m) tables, nonempty only for k, m < n
        self.akm = {
            (k, m): members
            for k in range(1, n)
            for m in range(1, n)
            if (members := a_km(abd, k, m))
        }

    def eval(self, ring, q_u, q_v) -> Tensor2:
        """r at the point (q_u, q_v); entries live in ``ring``."""
        n = self.n
        pow1, pow2 = self.pow1, self.pow2
        one = ring.one
        eu = q_u ** (2 * n)        # exp(u)
        ev = q_v ** (2 * n)        # exp(v)
        inv_eu_m1 = _invert(ring, eu - one)          # 1/(e^u - 1)
        inv_ev_m1 = _invert(ring, ev - one)          # 1/(e^v - 1)
        inv_one_m_emv = _invert(ring, one - ev ** -1)  # 1/(1 - e^-v)

        t = Tensor2(n, ring)
        diag = inv_eu_m1 + inv_one_m_emv
        for i in range(n):
            t[i, i, i, i] = t[i, i, i, i] + diag
        eu_n = q_u * q_u           # exp(u/n)
        ev_n = q_v * q_v           # exp(v/n)
        pw_u = one
        for k in range(1, n):
            pw_u = pw_u * eu_n
            coeff = pw_u * inv_eu_m1
            row = pow1[k]
            for i in range(n):
                j = row[i]
                t[j, j, i, i] = t[j, j, i, i] + coeff
        pw_v = one
        for m in range(1, n):
            pw_v = pw_v * ev_n
            coeff = pw_v * inv_ev_m1
            row = pow2[m]
            for i in range(n):
                j = row[i]
                t[i, j, j, i] = t[i, j, j, i] + coeff
        for (k, m), members in self.akm.items():
            w = (eu_n ** k) * (ev_n ** m)        # exp((ku+mv)/n)
            w_inv = _invert(ring, w)
            for a in members:
                ca = pow2[m][a]
                ra = pow1[k][a]
                rca = pow1[k][ca]
                t[ca, a, ra, rca] = t[ca, a, ra, rca] + w_inv
                t[ra, rca, ca, a] = t[ra, rca, ca, a] - w
        return t


class HatSolution:
    """The involution image: hat(r)(u,v) = transpose(r(v,u)) . P."""

    def __init__(self, base):
        self.base = base
        self.n = base.n

    def eval(self, ring, q_u, q_v) -> Tensor2:
        return self.base.eval(ring, q_v, q_u).transpose() * transposition_p(self.n, ring)


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
    out = Tensor2(t.n, ring, dict(t.data))
    out[slot] = out[slot] + ring.one
    return out


# -- identity checks -----------------------------------------------------------


def check_aybe(sol, num_points, seed, field, mutate=None) -> CheckReport:
    """AYBE residual r12(-u',v) r13(u+u',v+v') - r23(u+u',v') r12(u,v)
    + r13(u,v+v') r23(u',v') at seeded random points (must vanish).

    With ``mutate`` set to an index 4-tuple, one coefficient of the first
    factor is corrupted before combining; ``failures`` then counts the
    points where the corruption was detected (the honest reading: the
    identity fails there), so a working check reports a failing run.
    """
    t0 = time.perf_counter()
    n = sol.n
    rng = derive_rng(seed, "aybe", field.name)
    one = field.one
    failures = 0
    for _ in range(num_points):
        qu, qup, qv, qvp = _pole_free(
            field,
            rng,
            n,
            4,
            extra=(
                lambda a, b, c, d: (a * b) ** (2 * n) - one,
                lambda a, b, c, d: (c * d) ** (2 * n) - one,
            ),
        )
        r_a = sol.eval(field, qup ** -1, qv)          # r(-u', v)
        r_b = sol.eval(field, qu * qup, qv * qvp)     # r(u+u', v+v')
        r_c = sol.eval(field, qu * qup, qvp)          # r(u+u', v')
        r_d = sol.eval(field, qu, qv)                 # r(u, v)
        r_e = sol.eval(field, qu, qv * qvp)           # r(u, v+v')
        r_f = sol.eval(field, qup, qvp)               # r(u', v')
        if mutate is not None:
            r_a = _mutated(r_a, mutate, field)
        residual = aybe_combine(r_a, r_b, r_c, r_d, r_e, r_f)
        if not residual.is_zero():
            failures += 1
    report = CheckReport(
        check="aybe" if mutate is None else "aybe(mutated)",
        points=num_points,
        failures=failures,
        seed=seed,
        backend=field.name,
    )
    report.elapsed_ms = (time.perf_counter() - t0) * 1000
    return report


def check_skew(sol, num_points, seed, field, mutate=None) -> CheckReport:
    """Skew-symmetry: flip(r(-u,-v)) + r(u,v) = 0 at seeded points."""
    t0 = time.perf_counter()
    n = sol.n
    rng = derive_rng(seed, "skew", field.name)
    failures = 0
    for _ in range(num_points):
        (qu, qv) = _pole_free(field, rng, n, 2)
        r = sol.eval(field, qu, qv)
        if mutate is not None:
            r = _mutated(r, mutate, field)
        r_neg = sol.eval(field, qu ** -1, qv ** -1)
        if not (r_neg.flip() + r).is_zero():
            failures += 1
    report = CheckReport(
        check="skew" if mutate is None else "skew(mutated)",
        points=num_points,
        failures=failures,
        seed=seed,
        backend=field.name,
    )
    report.elapsed_ms = (time.perf_counter() - t0) * 1000
    return report


def check_strong_nondegeneracy(sol, num_points, seed, field) -> CheckReport:
    """Both r and transpose(r).P invertible as n^2 x n^2 matrices at each point."""
    t0 = time.perf_counter()
    n = sol.n
    rng = derive_rng(seed, "nondeg", field.name)
    p_tensor = transposition_p(n, field)
    failures = 0
    details = []
    for _ in range(num_points):
        (qu, qv) = _pole_free(field, rng, n, 2)
        r = sol.eval(field, qu, qv)
        _, inv1 = r.tensor_rank()
        _, inv2 = (r.transpose() * p_tensor).tensor_rank()
        if not (inv1 and inv2):
            failures += 1
            details.append("degenerate point found")
    report = CheckReport(
        check="strong-nondegeneracy",
        points=num_points,
        failures=failures,
        seed=seed,
        backend=field.name,
        details=details,
    )
    report.elapsed_ms = (time.perf_counter() - t0) * 1000
    return report


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
    vals = [v.valuation() for _, v in t.items()]
    vals = [v for v in vals if v is not None]
    return min(vals) if vals else None


def residues(sol, which, at_other, field, jet_order=6) -> Tensor2:
    """The coefficient of 1/u (resp. 1/v) of r, with the other variable held
    at a generic point.  Raises if any entry has a pole worse than simple.
    """
    if which not in ("u", "v"):
        raise ValueError("which must be 'u' or 'v'")
    t = _jet_eval(sol, field, jet_order, which, at_other)
    val = tensor_valuation(t)
    if val is not None and val < -1:
        raise ArithmeticError(
            "valuation %d < -1: pole is not simple (invariant violation)" % val
        )
    out = Tensor2(sol.n, field)
    for idx, v in t.items():
        out[idx] = v.coefficient(-1)
    return out


def r0_tensor(sol, q_v, field, jet_order=6) -> Tensor2:
    """r0(v): the u^0 Laurent coefficient of r(u, v) at u = 0."""
    t = _jet_eval(sol, field, jet_order, "u", q_v)
    val = tensor_valuation(t)
    if val is not None and val < -1:
        raise ArithmeticError("valuation %d < -1 while extracting r0" % val)
    out = Tensor2(sol.n, field)
    for idx, v in t.items():
        out[idx] = v.coefficient(0)
    return out


def check_cybe(sol, num_points, seed, field, jet_order=4, mutate=None) -> CheckReport:
    """CYBE for rbar0 = (pr (x) pr) r0:  [X12,Y13] + [X12,Z23] + [Y13,Z23] = 0
    with X = rbar0(v), Y = rbar0(v+v'), Z = rbar0(v')."""
    t0 = time.perf_counter()
    n = sol.n
    rng = derive_rng(seed, "cybe", field.name)
    one = field.one
    failures = 0
    for _ in range(num_points):
        qv, qvp = _pole_free(
            field, rng, n, 2, extra=(lambda a, b: (a * b) ** (2 * n) - one,)
        )
        x = r0_tensor(sol, qv, field, jet_order).project_sl()
        y = r0_tensor(sol, qv * qvp, field, jet_order).project_sl()
        z = r0_tensor(sol, qvp, field, jet_order).project_sl()
        if mutate is not None:
            x = _mutated(x, mutate, field)
        if not cybe_residual(x, y, z).is_zero():
            failures += 1
    report = CheckReport(
        check="cybe" if mutate is None else "cybe(mutated)",
        points=num_points,
        failures=failures,
        seed=seed,
        backend=field.name,
    )
    report.elapsed_ms = (time.perf_counter() - t0) * 1000
    return report


# -- QYBE / unitarity --------------------------------------------------------------


def _sigma(field, n, q_u, q_v):
    """(e^{u/2}-e^{-u/2})(e^{v/2}-e^{-v/2}) / (e^{u/2}-e^{-u/2}+e^{v/2}-e^{-v/2})."""
    a = q_u ** n - q_u ** (-n)
    b = q_v ** n - q_v ** (-n)
    den = a + b
    if not den:
        raise PoleError("sigma denominator vanished")
    return a * b / den


def qybe_unitarity(sol, num_points, seed, field, reading="fixed-u") -> CheckReport:
    """Unitarity R(u,v) flip(R(u,-v)) = 1 (x) 1 and the fixed-u QYBE
    R12(u,v) R13(u,v+v') R23(u,v') = R23(u,v') R13(u,v+v') R12(u,v).

    ``reading="fixed-v"`` exercises the alternative variable convention
    (spectral parameter in the first slot, second slot held fixed); it is
    kept only for inspection, and observably fails for n >= 2.
    """
    if reading not in ("fixed-u", "fixed-v"):
        raise ValueError("reading must be 'fixed-u' or 'fixed-v'")
    t0 = time.perf_counter()
    n = sol.n
    rng = derive_rng(seed, "qybe", field.name)
    one = field.one
    unit2 = Tensor2.unit(n, field)
    failures = 0
    details = []

    def sigma_den(qa, qb):
        return (qa ** n - qa ** (-n)) + (qb ** n - qb ** (-n))

    def r_scaled(qa, qb):
        return sol.eval(field, qa, qb).scale(_sigma(field, n, qa, qb))

    for _ in range(num_points):
        qu, qv, qvp = _pole_free(
            field,
            rng,
            n,
            3,
            extra=(
                lambda a, b, c: ((b * c) if reading == "fixed-u" else (a * c)) ** (2 * n) - one,
                lambda a, b, c: sigma_den(a, b),
                lambda a, b, c: sigma_den(a, b * c) if reading == "fixed-u" else sigma_den(a * c, b),
                lambda a, b, c: sigma_den(a, c) if reading == "fixed-u" else sigma_den(c, b),
                # unitarity partner at -v: denominator A - B
                lambda a, b, c: sigma_den(a, b ** -1),
            ),
        )
        big_r = r_scaled(qu, qv)
        big_r_neg = r_scaled(qu, qv ** -1)
        if big_r * big_r_neg.flip() != unit2:
            failures += 1
            details.append("unitarity failed")
            continue
        if reading == "fixed-u":
            r13_t2 = r_scaled(qu, qv * qvp)
            r23_t2 = r_scaled(qu, qvp)
        else:
            r13_t2 = r_scaled(qu * qvp, qv)
            r23_t2 = r_scaled(qvp, qv)
        lhs = pair_embed_product(big_r, 12, r13_t2, 13) * embed_triple(r23_t2, 23)
        rhs = pair_embed_product(r23_t2, 23, r13_t2, 13) * embed_triple(big_r, 12)
        if lhs != rhs:
            failures += 1
            details.append("qybe failed")
    report = CheckReport(
        check="qybe-unitarity",
        points=num_points,
        failures=failures,
        seed=seed,
        backend=field.name,
        details=details[:3],
    )
    report.elapsed_ms = (time.perf_counter() - t0) * 1000
    return report


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
