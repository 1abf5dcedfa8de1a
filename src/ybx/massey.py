"""Combinatorial re-derivation of the r-matrix from rectangle counts.

The closed formula is rebuilt here from its Floer-theoretic ingredients: the
deformed triple products contributed by immersed rectangles on the
square-tiled surface, corrected by the bounding cochains h1 and h2, then
dualized (which flips the overall sign).  Four families contribute:

- DIAGONAL: the small square at each sheet plus its h1/h2 corrections,
- HORIZONTAL(k, i): rectangles extending k squares to the right,
- VERTICAL(m, i): rectangles extending m squares down,
- A_RECT(k, m, a, +/-): the pair of large rectangles over a filled k x m
  block of squares, one per orientation.

The module also carries an independent geometric oracle
(``develop_rectangle``) that decides existence of the k x m immersed
rectangle by actually developing the block square by square; it must agree
with membership in A(k,m).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .perms import term_target
from .surface import SquareTiledSurface
from .tensors import Tensor2
from .trig import PoleError, TrigSolution, assemble


def _invert(ring, x):
    """1/x in the field, with pole reporting."""
    if not x:
        raise PoleError("denominator vanished at the evaluation point")
    return ring.one / x


@dataclass(frozen=True)
class RectangleFamily:
    kind: str            # "diagonal" | "horizontal" | "vertical" | "a_rect"
    k: int               # rightward extension (0 for diagonal/vertical)
    m: int               # downward extension (0 for diagonal/horizontal)
    base: int            # base square
    sign: int            # +1 / -1 for the a_rect pair, +1 otherwise
    holonomy: tuple      # exponent of (e^{u/n}, e^{v/n}) picked up by the boundary
    target: tuple        # ((i,j),(k,l)) basis tensor receiving the contribution


def _families(n, terms) -> list:
    """(family, group number) for every family of a ``rectangle_terms`` table,
    sorted by (kind, k, m, base, sign)."""
    out = []
    for g, (kind, k, m, sign, bases, flats) in enumerate(terms):
        holonomy = (-sign * k, -sign * m) if kind == "a_rect" else (k, m)
        for base, f in zip(bases, flats):
            out.append((RectangleFamily(kind, k, m, base, sign, holonomy,
                                        term_target(n, f)), g))
    out.sort(key=lambda fg: (fg[0].kind, fg[0].k, fg[0].m, fg[0].base, -fg[0].sign))
    return out


def enumerate_rectangles(sol: TrigSolution) -> list:
    """All contributing rectangle families of ``sol.terms``, sorted by
    (kind, k, m, base, sign)."""
    return [fam for fam, _ in _families(sol.n, sol.terms)]


def develop_rectangle(s: SquareTiledSurface, a: int, k: int, m: int) -> bool:
    """Geometric oracle: does the k x m rectangle based at ``a`` immerse?

    Develops the block by walking right via c1 and down via c2.  The two
    routes to each interior cell must agree and every interior corner of the
    developed region must be a filled puncture.  Must coincide with
    ``a in a_km(k, m)``.
    """
    if k < 1 or m < 1:
        raise ValueError("k and m must be positive")
    abd = s.abd
    c1, c2 = abd.c1, abd.c2
    filled = set(sq for orb in s.orbits if orb.filled for sq in orb.squares)
    grid = {(0, 0): a}
    for i in range(1, k + 1):
        grid[(i, 0)] = c1(grid[(i - 1, 0)])
    for j in range(1, m + 1):
        grid[(0, j)] = c2(grid[(0, j - 1)])
        for i in range(1, k + 1):
            via_left = c1(grid[(i - 1, j)])
            via_top = c2(grid[(i, j - 1)])
            if via_left != via_top:
                return False  # development is obstructed: no immersed rectangle
            grid[(i, j)] = via_left
    # interior corners sit at the bottom-right of cell (i, j), 0<=i<k, 0<=j<m
    for i in range(k):
        for j in range(m):
            sq = grid[(i, j)]
            if sq not in filled:
                return False
            if c1(c2(sq)) != c2(c1(sq)):
                return False
    return True


@dataclass
class MasseyTensor:
    tensor: Tensor2
    breakdown: list      # (RectangleFamily, coefficient) pairs


def massey_tensor(sol: TrigSolution, q_u, q_v, ring) -> MasseyTensor:
    """Assemble MP = mu3 - mu2(h2, .) - mu2(., h1) per family of ``sol.terms``
    and dualize.

    The diagonal family carries both corrections, the horizontal family the
    h1 correction, the vertical one the h2 correction, and the A-rectangle
    pair none; dualization multiplies everything by -1.  Every family of a
    ``rectangle_terms`` group gets the same coefficient, so each group is
    priced once, and assembled at the key its rows read (``sol.keys``).
    """
    n, terms = sol.n, sol.terms
    one = ring.one
    eu = q_u ** (2 * n)
    ev = q_v ** (2 * n)
    corr_u = eu * _invert(ring, one - eu)      # -mu2(., h1) = e^u/(1-e^u)
    corr_v = ev * _invert(ring, one - ev)      # -mu2(h2, .) = e^v/(1-e^v)
    eu_n = q_u * q_u
    ev_n = q_v * q_v

    prices = []
    for kind, k, m, sign, _, _ in terms:
        if kind == "diagonal":
            mp = one + corr_u + corr_v
        elif kind == "horizontal":
            mp = (eu_n ** k) * (one + corr_u)
        elif kind == "vertical":
            mp = (ev_n ** m) * (one + corr_v)
        else:
            # the rectangle pair over a filled block; the orientation count is
            # -e^{-(ku+mv)/n} for the +1 family and +e^{(ku+mv)/n} for the -1
            # family (both signs fixed, not re-derived from Spin data)
            hol = (eu_n ** (-sign * k)) * (ev_n ** (-sign * m))
            mp = -hol if sign > 0 else hol
        prices.append(-mp)  # dualization brings in an overall sign
    breakdown = [(fam, prices[g]) for fam, g in _families(n, terms)]
    return MasseyTensor(tensor=assemble(sol, ring, dict(zip(sol.keys, prices))),
                        breakdown=breakdown)


@dataclass
class N1Breakdown:
    """The intermediate values of the one-square Massey computation."""

    mu2_q_p: object       # mu2(q12, p11) coefficient on m1
    mu2_p_q: object       # mu2(p22, q12) coefficient on n1
    h1_coeff: object      # e^u/(e^u - 1)
    h2_coeff: object      # 1/(e^v - 1)
    mu3: object           # the unit square rectangle count
    mu2_p_m0: object      # mu2(p22, m0)
    mu2_n0_p: object      # mu2(n0, p11)
    combined: object      # mu3 - h2-term - h1-term, before dualization


def massey_n1_breakdown(q_u, q_v, ring) -> N1Breakdown:
    one = ring.one
    eu = q_u * q_u   # n = 1: e^u = q_u^2
    ev = q_v * q_v
    h1 = eu * _invert(ring, eu - one)
    h2 = _invert(ring, ev - one)
    mu2_p_m0 = one
    mu2_n0_p = ev
    combined = one - h2 * mu2_n0_p - h1 * mu2_p_m0
    return N1Breakdown(
        mu2_q_p=eu,
        mu2_p_q=one,
        h1_coeff=h1,
        h2_coeff=h2,
        mu3=one,
        mu2_p_m0=mu2_p_m0,
        mu2_n0_p=mu2_n0_p,
        combined=combined,
    )


@dataclass
class NovikovResult:
    partial: complex
    closed: complex
    abs_error: float
    terms: int


def novikov_check(u: complex, v: complex, terms: int) -> NovikovResult:
    """Compare the Novikov rectangle-count series at q = e^-1 with the
    closed n=1 form, times the area weight of the smallest rectangle.

    The series sums the two rectangle families weighted by e^{-l u} and
    e^{-l v}; it converges for Re(u), Re(v) > 0.  A ValueError outside that
    region, and where 1 - e^-u or 1 - e^-v rounds to 0 in floats.
    """
    u = complex(u)
    v = complex(v)
    if u.real <= 0 or v.real <= 0:
        raise ValueError("series diverges outside Re(u) > 0, Re(v) > 0")
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    area_weight = math.exp(-u.real * v.real)
    series = 1.0 + 0j
    for l in range(1, terms + 1):
        series += cmath.exp(-l * u) + cmath.exp(-l * v)
    partial = -area_weight * series
    # 1/(1 - e^u) = -e^-u/(1 - e^-u): only e^-u and e^-v, which cannot overflow
    eu_inv, ev_inv = cmath.exp(-u), cmath.exp(-v)
    if eu_inv == 1 or ev_inv == 1:
        raise ValueError("1 - e^-u or 1 - e^-v rounds to 0: u or v is too close to 0")
    closed = area_weight * (-eu_inv / (1.0 - eu_inv) + 1.0 / (ev_inv - 1.0))
    return NovikovResult(
        partial=partial,
        closed=closed,
        abs_error=abs(partial - closed),
        terms=terms,
    )
