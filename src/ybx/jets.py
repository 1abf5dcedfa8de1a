"""Truncated Laurent jets in one formal variable over an exact field.

A jet stores coefficients for the exponents ``lo .. hi-1`` together with the
guarantee that every exponent below ``lo`` has coefficient zero.  ``hi=None``
marks an exact Laurent polynomial (all higher coefficients are zero too).
Arithmetic tracks the truncation bound exactly: a result never claims a
coefficient that is not determined by the operands.  Jets add, subtract and
multiply (with jets and ints) and invert; there is no division and no power,
since r is priced with none (``trig.side_prices``, ``trig.point_factors``
and ``trig.Point.prices``).
"""

from __future__ import annotations


class JetPrecisionError(ArithmeticError):
    """A coefficient beyond the tracked truncation order was requested."""


class LaurentJet:
    __slots__ = ("field", "lo", "coeffs", "hi", "var")

    def __init__(self, field, lo, coeffs, hi, var="u"):
        coeffs = list(coeffs)
        # strip known-zero leading terms; the stripped exponents stay known
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            lo += 1
        if hi is None:
            while coeffs and not coeffs[-1]:
                coeffs.pop()
        if not coeffs:
            lo = hi if hi is not None else 0
        elif hi is not None and hi != lo + len(coeffs):
            raise ValueError("inconsistent jet bounds")
        self.field = field
        self.lo = lo
        self.coeffs = tuple(coeffs)
        self.hi = hi
        self.var = var

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, field, c, var="u"):
        return cls(field, 0, (c,), None, var)

    @classmethod
    def zero(cls, field, var="u"):
        return cls(field, 0, (), None, var)

    @classmethod
    def one(cls, field, var="u"):
        return cls.constant(field, field.one, var)

    # -- inspection --------------------------------------------------------

    def valuation(self):
        """Exponent of the leading nonzero coefficient, or None if the jet
        is zero to its tracked precision."""
        return self.lo if self.coeffs else None

    def coefficient(self, e: int):
        if self.coeffs and self.lo <= e < self.lo + len(self.coeffs):
            return self.coeffs[e - self.lo]
        if self.hi is not None and e >= self.hi:
            raise JetPrecisionError(
                "coefficient of %s^%d beyond tracked order %d" % (self.var, e, self.hi)
            )
        return self.field.zero

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentJet):
            return NotImplemented
        return (
            self.field == other.field
            and self.lo == other.lo
            and self.coeffs == other.coeffs
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.coeffs, self.hi))

    def __repr__(self):
        terms = " + ".join(
            "%s*%s^%d" % (c, self.var, self.lo + i) for i, c in enumerate(self.coeffs)
        )
        tail = "" if self.hi is None else " + O(%s^%d)" % (self.var, self.hi)
        return "<jet %s%s>" % (terms or "0", tail)

    # -- arithmetic --------------------------------------------------------

    def _wrap(self, other):
        if isinstance(other, LaurentJet):
            return other
        if isinstance(other, int):
            return LaurentJet.constant(self.field, self.field.of_int(other), self.var)
        return None

    def __add__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        if self.hi is None and other.hi is None:
            lo = min(self.lo, other.lo) if (self.coeffs or other.coeffs) else 0
            end = max(
                self.lo + len(self.coeffs), other.lo + len(other.coeffs), lo
            )
            coeffs = [self.coefficient(e) + other.coefficient(e) for e in range(lo, end)]
            return LaurentJet(self.field, lo, coeffs, None, self.var)
        his = [h for h in (self.hi, other.hi) if h is not None]
        hi = min(his)
        lo = min(self.lo, other.lo, hi)
        coeffs = [self.coefficient(e) + other.coefficient(e) for e in range(lo, hi)]
        return LaurentJet(self.field, lo, coeffs, hi, self.var)

    __radd__ = __add__

    def __neg__(self):
        return LaurentJet(self.field, self.lo, [-c for c in self.coeffs], self.hi, self.var)

    def __sub__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        a, b = self, other
        if not a.coeffs and a.hi is None:
            return a
        if not b.coeffs and b.hi is None:
            return b
        bounds = []
        if a.hi is not None:
            bounds.append(a.hi + b.lo)
        if b.hi is not None:
            bounds.append(b.hi + a.lo)
        hi = min(bounds) if bounds else None
        lo = a.lo + b.lo
        if hi is not None and hi <= lo:
            return LaurentJet(a.field, hi, (), hi, a.var)
        length = (hi - lo) if hi is not None else (len(a.coeffs) + len(b.coeffs) - 1)
        # the convolution runs on integer numerators over one denominator
        # per factor (``integral``), and each coefficient is boxed once
        field = a.field
        ra, den_a = field.integral(a.coeffs[:length])
        rb, den_b = field.integral(b.coeffs[:length])
        out = [0] * length
        for i, x in enumerate(ra):
            if x:
                for j, y in enumerate(rb[:length - i], i):
                    out[j] += x * y
        boxed = field.box_nonzero(dict(enumerate(out)), den_a * den_b)
        return LaurentJet(field, lo, [boxed.get(i, field.zero) for i in range(length)],
                          hi, a.var)

    __rmul__ = __mul__

    def inverse(self):
        if not self.coeffs:
            raise ZeroDivisionError("inverting a jet with no known nonzero term")
        lead = self.coeffs[0]
        if self.hi is None:
            if len(self.coeffs) == 1:
                return LaurentJet(
                    self.field, -self.lo, (self.field.one / lead,), None, self.var
                )
            raise JetPrecisionError("inverse of a non-monomial exact jet needs truncation")
        rel = len(self.coeffs)
        inv = [self.field.one / lead]
        for k in range(1, rel):
            acc = self.field.zero
            for i in range(1, k + 1):
                acc = acc + self.coeffs[i] * inv[k - i]
            inv.append(-acc / lead)
        return LaurentJet(self.field, -self.lo, inv, -self.lo + rel, self.var)


class JetRing:
    """Ring adapter so jet-valued evaluation reuses the scalar code paths."""

    def __init__(self, field, var="u"):
        self.field = field
        self.var = var
        self.zero = LaurentJet.zero(field, var)
        self.one = LaurentJet.one(field, var)
        self.name = "jet(%s)" % field.name

    def constant(self, c) -> LaurentJet:
        return LaurentJet.constant(self.field, c, self.var)

    # the raw-value interface of the fields (``ybx.scalars``), on jets: a jet
    # is its own raw value and canonical form
    reduce = staticmethod(lambda x: x)

    @staticmethod
    def integral(values) -> tuple:
        return list(values), 1

    @staticmethod
    def box_nonzero(acc: dict, den: LaurentJet) -> dict:
        inv = den.inverse()
        return {key: w for key, v in acc.items() if v and (w := v * inv)}


def exp_jet(field, scale, order: int, var="u") -> LaurentJet:
    """The jet of exp(scale * u) truncated after degree ``order``, for a
    Fraction ``scale``.  The factorials are invertible: every backend has
    characteristic 0 or p > 10**9.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    scale = field.of_fraction(scale)
    coeffs = [field.one]
    power = field.one
    fact = 1
    for k in range(1, order + 1):
        power = power * scale
        fact *= k
        coeffs.append(power / field.of_int(fact))
    return LaurentJet(field, 0, coeffs, order + 1, var)
