"""Exact scalar backends: arbitrary-precision rationals and large prime fields.

Every identity in this package is checked by exact evaluation at seeded
random points, so the scalar layer never touches floating point.  Two
backends are provided:

- ``RationalField`` -- plain ``fractions.Fraction`` arithmetic.
- ``PrimeField(p)`` -- GF(p) for a prime 10**9 < p < ``MR_EXACT_BOUND``,
  elements wrapped in ``PrimeFieldElement`` with operator overloading.

Both expose the same small interface (``zero``, ``one``, ``of_int``,
``of_fraction``, ``sample``) so the rest of the code is generic.  Exact
linear algebra runs on raw values: ``raw`` unboxes an element (the residue
int in GF(p), the ``Fraction`` in q), ``reduce`` maps a sum of products of
raw values to canonical form, ``inverse`` inverts a reduced nonzero one and
``box`` makes an element of a reduced one.  Contractions run on plain ints:
``integral`` maps elements to integer numerators over one common
denominator (the lcm of their denominators in q, 1 in GF(p)), and
``box_nonzero(acc, den)`` divides the nonzero values of a dict of ints by
``den``, reduces and boxes them.  Only this module knows how a field stores
values.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from math import lcm

MIN_PRIME = 10 ** 9

#: default modulus for the prime-field backend (a Mersenne prime, 2^61 - 1)
DEFAULT_PRIME = 2305843009213693951


class BackendMismatchError(TypeError):
    """Mixed arithmetic between elements of different scalar backends."""


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: the prime witnesses 2..41 decide primality exactly below this bound
#: (Sorenson and Webster, arXiv:1509.00864); 2..37 alone are fooled by
#: 318665857834031151167461 = 399165290221 * 798330580441
MR_EXACT_BOUND = 3317044064679887385961981


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < MR_EXACT_BOUND = 3317044064679887385961981.

    Raises ``ValueError`` for larger n, where the fixed witness set proves nothing.
    """
    if n >= MR_EXACT_BOUND:
        raise ValueError("%d is too large for the deterministic primality test "
                         "(exact below %d)" % (n, MR_EXACT_BOUND))
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeFieldElement:
    """An element of GF(p); supports +, -, *, /, ** and int coercion."""

    __slots__ = ("v", "field")

    def __init__(self, v: int, field: "PrimeField"):
        self.v = v % field.p
        self.field = field

    @classmethod
    def of_residue(cls, v: int, field: "PrimeField") -> "PrimeFieldElement":
        """The element of an already reduced residue 0 <= v < p, without a modulo."""
        x = object.__new__(cls)
        x.v = v
        x.field = field
        return x

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.field.p != self.field.p:
                raise BackendMismatchError("elements of different prime fields")
            return other.v
        if isinstance(other, int):
            return other % self.field.p
        return None

    def __add__(self, other):
        w = self._coerce(other)
        return NotImplemented if w is None else PrimeFieldElement(self.v + w, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._coerce(other)
        return NotImplemented if w is None else PrimeFieldElement(self.v - w, self.field)

    def __rsub__(self, other):
        w = self._coerce(other)
        return NotImplemented if w is None else PrimeFieldElement(w - self.v, self.field)

    def __mul__(self, other):
        w = self._coerce(other)
        return NotImplemented if w is None else PrimeFieldElement(self.v * w, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        if w == 0:
            raise ZeroDivisionError("division by zero in prime field")
        p = self.field.p
        return PrimeFieldElement(self.v * pow(w, -1, p), self.field)

    def __rtruediv__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        if self.v == 0:
            raise ZeroDivisionError("division by zero in prime field")
        p = self.field.p
        return PrimeFieldElement(w * pow(self.v, -1, p), self.field)

    def __pow__(self, k: int):
        if k < 0 and self.v == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return PrimeFieldElement(pow(self.v, k, self.field.p), self.field)

    def __neg__(self):
        return PrimeFieldElement(-self.v, self.field)

    def __eq__(self, other):
        w = self._coerce(other)
        return NotImplemented if w is None else self.v == w

    def __hash__(self):
        return hash((self.v, self.field.p))

    def __bool__(self):
        return self.v != 0

    def __int__(self):
        return self.v

    def __repr__(self):
        return "%d (mod %d)" % (self.v, self.field.p)


class PrimeField:
    """GF(p) backend for a prime modulus 10**9 < p < MR_EXACT_BOUND."""

    def __init__(self, p: int = DEFAULT_PRIME):
        if p <= MIN_PRIME:
            raise ValueError("prime-field modulus must exceed 10**9, got %d" % p)
        if not is_probable_prime(p):
            raise ValueError("%d is not prime" % p)
        self.p = p
        self.zero = PrimeFieldElement(0, self)
        self.one = PrimeFieldElement(1, self)
        self.reduce = p.__rmod__

    name = property(lambda self: "fp:%d" % self.p)

    # raw values are residue ints; ``reduce`` (bound in __init__) is v % p
    raw = staticmethod(operator.attrgetter("v"))

    def inverse(self, v: int) -> int:
        return pow(v, -1, self.p)

    def box(self, v: int) -> PrimeFieldElement:
        return PrimeFieldElement.of_residue(v, self)

    def integral(self, values) -> tuple:
        return [x.v for x in values], 1

    def box_nonzero(self, acc: dict, den: int = 1) -> dict:
        p, of_residue = self.p, PrimeFieldElement.of_residue
        if den != 1:
            inv = pow(den, -1, p)
            acc = {key: v * inv for key, v in acc.items()}
        return {key: of_residue(r, self) for key, v in acc.items() if (r := v % p)}

    def of_int(self, k: int) -> PrimeFieldElement:
        return PrimeFieldElement(k, self)

    def of_fraction(self, q: Fraction) -> PrimeFieldElement:
        num = q.numerator % self.p
        den = q.denominator % self.p
        if den == 0:
            raise ZeroDivisionError("denominator divisible by the field modulus")
        return PrimeFieldElement(num * pow(den, -1, self.p), self)

    def sample(self, rng: random.Random) -> PrimeFieldElement:
        return PrimeFieldElement(rng.randrange(2, self.p - 1), self)

    def sample_weight(self, rng: random.Random) -> int:
        """A raw weight of a projected zero test: a residue, uniform in GF(p)."""
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


class RationalField:
    """Exact rational backend; elements are ``fractions.Fraction``."""

    zero = Fraction(0)
    one = Fraction(1)
    name = "q"

    def of_int(self, k: int) -> Fraction:
        return Fraction(k)

    def of_fraction(self, q: Fraction) -> Fraction:
        return Fraction(q)

    # raw values are the Fractions themselves, always in lowest terms
    raw = reduce = staticmethod(lambda x: x)
    # exact for an int too: the integer numerators of a table are raw values
    inverse = staticmethod(lambda v: Fraction(1, v))
    box = staticmethod(Fraction)  # also makes a Fraction of an int determinant

    @staticmethod
    def integral(values) -> tuple:
        den = lcm(*{x.denominator for x in values})
        return [x.numerator * (den // x.denominator) for x in values], den

    @staticmethod
    def box_nonzero(acc: dict, den: int = 1) -> dict:
        return {key: Fraction(v, den) for key, v in acc.items() if v}

    def sample(self, rng: random.Random) -> Fraction:
        # Small magnitudes keep downstream Fraction arithmetic cheap; the
        # denominators 1,1,2,3 bias towards integers.
        while True:
            num = rng.choice((-1, 1)) * rng.randrange(2, 24)
            den = rng.choice((1, 1, 1, 2, 3))
            q = Fraction(num, den)
            if q != 0 and abs(q) != 1:
                return q

    @staticmethod
    def sample_weight(rng: random.Random) -> int:
        """A raw weight of a projected zero test: an int, uniform below 2^61."""
        return rng.randrange(1 << 61)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "RationalField()"


RATIONAL = RationalField()


def field_from_name(name: str):
    """Parse a backend selector: ``q`` or ``fp:<prime>``."""
    if name == "q":
        return RATIONAL
    digits = name[3:] if name.startswith("fp:") else ""
    if digits.isascii() and digits.isdigit():
        return PrimeField(int(digits))
    raise ValueError("unknown field %r (expected 'q' or 'fp:<prime>')" % name)


def derive_rng(root_seed: int, *tags) -> random.Random:
    """Deterministic per-task RNG from a root seed plus task tags."""
    import hashlib

    blob = repr((root_seed,) + tags).encode()
    digest = hashlib.sha256(blob).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))
