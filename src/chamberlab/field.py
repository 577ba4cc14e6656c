"""Exact scalar arithmetic in Q and in the real field Q(sqrt2, sqrt3).

Every trigonometric constant sin(i*pi/d), cos(i*pi/d) with d in {1, 2, 3, 4, 6}
lies in Q(sqrt2, sqrt3), so all chamber data downstream can be represented
without rounding.  A :class:`FieldScalar` stores the four rational coordinates
of an element with respect to the basis (1, sqrt2, sqrt3, sqrt6).

Arithmetic costs what the nonzero coordinates cost: numbering the basis
1, sqrt2, sqrt3, sqrt6 as 0..3, basis i times basis j is basis ``i ^ j`` times
``(1, 2, 3, 6)[i & j]``, so a product multiplies only pairs of nonzero
coordinates (one rational multiply for rational times rational, sixteen for
two dense elements), and sums, differences and negations do no rational work
on coordinates that are zero on both sides.  Every polynomial from the
quotient qd onward is rational, so this is the common case.

Rationals are ``fractions.Fraction`` (``Rat``), reduced with a positive
denominator.  :func:`to_float` rounds an element's real value to the nearest
double, ties to even, and to +-inf beyond the double range.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import UnsupportedCaseError

Rat = Fraction

ADMISSIBLE_D = (1, 2, 3, 4, 6)

_R0 = Rat(0)
_R1 = Rat(1)
# sqrt(k) * sqrt(k) = k for the basis elements 1, sqrt2, sqrt3, sqrt6.
_BASIS_SQUARES = (1, 2, 3, 6)


def _add(x, y):
    if not x:
        return y
    return x + y if y else x


def _sub(x, y):
    if not y:
        return x
    return x - y if x else -y


def _neg(x):
    return -x if x else x


class FieldScalar:
    """An element a + b*sqrt2 + c*sqrt3 + e*sqrt6 with exact rational parts.

    Closed under ring operations; nonzero elements are invertible.  Equality
    is componentwise, which is exact because (1, sqrt2, sqrt3, sqrt6) is a
    Q-basis of the field.
    """

    __slots__ = ("a", "b", "c", "e")

    def __init__(self, a=0, b=0, c=0, e=0):
        self.a = Rat(a)
        self.b = Rat(b)
        self.c = Rat(c)
        self.e = Rat(e)

    @classmethod
    def _raw(cls, a, b, c, e) -> "FieldScalar":
        # Internal fast path: components are already Rat.
        self = object.__new__(cls)
        self.a = a
        self.b = b
        self.c = c
        self.e = e
        return self

    @classmethod
    def rational(cls, p, q=1) -> "FieldScalar":
        return cls._raw(Rat(p) / Rat(q), _R0, _R0, _R0)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.e)

    @property
    def is_rational(self) -> bool:
        return not (self.b or self.c or self.e)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, FieldScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return FieldScalar._raw(Rat(other), _R0, _R0, _R0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldScalar._raw(_add(self.a, o.a), _add(self.b, o.b),
                                _add(self.c, o.c), _add(self.e, o.e))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldScalar._raw(_sub(self.a, o.a), _sub(self.b, o.b),
                                _sub(self.c, o.c), _sub(self.e, o.e))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldScalar._raw(_neg(self.a), _neg(self.b), _neg(self.c), _neg(self.e))

    def __mul__(self, other):
        """Product over the pairs of nonzero coordinates only.

        Basis i times basis j (0..3 for 1, sqrt2, sqrt3, sqrt6) is basis
        ``i ^ j`` times ``_BASIS_SQUARES[i & j]``: sqrt2*sqrt3 = sqrt6,
        sqrt2*sqrt6 = 2*sqrt3, sqrt3*sqrt6 = 3*sqrt2, sqrtk*sqrtk = k.
        """
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        right = [(j, y) for j, y in enumerate((o.a, o.b, o.c, o.e)) if y]
        out = [_R0, _R0, _R0, _R0]  # _R0 itself marks "no term yet"
        for i, x in enumerate((self.a, self.b, self.c, self.e)):
            if not x:
                continue
            for j, y in right:
                term = x * y
                if i & j:
                    term *= _BASIS_SQUARES[i & j]
                k = i ^ j
                out[k] = term if out[k] is _R0 else out[k] + term
        return FieldScalar._raw(*out)

    __rmul__ = __mul__

    def conj_sqrt2(self) -> "FieldScalar":
        """Galois conjugate sending sqrt2 -> -sqrt2 (fixes sqrt3)."""
        return FieldScalar._raw(self.a, _neg(self.b), self.c, _neg(self.e))

    def conj_sqrt3(self) -> "FieldScalar":
        """Galois conjugate sending sqrt3 -> -sqrt3 (fixes sqrt2)."""
        return FieldScalar._raw(self.a, self.b, _neg(self.c), _neg(self.e))

    def inverse(self) -> "FieldScalar":
        """Multiplicative inverse via the product of the three conjugates.

        u * conj2(u) * conj3(u) * conj23(u) is the rational field norm, so the
        inverse is the conjugate product divided by it.
        """
        if self.is_zero:
            raise ZeroDivisionError("inversion of zero field element")
        conj = self.conj_sqrt2() * self.conj_sqrt3() * self.conj_sqrt2().conj_sqrt3()
        norm = self * conj
        if norm.b or norm.c or norm.e:  # pragma: no cover - algebraic identity
            raise ArithmeticError("field norm is not rational")
        return conj * (_R1 / norm.a)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.a == o.a and self.b == o.b
                and self.c == o.c and self.e == o.e)

    def __hash__(self):
        # A rational element equals its Rat (and an equal int), so it must
        # hash like one.
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.e))

    # -- rendering -----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical serialization "a + b*r2 + c*r3 + e*r6" with "p/q" rationals."""
        return (f"{format_rational(self.a)} + {format_rational(self.b)}*r2 + "
                f"{format_rational(self.c)}*r3 + {format_rational(self.e)}*r6")

    @classmethod
    def from_text(cls, text: str) -> "FieldScalar":
        parts = text.split(" + ")
        if len(parts) != 4:
            raise ValueError(f"not a canonical field scalar: {text!r}")
        comps = []
        for part, suffix in zip(parts, ("", "*r2", "*r3", "*r6")):
            if suffix:
                if not part.endswith(suffix):
                    raise ValueError(f"component {part!r} lacks suffix {suffix!r}")
                part = part[: -len(suffix)]
            comps.append(parse_rational(part))
        return cls._raw(*comps)

    def __repr__(self):
        return f"FieldScalar({self.to_text()})"

    def __str__(self):
        return self.to_text()


ZERO = FieldScalar.rational(0)
ONE = FieldScalar.rational(1)
HALF = FieldScalar.rational(1, 2)
SQRT2 = FieldScalar._raw(_R0, _R1, _R0, _R0)
SQRT3 = FieldScalar._raw(_R0, _R0, _R1, _R0)
SQRT6 = FieldScalar._raw(_R0, _R0, _R0, _R1)


def format_rational(q) -> str:
    """Render a rational as "p/q" (always with the denominator)."""
    return f"{q.numerator}/{q.denominator}"


# FieldScalar.to_text of a rational scalar is its "p/q" and then this.
_RATIONAL_TAIL = ZERO.to_text()[len("0/1"):]


def rational_text(q) -> str:
    """``FieldScalar.rational(q).to_text()``, written without building the scalar."""
    return f"{format_rational(q)}{_RATIONAL_TAIL}"


def parse_rational(text: str) -> Rat:
    num, sep, den = text.partition("/")
    if not sep:
        return Rat(int(num))
    denominator = int(den)
    if denominator == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Rat(int(num), denominator)


# Exact (sin, cos) pairs keyed by the reduced fraction i/d of the angle i*pi/d.
_HALF_R = Rat(1, 2)
_TRIG_TABLE = {
    (0, 1): (ZERO, ONE),
    (1, 6): (HALF, FieldScalar._raw(_R0, _R0, _HALF_R, _R0)),
    (1, 4): (FieldScalar._raw(_R0, _HALF_R, _R0, _R0), FieldScalar._raw(_R0, _HALF_R, _R0, _R0)),
    (1, 3): (FieldScalar._raw(_R0, _R0, _HALF_R, _R0), HALF),
    (1, 2): (ONE, ZERO),
    (2, 3): (FieldScalar._raw(_R0, _R0, _HALF_R, _R0), -HALF),
    (3, 4): (FieldScalar._raw(_R0, _HALF_R, _R0, _R0), FieldScalar._raw(_R0, -_HALF_R, _R0, _R0)),
    (5, 6): (HALF, FieldScalar._raw(_R0, _R0, -_HALF_R, _R0)),
}


def trig_pair(d: int, i: int) -> tuple[FieldScalar, FieldScalar]:
    """Exact (sin(i*pi/d), cos(i*pi/d)) for an admissible chamber type d."""
    if d not in ADMISSIBLE_D:
        raise UnsupportedCaseError(f"chamber type d={d} not in {ADMISSIBLE_D}")
    if not 0 <= i <= d - 1:
        raise ValueError(f"wall index i={i} outside 0..{d - 1}")
    frac = Fraction(i, d)
    return _TRIG_TABLE[(frac.numerator, frac.denominator)]


def _round(num: int, den: int) -> float:
    """num/den (den > 0) correctly rounded to a double, +-inf beyond the range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def to_float(u: FieldScalar) -> float:
    """The double nearest the real value of u (ties to even), +-inf beyond range.

    A rational u is ``float(Fraction)``.  Otherwise u is irrational, since
    (1, sqrt2, sqrt3, sqrt6) is a Q-basis, and the isqrt floors of
    |q| * sqrt(k) * 2**p over its m nonzero coordinates q (on sqrt(k)) put
    u * 2**p strictly between the integers lo and lo + m.  Rounding is
    monotone, so once both ends round to one double, with no zero between
    them, u rounds to it too.  p doubles until then, which comes: an
    irrational u is no double and no midpoint between two doubles, so an open
    interval around it rounds to one value, and the bracket, m / 2**p wide,
    shrinks into it.
    """
    if u.is_rational:
        return _round(u.a.numerator, u.a.denominator)
    p = 64
    while True:
        lo = m = 0
        for k, q in zip(_BASIS_SQUARES, (u.a, u.b, u.c, u.e)):
            if q:
                s = math.isqrt(k * q.numerator ** 2 << 2 * p) // q.denominator
                lo += s if q > 0 else -s - 1
                m += 1
        low, high = _round(lo, 1 << p), _round(lo + m, 1 << p)
        if low == high and (lo >= 0) == (lo + m > 0):
            return low
        p *= 2
