"""Exact scalar arithmetic in Q and in the real field Q(sqrt2, sqrt3).

A :class:`FieldScalar` stores the four rational coordinates of an element
with respect to the basis (1, sqrt2, sqrt3, sqrt6).  It is the coefficient
type of :class:`~chamberlab.poly.SpatialPoly`: of the walls, the bundle's
views and a resultant's ``poly``, each parsed from JSON rows when read.  The
package's commands build none: they write the rows' text, the walls' from
the sin**2 table, through :func:`field_text`, which ``to_text`` calls too.

Arithmetic costs what the nonzero coordinates cost: numbering the basis
1, sqrt2, sqrt3, sqrt6 as 0..3, basis i times basis j is basis ``i ^ j`` times
``(1, 2, 3, 6)[i & j]``, so a product multiplies only pairs of nonzero
coordinates (one rational multiply for rational times rational, sixteen for
two dense elements), and sums, differences and negations do no rational work
on coordinates that are zero on both sides.

Rationals are ``fractions.Fraction`` (``Rat``), reduced with a positive
denominator.
"""

from __future__ import annotations

import operator
from fractions import Fraction

Rat = Fraction

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


def power(base, exponent: int, one, mul=operator.mul):
    """base ** exponent for an int exponent >= 0 by repeated squaring; ``one``
    is the product of no factors and ``mul`` the product of two."""
    result = one
    while exponent:
        if exponent & 1:
            result = mul(result, base)
        exponent >>= 1
        if exponent:
            base = mul(base, base)
    return result


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

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power(self, exponent, ONE)

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
        return field_text(self.a, self.b, self.c, self.e)

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


ZERO = FieldScalar.rational(0)
ONE = FieldScalar.rational(1)


def format_rational(q) -> str:
    """Render a rational (a Fraction or an int) as "p/q", always with the denominator."""
    return f"{q.numerator}/{q.denominator}"


def field_text(a, b=0, c=0, e=0) -> str:
    """The canonical text "a + b*r2 + c*r3 + e*r6" of a + b*sqrt2 + c*sqrt3 +
    e*sqrt6, each coordinate a reduced Fraction or an int, written "p/q"."""
    return (f"{format_rational(a)} + {format_rational(b)}*r2 + "
            f"{format_rational(c)}*r3 + {format_rational(e)}*r6")


# field_text of a rational q is format_rational(q) and then this.
_RATIONAL_TAIL = field_text(0)[len("0/1"):]


def rational_text(q) -> str:
    """``FieldScalar.rational(q).to_text()``, written without building the scalar."""
    return field_text(q)


def parse_rational(text: str) -> Rat:
    num, sep, den = text.partition("/")
    if not sep:
        return Rat(int(num))
    denominator = int(den)
    if denominator == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Rat(int(num), denominator)
