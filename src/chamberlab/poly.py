"""Exact polynomial algebra in (x, y) and in the velocity pair (xd, yd).

Two representations:

* :class:`SpatialPoly` - polynomials in the chamber coordinates (x, y) with
  :class:`~chamberlab.field.FieldScalar` coefficients, stored as a sparse
  exponent map.
* :class:`DensePoly` - a homogeneous rational polynomial as one dense list
  of integers over one denominator.  A velocity form (a polynomial
  homogeneous in (xd, yd) with polynomial coefficients) is a list of them,
  a :data:`DenseForm`; :func:`arc_derivative` differentiates one over a
  power of the chamber product polynomial along arclength.

Only the wall forms need Q(sqrt2, sqrt3): every polynomial derived from them
is rational and homogeneous.  So the derivation runs on DensePolys alone,
from qd and the wall products on (see :mod:`chamberlab.reduction`).  The
lists go on to the serialized bundle (:meth:`DensePoly.to_json`), the
resultant and the lab's float kernels (:meth:`DensePoly.float_terms`).  A
polynomial's JSON rows ``[[a, b, "c"], ...]``, highest power of x first, are
the one way into a SpatialPoly (:meth:`SpatialPoly.from_json`), and
:func:`rows_text` renders rows as text, for ``derive --format text`` and
:meth:`SpatialPoly.to_text` alike.  No command builds a SpatialPoly: only a
bundle's views and a resultant's ``poly``, parsed from rows when read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import ExactDivisionError
from .field import _RATIONAL_TAIL, FieldScalar, ONE, ZERO, power

Monomial = tuple[int, int]

# DensePoly.homogeneous_degree of the zero polynomial, which has no degree.
ZERO_POLY = "zero"


def _round(num: int, den: int) -> float:
    """num/den (den > 0) correctly rounded to a double, +-inf beyond the range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _grlex(mono: Monomial) -> tuple[int, int]:
    return (mono[0] + mono[1], mono[0])


class SpatialPoly:
    """Sparse bivariate polynomial over Q(sqrt2, sqrt3); zero terms pruned."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, FieldScalar] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if not c.is_zero}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "SpatialPoly":
        return cls()

    @classmethod
    def constant(cls, value) -> "SpatialPoly":
        c = FieldScalar._coerce(value)
        if c is None:
            raise TypeError(f"cannot build constant from {value!r}")
        return cls({(0, 0): c})

    @classmethod
    def variable(cls, name: str) -> "SpatialPoly":
        if name == "x":
            return cls({(1, 0): ONE})
        if name == "y":
            return cls({(0, 1): ONE})
        raise ValueError(f"unknown variable {name!r}")

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "SpatialPoly | None":
        if isinstance(other, SpatialPoly):
            return other
        c = FieldScalar._coerce(other)
        if c is None:
            return None
        return SpatialPoly({(0, 0): c})

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in o.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s.is_zero:
                out.pop(m, None)
            else:
                out[m] = s
        p = SpatialPoly.__new__(SpatialPoly)
        p.terms = out
        return p

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __neg__(self):
        p = SpatialPoly.__new__(SpatialPoly)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[Monomial, FieldScalar] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in o.terms.items():
                m = (a1 + a2, b1 + b2)
                prod = c1 * c2
                s = out.get(m)
                s = prod if s is None else s + prod
                if s.is_zero:
                    out.pop(m, None)
                else:
                    out[m] = s
        p = SpatialPoly.__new__(SpatialPoly)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        return power(self, exponent, SpatialPoly({(0, 0): ONE}))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    # -- structure -----------------------------------------------------------

    def leading_term(self) -> tuple[Monomial, FieldScalar]:
        """Leading term under graded-lex order (total degree, then x exponent)."""
        mono = max(self.terms, key=_grlex)
        return mono, self.terms[mono]

    def partial_derivative(self, var: str) -> "SpatialPoly":
        out: dict[Monomial, FieldScalar] = {}
        if var == "x":
            for (a, b), c in self.terms.items():
                if a:
                    out[(a - 1, b)] = c * a
        elif var == "y":
            for (a, b), c in self.terms.items():
                if b:
                    out[(a, b - 1)] = c * b
        else:
            raise ValueError(f"unknown variable {var!r}")
        return SpatialPoly(out)

    # -- evaluation ----------------------------------------------------------

    def eval_exact(self, px: FieldScalar, py: FieldScalar) -> FieldScalar:
        total = ZERO
        powers_x = _power_cache(px)
        powers_y = _power_cache(py)
        for (a, b), c in self.terms.items():
            total = total + c * powers_x(a) * powers_y(b)
        return total

    def divide_exact(self, divisor: "SpatialPoly") -> "SpatialPoly":
        """Exact quotient self / divisor; raises ExactDivisionError otherwise.

        Leading-term elimination under graded-lex order; valid in the
        integral domain because lt(p*q) = lt(p)*lt(q).
        """
        if divisor.is_zero:
            raise ExactDivisionError("division by the zero polynomial")
        (da, db), dc = divisor.leading_term()
        dc_inv = dc.inverse()
        rem = dict(self.terms)
        out: dict[Monomial, FieldScalar] = {}
        while rem:
            mono = max(rem, key=_grlex)
            qa, qb = mono[0] - da, mono[1] - db
            if qa < 0 or qb < 0:
                raise ExactDivisionError("division left a remainder")
            qc = rem[mono] * dc_inv
            out[(qa, qb)] = qc
            for (ma, mb), mc in divisor.terms.items():
                t = (qa + ma, qb + mb)
                s = rem.get(t, ZERO) - qc * mc
                if s.is_zero:
                    rem.pop(t, None)
                else:
                    rem[t] = s
        return SpatialPoly(out)

    # -- serialization ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, FieldScalar]]:
        return sorted(self.terms.items(), key=lambda kv: _grlex(kv[0]), reverse=True)

    def to_json(self) -> list[list]:
        return [[a, b, c.to_text()] for (a, b), c in self.sorted_terms()]

    @classmethod
    def from_json(cls, data: Iterable) -> "SpatialPoly":
        return cls({(int(a), int(b)): FieldScalar.from_text(c) for a, b, c in data})

    def to_text(self) -> str:
        return rows_text(self.to_json())

    def __repr__(self):
        return f"SpatialPoly({self.to_text()})"


def rows_text(rows: Iterable) -> str:
    """A polynomial's JSON rows as text: "(c)*x^a*y^b" per row, joined by
    " + ", a factor left out where its exponent is 0; "0" for no rows."""
    chunks = []
    for a, b, c in rows:
        factors = [f"({c})"]
        if a:
            factors.append(f"x^{a}")
        if b:
            factors.append(f"y^{b}")
        chunks.append("*".join(factors))
    return " + ".join(chunks) or "0"


def _power_cache(base: FieldScalar):
    powers = [ONE]

    def power(k: int) -> FieldScalar:
        while len(powers) <= k:
            powers.append(powers[-1] * base)
        return powers[k]

    return power


X = SpatialPoly.variable("x")
Y = SpatialPoly.variable("y")


class DensePoly:
    """A homogeneous rational polynomial in (x, y) as one dense integer list.

    A degree-k polynomial is ``coeffs`` (k + 1 ints, ``coeffs[a]`` the
    numerator of the coefficient of x^a * y^(k - a)) over one denominator
    ``den`` > 0, with gcd(den, *coeffs) == 1.  Zero is ``coeffs == []`` and
    has no degree.  Values are never mutated, so they may be shared.
    """

    __slots__ = ("coeffs", "den")

    def __init__(self, coeffs: list[int], den: int = 1):
        if not any(coeffs):
            coeffs, den = [], 1
        else:
            g = math.gcd(den, *coeffs)
            if g != 1:
                coeffs = [c // g for c in coeffs]
                den //= g
        self.coeffs = coeffs
        self.den = den

    def __eq__(self, other):
        if not isinstance(other, DensePoly):
            return NotImplemented
        return self.coeffs == other.coeffs and self.den == other.den

    def __hash__(self):
        return hash((tuple(self.coeffs), self.den))

    def __repr__(self):
        return f"DensePoly({self.coeffs!r}, {self.den})"

    def homogeneous_degree(self) -> int | str:
        return len(self.coeffs) - 1 if self.coeffs else ZERO_POLY

    def _terms(self):
        """(a, b, c) of the nonzero terms c x^a y^b, highest power of x first."""
        k = len(self.coeffs) - 1
        return [(a, k - a, self.coeffs[a]) for a in range(k, -1, -1) if self.coeffs[a]]

    def to_json(self) -> list[list]:
        """The JSON rows ``[a, b, text]`` of the nonzero terms, highest power of
        x first, each text ``field_text`` of the reduced coefficient."""
        den = self.den
        return [[a, b, f"{c // (g := math.gcd(c, den))}/{den // g}{_RATIONAL_TAIL}"]
                for a, b, c in self._terms()]

    def float_terms(self) -> list[tuple[int, int, float]]:
        """(a, b, c) of the nonzero terms, highest power of x first, c the
        double nearest the coefficient (ties to even), +-inf beyond the range."""
        return [(a, b, _round(c, self.den)) for a, b, c in self._terms()]

    def __add__(self, other: "DensePoly") -> "DensePoly":
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("sum of polynomials of different degrees")
        if self.den == other.den:
            return DensePoly([a + b for a, b in zip(self.coeffs, other.coeffs)], self.den)
        da, db = self.den, other.den
        return DensePoly([a * db + b * da for a, b in zip(self.coeffs, other.coeffs)], da * db)

    def __neg__(self) -> "DensePoly":
        return DensePoly([-c for c in self.coeffs], self.den)

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        return self + (-other)

    def __mul__(self, other) -> "DensePoly":
        """Product with a DensePoly, an int or a Fraction."""
        if isinstance(other, DensePoly):
            if not (self.coeffs and other.coeffs):
                return DensePoly([])
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs, i):
                        out[j] += a * b
            return DensePoly(out, self.den * other.den)
        scalar = Fraction(other)
        return DensePoly([c * scalar.numerator for c in self.coeffs],
                         self.den * scalar.denominator)

    def __pow__(self, exponent: int) -> "DensePoly":
        return power(self, exponent, DensePoly([1]))

    def dx(self) -> "DensePoly":
        return DensePoly([a * c for a, c in enumerate(self.coeffs)][1:], self.den)

    def dy(self) -> "DensePoly":
        k = len(self.coeffs) - 1
        return DensePoly([(k - a) * c for a, c in enumerate(self.coeffs)][:-1], self.den)


# A velocity form on lists: entry q is the DensePoly coefficient of
# xd^(v - q) * yd^q, v = len - 1, every nonzero entry of one degree.
DenseForm = list[DensePoly]


def form_sum(f: DenseForm, g: DenseForm) -> DenseForm:
    return [a + b for a, b in zip(f, g, strict=True)]


def form_product(f: DenseForm, g: DenseForm) -> DenseForm:
    out = [DensePoly([])] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a.coeffs:
            for j, b in enumerate(g, i):
                out[j] = out[j] + a * b
    return out


_THIRD = Fraction(1, 3)


def arc_derivative(num: DenseForm, r: DenseForm, qd: DensePoly) -> DenseForm:
    """d/ds of num / qd**v along a candidate curve, v = len(num) - 1: the
    numerator over qd**(v + 1).

    Uses dx/ds = xd, dy/ds = yd, d(xd)/ds = (R/3) yd, d(yd)/ds = -(R/3) xd,
    with R = r / qd.  The numerator is
    qd * F(num) + (r/3) * rot(num) - v * F(qd) * num, where
    F(P) = dP/dx * xd + dP/dy * yd is the coordinate flow and rot the
    derivation xd -> yd, yd -> -xd.
    """
    v = len(num) - 1
    flow = [DensePoly([])] * (v + 2)
    rotation = [DensePoly([])] * (v + 1)
    for q, coeff in enumerate(num):
        flow[q] = flow[q] + coeff.dx()
        flow[q + 1] = flow[q + 1] + coeff.dy()
        if v - q:
            rotation[q + 1] = rotation[q + 1] + coeff * (v - q)
        if q:
            rotation[q - 1] = rotation[q - 1] - coeff * q
    out = form_sum([qd * p for p in flow], [p * _THIRD for p in form_product(r, rotation)])
    qd_flow = form_product([qd.dx() * v, qd.dy() * v], num)
    return [a - b for a, b in zip(out, qd_flow, strict=True)]
