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
is rational and homogeneous.  So the derivation runs on DensePolys, and
SpatialPolys are its inputs (the walls and their products).
:meth:`DensePoly.of` is the one boundary between the two, called only by
:func:`chamberlab.reduction.wall_products`: it turns a SpatialPoly into a
list and raises ValueError if a coefficient is irrational or the terms
differ in degree.  From there the lists go on to the serialized bundle
(:meth:`DensePoly.to_json`), the resultant and the lab's float kernels
(:meth:`DensePoly.float_terms`), each the same as going through
:meth:`DensePoly.to_spatial`, which only the bundle's SpatialPoly views call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .errors import ExactDivisionError
from .field import _R0, _RATIONAL_TAIL, FieldScalar, ONE, ZERO, _round, to_float

Monomial = tuple[int, int]

# Sentinels returned by homogeneous_degree (non-homogeneity is data, not error).
ZERO_POLY = "zero"
NOT_HOMOGENEOUS = "not homogeneous"


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
    def monomial(cls, a: int, b: int, coeff=ONE) -> "SpatialPoly":
        c = FieldScalar._coerce(coeff)
        if c is None:
            raise TypeError(f"cannot build monomial coefficient from {coeff!r}")
        return cls({(a, b): c})

    @classmethod
    def variable(cls, name: str) -> "SpatialPoly":
        if name == "x":
            return cls({(1, 0): ONE})
        if name == "y":
            return cls({(0, 1): ONE})
        raise ValueError(f"unknown variable {name!r}")

    @classmethod
    def linear(cls, coeff_x, coeff_y) -> "SpatialPoly":
        """The form coeff_x * x + coeff_y * y."""
        cx, cy = FieldScalar._coerce(coeff_x), FieldScalar._coerce(coeff_y)
        if cx is None or cy is None:
            raise TypeError(f"cannot build linear form from {coeff_x!r}, {coeff_y!r}")
        return cls({(1, 0): cx, (0, 1): cy})

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

    def __rsub__(self, other):
        return (-self) + other

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
        result = SpatialPoly({(0, 0): ONE})
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure -----------------------------------------------------------

    def total_degree(self) -> int:
        """Maximal total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(a + b for a, b in self.terms)

    def homogeneous_degree(self) -> Union[int, str]:
        """Common total degree, or the sentinels ZERO_POLY / NOT_HOMOGENEOUS."""
        if not self.terms:
            return ZERO_POLY
        degrees = {a + b for a, b in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return NOT_HOMOGENEOUS

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

    def float_terms(self) -> list[tuple[int, int, float]]:
        """Terms with double-precision coefficients, in canonical order."""
        return [(a, b, to_float(c)) for (a, b), c in self.sorted_terms()]

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
        if not self.terms:
            return "0"
        chunks = []
        for (a, b), c in self.sorted_terms():
            factors = [f"({c.to_text()})"]
            if a:
                factors.append(f"x^{a}")
            if b:
                factors.append(f"y^{b}")
            chunks.append("*".join(factors))
        return " + ".join(chunks)

    def __repr__(self):
        return f"SpatialPoly({self.to_text()})"


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

    @classmethod
    def of(cls, poly: SpatialPoly) -> "DensePoly":
        """The list of a rational homogeneous SpatialPoly; ValueError otherwise."""
        degree = poly.homogeneous_degree()
        if degree == ZERO_POLY:
            return cls([])
        if degree == NOT_HOMOGENEOUS:
            raise ValueError("coefficients are not homogeneous of one common degree")
        den = 1
        for coeff in poly.terms.values():
            if not coeff.is_rational:
                raise ValueError(f"coefficient {coeff.to_text()} is not rational")
            den = math.lcm(den, coeff.a.denominator)
        coeffs = [0] * (degree + 1)
        for (a, _), coeff in poly.terms.items():
            coeffs[a] = coeff.a.numerator * (den // coeff.a.denominator)
        return cls(coeffs, den)

    def to_spatial(self) -> SpatialPoly:
        """The same polynomial with FieldScalar coefficients."""
        k = len(self.coeffs) - 1
        p = SpatialPoly.__new__(SpatialPoly)
        p.terms = {(a, k - a): FieldScalar._raw(Fraction(c, self.den), _R0, _R0, _R0)
                   for a, c in enumerate(self.coeffs) if c}
        return p

    def _terms(self):
        """(a, b, c) of the nonzero terms c x^a y^b, highest power of x first."""
        k = len(self.coeffs) - 1
        return [(a, k - a, self.coeffs[a]) for a in range(k, -1, -1) if self.coeffs[a]]

    def to_json(self) -> list[list]:
        """``to_spatial().to_json()``, written straight from the list."""
        den = self.den
        return [[a, b, f"{c // (g := math.gcd(c, den))}/{den // g}{_RATIONAL_TAIL}"]
                for a, b, c in self._terms()]

    def float_terms(self) -> list[tuple[int, int, float]]:
        """``to_spatial().float_terms()`` bit for bit: int division rounds correctly."""
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
        result, base = DensePoly([1]), self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

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
