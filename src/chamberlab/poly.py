"""Exact polynomial algebra in (x, y) and in the velocity pair (xd, yd).

Four layers:

* :class:`SpatialPoly` - polynomials in the chamber coordinates (x, y) with
  :class:`~chamberlab.field.FieldScalar` coefficients, stored as a sparse
  exponent map.
* :class:`VelocityForm` - velocity-homogeneous polynomials in (xd, yd) whose
  coefficients are SpatialPolys.
* :class:`ReducedExpr` - a VelocityForm divided by a power of the chamber
  product polynomial; :func:`arc_derivative` differentiates these along
  arclength under the candidate-curve substitution rules.
* :class:`DensePoly` - a homogeneous rational polynomial as one dense list
  of integers over one denominator, with velocity forms as lists of them
  (:func:`dense_form`).

Only the wall forms need Q(sqrt2, sqrt3): every polynomial derived from them
is rational and homogeneous.  So the derivation runs on DensePolys, and
SpatialPolys are its inputs (the walls and their products) and its outputs
(every serialized polynomial).  :meth:`DensePoly.of` is the one boundary
between the two: it turns a SpatialPoly into a list and raises ValueError if
a coefficient is irrational or the terms differ in degree.
:func:`chamberlab.certify.compute_resultant` converts the A and C outputs
back through it and clears their denominators for :mod:`chamberlab.resultant`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .errors import ExactDivisionError
from .field import _R0, FieldScalar, ONE, ZERO, to_float

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
        if isinstance(other, VelocityForm):
            return NotImplemented
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

    def swap_variables(self) -> "SpatialPoly":
        """The polynomial p(y, x)."""
        p = SpatialPoly.__new__(SpatialPoly)
        p.terms = {(b, a): c for (a, b), c in self.terms.items()}
        return p

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


class VelocityForm:
    """Velocity-homogeneous polynomial in (xd, yd) with SpatialPoly coefficients.

    Every stored monomial xd^p * yd^q satisfies p + q == vdeg.
    """

    __slots__ = ("vdeg", "terms")

    def __init__(self, vdeg: int, terms: dict[Monomial, SpatialPoly] | None = None):
        if vdeg < 0:
            raise ValueError("velocity degree must be nonnegative")
        self.vdeg = vdeg
        self.terms = {}
        for (p, q), poly in (terms or {}).items():
            if p < 0 or q < 0 or p + q != vdeg:
                raise ValueError(f"monomial xd^{p}*yd^{q} breaks velocity degree {vdeg}")
            if not poly.is_zero:
                self.terms[(p, q)] = poly

    @classmethod
    def spatial(cls, poly: SpatialPoly) -> "VelocityForm":
        """A velocity-free form (degree 0)."""
        return cls(0, {(0, 0): poly})

    @classmethod
    def velocity_linear(cls, coeff_xd: SpatialPoly, coeff_yd: SpatialPoly) -> "VelocityForm":
        return cls(1, {(1, 0): coeff_xd, (0, 1): coeff_yd})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, p: int, q: int) -> SpatialPoly:
        return self.terms.get((p, q), SpatialPoly.zero())

    def __add__(self, other):
        if not isinstance(other, VelocityForm):
            return NotImplemented
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if other.vdeg != self.vdeg:
            raise ValueError(f"velocity degrees differ: {self.vdeg} vs {other.vdeg}")
        out = dict(self.terms)
        for m, poly in other.terms.items():
            s = out.get(m)
            out[m] = poly if s is None else s + poly
        return VelocityForm(self.vdeg, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return VelocityForm(self.vdeg, {m: -p for m, p in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, VelocityForm):
            out: dict[Monomial, SpatialPoly] = {}
            for (p1, q1), f1 in self.terms.items():
                for (p2, q2), f2 in other.terms.items():
                    m = (p1 + p2, q1 + q2)
                    prod = f1 * f2
                    s = out.get(m)
                    out[m] = prod if s is None else s + prod
            return VelocityForm(self.vdeg + other.vdeg, out)
        scale = other if isinstance(other, SpatialPoly) else None
        if scale is None:
            c = FieldScalar._coerce(other)
            if c is None:
                return NotImplemented
            scale = SpatialPoly({(0, 0): c})
        return VelocityForm(self.vdeg, {m: p * scale for m, p in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, VelocityForm):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return self.vdeg == other.vdeg and self.terms == other.terms

    def __hash__(self):
        return hash((self.vdeg, frozenset((m, hash(p)) for m, p in self.terms.items())))

    def eval_exact(self, px, py, pxd, pyd) -> FieldScalar:
        total = ZERO
        powers_xd = _power_cache(pxd)
        powers_yd = _power_cache(pyd)
        for (p, q), poly in self.terms.items():
            total = total + poly.eval_exact(px, py) * powers_xd(p) * powers_yd(q)
        return total

    def map_coefficients(self, fn) -> "VelocityForm":
        return VelocityForm(self.vdeg, {m: fn(p) for m, p in self.terms.items()})

    def to_json(self) -> list[dict]:
        return [{"xd": p, "yd": q, "poly": poly.to_json()}
                for (p, q), poly in sorted(self.terms.items(), reverse=True)]

    def __repr__(self):
        body = " + ".join(f"[{poly.to_text()}]*xd^{p}*yd^{q}"
                          for (p, q), poly in sorted(self.terms.items(), reverse=True))
        return f"VelocityForm({body or '0'})"


class ReducedExpr:
    """A VelocityForm divided by a power of the chamber product polynomial.

    Represents num / qd**qd_power.  The chain built from the wall-curvature
    sum has velocity degree equal to qd_power at every stage.
    """

    __slots__ = ("num", "qd_power", "qd")

    def __init__(self, num: VelocityForm, qd_power: int, qd: SpatialPoly):
        if qd_power < 0:
            raise ValueError("denominator power must be nonnegative")
        self.num = num
        self.qd_power = qd_power
        self.qd = qd

    @property
    def velocity_degree(self) -> int:
        return self.num.vdeg

    def promoted_numerator(self, power: int) -> VelocityForm:
        """Numerator after raising the denominator power to `power`."""
        if power < self.qd_power:
            raise ValueError("cannot demote the denominator power")
        out = self.num
        for _ in range(power - self.qd_power):
            out = out * self.qd
        return out

    def same_case(self, other: "ReducedExpr") -> bool:
        return self.qd == other.qd

    def __eq__(self, other):
        if not isinstance(other, ReducedExpr):
            return NotImplemented
        if not self.same_case(other):
            return False
        k = max(self.qd_power, other.qd_power)
        return self.promoted_numerator(k) == other.promoted_numerator(k)

    def eval_exact(self, px, py, pxd, pyd) -> FieldScalar:
        denom = self.qd.eval_exact(px, py) ** self.qd_power
        return self.num.eval_exact(px, py, pxd, pyd) * denom.inverse()

    def to_json(self) -> dict:
        return {"numerator": self.num.to_json(), "qd_power": self.qd_power,
                "velocity_degree": self.num.vdeg}

    def __repr__(self):
        return f"ReducedExpr({self.num!r} / qd^{self.qd_power})"


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


def dense_form(vf: VelocityForm) -> DenseForm:
    """The coefficient lists of vf; ValueError unless they are rational and
    homogeneous of one common degree."""
    form = [DensePoly.of(vf.coefficient(vf.vdeg - q, q)) for q in range(vf.vdeg + 1)]
    if len({len(p.coeffs) for p in form if p.coeffs}) > 1:
        raise ValueError("velocity coefficients are not homogeneous of one common degree")
    return form


def velocity_form(form: DenseForm) -> VelocityForm:
    v = len(form) - 1
    return VelocityForm(v, {(v - q, q): p.to_spatial() for q, p in enumerate(form)})


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


def arc_step(num: DenseForm, power: int, r: DenseForm,
             qd: DensePoly) -> tuple[DenseForm, int]:
    """d/ds of num / qd**power on lists: the new numerator and power.

    The derivative is qd * F(num) + (R/3) * rot(num) - power * F(qd) * num
    over qd**(power + 1), where F(P) = dP/dx * xd + dP/dy * yd is the
    coordinate flow and rot the derivation xd -> yd, yd -> -xd.  A num over
    qd**0 with rot(num) = 0 (a velocity-free one, say) gives F(num) over qd**0.
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
    if not power and not any(p.coeffs for p in rotation):
        return flow, 0
    out = form_sum([qd * p for p in flow], [p * _THIRD for p in form_product(r, rotation)])
    if power:
        qd_flow = form_product([qd.dx() * power, qd.dy() * power], num)
        out = [a - b for a, b in zip(out, qd_flow)]
    return out, power + 1


def arc_derivative(expr: ReducedExpr, r: ReducedExpr) -> ReducedExpr:
    """Formal arclength derivative of expr under the candidate-curve rules.

    Uses dx/ds = xd, dy/ds = yd, d(xd)/ds = (R/3) yd, d(yd)/ds = -(R/3) xd,
    where R is given as a ReducedExpr of velocity degree 1 over qd.  The
    result has qd_power and velocity degree one higher than the input, except
    for velocity-free inputs with no denominator, whose derivative needs
    neither (e.g. the coordinate x differentiates to xd).  Every coefficient
    and qd must be rational and homogeneous (ValueError otherwise); the work
    runs on lists (:func:`arc_step`).
    """
    if not expr.same_case(r):
        raise ValueError("expression and curvature sum belong to different cases")
    if r.num.vdeg != 1 or r.qd_power != 1:
        raise ValueError("curvature sum must be velocity-linear over qd^1")
    num, power = arc_step(dense_form(expr.num), expr.qd_power, dense_form(r.num),
                          DensePoly.of(expr.qd))
    return ReducedExpr(velocity_form(num), power, expr.qd)
