"""Sparse exact polynomial algebra in (x, y) and in the velocity pair (xd, yd).

Three layers:

* :class:`SpatialPoly` - polynomials in the chamber coordinates (x, y) with
  :class:`~chamberlab.field.FieldScalar` coefficients, stored as a sparse
  exponent map.
* :class:`VelocityForm` - velocity-homogeneous polynomials in (xd, yd) whose
  coefficients are SpatialPolys.
* :class:`ReducedExpr` - a VelocityForm divided by a power of the chamber
  product polynomial; :func:`arc_derivative` differentiates these along
  arclength under the candidate-curve substitution rules.

These types carry the derivation from the walls to the cubic and quintic
coefficients and every serialized polynomial.  The resultant does not run on
them: :func:`chamberlab.certify.compute_resultant` converts the rational,
homogeneous coefficient lists to dense integer lists in u = x/y for
:mod:`chamberlab.resultant` and converts the result back to a SpatialPoly.
"""

from __future__ import annotations

from typing import Iterable, Union

from .errors import ExactDivisionError
from .field import FieldScalar, ONE, ZERO, to_float

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
        return cls({(1, 0): FieldScalar._coerce(coeff_x), (0, 1): FieldScalar._coerce(coeff_y)})

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


def velocity_rotation(vf: VelocityForm) -> VelocityForm:
    """Image of the numerator under xd -> yd, yd -> -xd acting by derivation.

    This is the velocity part of d/ds when xd' = W*yd and yd' = -W*xd for a
    common factor W: each xd^p*yd^q contributes p*xd^(p-1)*yd^(q+1) minus
    q*xd^(p+1)*yd^(q-1).
    """
    if vf.vdeg == 0:
        return VelocityForm(0)
    out: dict[Monomial, SpatialPoly] = {}

    def _acc(m: Monomial, poly: SpatialPoly):
        s = out.get(m)
        out[m] = poly if s is None else s + poly

    for (p, q), poly in vf.terms.items():
        if p:
            _acc((p - 1, q + 1), poly * p)
        if q:
            _acc((p + 1, q - 1), poly * (-q))
    return VelocityForm(vf.vdeg, out)


def spatial_flow_derivative(vf: VelocityForm) -> VelocityForm:
    """Coefficient-wise x,y chain rule part of d/ds: sum (dP/dx xd + dP/dy yd)."""
    out: dict[Monomial, SpatialPoly] = {}

    def _acc(m: Monomial, poly: SpatialPoly):
        if poly.is_zero:
            return
        s = out.get(m)
        out[m] = poly if s is None else s + poly

    for (p, q), poly in vf.terms.items():
        _acc((p + 1, q), poly.partial_derivative("x"))
        _acc((p, q + 1), poly.partial_derivative("y"))
    return VelocityForm(vf.vdeg + 1, out)


def coordinate_flow(poly: SpatialPoly) -> VelocityForm:
    """d/ds of a pure spatial polynomial: dP/dx * xd + dP/dy * yd."""
    return VelocityForm.velocity_linear(poly.partial_derivative("x"),
                                        poly.partial_derivative("y"))


def arc_derivative(expr: ReducedExpr, r: ReducedExpr) -> ReducedExpr:
    """Formal arclength derivative of expr under the candidate-curve rules.

    Uses dx/ds = xd, dy/ds = yd, d(xd)/ds = (R/3) yd, d(yd)/ds = -(R/3) xd,
    where R is given as a ReducedExpr of velocity degree 1 over qd.  The
    result has qd_power and velocity degree one higher than the input, except
    for velocity-free inputs with no denominator, whose derivative needs
    neither (e.g. the coordinate x differentiates to xd).
    """
    if not expr.same_case(r):
        raise ValueError("expression and curvature sum belong to different cases")
    if r.num.vdeg != 1 or r.qd_power != 1:
        raise ValueError("curvature sum must be velocity-linear over qd^1")
    spatial_part = spatial_flow_derivative(expr.num)
    rotation = velocity_rotation(expr.num)
    if expr.qd_power == 0 and rotation.is_zero:
        return ReducedExpr(spatial_part, 0, expr.qd)
    third = FieldScalar.rational(1, 3)
    num = expr.qd * spatial_part + (r.num * rotation) * third
    if expr.qd_power:
        num = num - coordinate_flow(expr.qd) * expr.num * expr.qd_power
    return ReducedExpr(num, expr.qd_power + 1, expr.qd)
