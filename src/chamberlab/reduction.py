"""Symbolic pipeline from a case to its compatibility polynomials.

For a case with chamber type d and multiplicities (m_0 .. m_{d-1}),
``build_bundle`` derives, in one pass and each stage once: the d linear wall
forms, their product qd and the squared orbit-volume polynomial, the
quotients qd/w_i, the volume-derivative coefficients t1, t2, the
quadratic-term coefficients t3, t4, t5, the wall-curvature sum R with its
first and second arclength derivatives, and finally the velocity-cubic
coefficients A0..A3 and the slope-quintic coefficients C0..C5 whose common
root structure the certificate module interrogates.  Every consumer reads
these from the cached ``ReductionBundle``.

All arithmetic is exact; every degree claim is asserted and a violation raises
PipelineError (it would indicate a bug, not bad input).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cases import CaseSpec, validate_case
from .errors import PipelineError
from .field import FieldScalar, trig_pair
from .poly import ReducedExpr, SpatialPoly, VelocityForm, arc_derivative

_THIRD = FieldScalar.rational(1, 3)
_NINTH = FieldScalar.rational(1, 9)


@dataclass
class ReductionBundle:
    """Everything the certificate and numeric laboratories consume."""

    case: CaseSpec
    walls: list[SpatialPoly]
    qd: SpatialPoly
    volume_sq: SpatialPoly
    t1: SpatialPoly
    t2: SpatialPoly
    t3: SpatialPoly
    t4: SpatialPoly
    t5: SpatialPoly
    r: ReducedExpr
    r_dot: ReducedExpr
    r_ddot: ReducedExpr
    a_coeffs: tuple[SpatialPoly, SpatialPoly, SpatialPoly, SpatialPoly]
    c_coeffs: tuple[SpatialPoly, ...]

    def degree_report(self) -> dict:
        return {
            "d": self.case.d,
            "qd": self.qd.homogeneous_degree(),
            "volume_sq": self.volume_sq.homogeneous_degree(),
            "t1": self.t1.homogeneous_degree(),
            "t2": self.t2.homogeneous_degree(),
            "t345": [t.homogeneous_degree() for t in (self.t3, self.t4, self.t5)],
            "a": [a.homogeneous_degree() for a in self.a_coeffs],
            "c": [c.homogeneous_degree() for c in self.c_coeffs],
        }


def build_walls(case: CaseSpec) -> list[SpatialPoly]:
    """The d linear forms x*sin(i*pi/d) - y*cos(i*pi/d), exact coefficients."""
    walls = []
    for i in range(case.d):
        s, c = trig_pair(case.d, i)
        walls.append(SpatialPoly.linear(s, -c))
    return walls


def _check_homogeneous(poly: SpatialPoly, degree: int, what: str, case: CaseSpec):
    got = poly.homogeneous_degree()
    if got == "zero":
        return
    if got != degree:
        raise PipelineError(f"{case.label}: {what} has degree {got!r}, expected {degree}")


def quintic_table(qd: SpatialPoly, t1: SpatialPoly, t2: SpatialPoly,
                  a: tuple[SpatialPoly, SpatialPoly, SpatialPoly, SpatialPoly],
                  ) -> tuple[SpatialPoly, ...]:
    """C0..C5 from the x-derivative of the slope cubic, linear in the A's.

    Differentiating A3 z^3 + A2 z^2 + A1 z + A0 = 0 (z the curve slope) along
    x, substituting the slope's second-derivative expression, and clearing one
    qd denominator collects into six coefficients of powers of z.
    """
    third = _THIRD
    two_thirds = FieldScalar.rational(2, 3)
    a0, a1, a2, a3 = a
    dx = lambda p: p.partial_derivative("x")
    dy = lambda p: p.partial_derivative("y")
    c0 = qd * dx(a0) + a1 * t2 * third
    c1 = qd * (dx(a1) + dy(a0)) + a2 * t2 * two_thirds - a1 * t1 * third
    c2 = qd * (dx(a2) + dy(a1)) + a3 * t2 - a2 * t1 * two_thirds + a1 * t2 * third
    c3 = qd * (dx(a3) + dy(a2)) - a3 * t1 + a2 * t2 * two_thirds - a1 * t1 * third
    c4 = qd * dy(a3) + a3 * t2 - a2 * t1 * two_thirds
    c5 = -(a3 * t1)
    return (c0, c1, c2, c3, c4, c5)


@lru_cache(maxsize=None)
def build_bundle(case: CaseSpec) -> ReductionBundle:
    """Run the whole symbolic pipeline for one case, each stage once, with degree checks."""
    violations = validate_case(case)
    if violations:
        raise PipelineError(f"{case.label}: invalid case: {violations}")
    d = case.d
    mults = case.multiplicities

    # qd and volume_sq: plain products over the walls, no renormalization.
    walls = build_walls(case)
    qd = SpatialPoly.constant(1)
    volume_sq = SpatialPoly.constant(1)
    for w, m in zip(walls, mults):
        qd = qd * w
        volume_sq = volume_sq * w ** (2 * m)

    # t1, t2: the arclength derivative of log(volume_sq) times qd/2.
    # t3, t4, t5: the velocity-quadratic term, weighted curvature squares
    # plus R^2/9.  Each qd / w_i is remainder-free by construction.
    t1 = t2 = t3 = t4 = t5 = SpatialPoly.zero()
    for i, (w, m) in enumerate(zip(walls, mults)):
        s, c = trig_pair(d, i)
        mf = FieldScalar.rational(m)
        quot = qd.divide_exact(w)
        quot_sq = quot * quot
        t1 = t1 + quot * (s * mf)
        t2 = t2 - quot * (c * mf)
        t3 = t3 + quot_sq * (c * c * mf)
        t4 = t4 + quot_sq * (s * c * (mf + mf))
        t5 = t5 + quot_sq * (s * s * mf)
    t3 = t3 + t2 * t2 * _NINTH
    t4 = t4 + t1 * t2 * FieldScalar.rational(-2, 9)
    t5 = t5 + t1 * t1 * _NINTH

    # The wall-curvature sum R = (-t2*xd + t1*yd) / qd and its first and
    # second arclength derivatives.
    r = ReducedExpr(VelocityForm.velocity_linear(-t2, t1), 1, qd)
    r_dot = arc_derivative(r, r)
    r_ddot = arc_derivative(r_dot, r)

    # The normal equation cleared of denominators.  Its three contributions
    # (second derivative of R, volume term times first derivative, quadratic
    # term times R) are each velocity-cubic over qd^3, so collecting A is
    # purely syntactic; C follows from the x-derivative of the cubic.
    volume_term = VelocityForm.velocity_linear(t1, t2)
    quad_term = VelocityForm(2, {(2, 0): t3, (1, 1): t4, (0, 2): t5})
    cubic = r_ddot.num + volume_term * r_dot.num - quad_term * r.num
    a = tuple(cubic.coefficient(3 - j, j) for j in range(4))
    c = quintic_table(qd, t1, t2, a)

    for i, w in enumerate(walls):
        _check_homogeneous(w, 1, f"wall {i}", case)
    _check_homogeneous(qd, d, "qd", case)
    _check_homogeneous(volume_sq, 2 * sum(mults), "volume_sq", case)
    _check_homogeneous(t1, d - 1, "t1", case)
    _check_homogeneous(t2, d - 1, "t2", case)
    for name, poly in (("t3", t3), ("t4", t4), ("t5", t5)):
        _check_homogeneous(poly, 2 * d - 2, name, case)
    for label, expr, power in (("R", r, 1), ("R'", r_dot, 2), ("R''", r_ddot, 3)):
        if expr.qd_power != power or expr.velocity_degree != power:
            raise PipelineError(f"{case.label}: {label} has shape "
                                f"(vdeg={expr.velocity_degree}, qd_power={expr.qd_power})")
        for (p, q), poly in expr.num.terms.items():
            _check_homogeneous(poly, power * (d - 1), f"{label} coeff xd^{p} yd^{q}", case)
    if cubic.vdeg != 3:
        raise PipelineError(f"{case.label}: assembled form has velocity degree {cubic.vdeg}")
    for j, poly in enumerate(a):
        _check_homogeneous(poly, 3 * (d - 1), f"A{j}", case)
    for j, poly in enumerate(c):
        _check_homogeneous(poly, 4 * (d - 1), f"C{j}", case)

    return ReductionBundle(
        case=case, walls=walls, qd=qd, volume_sq=volume_sq,
        t1=t1, t2=t2, t3=t3, t4=t4, t5=t5,
        r=r, r_dot=r_dot, r_ddot=r_ddot,
        a_coeffs=a, c_coeffs=c,
    )


def curvature_expr_pair(case: CaseSpec, i: int) -> tuple[ReducedExpr, ReducedExpr]:
    """The two symbolic forms of the i-th wall curvature, over a common case.

    The first applies the normal-direction derivative to log(w_i^2); the
    second is the direct ratio w_i(yd, -xd) / w_i(x, y).  Both are returned as
    reduced expressions over powers of qd so equality is decidable exactly.
    """
    bundle = build_bundle(case)
    qd = bundle.qd
    w = bundle.walls[i]
    quot = qd.divide_exact(w)

    # Directional derivative along nu = (-yd, xd): nu(P) has xd-coefficient
    # dP/dy and yd-coefficient -dP/dx.  Form one is -(1/2) nu(w^2) / w^2,
    # promoted to the common denominator qd^2 via (qd/w)^2.
    w_sq = w * w
    nu_derivative = VelocityForm(1, {(1, 0): w_sq.partial_derivative("y"),
                                     (0, 1): -w_sq.partial_derivative("x")})
    minus_half = FieldScalar.rational(-1, 2)
    quot_sq = quot * quot
    form_log = ReducedExpr(nu_derivative.map_coefficients(lambda p: p * quot_sq * minus_half),
                           2, qd)

    s, c = trig_pair(case.d, i)
    # w_i(yd, -xd) = c*xd + s*yd, over w_i; promoted to denominator qd.
    direct_num = VelocityForm(1, {(1, 0): quot * c, (0, 1): quot * s})
    form_direct = ReducedExpr(direct_num, 1, qd)
    return form_log, form_direct


# ---------------------------------------------------------------------------
# Reference check against the published U(5) coefficients.
# ---------------------------------------------------------------------------

_REFERENCE_A0 = {(9, 0): -275, (7, 2): 775, (5, 4): -363, (3, 6): 1237, (1, 8): 130}
_REFERENCE_A1 = {(2, 7): -200, (4, 5): 4320, (6, 3): -944, (8, 1): 520, (0, 9): -80}


def reference_example_polys() -> tuple[SpatialPoly, SpatialPoly, SpatialPoly, SpatialPoly]:
    """Published U(5) coefficients (A2, A3 are the mirror images of A1, A0)."""
    a0 = SpatialPoly({m: FieldScalar.rational(v) for m, v in _REFERENCE_A0.items()})
    a1 = SpatialPoly({m: FieldScalar.rational(v) for m, v in _REFERENCE_A1.items()})
    return a0, a1, a1.swap_variables(), a0.swap_variables()


def verify_reference_example() -> dict:
    """Derive the U(5) cubic coefficients and compare with the published ones.

    Fits the single admissible scale from one nonzero monomial, then requires
    exact monomial-by-monomial agreement of all four coefficients and the two
    mirror identities.  Returns a report dict; mismatches are listed, not
    raised.
    """
    from .cases import registry_case

    case = registry_case("U5")
    a = build_bundle(case).a_coeffs
    ref = reference_example_polys()

    anchor = (9, 0)
    ours_anchor = a[0].terms.get(anchor)
    ref_anchor = ref[0].terms.get(anchor)
    report = {"case": case.label, "passed": False, "scale": None, "diffs": []}
    if ours_anchor is None or ref_anchor is None:
        report["diffs"].append("anchor monomial x^9 missing from A0")
        return report
    lam = ours_anchor * ref_anchor.inverse()
    if not lam.is_rational:
        report["diffs"].append(f"scale is irrational: {lam.to_text()}")
        return report
    report["scale"] = lam.to_text()

    for j, (ours, expected) in enumerate(zip(a, ref)):
        scaled = expected * lam
        if ours == scaled:
            continue
        monos = set(ours.terms) | set(scaled.terms)
        for mono in sorted(monos):
            lhs = ours.terms.get(mono)
            rhs = scaled.terms.get(mono)
            if lhs != rhs:
                report["diffs"].append(
                    f"A{j} x^{mono[0]} y^{mono[1]}: derived "
                    f"{lhs.to_text() if lhs else '0'} vs reference*scale "
                    f"{rhs.to_text() if rhs else '0'}")
    if a[0] != a[3].swap_variables():
        report["diffs"].append("mirror identity A0(x,y) == A3(y,x) fails")
    if a[1] != a[2].swap_variables():
        report["diffs"].append("mirror identity A1(x,y) == A2(y,x) fails")
    report["passed"] = not report["diffs"]
    return report


def bundle_to_json(bundle: ReductionBundle) -> dict:
    """Canonical serialization of every pipeline polynomial plus degree data."""
    case = bundle.case
    return {
        "case": case.name,
        "label": case.label,
        "group": case.group,
        "n": case.n,
        "d": case.d,
        "multiplicities": list(case.multiplicities),
        "params": case.params_dict,
        "walls": [w.to_json() for w in bundle.walls],
        "qd": bundle.qd.to_json(),
        "volume_sq": bundle.volume_sq.to_json(),
        "t1": bundle.t1.to_json(),
        "t2": bundle.t2.to_json(),
        "t3": bundle.t3.to_json(),
        "t4": bundle.t4.to_json(),
        "t5": bundle.t5.to_json(),
        "r": bundle.r.to_json(),
        "r_dot": bundle.r_dot.to_json(),
        "r_ddot": bundle.r_ddot.to_json(),
        "a_coeffs": [a.to_json() for a in bundle.a_coeffs],
        "c_coeffs": [c.to_json() for c in bundle.c_coeffs],
        "degrees": bundle.degree_report(),
    }
