"""Symbolic pipeline from a case to its compatibility polynomials.

For a case with chamber type d and multiplicities (m_0 .. m_{d-1}),
``build_bundle`` derives, in one pass and each stage once: the d linear wall
forms, their product qd and the squared orbit-volume polynomial, the
volume-derivative coefficients t1, t2, the quadratic-term coefficients t3,
t4, t5, the wall-curvature sum R with its first and second arclength
derivatives, and finally the velocity-cubic coefficients A0..A3 and the
slope-quintic coefficients C0..C5 whose common root structure the
certificate module interrogates.  Every consumer reads these from the cached
``ReductionBundle``.  R, R' and R'' are velocity forms over qd, qd**2 and
qd**3 and stay lists (:data:`~chamberlab.poly.DenseForm`): entry q of a
form of velocity degree v is the coefficient of xd**(v - q) * yd**q.

The walls have coefficients in Q(sqrt2, sqrt3); everything after them is
derived on dense rational lists (:class:`~chamberlab.poly.DensePoly`).  The
one boundary is :func:`wall_products`: for each distinct multiplicity m,
the product P_m of the walls of multiplicity m over its leading coefficient
l_m must be rational, and so must l_m**2 and qd; otherwise the case raises
PipelineError.  The orbit volume and the t's are then sums and products of
the P_m (see build_bundle), and the outputs other than R, R' and R''
become SpatialPolys once, at the end.

All arithmetic is exact; every degree claim is asserted and a violation raises
PipelineError (it would indicate a bug, not bad input).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cases import CaseSpec, validate_case
from .errors import PipelineError
from .field import FieldScalar, trig_pair
from .poly import ZERO_POLY, DenseForm, DensePoly, SpatialPoly, arc_derivative, \
    form_product, form_sum

_THIRD = Fraction(1, 3)
_TWO_THIRDS = Fraction(2, 3)
_NINTH = Fraction(1, 9)


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
    r: DenseForm
    r_dot: DenseForm
    r_ddot: DenseForm
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


def wall_products(case: CaseSpec, walls: list[SpatialPoly],
                  ) -> tuple[SpatialPoly, DensePoly, list[tuple[int, Fraction, DensePoly]]]:
    """qd = prod(w_i), its list, and (m, l**2, P_m / l) for each distinct m.

    P_m is the product of the walls of multiplicity m and l its leading
    coefficient, so P_m / l has leading coefficient 1.  Raises PipelineError
    naming the case unless qd, every P_m / l and every l**2 are rational.
    """
    qd = SpatialPoly.constant(1)
    for w in walls:
        qd = qd * w
    groups = []
    try:
        qd_list = DensePoly.of(qd)
        for m in sorted(set(case.multiplicities)):
            product = SpatialPoly.constant(1)
            for w, mi in zip(walls, case.multiplicities):
                if mi == m:
                    product = product * w
            lead = product.leading_term()[1]
            lead_sq = lead * lead
            if not lead_sq.is_rational:
                raise ValueError(f"leading coefficient squared {lead_sq.to_text()} "
                                 f"is not rational")
            groups.append((m, lead_sq.a, DensePoly.of(product * lead.inverse())))
    except ValueError as exc:
        raise PipelineError(f"{case.label}: the walls are not rational per "
                            f"multiplicity: {exc}") from None
    return qd, qd_list, groups


def _check_homogeneous(poly: SpatialPoly, degree: int, what: str, case: CaseSpec):
    got = poly.homogeneous_degree()
    if got == ZERO_POLY:
        return
    if got != degree:
        raise PipelineError(f"{case.label}: {what} has degree {got!r}, expected {degree}")


def _quintic(qd: DensePoly, t1: DensePoly, t2: DensePoly,
             a: tuple[DensePoly, ...]) -> tuple[DensePoly, ...]:
    a0, a1, a2, a3 = a
    c0 = qd * a0.dx() + a1 * t2 * _THIRD
    c1 = qd * (a1.dx() + a0.dy()) + a2 * t2 * _TWO_THIRDS - a1 * t1 * _THIRD
    c2 = qd * (a2.dx() + a1.dy()) + a3 * t2 - a2 * t1 * _TWO_THIRDS + a1 * t2 * _THIRD
    c3 = qd * (a3.dx() + a2.dy()) - a3 * t1 + a2 * t2 * _TWO_THIRDS - a1 * t1 * _THIRD
    c4 = qd * a3.dy() + a3 * t2 - a2 * t1 * _TWO_THIRDS
    c5 = -(a3 * t1)
    return (c0, c1, c2, c3, c4, c5)


@lru_cache(maxsize=None)
def build_bundle(case: CaseSpec) -> ReductionBundle:
    """Run the whole symbolic pipeline for one case, each stage once, with degree checks.

    With P~_m = P_m / l_m from :func:`wall_products` and
    Q_m = qd / P~_m = lam * prod(P~_m' for m' != m), lam the leading
    coefficient of qd:

    * volume_sq = prod(w_i**(2 m_i)) = prod((l_m**2)**m * P~_m**(2m));
    * t1, t2 = qd * sum(m_i * dw_i / w_i) along x and y
      = sum(m * dP~_m * Q_m);
    * t3, t4, t5 are the weighted curvature squares plus R^2/9: with
      -d^2 log w = (dw)^2 / w^2 for a linear w, t3 is
      sum(m * ((dyP~)^2 - P~ * dyyP~) * Q_m^2) + t2^2/9, t5 the same in x
      with t1^2/9, and t4 = 2 sum(m * (P~ * dxyP~ - dxP~ * dyP~) * Q_m^2)
      - 2 t1 t2 / 9.
    """
    violations = validate_case(case)
    if violations:
        raise PipelineError(f"{case.label}: invalid case: {violations}")
    d = case.d
    mults = case.multiplicities

    walls = build_walls(case)
    qd, qd_list, groups = wall_products(case, walls)
    lam = qd.leading_term()[1].a

    volume_sq = DensePoly([1])
    t1 = t2 = t3 = t4 = t5 = DensePoly([])
    for m, lead_sq, p in groups:
        q = DensePoly([1]) * lam
        for other_m, _, other in groups:
            if other_m != m:
                q = q * other
        volume_sq = volume_sq * p ** (2 * m) * lead_sq ** m
        px, py = p.dx(), p.dy()
        weight = q * q * m
        t1 = t1 + px * q * m
        t2 = t2 + py * q * m
        t3 = t3 + (py * py - p * py.dy()) * weight
        t4 = t4 + (p * px.dy() - px * py) * weight * 2
        t5 = t5 + (px * px - p * px.dx()) * weight
    t3 = t3 + t2 * t2 * _NINTH
    t4 = t4 - t1 * t2 * (2 * _NINTH)
    t5 = t5 + t1 * t1 * _NINTH

    # The wall-curvature sum R = (-t2*xd + t1*yd) / qd and its first and
    # second arclength derivatives, through the module global.
    r = [-t2, t1]
    r_dot = arc_derivative(r, r, qd_list)
    r_ddot = arc_derivative(r_dot, r, qd_list)

    # The normal equation cleared of denominators.  Its three contributions
    # (second derivative of R, volume term times first derivative, quadratic
    # term times R) are each velocity-cubic over qd^3, so collecting A is
    # purely syntactic; C follows from the x-derivative of the cubic.
    cubic = form_sum(r_ddot, form_product([t1, t2], r_dot))
    a_list = tuple(a - b for a, b in zip(cubic, form_product([t3, t4, t5], r), strict=True))
    c_list = _quintic(qd_list, t1, t2, a_list)

    t1_out, t2_out = t1.to_spatial(), t2.to_spatial()
    volume_sq = volume_sq.to_spatial()
    t3, t4, t5 = t3.to_spatial(), t4.to_spatial(), t5.to_spatial()
    a = tuple(p.to_spatial() for p in a_list)
    c = tuple(p.to_spatial() for p in c_list)

    for i, w in enumerate(walls):
        _check_homogeneous(w, 1, f"wall {i}", case)
    _check_homogeneous(qd, d, "qd", case)
    _check_homogeneous(volume_sq, 2 * sum(mults), "volume_sq", case)
    _check_homogeneous(t1_out, d - 1, "t1", case)
    _check_homogeneous(t2_out, d - 1, "t2", case)
    for name, poly in (("t3", t3), ("t4", t4), ("t5", t5)):
        _check_homogeneous(poly, 2 * d - 2, name, case)
    for label, form, v in (("R", r, 1), ("R'", r_dot, 2), ("R''", r_ddot, 3)):
        if len(form) != v + 1:
            raise PipelineError(f"{case.label}: {label} has velocity degree "
                                f"{len(form) - 1}, expected {v}")
        for q, poly in enumerate(form):
            if poly.coeffs and len(poly.coeffs) != v * (d - 1) + 1:
                raise PipelineError(f"{case.label}: {label} coeff xd^{v - q} yd^{q} has "
                                    f"degree {len(poly.coeffs) - 1}, expected {v * (d - 1)}")
    for j, poly in enumerate(a):
        _check_homogeneous(poly, 3 * (d - 1), f"A{j}", case)
    for j, poly in enumerate(c):
        _check_homogeneous(poly, 4 * (d - 1), f"C{j}", case)

    return ReductionBundle(
        case=case, walls=walls, qd=qd, volume_sq=volume_sq,
        t1=t1_out, t2=t2_out, t3=t3, t4=t4, t5=t5,
        r=r, r_dot=r_dot, r_ddot=r_ddot,
        a_coeffs=a, c_coeffs=c,
    )


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


def _form_json(form: DenseForm) -> dict:
    """A velocity form over qd**v, v its velocity degree: the nonzero entries
    from the highest power of xd down."""
    v = len(form) - 1
    return {"numerator": [{"xd": v - q, "yd": q, "poly": p.to_spatial().to_json()}
                          for q, p in enumerate(form) if p.coeffs],
            "qd_power": v, "velocity_degree": v}


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
        "r": _form_json(bundle.r),
        "r_dot": _form_json(bundle.r_dot),
        "r_ddot": _form_json(bundle.r_ddot),
        "a_coeffs": [a.to_json() for a in bundle.a_coeffs],
        "c_coeffs": [c.to_json() for c in bundle.c_coeffs],
        "degrees": bundle.degree_report(),
    }
