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
qd**3, lists (:data:`~chamberlab.poly.DenseForm`): entry q of a form of
velocity degree v is the coefficient of xd**(v - q) * yd**q.

The walls have coefficients in Q(sqrt2, sqrt3); everything after them is
derived on dense rational lists (:class:`~chamberlab.poly.DensePoly`).  The
one boundary is :func:`wall_products`: for each distinct multiplicity m,
the product P_m of the walls of multiplicity m over its leading coefficient
l_m must be rational, and so must l_m**2 and qd; otherwise the case raises
PipelineError.  qd and these products depend only on d and on which walls
share a multiplicity, so they are computed once per such class.  The
orbit volume and the t's are then sums and products of the P_m (see
build_bundle).  Every derived polynomial stays a list from there through
bundle_to_json, the resultant, the lab's kernels and the U(5) reference
check; the SpatialPoly attributes qd .. c_coeffs are views, built on first
read, and only ``derive --format text`` and perfbench read them.

All arithmetic is exact; every degree claim is asserted and a violation raises
PipelineError (it would indicate a bug, not bad input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .cases import CaseSpec, validate_case
from .errors import PipelineError
from .field import rational_text, trig_pair
from .poly import ZERO_POLY, DenseForm, DensePoly, SpatialPoly, arc_derivative, \
    form_product, form_sum

_THIRD = Fraction(1, 3)
_TWO_THIRDS = Fraction(2, 3)
_NINTH = Fraction(1, 9)


@dataclass
class ReductionBundle:
    """Everything the certificate and numeric laboratories consume.

    ``dense_t`` is (t1, ..., t5), ``dense_a`` (A0, ..., A3) and ``dense_c``
    (C0, ..., C5); qd, volume_sq, t1 .. t5, a_coeffs and c_coeffs are
    SpatialPoly views of the lists, built on first access.
    """

    case: CaseSpec
    walls: list[SpatialPoly]
    dense_qd: DensePoly
    dense_volume_sq: DensePoly
    dense_t: tuple[DensePoly, ...]
    r: DenseForm
    r_dot: DenseForm
    r_ddot: DenseForm
    dense_a: tuple[DensePoly, ...]
    dense_c: tuple[DensePoly, ...]

    qd = cached_property(lambda self: self.dense_qd.to_spatial())
    volume_sq = cached_property(lambda self: self.dense_volume_sq.to_spatial())
    t1 = cached_property(lambda self: self.dense_t[0].to_spatial())
    t2 = cached_property(lambda self: self.dense_t[1].to_spatial())
    t3 = cached_property(lambda self: self.dense_t[2].to_spatial())
    t4 = cached_property(lambda self: self.dense_t[3].to_spatial())
    t5 = cached_property(lambda self: self.dense_t[4].to_spatial())
    a_coeffs = cached_property(lambda self: tuple(p.to_spatial() for p in self.dense_a))
    c_coeffs = cached_property(lambda self: tuple(p.to_spatial() for p in self.dense_c))

    def degree_report(self) -> dict:
        return {
            "d": self.case.d,
            "qd": self.dense_qd.homogeneous_degree(),
            "volume_sq": self.dense_volume_sq.homogeneous_degree(),
            "t1": self.dense_t[0].homogeneous_degree(),
            "t2": self.dense_t[1].homogeneous_degree(),
            "t345": [t.homogeneous_degree() for t in self.dense_t[2:]],
            "a": [a.homogeneous_degree() for a in self.dense_a],
            "c": [c.homogeneous_degree() for c in self.dense_c],
        }


def build_walls(case: CaseSpec) -> list[SpatialPoly]:
    """The d linear forms x*sin(i*pi/d) - y*cos(i*pi/d), exact coefficients."""
    return _walls(case.d)


def _walls(d: int) -> list[SpatialPoly]:
    return [SpatialPoly.linear(s, -c) for s, c in (trig_pair(d, i) for i in range(d))]


def wall_products(case: CaseSpec,
                  ) -> tuple[list[SpatialPoly], DensePoly, list[tuple[int, Fraction, DensePoly]]]:
    """The walls, qd = prod(w_i) as a list, and (m, l**2, P_m / l) for each distinct m.

    P_m is the product of the walls of multiplicity m and l its leading
    coefficient, so P_m / l has leading coefficient 1.  Raises PipelineError
    naming the case unless qd, every P_m / l and every l**2 are rational.
    qd and the products depend only on d and on the classes of wall indices
    with equal multiplicities, and are computed once per such pair.
    """
    walls = build_walls(case)
    mults = case.multiplicities
    classes = {m: tuple(i for i, mi in enumerate(mults) if mi == m) for m in mults}
    try:
        qd, products = _wall_classes(case.d, tuple(classes.values()))
    except ValueError as exc:
        raise PipelineError(f"{case.label}: the walls are not rational per "
                            f"multiplicity: {exc}") from None
    return walls, qd, [(m, *p) for m, p in zip(classes, products)]


@lru_cache(maxsize=None)
def _wall_classes(d: int, classes: tuple[tuple[int, ...], ...]):
    walls = _walls(d)
    qd = DensePoly.of(math.prod(walls))
    products = []
    for indices in classes:
        product = math.prod(walls[i] for i in indices)
        lead = product.leading_term()[1]
        lead_sq = lead * lead
        if not lead_sq.is_rational:
            raise ValueError(f"leading coefficient squared {lead_sq.to_text()} "
                             f"is not rational")
        products.append((lead_sq.a, DensePoly.of(product * lead.inverse())))
    return qd, tuple(products)


def _check_homogeneous(poly: SpatialPoly | DensePoly, degree: int, what: str, case: CaseSpec):
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

    walls, qd, groups = wall_products(case)
    lam = Fraction(next(c for c in reversed(qd.coeffs) if c), qd.den)

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
    r_dot = arc_derivative(r, r, qd)
    r_ddot = arc_derivative(r_dot, r, qd)

    # The normal equation cleared of denominators.  Its three contributions
    # (second derivative of R, volume term times first derivative, quadratic
    # term times R) are each velocity-cubic over qd^3, so collecting A is
    # purely syntactic; C follows from the x-derivative of the cubic.
    cubic = form_sum(r_ddot, form_product([t1, t2], r_dot))
    a = tuple(p - q for p, q in zip(cubic, form_product([t3, t4, t5], r), strict=True))
    c = _quintic(qd, t1, t2, a)

    for i, w in enumerate(walls):
        _check_homogeneous(w, 1, f"wall {i}", case)
    _check_homogeneous(qd, d, "qd", case)
    _check_homogeneous(volume_sq, 2 * sum(case.multiplicities), "volume_sq", case)
    _check_homogeneous(t1, d - 1, "t1", case)
    _check_homogeneous(t2, d - 1, "t2", case)
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
        case=case, walls=walls, dense_qd=qd, dense_volume_sq=volume_sq,
        dense_t=(t1, t2, t3, t4, t5), r=r, r_dot=r_dot, r_ddot=r_ddot,
        dense_a=a, dense_c=c,
    )


# ---------------------------------------------------------------------------
# Reference check against the published U(5) coefficients.
# ---------------------------------------------------------------------------

# The published A0 and A1, the coefficient of x^a * y^(9 - a) at index a; A2
# and A3 are their mirror images, the reversed lists.
_REFERENCE_A0 = [0, 130, 0, 1237, 0, -363, 0, 775, 0, -275]
_REFERENCE_A1 = [-80, 0, -200, 0, 4320, 0, -944, 0, 520, 0]
_REFERENCE = (_REFERENCE_A0, _REFERENCE_A1, _REFERENCE_A1[::-1], _REFERENCE_A0[::-1])


def verify_reference_example() -> dict:
    """Derive the U(5) cubic coefficients and compare with the published ones.

    Fits the single admissible scale from the x^9 coefficient of A0, then
    requires exact coefficient-by-coefficient agreement of all four lists and
    the two mirror identities.  Returns a report dict; mismatches are listed,
    not raised.
    """
    from .cases import registry_case

    case = registry_case("U5")
    # build_bundle checks that the nonzero A_j share one degree; a zero one
    # becomes a list of zeros.
    a = [[Fraction(c, p.den) for c in p.coeffs] or [0] * 10
         for p in build_bundle(case).dense_a]
    report = {"case": case.label, "passed": False, "scale": None, "diffs": []}
    if len(a[0]) != 10 or not a[0][9]:
        report["diffs"].append("anchor monomial x^9 missing from A0")
        return report
    scale = a[0][9] / _REFERENCE[0][9]
    report["scale"] = rational_text(scale)

    for j, (ours, expected) in enumerate(zip(a, _REFERENCE)):
        for i, (lhs, rhs) in enumerate(zip(ours, expected)):
            rhs *= scale
            if lhs != rhs:
                report["diffs"].append(
                    f"A{j} x^{i} y^{9 - i}: derived "
                    f"{rational_text(lhs) if lhs else '0'} vs reference*scale "
                    f"{rational_text(rhs) if rhs else '0'}")
    if a[0] != a[3][::-1]:
        report["diffs"].append("mirror identity A0(x,y) == A3(y,x) fails")
    if a[1] != a[2][::-1]:
        report["diffs"].append("mirror identity A1(x,y) == A2(y,x) fails")
    report["passed"] = not report["diffs"]
    return report


def _form_json(form: DenseForm) -> dict:
    """A velocity form over qd**v, v its velocity degree: the nonzero entries
    from the highest power of xd down."""
    v = len(form) - 1
    return {"numerator": [{"xd": v - q, "yd": q, "poly": p.to_json()}
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
        "qd": bundle.dense_qd.to_json(),
        "volume_sq": bundle.dense_volume_sq.to_json(),
        **{f"t{j}": t.to_json() for j, t in enumerate(bundle.dense_t, 1)},
        "r": _form_json(bundle.r),
        "r_dot": _form_json(bundle.r_dot),
        "r_ddot": _form_json(bundle.r_ddot),
        "a_coeffs": [a.to_json() for a in bundle.dense_a],
        "c_coeffs": [c.to_json() for c in bundle.dense_c],
        "degrees": bundle.degree_report(),
    }
