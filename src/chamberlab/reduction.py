"""Symbolic pipeline from a case to its compatibility polynomials.

For a case with chamber type d and multiplicities (m_0 .. m_{d-1}),
``build_bundle`` derives, in one pass and each stage once: the product qd of
the d linear wall forms and the squared orbit-volume polynomial, the
volume-derivative coefficients t1, t2, the quadratic-term coefficients t3,
t4, t5, the wall-curvature sum R with its first and second arclength
derivatives, and finally the velocity-cubic coefficients A0..A3 and the
slope-quintic coefficients C0..C5 whose common root structure the
certificate module interrogates.  Every consumer reads these from the cached
``ReductionBundle``, each as one :class:`~chamberlab.poly.Form`: integer
lists of one length over one denominator, a polynomial being a form with
one list.  A is the form of A0..A3 and C that of C0..C5.  R, R' and R'' are
velocity forms over qd, qd**2 and qd**3: entry q of a form of velocity
degree v is the coefficient of xd**(v - q) * yd**q.

The derivation runs in Q.  Each wall's sine and cosine is +-sqrt(k)/2 for an
integer k = 0..4, read off one table (:func:`wall_trig`).  The walls
themselves, with those coefficients in Q(sqrt2, sqrt3), enter no product:
:func:`wall_rows` writes their JSON rows straight from the table, as text.
:func:`wall_products` writes qd and, for each distinct multiplicity m, the
product P_m of the walls of multiplicity m over its leading coefficient l_m,
with l_m**2, straight from the table as one-list Forms.  qd and these
products depend only on d and on which walls share a multiplicity, so they
are computed once per such class.  The orbit volume and the t's are then sums
and products of the P_m (see build_bundle).  From there the derivation runs
on plain integer lists (:func:`~chamberlab.poly.mul`,
:func:`~chamberlab.poly.add` and the velocity-form helpers beside them),
each polynomial or form over one denominator carried beside it, and each
stored field is reduced by the gcd of its entries once, at the end
(:func:`~chamberlab.poly.reduced`).  The Forms go on to bundle_to_json, the
resultant, the lab's kernels and the U(5) reference check, which read their
entries by index.  The text of the JSON rows is the package's one way into
Q(sqrt2, sqrt3): the SpatialPoly attributes walls, qd .. c_coeffs are views
for readers outside the package, parsed from rows on first read.

All arithmetic is exact, and no degree is checked at run time: qd has degree
d, each P_m one per wall, a list product adds degrees, dx and dy lower one
and the list sum :func:`~chamberlab.poly.add` raises ValueError on lists of
unequal lengths, so every t1, t2, t3..t5, A, C and R-form entry has degree
d - 1, 2d - 2, 3(d - 1), 4(d - 1) and v(d - 1), or is zero.
test_degree_table_over_the_multiplicity_grid pins this table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from .cases import CaseSpec, validate_case
from .errors import PipelineError
from .field import field_text, power, rational_text
from .poly import Form, SpatialPoly, add, arc_derivative, dx, dy, form_flow, form_product, \
    mul, reduced, scale


class _BundleFields(NamedTuple):
    case: CaseSpec
    dense_qd: Form
    dense_volume_sq: Form
    dense_t: tuple[Form, ...]
    r: Form
    r_dot: Form
    r_ddot: Form
    dense_a: Form
    dense_c: Form


def _view(form: Form, q: int = 0) -> SpatialPoly:
    """The SpatialPoly parsed from the JSON rows of a form's list q."""
    return SpatialPoly.from_json(form.rows(q))


def _views(form: Form) -> tuple[SpatialPoly, ...]:
    return tuple(_view(form, q) for q in range(len(form.lists)))


class ReductionBundle(_BundleFields):
    """Everything the certificate and numeric laboratories consume.

    The fields are exact rational data, each a reduced Form: ``dense_t`` is
    (t1, ..., t5), one polynomial each, ``dense_a`` the form of (A0, ..., A3)
    and ``dense_c`` that of (C0, ..., C5).  The views are SpatialPolys
    parsed from JSON rows on first access and kept in the instance
    ``__dict__`` (this subclass declares no ``__slots__``): ``walls`` is
    ``build_walls(case)``, and qd, volume_sq, t1 .. t5, a_coeffs and
    c_coeffs are parsed from the lists' ``Form.rows``.
    """

    walls = cached_property(lambda self: build_walls(self.case))
    qd = cached_property(lambda self: _view(self.dense_qd))
    volume_sq = cached_property(lambda self: _view(self.dense_volume_sq))
    t1 = cached_property(lambda self: _view(self.dense_t[0]))
    t2 = cached_property(lambda self: _view(self.dense_t[1]))
    t3 = cached_property(lambda self: _view(self.dense_t[2]))
    t4 = cached_property(lambda self: _view(self.dense_t[3]))
    t5 = cached_property(lambda self: _view(self.dense_t[4]))
    a_coeffs = cached_property(lambda self: _views(self.dense_a))
    c_coeffs = cached_property(lambda self: _views(self.dense_c))

    def degree_report(self) -> dict:
        a, c = self.dense_a, self.dense_c
        return {
            "d": self.case.d,
            "qd": self.dense_qd.degree(),
            "volume_sq": self.dense_volume_sq.degree(),
            "t1": self.dense_t[0].degree(),
            "t2": self.dense_t[1].degree(),
            "t345": [t.degree() for t in self.dense_t[2:]],
            "a": [a.degree(j) for j in range(len(a.lists))],
            "c": [c.degree(j) for j in range(len(c.lists))],
        }


# 4 * sin(i*pi/d)**2 by the reduced fraction i/d of a wall's angle: at every
# chamber type d the walls' sines and cosines are +-sqrt(k)/2, k = 0..4.
_SIN_SQUARED_4 = {Fraction(0): 0, Fraction(1, 6): 1, Fraction(1, 4): 2, Fraction(1, 3): 3,
                  Fraction(1, 2): 4, Fraction(2, 3): 3, Fraction(3, 4): 2, Fraction(5, 6): 1}


def wall_trig(d: int) -> list[tuple[int, int]]:
    """(k, sign) for each wall i: sin(i*pi/d) = sqrt(k)/2 and
    cos(i*pi/d) = sign * sqrt(4 - k)/2, sign the sign of d - 2i."""
    return [(_SIN_SQUARED_4[Fraction(i, d)], (d > 2 * i) - (d < 2 * i)) for i in range(d)]


# The coordinates of sqrt(k)/2 over (1, sqrt2, sqrt3, sqrt6), k = 1..4.
_HALF_ROOTS = {1: (Fraction(1, 2),), 2: (0, Fraction(1, 2)), 3: (0, 0, Fraction(1, 2)), 4: (1,)}


def _require_valid(case: CaseSpec) -> None:
    """Raise PipelineError naming the case's violations, if validate_case finds any."""
    violations = validate_case(case)
    if violations:
        raise PipelineError(f"{case.label}: invalid case: {violations}")


def wall_rows(case: CaseSpec) -> list[list[list]]:
    """The JSON rows of the d linear forms x*sin(i*pi/d) - y*cos(i*pi/d).

    Each is ``[[1, 0, sin], [0, 1, -cos]]`` with a zero term left out, each
    coefficient +-sqrt(k)/2 written from ``wall_trig`` by ``field_text``.
    An invalid case raises PipelineError, as in build_bundle.
    """
    _require_valid(case)
    return [[[a, b, field_text(*(sign * c for c in _HALF_ROOTS[root]))]
             for a, b, root, sign in ((1, 0, k, 1), (0, 1, 4 - k, -cos_sign)) if root]
            for k, cos_sign in wall_trig(case.d)]


def build_walls(case: CaseSpec) -> list[SpatialPoly]:
    """The walls as SpatialPolys, parsed from :func:`wall_rows`."""
    return [SpatialPoly.from_json(rows) for rows in wall_rows(case)]


def wall_products(case: CaseSpec) -> tuple[Form, list[tuple[int, Fraction, Form]]]:
    """qd = prod(w_i), and (m, l**2, P_m / l) for each distinct m, each
    polynomial a one-list Form.

    P_m is the product of the walls of multiplicity m and l its leading
    coefficient, so P_m / l has leading coefficient 1.  An invalid case
    raises PipelineError, as in build_bundle.  qd and the products depend
    only on d and on the classes of wall indices with equal multiplicities,
    and are computed once per such pair.
    """
    _require_valid(case)
    mults = case.multiplicities
    classes = {m: tuple(i for i, mi in enumerate(mults) if mi == m) for m in mults}
    qd, products = _wall_classes(case.d, tuple(classes.values()))
    return qd, [(m, *p) for m, p in zip(classes, products)]


@lru_cache(maxsize=None)
def _wall_classes(d: int, classes: tuple[tuple[int, ...], ...]):
    """qd and (l**2, P / l) for each class of wall indices, in Q alone.

    qd = -2**(1 - d) * Im((x + iy)**d).  A class's P / l is the product of
    its factors over their leading (highest power of x) coefficients l_f,
    and l**2 the product of the l_f**2.  A lone wall with k = 0 or 4 (-y or
    x) gives y or x, l_f**2 = 1; one with k = 2, sqrt2/2 * (x - sign*y),
    gives x - sign*y, l_f**2 = 1/2; a mirror pair {i, d - i} with k = 1 or 3,
    (k/4) x**2 - ((4 - k)/4) y**2, gives x**2 - ((4 - k)/k) y**2,
    l_f**2 = (k/4)**2.  Alternating multiplicities put the mirror d - i of
    each wall i in its class, so every P / l is rational.
    """
    trig = wall_trig(d)
    qd = reduced([[-math.comb(d, j) * (-1) ** (j // 2) if j % 2 else 0
                   for j in range(d, -1, -1)]], 2 ** (d - 1))
    products = []
    for indices in classes:
        lead_sq, product, den = Fraction(1), [1], 1
        for i in indices:
            k, sign = trig[i]
            if k in (1, 3):
                if 2 * i < d:
                    product = mul(product, [k - 4, 0, k])
                    den *= k
                    lead_sq *= Fraction(k * k, 16)
            elif k == 2:
                product = mul(product, [-sign, 1])
                lead_sq /= 2
            else:
                product = mul(product, [1, 0] if k == 0 else [0, 1])
        products.append((lead_sq, reduced([product], den)))
    return qd, tuple(products)


def _quintic(qd: tuple, t: tuple, a: tuple) -> tuple:
    """C0..C5 from qd, (t1, t2) and A0..A3, each ``(lists, den)``.

    C = xd qd F(A) + (1/3) (xd**2 + yd**2) (t2 xd - t1 yd) dA/dyd, F the
    coordinate flow (:func:`~chamberlab.poly.form_flow`), over the one scale
    3 * den(qd) * den(t) * den(A), qd a form with one list.  The six
    products t_i * A_j are each taken once.
    """
    ((qd_coeffs,), qd_den), ((t1, t2), t_den), (entries, a_den) = qd, t, a
    turn = form_product([scale(qd_den, t2), scale(-qd_den, t1)],
                        [scale(j, entries[j]) for j in (1, 2, 3)])
    base = scale(3 * t_den, qd_coeffs)
    flow = [mul(base, f) for f in form_flow(entries)]
    zero = [0] * len(turn[0])
    return ([add(f, g, h) for f, g, h in zip([*flow, zero], [*turn, zero, zero],
                                              [zero, zero, *turn], strict=True)],
            3 * t_den * qd_den * a_den)


@lru_cache(maxsize=None)
def build_bundle(case: CaseSpec) -> ReductionBundle:
    """Run the whole symbolic pipeline for one case, each stage once.

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

    The derivation runs on integer lists (:mod:`chamberlab.poly`), one
    denominator per polynomial or form: every P~_m * Q_m, so t1 and t2, is
    over E = den(lam) * prod(den(P~_m)), and t3..t5 over 9 E**2.  Each
    stored field is reduced once, at the end.  Degrees hold by construction;
    test_degree_table_over_the_multiplicity_grid pins them.  A case that
    validate_case rejects raises PipelineError with its label.
    """
    qd, groups = wall_products(case)
    ((qd_coeffs,), qd_den) = qd
    lam = Fraction(next(c for c in reversed(qd_coeffs) if c), qd_den)
    t_den = lam.denominator * math.prod(p.den for _, _, p in groups)

    volume, volume_scale = [1], Fraction(1)
    t1 = t2 = [0] * case.d
    t3 = t4 = t5 = [0] * (2 * case.d - 1)
    for m, lead_sq, ((p,), p_den) in groups:
        q = [lam.numerator]
        for other_m, _, ((other,), _) in groups:
            if other_m != m:
                q = mul(other, q)
        volume = mul(power(p, 2 * m, [1], mul), volume)
        volume_scale *= lead_sq ** m / p_den ** (2 * m)
        px, py = dx(p), dy(p)
        mq, npx, npy = scale(m, q), scale(-1, px), scale(-1, py)
        weight = mul(scale(9, mq), q)  # 9 m Q_m**2: t3..t5 are over 9 E**2
        t1 = add(t1, mul(px, mq))
        t2 = add(t2, mul(py, mq))
        t3 = add(t3, mul(add(mul(py, py), mul(p, dy(npy))), weight))
        t4 = add(t4, mul(add(mul(p, dy(px)), mul(px, npy)), scale(2, weight)))
        t5 = add(t5, mul(add(mul(px, px), mul(p, dx(npx))), weight))
    t3 = add(t3, mul(t2, t2))
    t4 = add(t4, mul(scale(-2, t1), t2))
    t5 = add(t5, mul(t1, t1))

    # The wall-curvature sum R = (-t2*xd + t1*yd) / qd and its first and
    # second arclength derivatives, through the module global.
    r_entries = [scale(-1, t2), t1]
    r = (r_entries, t_den)
    r_dot = arc_derivative(r, r, qd)
    r_ddot = arc_derivative(r_dot, r, qd)

    # The normal equation cleared of denominators.  Its three contributions
    # (second derivative of R, volume term times first derivative, quadratic
    # term times R) are each velocity-cubic over qd^3, so collecting A is
    # purely syntactic; over the scale of R'' = 9 den(qd)**2 E**3 they weigh
    # 1, 3 den(qd) and den(qd)**2.  C follows from the flow of the cubic.
    (ddot, a_den), (dot, _) = r_ddot, r_dot
    a = [add(*terms) for terms in zip(
        ddot, form_product([scale(3 * qd_den, t1), scale(3 * qd_den, t2)], dot),
        form_product([t3, t4, t5], [scale(-qd_den ** 2, p) for p in r_entries]), strict=True)]
    c = _quintic(qd, ((t1, t2), t_den), (a, a_den))

    return ReductionBundle(
        case=case, dense_qd=qd,
        dense_volume_sq=reduced([scale(volume_scale.numerator, volume)],
                                volume_scale.denominator),
        dense_t=tuple(reduced([t], den) for t, den in zip(
            (t1, t2, t3, t4, t5), (t_den,) * 2 + (9 * t_den ** 2,) * 3)),
        r=reduced(*r), r_dot=reduced(*r_dot), r_ddot=reduced(*r_ddot),
        dense_a=reduced(a, a_den), dense_c=reduced(*c),
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
    form = build_bundle(case).dense_a
    a = [[Fraction(c, form.den) for c in p] for p in form.lists]
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


def _form_json(form: Form) -> dict:
    """A velocity form over qd**v, v its velocity degree: the nonzero entries
    from the highest power of xd down."""
    v = len(form.lists) - 1
    return {"numerator": [{"xd": v - q, "yd": q, "poly": form.rows(q)}
                          for q, p in enumerate(form.lists) if any(p)],
            "qd_power": v, "velocity_degree": v}


def bundle_to_json(bundle: ReductionBundle) -> dict:
    """Canonical serialization of every pipeline polynomial plus degree data."""
    case, a, c = bundle.case, bundle.dense_a, bundle.dense_c
    return {
        "case": case.name,
        "label": case.label,
        "group": case.group,
        "n": case.n,
        "d": case.d,
        "multiplicities": list(case.multiplicities),
        "params": case.params_dict,
        "walls": wall_rows(case),
        "qd": bundle.dense_qd.rows(),
        "volume_sq": bundle.dense_volume_sq.rows(),
        **{f"t{j}": t.rows() for j, t in enumerate(bundle.dense_t, 1)},
        "r": _form_json(bundle.r),
        "r_dot": _form_json(bundle.r_dot),
        "r_ddot": _form_json(bundle.r_ddot),
        "a_coeffs": [a.rows(j) for j in range(len(a.lists))],
        "c_coeffs": [c.rows(j) for j in range(len(c.lists))],
        "degrees": bundle.degree_report(),
    }
