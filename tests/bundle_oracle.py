"""Sparse reference derivation of a bundle, used only as a test oracle.

These are the per-wall sums and the sparse arclength-derivative chain that
``build_bundle`` ran before it moved to dense rational lists: every stage is
computed on SpatialPolys with Q(sqrt2, sqrt3) coefficients, wall by wall,
with no grouping by multiplicity and no rationality assumed.

* qd = prod(w_i), volume_sq = prod(w_i**(2 m_i));
* t1 = sum(m_i s_i qd/w_i), t2 = -sum(m_i c_i qd/w_i) with
  (s_i, c_i) = (sin, cos)(i pi/d), and t3, t4, t5 the weighted squares
  sum(m_i (c_i^2, 2 s_i c_i, s_i^2) (qd/w_i)^2) plus t2^2/9, -2 t1 t2/9, t1^2/9;
* R = (-t2 xd + t1 yd)/qd, R' and R'' by :func:`arc_derivative`, the cubic
  R'' + (t1 xd + t2 yd) R' - (t3 xd^2 + t4 xd yd + t5 yd^2) R and the
  quintic table C0..C5 from its coefficients.
"""

from chamberlab.field import FieldScalar, trig_pair
from chamberlab.poly import Monomial, ReducedExpr, SpatialPoly, VelocityForm
from chamberlab.reduction import build_walls

THIRD = FieldScalar.rational(1, 3)
NINTH = FieldScalar.rational(1, 9)


def velocity_rotation(vf: VelocityForm) -> VelocityForm:
    """Image of the numerator under xd -> yd, yd -> -xd acting by derivation."""
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
    """The arclength derivative of expr on SpatialPolys, any coefficients."""
    spatial_part = spatial_flow_derivative(expr.num)
    rotation = velocity_rotation(expr.num)
    if expr.qd_power == 0 and rotation.is_zero:
        return ReducedExpr(spatial_part, 0, expr.qd)
    num = expr.qd * spatial_part + (r.num * rotation) * THIRD
    if expr.qd_power:
        num = num - coordinate_flow(expr.qd) * expr.num * expr.qd_power
    return ReducedExpr(num, expr.qd_power + 1, expr.qd)


def quintic_table(qd, t1, t2, a):
    third = THIRD
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


def oracle_bundle(case) -> dict:
    """qd, volume_sq, t1..t5, r, r_dot, r_ddot, a and c of case, all sparse."""
    walls = build_walls(case)
    qd = SpatialPoly.constant(1)
    volume_sq = SpatialPoly.constant(1)
    for w, m in zip(walls, case.multiplicities):
        qd = qd * w
        volume_sq = volume_sq * w ** (2 * m)
    t1 = t2 = t3 = t4 = t5 = SpatialPoly.zero()
    for i, (w, m) in enumerate(zip(walls, case.multiplicities)):
        s, c = trig_pair(case.d, i)
        mf = FieldScalar.rational(m)
        quot = qd.divide_exact(w)
        quot_sq = quot * quot
        t1 = t1 + quot * (s * mf)
        t2 = t2 - quot * (c * mf)
        t3 = t3 + quot_sq * (c * c * mf)
        t4 = t4 + quot_sq * (s * c * (mf + mf))
        t5 = t5 + quot_sq * (s * s * mf)
    t3 = t3 + t2 * t2 * NINTH
    t4 = t4 + t1 * t2 * FieldScalar.rational(-2, 9)
    t5 = t5 + t1 * t1 * NINTH
    r = ReducedExpr(VelocityForm.velocity_linear(-t2, t1), 1, qd)
    r_dot = arc_derivative(r, r)
    r_ddot = arc_derivative(r_dot, r)
    quad_term = VelocityForm(2, {(2, 0): t3, (1, 1): t4, (0, 2): t5})
    cubic = r_ddot.num + VelocityForm.velocity_linear(t1, t2) * r_dot.num - quad_term * r.num
    a = tuple(cubic.coefficient(3 - j, j) for j in range(4))
    return {"qd": qd, "volume_sq": volume_sq, "t1": t1, "t2": t2, "t3": t3, "t4": t4,
            "t5": t5, "r": r, "r_dot": r_dot, "r_ddot": r_ddot, "a": a,
            "c": quintic_table(qd, t1, t2, a)}
