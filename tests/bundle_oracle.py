"""Sparse reference derivation of a bundle, used only as a test oracle.

These are the per-wall sums and the sparse arclength-derivative chain that
``build_bundle`` ran before it moved to dense rational lists: every stage is
computed on SpatialPolys with Q(sqrt2, sqrt3) coefficients, wall by wall,
with no grouping by multiplicity and no rationality assumed.  A velocity
form is a dict ``{(p, q): SpatialPoly}`` of the coefficients of xd^p yd^q,
zero entries left out; a stage of R of velocity degree v is such a
numerator over qd**v.

* qd = prod(w_i), volume_sq = prod(w_i**(2 m_i));
* t1 = sum(m_i s_i qd/w_i), t2 = -sum(m_i c_i qd/w_i) with
  (s_i, c_i) = (sin, cos)(i pi/d), and t3, t4, t5 the weighted squares
  sum(m_i (c_i^2, 2 s_i c_i, s_i^2) (qd/w_i)^2) plus t2^2/9, -2 t1 t2/9, t1^2/9;
* R = (-t2 xd + t1 yd)/qd, R' and R'' by :func:`arc_derivative`, the cubic
  R'' + (t1 xd + t2 yd) R' - (t3 xd^2 + t4 xd yd + t5 yd^2) R and the
  quintic table C0..C5 from its coefficients.
"""

from chamberlab.field import FieldScalar, trig_pair
from chamberlab.poly import SpatialPoly
from chamberlab.reduction import build_bundle, build_walls

THIRD = FieldScalar.rational(1, 3)
NINTH = FieldScalar.rational(1, 9)


def form_add(*forms: dict) -> dict:
    out = {}
    for form in forms:
        for m, poly in form.items():
            s = out.get(m)
            out[m] = poly if s is None else s + poly
    return {m: poly for m, poly in out.items() if not poly.is_zero}


def form_mul(f: dict, g: dict) -> dict:
    return form_add(*({(p1 + p2, q1 + q2): a * b}
                      for (p1, q1), a in f.items() for (p2, q2), b in g.items()))


def form_scale(f: dict, c) -> dict:
    return form_add({m: poly * c for m, poly in f.items()})


def velocity_rotation(f: dict) -> dict:
    """Image of the numerator under xd -> yd, yd -> -xd acting by derivation."""
    return form_add(*({(p - 1, q + 1): poly * p} if p else {} for (p, q), poly in f.items()),
                    *({(p + 1, q - 1): poly * (-q)} if q else {} for (p, q), poly in f.items()))


def spatial_flow_derivative(f: dict) -> dict:
    """Coefficient-wise x,y chain rule part of d/ds: sum (dP/dx xd + dP/dy yd)."""
    return form_add(*({(p + 1, q): poly.partial_derivative("x")} for (p, q), poly in f.items()),
                    *({(p, q + 1): poly.partial_derivative("y")} for (p, q), poly in f.items()))


def arc_derivative(num: dict, v: int, r: dict, qd: SpatialPoly) -> dict:
    """The numerator over qd**(v + 1) of d/ds of num / qd**v, any coefficients."""
    return form_add(form_scale(spatial_flow_derivative(num), qd),
                    form_scale(form_mul(r, velocity_rotation(num)), THIRD),
                    form_scale(form_mul(spatial_flow_derivative({(0, 0): qd}), num), -v))


def form_json(num: dict, v: int) -> dict:
    """A stage of R as ``bundle_to_json`` writes it."""
    return {"numerator": [{"xd": p, "yd": q, "poly": poly.to_json()}
                          for (p, q), poly in sorted(num.items(), reverse=True)],
            "qd_power": v, "velocity_degree": v}


def dense_form_value(form, qd: SpatialPoly, x, y, xd, yd) -> FieldScalar:
    """A bundle's list form over qd**v, v = len(form) - 1, at a point, exactly."""
    v = len(form) - 1
    total = FieldScalar.rational(0)
    for q, poly in enumerate(form):
        total = total + poly.to_spatial().eval_exact(x, y) * xd ** (v - q) * yd ** q
    return total * (qd.eval_exact(x, y) ** v).inverse()


def curvature_expr_pair(case, i: int) -> tuple[dict, dict]:
    """The two symbolic forms of the i-th wall curvature, over qd**2 each.

    The first applies the normal-direction derivative to log(w_i^2); the
    second is the direct ratio w_i(yd, -xd) / w_i(x, y).  Over one
    denominator, equality of the numerators is decidable exactly.
    """
    bundle = build_bundle(case)
    qd = bundle.qd
    w = bundle.walls[i]
    quot = qd.divide_exact(w)

    # Directional derivative along nu = (-yd, xd): nu(P) has xd-coefficient
    # dP/dy and yd-coefficient -dP/dx.  Form one is -(1/2) nu(w^2) / w^2,
    # over qd^2 via (qd/w)^2.
    w_sq = w * w
    scale = quot * quot * FieldScalar.rational(-1, 2)
    form_log = form_add({(1, 0): w_sq.partial_derivative("y") * scale,
                         (0, 1): -w_sq.partial_derivative("x") * scale})

    s, c = trig_pair(case.d, i)
    # w_i(yd, -xd) = c*xd + s*yd, over w_i = qd / quot, then over qd^2.
    form_direct = form_add({(1, 0): quot * qd * c, (0, 1): quot * qd * s})
    return form_log, form_direct


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
    """qd, volume_sq, t1..t5, r, r_dot, r_ddot, a_coeffs and c_coeffs of case,
    derived sparsely and serialized as ``bundle_to_json`` writes them."""
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
    r = form_add({(1, 0): -t2, (0, 1): t1})
    r_dot = arc_derivative(r, 1, r, qd)
    r_ddot = arc_derivative(r_dot, 2, r, qd)
    quad_term = {(2, 0): t3, (1, 1): t4, (0, 2): t5}
    cubic = form_add(r_ddot, form_mul({(1, 0): t1, (0, 1): t2}, r_dot),
                     form_scale(form_mul(quad_term, r), -1))
    a = tuple(cubic.get((3 - j, j), SpatialPoly.zero()) for j in range(4))
    polys = {"qd": qd, "volume_sq": volume_sq, "t1": t1, "t2": t2, "t3": t3, "t4": t4,
             "t5": t5}
    return {**{key: poly.to_json() for key, poly in polys.items()},
            "r": form_json(r, 1), "r_dot": form_json(r_dot, 2),
            "r_ddot": form_json(r_ddot, 3),
            "a_coeffs": [p.to_json() for p in a],
            "c_coeffs": [p.to_json() for p in quintic_table(qd, t1, t2, a)]}
