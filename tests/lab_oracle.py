"""Reference formulas and a two-pass integrator for the lab, used only as test oracles.

The per-row helpers ``wall_curvatures``, ``scalars``, ``cubic_form`` and
``ode_form`` compute the wall curvatures, f, |A|^2, res_poly and res_ode one
value at a time, rounding as the lab's row kernel must: each power and
monomial of xd, yd and q is a product by ``float_poly_oracle``'s rule, and
each polynomial a sum from 0.0 left to right.  They are the reference the
row kernel is compared with.

``integrate_two_pass`` is ``integrate_curve`` as it was before it became one
pass: the RK4 loop tests each new state by the ending rule (``refusal``)
and keeps the value of R at every state in a list; a post-pass then calls
``point`` once per state and builds each row from the per-row helpers.
``refusal`` reads the rule off the helpers and plain Python tests: a state
whose x, y, xd or yd is not finite is an overflow, one outside the chamber
a wall stop, and one whose R or row state part (f and |A|^2 without kd,
res_poly and res_ode's products ``ode_products``) is not finite an
overflow.  An RK4 stage that divides by a qd of 0.0, on a wall, ends the
loop as a wall stop.  Every value is plain IEEE-754 arithmetic, and nothing
but that division raises.  The post-pass keeps its own diagnostics, max |f|
and the (res_poly, res_ode) pairs over the interior rows and the speed drift
over the states, by an incremental rule.  The one-pass integrator must
return the same rows, states and stop reason, and its trajectory's derived
diagnostics must equal these, bit for bit.
"""

import math

from chamberlab.errors import BoundaryError
from chamberlab.numerics import (
    _MODE_COEFF,
    WALL_EPSILON,
    CurveState,
    Trajectory,
    _rk4,
    get_lab,
)
from float_poly_oracle import monomial, power


def wall_curvatures(trig, walls, xd: float, yd: float) -> list[float]:
    """Wall curvatures (sin_i yd + cos_i xd) / w_i from the wall values."""
    return [(s * yd + c * xd) / w for (s, c), w in zip(trig, walls)]


def wall_sums(lab, wall_ks: list[float]) -> tuple[float, float]:
    """(sum m_i k_i, sum m_i k_i^2), the state part of f and |A|^2."""
    f = a2 = 0
    for m, k in zip(lab.case.multiplicities, wall_ks):
        f += m * k
        a2 += m * k * k
    return f, a2


def scalars(lab, kd: float, wall_ks: list[float]) -> tuple[float, float]:
    """(f, |A|^2): the mean-curvature sum kd + sum m_i k_i and the squared
    second fundamental form kd^2 + sum m_i k_i^2."""
    f, a2 = wall_sums(lab, wall_ks)
    return kd + f, kd * kd + a2


def cubic_form(a0, a1, a2, a3, xd: float, yd: float) -> float:
    """A0 xd^3 + A1 xd^2 yd + A2 xd yd^2 + A3 yd^3, from 0.0 left to right,
    each term the coefficient times the monomial."""
    total = 0.0
    for c, (a, b) in zip((a0, a1, a2, a3), ((3, 0), (2, 1), (1, 2), (0, 3))):
        total += c * monomial(xd, yd, a, b)
    return total


def ode_products(q, t1, t2, t3, t4, t5, xd: float, yd: float) -> tuple[float, float]:
    """(q (t1 xd + t2 yd), (t3 xd^2 + t4 xd yd + t5 yd^2) (-t2 xd + t1 yd)),
    the products of res_ode that do not depend on R' and R''."""
    quad_num = 0.0
    for c, (a, b) in zip((t3, t4, t5), ((2, 0), (1, 1), (0, 2))):
        quad_num += c * monomial(xd, yd, a, b)
    return q * (t1 * xd + t2 * yd), quad_num * (-t2 * xd + t1 * yd)


def ode_form(q, t1, t2, t3, t4, t5, xd: float, yd: float, r_dot: float,
             r_ddot: float) -> float:
    """Denominator-cleared normal equation rebuilt from given values of R', R''."""
    qv, qr = ode_products(q, t1, t2, t3, t4, t5, xd, yd)
    return power(q, 3) * r_ddot + qv * (q * r_dot) - qr


def refusal(lab, x: float, y: float, xd: float, yd: float) -> str | None:
    """The stop reason of the ending rule at a state, None when a curve
    takes it."""
    if not all(map(math.isfinite, (x, y, xd, yd))):
        return "overflow"
    walls, q, t1, t2, t3, t4, t5, a0, a1, a2, a3 = lab.point(x, y)
    if walls[0] > -WALL_EPSILON or not all(w > WALL_EPSILON for w in walls[1:]):
        return "boundary"
    part = (lab.R(x, y, xd, yd), *wall_sums(lab, wall_curvatures(lab.trig, walls, xd, yd)),
            cubic_form(a0, a1, a2, a3, xd, yd), *ode_products(q, t1, t2, t3, t4, t5, xd, yd))
    return None if all(map(math.isfinite, part)) else "overflow"


def integrate_two_pass(init, cfg, case) -> tuple[Trajectory, float, float, list]:
    """(trajectory, max_abs_f, speed_drift, residual_pairs) of the two-pass integration."""
    lab = get_lab(case)
    R = lab.R
    stop = refusal(lab, init.x, init.y, init.xd, init.yd)
    if stop:
        raise BoundaryError(f"initial state ({init.x}, {init.y}) ends the curve: {stop}")
    coeff = _MODE_COEFF[cfg.mode]
    h = cfg.step
    states = [init]
    s, x, y, xd, yd = init.s, init.x, init.y, init.xd, init.yd
    r_values = [R(x, y, xd, yd)]
    stop_reason = "max_steps"
    for _ in range(cfg.max_steps):
        try:
            x, y, xd, yd = _rk4(R, coeff, h, x, y, xd, yd, r_values[-1])
        except ZeroDivisionError:  # a stage on a wall, where qd is 0.0
            stop_reason = "boundary"
            break
        stop = refusal(lab, x, y, xd, yd)
        if stop:
            stop_reason = stop
            break
        s += h
        states.append(CurveState(s, x, y, xd, yd))
        r_values.append(R(x, y, xd, yd))

    n = len(states)
    rows = []
    residual_pairs = []
    max_abs_f = 0.0
    speed_drift = 0.0
    for idx, st in enumerate(states):
        x, y, xd, yd = st.x, st.y, st.xd, st.yd
        speed_drift = max(speed_drift, abs(xd * xd + yd * yd - 1.0))
        walls, q, t1, t2, t3, t4, t5, a0, a1, a2, a3 = lab.point(x, y)
        interior = 0 < idx < n - 1
        if interior:
            xdd = (states[idx + 1].xd - states[idx - 1].xd) / (2 * h)
            ydd = (states[idx + 1].yd - states[idx - 1].yd) / (2 * h)
            kd = ydd * xd - xdd * yd
        else:
            kd = -coeff * r_values[idx]
        wall_ks = wall_curvatures(lab.trig, walls, xd, yd)
        f, a_sq = scalars(lab, kd, wall_ks)
        res_poly = cubic_form(a0, a1, a2, a3, xd, yd)
        if interior:
            max_abs_f = max(max_abs_f, abs(f))
            r_dot = (r_values[idx + 1] - r_values[idx - 1]) / (2 * h)
            r_ddot = (r_values[idx + 1] - 2 * r_values[idx] + r_values[idx - 1]) / (h * h)
            res_ode = ode_form(q, t1, t2, t3, t4, t5, xd, yd, r_dot, r_ddot)
            residual_pairs.append((res_poly, res_ode))
        else:
            res_ode = float("nan")
        rows.append((st.s, x, y, xd, yd, f, a_sq, res_poly, res_ode))

    return Trajectory(states, rows, stop_reason), max_abs_f, speed_drift, residual_pairs
