"""Two-pass reference integrator for the lab, used only as a test oracle.

This is ``integrate_curve`` as it was before it became one pass: the RK4 loop
tests each new state with the lab's ``inside`` kernel and keeps the value of
R at every state in a list; a post-pass then calls ``point`` once per state
and builds each row from the per-row helpers ``_curvatures``,
``CaseLab.scalars``, ``_cubic_form`` and ``_ode_form``.  A state whose R
overflows ends the loop; a row that overflows ends the curve at the state
before it, and the post-pass runs again.  The one-pass integrator must return
the same rows, states, stop reason and diagnostics, bit for bit.
"""

from chamberlab.errors import BoundaryError
from chamberlab.numerics import (
    _MODE_COEFF,
    CurveState,
    Trajectory,
    _cubic_form,
    _curvatures,
    _ode_form,
    _rk4,
    get_lab,
)


def integrate_two_pass(init, cfg, case) -> Trajectory:
    lab = get_lab(case)
    R, inside = lab.R, lab.inside
    if not inside(init.x, init.y):
        raise BoundaryError(
            f"initial state ({init.x}, {init.y}) is not strictly inside the chamber")
    coeff = _MODE_COEFF[cfg.mode]
    h = cfg.step
    states = [init]
    r_values = []
    stop_reason = "max_steps"
    s, x, y, xd, yd = init.s, init.x, init.y, init.xd, init.yd
    try:
        for _ in range(cfg.max_steps):
            r = R(x, y, xd, yd)
            r_values.append(r)
            x, y, xd, yd = _rk4(R, coeff, h, x, y, xd, yd, r)
            if not inside(x, y):
                stop_reason = "boundary"
                break
            s += h
            states.append(CurveState(s, x, y, xd, yd))
        else:
            r_values.append(R(x, y, xd, yd))
    except OverflowError:
        stop_reason = "overflow"
        del states[len(r_values):]

    while True:
        n = len(states)
        rows = []
        residual_pairs = []
        max_abs_f = 0.0
        speed_drift = 0.0
        try:
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
                wall_ks = _curvatures(lab.trig, walls, xd, yd)
                f, a_sq = lab.scalars(kd, wall_ks)
                res_poly = _cubic_form(a0, a1, a2, a3, xd, yd)
                if interior:
                    max_abs_f = max(max_abs_f, abs(f))
                    r_dot = (r_values[idx + 1] - r_values[idx - 1]) / (2 * h)
                    r_ddot = (r_values[idx + 1] - 2 * r_values[idx] + r_values[idx - 1]) / (h * h)
                    res_ode = _ode_form(q, t1, t2, t3, t4, t5, xd, yd, r_dot, r_ddot)
                    residual_pairs.append((res_poly, res_ode))
                else:
                    res_ode = float("nan")
                rows.append((st.s, x, y, xd, yd, f, a_sq, res_poly, res_ode))
            break
        except OverflowError:
            if not idx:
                raise
            stop_reason = "overflow"
            del states[idx:], r_values[idx:]

    return Trajectory(states=states, rows=rows, stop_reason=stop_reason, max_abs_f=max_abs_f,
                      speed_drift=speed_drift, residual_pairs=residual_pairs)
