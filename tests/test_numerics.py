import io
import json
import math
import random

import pytest

from chamberlab import numerics
from chamberlab.cases import registry_case
from chamberlab.certify import minimal_line_angles
from chamberlab.errors import BoundaryError
from chamberlab.numerics import (
    CSV_HEADER,
    CaseLab,
    CurveState,
    IntegratorConfig,
    MODE_CANDIDATE,
    MODE_MINIMAL,
    MODES,
    geometric_scalars,
    get_lab,
    integrate_curve,
    normal_residual,
    principal_curvatures,
    state_from_angle,
    step_candidate,
    step_minimal,
)
from chamberlab.poly import SpatialPoly
from chamberlab.reduction import build_bundle
from float_poly_oracle import float_poly_value, float_reduced_value
from golden import (
    POINTWISE,
    TRAJECTORY_HASHES,
    WALL_STOPS,
    pointwise_reprs,
    trajectory_hashes,
    wall_stop_curves,
)
from lab_oracle import integrate_two_pass


def _random_interior_state(case, rng, radius=(0.7, 1.5)):
    sigma = rng.uniform(0.25, 0.75) * math.pi / case.d
    r = rng.uniform(*radius)
    angle = rng.uniform(0, 2 * math.pi)
    return state_from_angle(r * math.cos(sigma), r * math.sin(sigma), angle)


def test_principal_curvatures_u5_worked_point(u5):
    st = CurveState(s=0.0, x=2.0, y=1.0, xd=1.0, yd=0.0)
    ks = principal_curvatures(st, u5, kd=-1 / 3)
    assert ks[:4] == pytest.approx([-1.0, 1.0, 0.0, -1 / 3])
    assert len(ks) == u5.d + 1


def test_principal_curvature_count_matches_chamber_type(all_cases):
    rng = random.Random(1)
    for case in all_cases:
        st = _random_interior_state(case, rng)
        assert len(principal_curvatures(st, case, 0.0)) == case.d + 1


def test_principal_curvatures_reject_wall_state(u5):
    st = CurveState(s=0.0, x=1.0, y=0.0, xd=0.0, yd=1.0)
    with pytest.raises(BoundaryError):
        principal_curvatures(st, u5, 0.0)


def test_directional_log_derivative_matches_ratio_formula(all_cases):
    # First curvature formula (normal-direction derivative of log w^2 by
    # finite differences) against the direct ratio, at random states.
    rng = random.Random(2)
    h = 1e-6
    for case in all_cases:
        lab = get_lab(case)
        st = _random_interior_state(case, rng)
        ratio = lab.wall_curvatures(st)
        for i in range(case.d):
            def log_w2(x, y):
                return math.log(lab.point(x, y)[0][i] ** 2)

            # directional derivative along nu = (-yd, xd)
            fd = (log_w2(st.x - h * st.yd, st.y + h * st.xd)
                  - log_w2(st.x + h * st.yd, st.y - h * st.xd)) / (2 * h)
            assert -0.5 * fd == pytest.approx(ratio[i], rel=1e-8, abs=1e-8)


def test_geometric_scalars_identities(su3):
    rng = random.Random(3)
    lab = get_lab(su3)
    for _ in range(10):
        st = _random_interior_state(su3, rng)
        r_val = lab.R(st.x, st.y, st.xd, st.yd)
        kd = lab.mode_kd(MODE_CANDIDATE, st)
        f, a2, _ = geometric_scalars(st, su3, kd, mode=MODE_CANDIDATE)
        assert f == pytest.approx(r_val + kd, rel=1e-12, abs=1e-12)
        assert f == pytest.approx(2 * r_val / 3, rel=1e-10, abs=1e-12)
        assert a2 >= 0.0


def test_geometric_scalars_laplacian_zero_in_minimal_mode(su3):
    st = state_from_angle(1.0, 0.3, 0.7)
    lab = get_lab(su3)
    kd = lab.mode_kd(MODE_MINIMAL, st)
    # f vanishes identically along the minimal flow, so the second difference
    # is pure float roundoff amplified by 1/h^2; a coarser step keeps that
    # below 1e-6.
    f, _, laplacian = geometric_scalars(st, su3, kd, mode=MODE_MINIMAL, h_fd=1e-3)
    assert abs(f) < 1e-12
    assert abs(laplacian) < 1e-6


def test_candidate_kd_is_minus_third_of_curvature_sum(su3):
    lab = get_lab(su3)
    st = state_from_angle(1.0, 0.4, 1.1)
    for _ in range(50):
        st = step_candidate(st, su3, 1e-3)
    r_val = lab.R(st.x, st.y, st.xd, st.yd)
    assert lab.mode_kd(MODE_CANDIDATE, st) == pytest.approx(-r_val / 3)


def test_step_reversal_retraces(su3):
    st = state_from_angle(1.0, 0.3, 0.5)
    forward = step_minimal(st, su3, 1e-4)
    back = step_minimal(forward, su3, -1e-4)
    assert back.x == pytest.approx(st.x, abs=1e-13)
    assert back.y == pytest.approx(st.y, abs=1e-13)
    assert back.xd == pytest.approx(st.xd, abs=1e-12)
    assert back.yd == pytest.approx(st.yd, abs=1e-12)


def test_plane_curve_curvature_of_circle():
    # The planar-curvature reconstruction used in trajectory diagnostics
    # recovers 1/r on a circle and 0 on a straight line.
    r = 2.0
    h = 1e-4

    def circle(s):
        return CurveState(s=s, x=r * math.cos(s / r), y=r * math.sin(s / r),
                          xd=-math.sin(s / r), yd=math.cos(s / r))

    sm, s0, sp = circle(-h), circle(0.0), circle(h)
    xdd = (sp.xd - sm.xd) / (2 * h)
    ydd = (sp.yd - sm.yd) / (2 * h)
    assert ydd * s0.xd - xdd * s0.yd == pytest.approx(1 / r, rel=1e-7)

    def line(s):
        return CurveState(s=s, x=1 + s * 0.6, y=1 + s * 0.8, xd=0.6, yd=0.8)

    sm, s0, sp = line(-h), line(0.0), line(h)
    xdd = (sp.xd - sm.xd) / (2 * h)
    ydd = (sp.yd - sm.yd) / (2 * h)
    assert ydd * s0.xd - xdd * s0.yd == pytest.approx(0.0, abs=1e-12)


def test_minimal_integration_keeps_f_small(su3):
    cfg = IntegratorConfig(step=1e-4, max_steps=3000, mode=MODE_MINIMAL)
    trajectory = integrate_curve(state_from_angle(1.0, 0.3, 0.7), cfg, su3)
    assert trajectory.stop_reason == "max_steps"
    assert trajectory.max_abs_f < 1e-6
    assert trajectory.speed_drift < 1e-9


def test_minimal_cone_direction_is_invariant():
    case = registry_case("SOpxSOq", {"p": 2, "q": 3})
    (sigma,) = minimal_line_angles(case)
    start = state_from_angle(math.cos(sigma), math.sin(sigma), sigma)
    cfg = IntegratorConfig(step=1e-4, max_steps=5000, mode=MODE_MINIMAL)
    trajectory = integrate_curve(start, cfg, case)
    slope = math.tan(sigma)
    for st in trajectory.states[::500]:
        assert abs(st.y - slope * st.x) < 1e-8


def test_tangent_reversal_retraces_path(su3):
    cfg = IntegratorConfig(step=1e-3, max_steps=300, mode=MODE_MINIMAL)
    outbound = integrate_curve(state_from_angle(1.0, 0.3, 0.7), cfg, su3)
    end = outbound.states[-1]
    reversed_start = CurveState(s=0.0, x=end.x, y=end.y, xd=-end.xd, yd=-end.yd)
    inbound = integrate_curve(reversed_start, cfg, su3)
    back = inbound.states[-1]
    assert back.x == pytest.approx(1.0, abs=1e-9)
    assert back.y == pytest.approx(0.3, abs=1e-9)


def test_tangential_residual_vanishes_on_minimal_line():
    # Along a minimal cone direction f and df/ds both vanish, so the
    # tangential residual f'(f + 2 kd) is measurement noise only.
    case = registry_case("SOpxSOq", {"p": 3, "q": 5})
    (sigma,) = minimal_line_angles(case)
    start = state_from_angle(math.cos(sigma), math.sin(sigma), sigma)
    cfg = IntegratorConfig(step=1e-4, max_steps=2000, mode=MODE_MINIMAL)
    trajectory = integrate_curve(start, cfg, case)
    f_col = [row[5] for row in trajectory.rows]
    h = cfg.step
    worst = 0.0
    for i in range(2, len(f_col) - 2):
        f_dot = (f_col[i + 1] - f_col[i - 1]) / (2 * h)
        kd = get_lab(case).mode_kd(MODE_MINIMAL, trajectory.states[i])
        worst = max(worst, abs(f_dot * (f_col[i] + 2 * kd)))
    assert worst < 1e-6


def test_boundary_stop_on_vertical_drop():
    # In the half-plane chamber a vertical drop has zero curvature sum, stays
    # a straight line, and must stop at the y = 0 wall.  (Generic minimal
    # curves bend away from walls, so this is the clean guaranteed hit.)
    case = registry_case("SOn-1")
    cfg = IntegratorConfig(step=1e-3, max_steps=10000, mode=MODE_MINIMAL)
    trajectory = integrate_curve(state_from_angle(0.0, 1.0, -math.pi / 2), cfg, case)
    assert trajectory.stop_reason == "boundary"
    last = trajectory.states[-1]
    assert last.y == pytest.approx(0.0, abs=2e-3)
    assert last.y > 0


def test_initial_state_outside_chamber_rejected(su3):
    cfg = IntegratorConfig()
    with pytest.raises(BoundaryError):
        integrate_curve(state_from_angle(0.3, 1.0, 0.0), cfg, su3)  # above the cone


def test_zero_steps_gives_single_row(su3):
    cfg = IntegratorConfig(max_steps=0)
    trajectory = integrate_curve(state_from_angle(1.0, 0.3, 0.7), cfg, su3)
    assert len(trajectory.rows) == 1


def test_symbolic_r_dot_matches_finite_differences(all_cases):
    rng = random.Random(4)
    h = 1e-5
    for case in all_cases:
        lab = get_lab(case)
        bundle = build_bundle(case)
        for _ in range(5):
            st = _random_interior_state(case, rng)
            plus = step_candidate(st, case, h)
            minus = step_candidate(st, case, -h)
            fd = (lab.R(plus.x, plus.y, plus.xd, plus.yd)
                  - lab.R(minus.x, minus.y, minus.xd, minus.yd)) / (2 * h)
            sym = float_reduced_value(bundle.r_dot, bundle.qd, st)
            scale = max(abs(sym), abs(fd), 1e-9)
            assert abs(sym - fd) / scale < 1e-6, case.label


def test_normal_residual_two_routes_agree(su3):
    rng = random.Random(5)
    for _ in range(10):
        st = _random_interior_state(su3, rng)
        poly_val, ode_val = normal_residual(st, su3)
        scale = max(abs(poly_val), abs(ode_val), 1e-12)
        assert abs(poly_val - ode_val) / scale < 1e-4


@pytest.mark.parametrize("mode", MODES)
def test_pointwise_oracles_evaluate_once_at_the_state(su3, mode, monkeypatch):
    # point and R run once at the sampled state; the RK4 stages and the
    # difference points are elsewhere.
    lab, st, calls = get_lab(su3), state_from_angle(1.0, 0.3, 0.7), []
    point, curvature_sum = lab.point, lab.R
    monkeypatch.setattr(lab, "point", lambda x, y: calls.append(("point", x, y)) or point(x, y))
    monkeypatch.setattr(lab, "R", lambda x, y, xd, yd: calls.append(("R", x, y, xd, yd))
                        or curvature_sum(x, y, xd, yd))
    at_state = [("point", st.x, st.y), ("R", st.x, st.y, st.xd, st.yd)]
    geometric_scalars(st, su3, 0.25, mode=mode)
    assert sorted(c for c in calls if c in at_state) == sorted(at_state)
    calls.clear()
    normal_residual(st, su3)
    assert sorted(c for c in calls if c in at_state) == sorted(at_state)


def test_geometric_scalars_reject_wall_state(u5):
    st = CurveState(s=0.0, x=1.0, y=0.0, xd=0.0, yd=1.0)
    with pytest.raises(BoundaryError):
        geometric_scalars(st, u5, 0.0)


def test_finite_difference_step_must_be_positive_and_finite(su3):
    st = state_from_angle(1.0, 0.3, 0.7)
    for h_fd in (0.0, -1e-5, math.nan, math.inf):
        with pytest.raises(ValueError, match="h_fd"):
            normal_residual(st, su3, h_fd)
        with pytest.raises(ValueError, match="h_fd"):
            geometric_scalars(st, su3, 0.0, MODE_CANDIDATE, h_fd)


def test_residual_generically_nonzero_on_candidate_curves(su3):
    cfg = IntegratorConfig(step=1e-4, max_steps=500, mode=MODE_CANDIDATE)
    trajectory = integrate_curve(state_from_angle(1.0, 0.3, 0.7), cfg, su3)
    sup = max(abs(a) for a, _ in trajectory.residual_pairs)
    assert sup > 1e-3


def test_trajectory_csv_format(su3):
    cfg = IntegratorConfig(step=1e-4, max_steps=10, mode=MODE_CANDIDATE)
    trajectory = integrate_curve(state_from_angle(1.0, 0.3, 0.7), cfg, su3)
    buffer = io.StringIO()
    trajectory.write_csv(buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 12
    first = lines[1].split(",")
    assert len(first) == 9
    assert float(first[1]) == 1.0
    # 17 significant digits survive a float round trip
    assert float(first[3]) == trajectory.states[0].xd


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(mode="fancy")
    for bad in ({"step": math.nan}, {"step": math.inf}, {"step": -math.inf},
                {"max_steps": -3}, {"max_steps": -1}, {"max_steps": 2.5},
                {"max_steps": 10.0}, {"max_steps": "10"}, {"max_steps": True},
                {"max_steps": False}):
        with pytest.raises(ValueError):
            IntegratorConfig(**bad)
    assert IntegratorConfig(max_steps=0).max_steps == 0


def test_trajectories_match_golden_hashes():
    # SOpxSOq, SU3, SO5 and G2 in both modes, 1000 RK4 steps each: every CSV
    # byte must match the fixture written by tests/golden.py.
    assert trajectory_hashes() == json.loads(TRAJECTORY_HASHES.read_text())


def test_wall_stop_curves_match_golden():
    # A curve of each lab row and mode that ends at the chamber's vertex: the
    # CSV bytes, the stop reason and the state count of the wall-stop branch.
    assert wall_stop_curves() == json.loads(WALL_STOPS.read_text())


def test_rows_that_overflow_end_the_curve():
    # A coarse minimal step near SO5's vertex flings the curve out: the fourth
    # state is still inside the chamber but so far out that its kernels
    # overflow.  The loop stops at that state; the curve ends at the last
    # state whose row evaluates.
    init = CurveState(0.0, 0.035873814107106994, 0.03482914672237509,
                      -0.3452472235234991, 0.9385117765107239)
    cfg = IntegratorConfig(step=0.01, max_steps=400, mode=MODE_MINIMAL)
    trajectory = integrate_curve(init, cfg, registry_case("SO5"))
    assert trajectory.stop_reason == "overflow"
    assert len(trajectory.states) == len(trajectory.rows) == 3
    assert all(math.isfinite(v) for row in trajectory.rows for v in row[:5])


def test_start_whose_values_overflow_is_rejected(su3):
    # Both starts are inside SU3's chamber, but so far out that their own
    # kernels overflow: there is no curve to integrate.
    cfg = IntegratorConfig(step=1e-4, max_steps=10, mode=MODE_MINIMAL)
    for x0, y0 in ((1e200, 3e199), (1e60, 3e59)):
        with pytest.raises(BoundaryError, match="overflow"):
            integrate_curve(state_from_angle(x0, y0, 0.5), cfg, su3)


# (row, polar angle as a fraction of pi/d, tangent angle, step, max_steps,
# mode) of coarse curves from radius 1.  Each takes a step far out of range
# and ends in its own way.
_FAR_STEPS = (
    ("SO4", 0.7, 4.8, 1e107, 1, MODE_CANDIDATE),  # RK4's stages overflow
    ("SU3", 0.6, 4.5, 1e16, 2, MODE_MINIMAL),  # the new state overflows, outside
    ("SOpxSOq", 0.2, 5.7, 1e84, 10, MODE_MINIMAL),  # the new state is outside
    ("SO4", 0.9, 1.6, 1e15, 1, MODE_MINIMAL),  # the new state and its R overflow
    ("SOpxSOq", 0.6, 5.3, 1e29, 1, MODE_MINIMAL),  # the new state overflows, not its R
    ("SU3", 0.4, 1.8, 10.0, 10, MODE_MINIMAL),  # the same, after interior rows
    ("SOn-1", 0.2, 4.0, 1e48, 1, MODE_CANDIDATE),  # the last endpoint row overflows
    ("SOn-1", 0.7, 0.0, 1e25, 10, MODE_CANDIDATE),  # an interior row overflows
)


def _oracle_curves(all_cases):
    """(case, init, cfg) of the curves compared with the two-pass oracle."""
    for case in all_cases:
        for mode in MODES:
            for radius, frac, angle, step, steps in (
                    (3.0, 0.45, 0.7, 1e-4, 300),  # runs to max_steps
                    (0.2, 0.5, 0.5 * math.pi / case.d + math.pi, 1e-3, 400),  # into the vertex
                    (0.05, 0.98, 1.92, 1e-2, 400)):  # SO5's overflow start, in this chamber
                sigma = frac * math.pi / case.d
                init = state_from_angle(radius * math.cos(sigma), radius * math.sin(sigma), angle)
                yield case, init, IntegratorConfig(step=step, max_steps=steps, mode=mode)
    for name, frac, angle, step, steps, mode in _FAR_STEPS:
        case = registry_case(name)
        sigma = frac * math.pi / case.d
        yield (case, state_from_angle(math.cos(sigma), math.sin(sigma), angle),
               IntegratorConfig(step=step, max_steps=steps, mode=mode))


def test_one_pass_matches_two_pass_oracle(all_cases):
    # Every default row in both modes, on a curve that runs to max_steps, one
    # that stops at the vertex and one flung out of float range, plus coarse
    # curves through every way a curve can end: the one-pass integrator
    # returns what the two-pass one did, every float compared by repr.
    stops = {}
    for case, init, cfg in _oracle_curves(all_cases):
        new, old = integrate_curve(init, cfg, case), integrate_two_pass(init, cfg, case)
        where = (case.label, cfg)
        assert [repr(row) for row in new.rows] == [repr(row) for row in old.rows], where
        assert [repr(st) for st in new.states] == [repr(st) for st in old.states], where
        assert new.stop_reason == old.stop_reason, where
        assert repr(new.residual_pairs) == repr(old.residual_pairs), where
        assert repr(new.max_abs_f) == repr(old.max_abs_f), where
        assert repr(new.speed_drift) == repr(old.speed_drift), where
        stops.setdefault(new.stop_reason, set()).add(case.label)
    assert set(stops) == {"max_steps", "boundary", "overflow"}
    assert len(stops["max_steps"]) == len(all_cases)
    assert "SO5" in stops["overflow"]


def test_pointwise_oracles_match_golden():
    # normal_residual and geometric_scalars at three states of each lab row,
    # compared by repr, so every bit of every value must match.
    assert pointwise_reprs() == json.loads(POINTWISE.read_text())


def _kernel_oracle(lab, x, y, xd, yd):
    """(point, R) of a lab at a state, from the term loop."""
    b = build_bundle(lab.case)

    def value(poly):
        return float_poly_value(poly, x, y)

    q, t1, t2 = value(b.qd), value(b.t1), value(b.t2)
    point = (tuple(value(w) for w in b.walls), q, t1, t2, value(b.t3), value(b.t4),
             value(b.t5), *(value(a) for a in b.a_coeffs))
    return point, (-t2 * xd + t1 * yd) / q


def _row_oracle(lab, st, point, kd, r_dot=None, r_ddot=None):
    """A trajectory row from the per-row helpers; an endpoint row without r_dot."""
    walls, q, t1, t2, t3, t4, t5, a0, a1, a2, a3 = point
    f, a_sq = lab.scalars(kd, numerics._curvatures(lab.trig, walls, st.xd, st.yd))
    res_ode = math.nan if r_dot is None else numerics._ode_form(
        q, t1, t2, t3, t4, t5, st.xd, st.yd, r_dot, r_ddot)
    return (st.s, st.x, st.y, st.xd, st.yd, f, a_sq,
            numerics._cubic_form(a0, a1, a2, a3, st.xd, st.yd), res_ode)


def test_compiled_polynomials_match_term_loop_bitwise(all_cases):
    # Every kernel output of every default row equals the term loop's value
    # bit for bit (compared by repr): the walls, qd, t1..t5 and A0..A3 of
    # point and R with t1, t2 and qd inlined, at random chamber points; the
    # row kernel, endpoint and interior rows, against the per-row helpers on
    # those values; and the interior tests inside (of a point) and clear (of
    # its wall values), against the sign rule on the loop's wall values,
    # there and at random points of the plane.
    rng = random.Random(6)
    for case in all_cases:
        lab = get_lab(case)
        for _ in range(20):
            st = _random_interior_state(case, rng, radius=(0.2, 5.0))
            st.s, st.xd, st.yd = rng.uniform(0, 10), rng.uniform(-2, 2), rng.uniform(-2, 2)
            point, r = _kernel_oracle(lab, st.x, st.y, st.xd, st.yd)
            assert repr(lab.point(st.x, st.y)) == repr(point), case.label
            assert repr(lab.R(st.x, st.y, st.xd, st.yd)) == repr(r), case.label
            kd, r_dot, r_ddot = (rng.uniform(-3, 3) for _ in range(3))
            assert (repr(lab.row(st.s, st.x, st.y, st.xd, st.yd, point, kd, None, None))
                    == repr(_row_oracle(lab, st, point, kd))), case.label
            assert (repr(lab.row(st.s, st.x, st.y, st.xd, st.yd, point, kd, r_dot, r_ddot))
                    == repr(_row_oracle(lab, st, point, kd, r_dot, r_ddot))), case.label
            for x, y in ((st.x, st.y), (rng.uniform(-5, 5), rng.uniform(-5, 5))):
                walls = [float_poly_value(w, x, y) for w in build_bundle(case).walls]
                expected = not walls[0] > -1e-9 and all(v > 1e-9 for v in walls[1:])
                assert lab.inside(x, y) is expected, case.label
                assert lab.clear(tuple(walls)) is expected, case.label
    zero = numerics._kernel("zero", ("x", "y"), {"z": SpatialPoly.zero().float_terms()}, "z")
    assert zero(1.5, -0.25) == 0 and float_poly_value(SpatialPoly.zero(), 1.5, -0.25) == 0


def test_integration_evaluates_each_state_once(monkeypatch, su3):
    # One pass: the point kernel runs once per stored state, plus once for a
    # state that is rejected at a wall, and its values decide the wall test
    # (clear) and give R at the state, which serves as the next step's k1
    # stage.  RK4 evaluates R three times per step, at its other stages.  The
    # row kernel runs once per stored state, and the inside kernel not at all.
    lab = CaseLab(su3)
    counts = dict.fromkeys(("R", "point", "clear", "row", "inside"), 0)

    def counting(name):
        fn = getattr(lab, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in counts:
        setattr(lab, name, counting(name))
    monkeypatch.setattr(numerics, "get_lab", lambda case: lab)
    sigma = math.pi / 6  # the bisector: heading for the vertex, the 200th step leaves
    for init, step, steps, stop in (
            ((1.0, 0.3, 0.7), 1e-4, 1000, "max_steps"),
            ((0.2 * math.cos(sigma), 0.2 * math.sin(sigma), sigma + math.pi), 1e-3, 200,
             "boundary")):
        counts.update(dict.fromkeys(counts, 0))
        cfg = IntegratorConfig(step=step, max_steps=1000, mode=MODE_CANDIDATE)
        trajectory = integrate_curve(state_from_angle(*init), cfg, su3)
        assert trajectory.stop_reason == stop
        stored = len(trajectory.states)
        assert stored == (steps + 1 if stop == "max_steps" else steps)
        evaluated = stored + (stop == "boundary")
        assert counts == {"R": 3 * steps, "point": evaluated, "clear": evaluated,
                          "row": stored, "inside": 0}


def test_csv_row_template_matches_format_spec():
    # One "%.17g" template per row must write what f"{v:.17g}" writes for
    # every value a row can hold, the special ones included.
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1, -7,
              10**20, 0.1, 1 / 3, -1e300, 2.0**-1074 * 3]
    for start in range(len(values)):
        row = tuple((values * 2)[start:start + 9])
        assert numerics._CSV_ROW % row == ",".join(f"{v:.17g}" for v in row) + "\n"
