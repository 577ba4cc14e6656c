import io
import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from chamberlab import numerics
from chamberlab.cases import registry_case
from chamberlab.certify import certify_case
from chamberlab.errors import BoundaryError
from chamberlab.numerics import (
    CSV_HEADER,
    CaseLab,
    CurveState,
    IntegratorConfig,
    MODE_CANDIDATE,
    MODE_MINIMAL,
    MODES,
    Trajectory,
    geometric_scalars,
    get_lab,
    integrate_curve,
    normal_residual,
    principal_curvatures,
    state_from_angle,
    step_candidate,
    step_minimal,
)
from chamberlab.poly import Form
from chamberlab.reduction import build_bundle
from bundle_oracle import trig_pairs
from field_oracle import exact_sign
from float_poly_oracle import float_poly_value, float_reduced_value, float_terms
from golden import (
    POINTWISE,
    TRAJECTORY_HASHES,
    WALL_STOPS,
    pointwise_reprs,
    trajectory_hashes,
    wall_stop_curves,
)
from lab_oracle import (
    cubic_form,
    integrate_two_pass,
    ode_form,
    refusal,
    scalars,
    wall_curvatures,
)
from root_checks import minimal_sigma


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


@pytest.mark.parametrize("y", [1e199, -1e199])
def test_pointwise_oracles_reject_a_state_whose_values_overflow(y):
    # G2's point values overflow at x = 1e200.  Inside the chamber (y > 0)
    # each pointwise oracle and each step raises BoundaryError for the
    # overflow; outside it (y < 0) for the wall, which the ending rule tests
    # before the values.  On SOn-1, whose one wall is -y, a NaN x or an
    # infinite y is an overflow on either side, before the wall test.
    son = registry_case("SOn-1")
    overflow = "overflows the lab's float range"
    for case, st, message in (
            (registry_case("G2"), state_from_angle(1e200, y, 0.3),
             overflow if y > 0 else "not strictly inside"),
            (son, CurveState(0.0, math.nan, 1.0, 1.0, 0.0), overflow),
            (son, CurveState(0.0, 0.0, math.copysign(math.inf, y), 1.0, 0.0), overflow)):
        for oracle in (lambda: normal_residual(st, case),
                       lambda: geometric_scalars(st, case, 0.0),
                       lambda: principal_curvatures(st, case, 0.0),
                       lambda: step_minimal(st, case, 1e-3),
                       lambda: step_candidate(st, case, 1e-3)):
            with pytest.raises(BoundaryError, match=message):
                oracle()


def test_directional_log_derivative_matches_ratio_formula(all_cases):
    # First curvature formula (normal-direction derivative of log w^2 by
    # finite differences) against the direct ratio, at random states.
    rng = random.Random(2)
    h = 1e-6
    for case in all_cases:
        lab = get_lab(case)
        st = _random_interior_state(case, rng)
        ratio = principal_curvatures(st, case, 0.0)[:-1]
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
        kd = -r_val / 3
        f, a2, _ = geometric_scalars(st, su3, kd, mode=MODE_CANDIDATE)
        assert f == pytest.approx(r_val + kd, rel=1e-12, abs=1e-12)
        assert f == pytest.approx(2 * r_val / 3, rel=1e-10, abs=1e-12)
        assert a2 >= 0.0


def test_geometric_scalars_laplacian_zero_in_minimal_mode(su3):
    st = state_from_angle(1.0, 0.3, 0.7)
    kd = -get_lab(su3).R(st.x, st.y, st.xd, st.yd)
    # f vanishes identically along the minimal flow, so the second difference
    # is pure float roundoff amplified by 1/h^2; a coarser step keeps that
    # below 1e-6.
    f, _, laplacian = geometric_scalars(st, su3, kd, mode=MODE_MINIMAL, h_fd=1e-3)
    assert abs(f) < 1e-12
    assert abs(laplacian) < 1e-6


def test_candidate_kd_is_minus_third_of_curvature_sum(su3):
    # The candidate flow turns its tangent at kd = -R/3, so f = kd + R reads
    # 2R/3: on the endpoint rows, which take the mode's kd, and on the
    # interior rows, which measure kd from the integrated tangent.
    lab = get_lab(su3)
    cfg = IntegratorConfig(step=1e-4, max_steps=100, mode=MODE_CANDIDATE)
    trajectory = integrate_curve(state_from_angle(1.0, 0.4, 1.1), cfg, su3)
    assert len(trajectory.rows) == 101
    for st, row in zip(trajectory.states, trajectory.rows):
        r_val = lab.R(st.x, st.y, st.xd, st.yd)
        assert row[5] == pytest.approx(2 * r_val / 3, rel=1e-7)


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
    sigma = minimal_sigma(certify_case(case))
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
    sigma = minimal_sigma(certify_case(case))
    start = state_from_angle(math.cos(sigma), math.sin(sigma), sigma)
    cfg = IntegratorConfig(step=1e-4, max_steps=2000, mode=MODE_MINIMAL)
    trajectory = integrate_curve(start, cfg, case)
    f_col = [row[5] for row in trajectory.rows]
    h = cfg.step
    worst = 0.0
    for i in range(2, len(f_col) - 2):
        f_dot = (f_col[i + 1] - f_col[i - 1]) / (2 * h)
        st = trajectory.states[i]
        kd = -get_lab(case).R(st.x, st.y, st.xd, st.yd)
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


def test_steps_reject_an_outside_start_and_a_wall_crossing(su3):
    # A start outside the chamber, and a step from just above the wall y = 0
    # heading straight down, raise BoundaryError in both flows.
    outside = state_from_angle(1.0, -0.5, 0.3)
    near_wall = state_from_angle(1.0, 1e-6, -math.pi / 2)
    for step in (step_minimal, step_candidate):
        with pytest.raises(BoundaryError, match="not strictly inside"):
            step(outside, su3, 1e-3)
        with pytest.raises(BoundaryError, match="crossed a chamber wall"):
            step(near_wall, su3, 1e-3)


def test_an_rk4_stage_on_a_wall_is_a_wall_stop():
    # Straight down onto the wall y = 0 in steps of 2**-19: an RK4 stage
    # lands exactly on the wall, where qd is 0.0.  SOpxSOq's stage lands
    # there in the first step, SOn-1's (whose vertical drop stays straight)
    # in the third, after an interior row.  The curve ends with a wall stop
    # and the two-pass oracle's rows; the step and pointwise functions raise
    # BoundaryError from the same state.
    h = 2.0**-19
    for name, y0, stored in (("SOpxSOq", 2.0**-20, 1), ("SOn-1", 5 * 2.0**-20, 3)):
        case = registry_case(name)
        init = CurveState(0.0, 1.0 if name == "SOpxSOq" else 0.0, y0, 0.0, -1.0)
        for mode in MODES:
            cfg = IntegratorConfig(step=h, max_steps=5, mode=mode)
            new = integrate_curve(init, cfg, case)
            old = integrate_two_pass(init, cfg, case)[0]
            assert new.stop_reason == old.stop_reason == "boundary", (name, mode)
            assert len(new.states) == stored, (name, mode)
            assert [repr(row) for row in new.rows] == [repr(row) for row in old.rows], (name, mode)
    case, st = registry_case("SOpxSOq"), CurveState(0.0, 1.0, 2.0**-20, 0.0, -1.0)
    for call in (lambda: step_minimal(st, case, h), lambda: step_candidate(st, case, h),
                 lambda: normal_residual(st, case, h),
                 lambda: geometric_scalars(st, case, 0.0, h_fd=h)):
        with pytest.raises(BoundaryError, match="lies on a chamber wall"):
            call()


def test_pointwise_oracles_reject_a_neighbour_outside_the_chamber():
    # 3e-6 above SOpxSOq's wall y = 0, heading down: the state is inside,
    # but its RK4 neighbour a step of h_fd = 1e-5 ahead is below the wall,
    # so neither oracle reads values there.
    case, st = registry_case("SOpxSOq"), CurveState(0.0, 1.0, 3e-6, 0.0, -1.0)
    for call in (lambda: normal_residual(st, case, 1e-5),
                 lambda: geometric_scalars(st, case, 0.0, h_fd=1e-5),
                 lambda: step_candidate(st, case, 1e-5)):
        with pytest.raises(BoundaryError, match="crossed a chamber wall"):
            call()


def test_geometric_scalars_reject_wall_state(u5, su3):
    # Both pointwise oracles reject a state on a wall, (1, 0), and one
    # outside the chamber, (-1, 0.5), before they evaluate R there.
    for case in (u5, su3):
        for x, y in ((1.0, 0.0), (-1.0, 0.5)):
            st = CurveState(s=0.0, x=x, y=y, xd=0.0, yd=1.0)
            with pytest.raises(BoundaryError):
                geometric_scalars(st, case, 0.0)
            with pytest.raises(BoundaryError):
                normal_residual(st, case)


def test_finite_difference_step_must_be_positive_and_finite(su3):
    st = state_from_angle(1.0, 0.3, 0.7)
    for h_fd in (0.0, -1e-5, math.nan, math.inf, 1e-170):  # 1e-170 squares to 0.0
        with pytest.raises(ValueError, match="h_fd"):
            normal_residual(st, su3, h_fd)
        with pytest.raises(ValueError, match="h_fd"):
            geometric_scalars(st, su3, 0.0, MODE_CANDIDATE, h_fd)
    with pytest.raises(ValueError, match="mode must be one of"):
        geometric_scalars(st, su3, 0.0, mode="bogus")


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
    for bad in ({"step": math.nan}, {"step": math.inf}, {"step": -math.inf}, {"step": 1e-170},
                {"max_steps": -3}, {"max_steps": -1}, {"max_steps": 2.5},
                {"max_steps": 10.0}, {"max_steps": "10"}, {"max_steps": True},
                {"max_steps": False}):
        # A NamedTuple is also built by _replace and _make.
        fields = {**IntegratorConfig()._asdict(), **bad}
        for build in (lambda: IntegratorConfig(**bad),
                      lambda: IntegratorConfig()._replace(**bad),
                      lambda: IntegratorConfig._make(fields.values())):
            with pytest.raises(ValueError):
                build()
    assert IntegratorConfig(max_steps=0).max_steps == 0


def test_trajectories_match_golden_hashes():
    # SOn-1, SOpxSOq, SU3, SO5 and G2 (d = 1, 2, 3, 4, 6) in both modes, 1000
    # RK4 steps each: every CSV byte must match the fixture of tests/golden.py.
    assert trajectory_hashes() == json.loads(TRAJECTORY_HASHES.read_text())


def test_wall_stop_curves_match_golden():
    # A curve of each lab row and mode that ends at the chamber's vertex: the
    # CSV bytes, the stop reason and the state count of the wall-stop branch.
    assert wall_stop_curves() == json.loads(WALL_STOPS.read_text())


def test_rows_that_overflow_end_the_curve():
    # A coarse minimal step near SO5's vertex flings the curve out: the fourth
    # state is still inside the chamber but so far out that its res_poly is
    # not finite.  The ending rule refuses it; the curve ends at the third
    # state, with its endpoint row.
    init = CurveState(0.0, 0.035873814107106994, 0.03482914672237509,
                      -0.3452472235234991, 0.9385117765107239)
    cfg = IntegratorConfig(step=0.01, max_steps=400, mode=MODE_MINIMAL)
    trajectory = integrate_curve(init, cfg, registry_case("SO5"))
    assert trajectory.stop_reason == "overflow"
    assert len(trajectory.states) == len(trajectory.rows) == 3
    assert all(math.isfinite(v) for row in trajectory.rows for v in row[:5])
    assert math.isnan(trajectory.rows[-1][8])


def test_new_state_whose_r_overflows_keeps_the_current_row():
    # A coarse minimal step on F4 flings the curve out twice: the third
    # state is inside the chamber with a finite R, but res_poly and the
    # res_ode products of its row state part are not finite.  The rule
    # refuses it, so the curve ends at the second state, whose row is an
    # endpoint row, built once.
    init = CurveState(0.0, 0.21069155393950986, 0.14697908772462936,
                      -0.543682123508202, 0.8392912179795593)
    cfg = IntegratorConfig(step=21.42861829125894, max_steps=5, mode=MODE_MINIMAL)
    case = registry_case("F4")
    trajectory = integrate_curve(init, cfg, case)
    old = integrate_two_pass(init, cfg, case)[0]
    assert trajectory.stop_reason == old.stop_reason == "overflow"
    assert [repr(row) for row in trajectory.rows] == [repr(row) for row in old.rows]
    assert len(trajectory.rows) == 2 and math.isnan(trajectory.rows[-1][8])


def test_start_whose_values_overflow_is_rejected(su3):
    # Both starts are inside SU3's chamber, but so far out that their R or
    # row values overflow; on SOn-1 a start with a NaN x or an infinite y
    # fails the rule's first test: there is no curve to integrate.
    cfg = IntegratorConfig(step=1e-4, max_steps=10, mode=MODE_MINIMAL)
    son = registry_case("SOn-1")
    for init, case in ((state_from_angle(1e200, 3e199, 0.5), su3),
                       (state_from_angle(1e60, 3e59, 0.5), su3),
                       (CurveState(0.0, math.nan, 1.0, 1.0, 0.0), son),
                       (CurveState(0.0, 0.0, math.inf, 1.0, 0.0), son),
                       (CurveState(0.0, 0.0, -math.inf, 1.0, 0.0), son)):
        with pytest.raises(BoundaryError, match="initial state .* overflows"):
            integrate_curve(init, cfg, case)


# (row, polar angle as a fraction of pi/d, tangent angle, step, max_steps,
# mode, stop reason, stored states) of coarse curves from radius 1.  Each
# takes a step far out of range and ends by one test of the ending rule
# (see integrate_curve).
_FAR_STEPS = (
    # RK4's stages make NaN coordinates
    ("SO4", 0.7, 4.8, 1e107, 1, MODE_CANDIDATE, "overflow", 1),
    ("SU3", 0.6, 4.5, 1e16, 2, MODE_MINIMAL, "boundary", 1),  # the new state is outside
    # NaN coordinates, whose walls would read outside
    ("SOpxSOq", 0.2, 5.7, 1e84, 10, MODE_MINIMAL, "overflow", 1),
    ("SO4", 0.9, 1.6, 1e15, 1, MODE_MINIMAL, "overflow", 1),  # the new state's R is not finite
    # its R is finite, its row state part not
    ("SOpxSOq", 0.6, 5.3, 1e29, 1, MODE_MINIMAL, "overflow", 1),
    ("SU3", 0.4, 1.8, 10.0, 10, MODE_MINIMAL, "overflow", 3),  # the same, after interior rows
    ("SOn-1", 0.2, 4.0, 1e48, 1, MODE_CANDIDATE, "overflow", 1),  # the same, on one wall
    # the same, after an interior row
    ("SOn-1", 0.7, 0.0, 1e25, 10, MODE_CANDIDATE, "overflow", 2),
)


def _far_curve(name, frac, angle, step, steps, mode):
    """(case, init, cfg) of a _FAR_STEPS curve."""
    case = registry_case(name)
    sigma = frac * math.pi / case.d
    return (case, state_from_angle(math.cos(sigma), math.sin(sigma), angle),
            IntegratorConfig(step=step, max_steps=steps, mode=mode))


def test_far_steps_end_by_the_ending_rule():
    # Each coarse far step ends as its _FAR_STEPS entry says, and every
    # stored state and its R are finite.
    for *curve, stop, stored in _FAR_STEPS:
        case, init, cfg = _far_curve(*curve)
        trajectory = integrate_curve(init, cfg, case)
        assert (trajectory.stop_reason, len(trajectory.states)) == (stop, stored), curve
        lab = get_lab(case)
        assert all(math.isfinite(v) for st in trajectory.states
                   for v in (*st, lab.R(st.x, st.y, st.xd, st.yd))), curve


def test_ending_rule_tests_in_order(all_cases):
    # The ending rule's kernel and the two-pass oracle's rule agree and test
    # in order: a NaN or infinite coordinate is an overflow, even where the
    # walls read outside; a state outside the chamber is a wall stop, even
    # where its values overflow (G2 at x = 1e200, below the wall y = 0); a
    # state inside whose R or row state part is not finite is an overflow.
    g2 = get_lab(registry_case("G2"))
    for x, y, stop in ((1e200, 1e199, "overflow"), (1e200, -1e199, "boundary"),
                       (1.0, 0.2, None)):
        assert g2.ending(x, y, 0.6, 0.8, g2.point(x, y)) == stop, (x, y)
        assert refusal(g2, x, y, 0.6, 0.8) == stop, (x, y)
    for case in all_cases:
        lab = get_lab(case)
        for x, y, xd, yd in ((math.nan, -1.0, 1.0, 0.0), (1.0, -math.inf, 1.0, 0.0),
                             (1.0, 0.01, math.inf, 0.0), (-1.0, 0.5, 0.0, math.nan)):
            assert lab.ending(x, y, xd, yd, lab.point(x, y)) == "overflow", (case.label, x, y)
            assert refusal(lab, x, y, xd, yd) == "overflow", (case.label, x, y)


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
    for *curve, _, _ in _FAR_STEPS:
        yield _far_curve(*curve)


def _assert_list_like(view):
    """A trajectory's states or rows index, slice, iterate and fail as the
    list of its entries does, every float compared by repr."""
    entries = [view[i] for i in range(len(view))]
    assert repr(list(view)) == repr(entries)
    assert repr([view[i] for i in range(-len(view), 0)]) == repr(entries)
    n = len(view)
    for index in (slice(None), slice(1, -1), slice(None, None, -1), slice(-3, None),
                  slice(n // 2, 1), slice(2, None, 7), slice(n + 5, None), slice(-n - 5, 3),
                  slice(None, None, -3), slice(n - 2, 0, -2), slice(-1, -n - 5, -4)):
        sliced = view[index]
        assert type(sliced) is list and repr(sliced) == repr(entries[index]), index
    for index in (n, -n - 1, n + 10**20):
        with pytest.raises(IndexError):
            view[index]


def test_one_pass_matches_two_pass_oracle(all_cases):
    # Every default row in both modes, on a curve that runs to max_steps, one
    # that stops at the vertex and one flung out of float range, plus coarse
    # curves through every way a curve can end: the one-pass integrator
    # returns what the two-pass one did, every float compared by repr.
    # The trajectory's derived diagnostics equal the ones the oracle keeps
    # step by step, on the curves that end in an overflow too.
    stops = {}
    for case, init, cfg in _oracle_curves(all_cases):
        new = integrate_curve(init, cfg, case)
        old, max_abs_f, speed_drift, residual_pairs = integrate_two_pass(init, cfg, case)
        where = (case.label, cfg)
        assert [repr(row) for row in new.rows] == [repr(row) for row in old.rows], where
        assert [repr(st) for st in new.states] == [repr(st) for st in old.states], where
        assert new.stop_reason == old.stop_reason, where
        assert repr(new.residual_pairs) == repr(residual_pairs), where
        assert repr(new.max_abs_f) == repr(max_abs_f), where
        assert repr(new.speed_drift) == repr(speed_drift), where
        assert [tuple(st) for st in new.states] == [row[:5] for row in new.rows], where
        stops.setdefault(new.stop_reason, set()).add(case.label)
    assert set(stops) == {"max_steps", "boundary", "overflow"}
    assert len(stops["max_steps"]) == len(all_cases)
    assert "SO5" in stops["overflow"]


def test_step_loop_matches_two_pass_oracle_on_random_curves(all_cases):
    # Seeded random starts anywhere inside each default row's chamber, from
    # near the vertex to far out, with random step sizes, step budgets
    # (0 included) and modes: the generated step loop returns the rows,
    # states and stop reason of the two-pass oracle, every float compared by
    # repr.  Steps up to about 3 radii fling some curves across a wall or
    # out of float range: the draw reaches max_steps and the wall on every
    # row, and an overflow on some.
    rng = random.Random(1)
    stops = {}
    for case in all_cases:
        for _ in range(30):
            sigma = rng.uniform(0.02, 0.98) * math.pi / case.d
            radius = 10 ** rng.uniform(-1.5, 1.0)
            init = state_from_angle(radius * math.cos(sigma), radius * math.sin(sigma),
                                    rng.uniform(0.0, 2 * math.pi))
            cfg = IntegratorConfig(step=radius * 10 ** rng.uniform(-3.0, 0.5),
                                   max_steps=rng.choice((0, 1, 2, rng.randint(3, 300))),
                                   mode=rng.choice(MODES))
            new = integrate_curve(init, cfg, case)
            old = integrate_two_pass(init, cfg, case)[0]
            where = (case.label, init, cfg)
            assert all(math.isfinite(v) for st in new.states for v in st), where
            assert [repr(row) for row in new.rows] == [repr(row) for row in old.rows], where
            assert [repr(st) for st in new.states] == [repr(st) for st in old.states], where
            assert new.stop_reason == old.stop_reason, where
            stops.setdefault(new.stop_reason, set()).add(case.label)
    labels = {case.label for case in all_cases}
    assert stops["max_steps"] == stops["boundary"] == labels and stops["overflow"]


def test_trajectory_diagnostics_read_interior_rows():
    # Hand-built rows (s, x, y, xd, yd, f, A2, res_poly, res_ode): the
    # endpoint rows, whose f is largest, are left out of max_abs_f and
    # residual_pairs; a NaN f is passed over; speed_drift reads every state,
    # the start's included.
    states = [CurveState(0.1 * i, 1.0, 0.3, xd, 0.0) for i, xd in enumerate((1.5, 1.0, 0.5, 1.0))]
    fs, res = (9.0, math.nan, -2.0, -8.0), (1.0, 2.0, 3.0, 4.0)
    rows = [(*st, f, 1.0, r, -r) for st, f, r in zip(states, fs, res)]
    trajectory = Trajectory(states, rows, "max_steps")
    assert Trajectory._fields == ("states", "rows", "stop_reason")
    assert tuple(trajectory) == (states, rows, "max_steps")
    assert trajectory.max_abs_f == 2.0
    assert trajectory.residual_pairs == [(2.0, -2.0), (3.0, -3.0)]
    assert trajectory.speed_drift == 1.25
    one = Trajectory(states[:1], rows[:1], "boundary")
    assert (one.max_abs_f, one.residual_pairs, one.speed_drift) == (0.0, [], 1.25)
    assert Trajectory(states[:3], rows[:3], "overflow").max_abs_f == 0.0  # its only f is NaN


def test_trajectory_views_read_one_array_of_doubles():
    # An integrated curve keeps its rows as one array of 9 doubles each,
    # which its states and rows read as a CurveState and a 9-tuple: the
    # start reads back as floats, and the CSV text is the same, since %.17g
    # prints 0 and 0.0 alike.
    case = registry_case("G2")
    cfg = IntegratorConfig(step=1e-4, max_steps=50)
    start = CurveState(0, 1, 0.2, 1, 0)
    trajectory = integrate_curve(start, cfg, case)
    assert trajectory.states[0] == start and trajectory.rows[0][:5] == tuple(start)
    assert {type(v) for st in trajectory.states for v in st} == {float}
    assert {type(row) for row in trajectory.rows} == {tuple}
    assert {type(st) for st in trajectory.states} == {CurveState}
    texts = []
    for init in (start, CurveState(*map(float, start))):
        buffer = io.StringIO()
        integrate_curve(init, cfg, case).write_csv(buffer)
        texts.append(buffer.getvalue())
    assert texts[0] == texts[1]
    for view in trajectory.states, trajectory.rows:
        with pytest.raises(TypeError):
            view[0] = view[1]
    # A curve of one state, and one that ends in an overflow (see
    # test_rows_that_overflow_end_the_curve).
    so5_start = CurveState(0.0, 0.035873814107106994, 0.03482914672237509,
                           -0.3452472235234991, 0.9385117765107239)
    for curve in (trajectory, integrate_curve(start, cfg._replace(max_steps=0), case),
                  integrate_curve(so5_start, IntegratorConfig(step=0.01, max_steps=400),
                                  registry_case("SO5"))):
        _assert_list_like(curve.states)
        _assert_list_like(curve.rows)


def test_long_curve_retains_under_100_bytes_per_state():
    # A 10**4-step G2 curve: the 9 row values of a state, 72 bytes, and the
    # array's spare room, not a CurveState and a row tuple per state.
    case = registry_case("G2")
    cfg = IntegratorConfig(step=1e-4, max_steps=10000)
    start = state_from_angle(1.0, 0.2, 0.3)
    integrate_curve(start, cfg, case)  # the lab's kernels are built and cached
    # Under tracemalloc CPython 3.11 looks up the line of each traced float
    # by scanning the loop kernel's line table, unless a line-traced call has
    # built its line array: one 1-step curve under a line tracer builds it,
    # and this test then takes about 0.5 s instead of 11 s.
    def trace_lines(frame, event, arg):
        return trace_lines

    previous = sys.gettrace()
    sys.settrace(trace_lines)
    try:
        integrate_curve(start, cfg._replace(max_steps=1), case)
    finally:
        sys.settrace(previous)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trajectory = integrate_curve(start, cfg, case)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trajectory.states) == 10001
    assert retained / len(trajectory.states) <= 100


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
    f, a_sq = scalars(lab, kd, wall_curvatures(lab.trig, walls, st.xd, st.yd))
    res_ode = math.nan if r_dot is None else ode_form(
        q, t1, t2, t3, t4, t5, st.xd, st.yd, r_dot, r_ddot)
    return (st.s, st.x, st.y, st.xd, st.yd, f, a_sq,
            cubic_form(a0, a1, a2, a3, st.xd, st.yd), res_ode)


def test_compiled_polynomials_match_term_loop_bitwise(all_cases):
    # Every kernel output of every default row equals the term loop's value
    # bit for bit (compared by repr): the walls, qd, t1..t5 and A0..A3 of
    # point and R with t1, t2 and qd inlined, at random chamber points; the
    # row kernel, endpoint and interior rows, against the per-row helpers on
    # those values; and the ending rule's kernel, against the sign rule on
    # the term loop's wall values and the two-pass oracle's rule, there and
    # at random points of the plane.
    rng = random.Random(6)
    for case in all_cases:
        lab = get_lab(case)
        for _ in range(20):
            st = _random_interior_state(case, rng, radius=(0.2, 5.0))
            s, xd, yd = rng.uniform(0, 10), rng.uniform(-2, 2), rng.uniform(-2, 2)
            st = st._replace(s=s, xd=xd, yd=yd)
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
                stop = lab.ending(x, y, st.xd, st.yd, lab.point(x, y))
                assert stop == (None if expected else "boundary"), case.label
                assert stop == refusal(lab, x, y, st.xd, st.yd), case.label
    zero_form = Form([[0, 0]], 1)
    zero = numerics._kernel("zero", ("x", "y"), {"z": zero_form.float_terms()}, "z")
    assert zero(1.5, -0.25) == 0 and float_poly_value(zero_form, 1.5, -0.25) == 0
    # Coefficients beyond the float range: the terms are 0.0, -inf, 0.0,
    # -0.0 and 0.0, and the kernel rounds, overflows and makes nan as the
    # term loop does: at (1e-200, 1e200), where y^4 is inf and x^4 is 0.0,
    # both give NaN and neither raises.
    wide = Form([[1, -1, 3, -10**800, 5]], 10**400)
    assert [repr(c) for _, _, c in wide.float_terms()] == ["0.0", "-inf", "0.0", "-0.0", "0.0"]
    kernel = numerics._kernel("wide", ("x", "y"), {"z": wide.float_terms()}, "z")
    for x, y in ((1.5, -0.25), (0, 2), (-3, 0), (1e-200, 1e200)):
        assert repr(kernel(x, y)) == repr(float_poly_value(wide, x, y)), (x, y)
    assert math.isnan(kernel(1e-200, 1e200))


_UNIT_ROUNDOFF = Fraction(1, 2**53)


def _exact_and_bound(terms, x, y):
    """The exact value at the doubles x, y of the polynomial with float terms
    ``(a, b, c)``, and a forward-error bound of any evaluation that forms
    each term with at most a + b roundings and adds the n terms with at most
    n - 1 more: (n + 2 deg) 2**-53 sum |c x**a y**b|, which covers
    gamma_(n + deg - 1) = (n + deg - 1) u / (1 - (n + deg - 1) u), without
    underflow."""
    x, y = Fraction(x), Fraction(y)
    values = [Fraction(c) * x**a * y**b for a, b, c in terms]
    degree = max((a + b for a, b, _ in terms), default=0)
    magnitude = sum(map(abs, values), Fraction(0))
    return sum(values, Fraction(0)), (len(terms) + 2 * degree) * _UNIT_ROUNDOFF * magnitude


def test_kernel_values_lie_within_a_forward_error_bound(all_cases):
    # Every value of point and R of every default row, at random chamber
    # points, is within a stated bound of the exact value computed in
    # Fraction from the same doubles: a check that holds for any evaluation
    # order, so it also catches a kernel and a term-loop oracle that are
    # wrong in the same way.  R = N / qd with N = -t2 xd + t1 yd: with
    # bounds E1, E2, Eq on t1, t2, qd, the computed N is within
    # EN = |xd| E2 + |yd| E1 + 3u (|xd| (|t2| + E2) + |yd| (|t1| + E1)) of
    # N, and the computed quotient within
    # (EN |qd| + |N| Eq) / ((|qd| - Eq) |qd|) + u (|N| + EN) / (|qd| - Eq).
    rng = random.Random(11)
    u = _UNIT_ROUNDOFF
    for case in all_cases:
        lab, b = get_lab(case), build_bundle(case)
        polys = [*b.walls, b.qd, b.t1, b.t2, b.t3, b.t4, b.t5, *b.a_coeffs]
        for _ in range(20):
            st = _random_interior_state(case, rng, radius=(0.2, 5.0))
            walls, *values = lab.point(st.x, st.y)
            for value, poly in zip([*walls, *values], polys):
                exact, bound = _exact_and_bound(float_terms(poly), st.x, st.y)
                assert abs(Fraction(value) - exact) <= bound, (case.label, st)
            (t1, e1), (t2, e2), (q, eq) = (_exact_and_bound(float_terms(p), st.x, st.y)
                                           for p in (b.t1, b.t2, b.qd))
            xd, yd = Fraction(st.xd), Fraction(st.yd)
            n = -t2 * xd + t1 * yd
            en = abs(xd) * e2 + abs(yd) * e1 + 3 * u * (abs(xd) * (abs(t2) + e2)
                                                        + abs(yd) * (abs(t1) + e1))
            assert abs(q) > eq, (case.label, st)
            bound = ((en * abs(q) + abs(n) * eq) / ((abs(q) - eq) * abs(q))
                     + u * (abs(n) + en) / (abs(q) - eq))
            r = lab.R(st.x, st.y, st.xd, st.yd)
            assert abs(Fraction(r) - n / q) <= bound, (case.label, st)


def test_kernels_take_no_powers_and_see_only_named_globals(all_cases, monkeypatch):
    # Libm independence: no generated kernel of any registry row calls
    # libm's pow through **, and each kernel reads no global but inf, nan
    # and the one exception class that the step loop catches,
    # ZeroDivisionError, with no builtins, so it calls no other function;
    # the step loop calls only the two functions it is passed.  No kernel
    # raises: a value out of float range is +-inf or NaN.
    allowed = {"inf", "nan", "ZeroDivisionError"}
    define, built = numerics._define, {}

    def record(source, name):
        built[name] = source, define(source, name)
        return built[name][1]

    monkeypatch.setattr(numerics, "_define", record)
    for case in all_cases:
        built.clear()
        CaseLab(case)
        assert sorted(built) == ["R", "ending", "loop", "point", "row"], case.label
        for name, (source, kernel) in built.items():
            assert "**" not in source and "raise" not in source, (case.label, name)
            assert set(kernel.__code__.co_names) <= allowed, (case.label, name)
            assert kernel.__globals__["__builtins__"] == {}, (case.label, name)
            assert set(kernel.__globals__) <= allowed | {"__builtins__", name}, (case.label, name)


def _labs_by_d(all_cases):
    labs = {case.d: get_lab(case) for case in all_cases}
    assert sorted(labs) == [1, 2, 3, 4, 6]
    return labs


def test_wall_floats_are_the_nearest_doubles(all_cases):
    # Each (sin, cos)(i pi/d) of lab.trig, the one wall table, is the double
    # nearest the exact value in Q(sqrt2, sqrt3), decided without math.sqrt:
    # the exact value lies strictly between the midpoints from the double to
    # its two neighbours, each compared by exact_sign.
    for d, lab in _labs_by_d(all_cases).items():
        exact = trig_pairs(d)
        assert len(lab.trig) == len(exact) == d
        for i, (floats, values) in enumerate(zip(lab.trig, exact)):
            for f, c in zip(floats, values):
                below, above = ((Fraction(f) + Fraction(math.nextafter(f, t))) / 2
                                for t in (-math.inf, math.inf))
                assert exact_sign(c - below) == 1 and exact_sign(c - above) == -1, (d, i, f)


def test_wall_kernels_read_the_wall_table(all_cases):
    # Wall i is x*sin_i - y*cos_i with the constants of lab.trig: its value
    # at (1, 0) is sin_i and at (0, 1) is -cos_i (a zero term is left out
    # of the kernel, whose value is then 0.0 + 0.0, equal to -0.0).
    for d, lab in _labs_by_d(all_cases).items():
        assert lab.point(1.0, 0.0)[0] == tuple(s for s, _ in lab.trig), d
        assert lab.point(0.0, 1.0)[0] == tuple(-c for _, c in lab.trig), d


def test_wall_table_pins_the_exact_halves(all_cases):
    # The constants that math.sin and math.cos of i*pi/d get wrong.
    labs = _labs_by_d(all_cases)
    for d in (2, 4, 6):
        assert repr(labs[d].trig[d // 2][1]) == "0.0", d  # cos(pi/2), not 6.1e-17
    assert labs[6].trig[1][0] == 0.5  # sin(pi/6), not 0.49999999999999994
    assert labs[3].trig[1][1] == labs[6].trig[2][1] == 0.5  # cos(pi/3)
    assert labs[4].trig[1] == (math.sqrt(2) / 2, math.sqrt(2) / 2)  # sin and cos of pi/4


def test_integration_evaluates_each_state_once(monkeypatch, su3):
    # One pass, in the generated step loop: point runs once per stored
    # state, plus once for a state that is rejected at a wall, and its
    # values decide the ending rule's tests and give R at the state, which
    # serves as the next step's k1 stage.  RK4 evaluates R three times per
    # step, at its other stages.  A row is built once per stored state.  The
    # start's point, ending rule and row are the standalone kernels'; the
    # loop's inlined blocks are counted by tracing the lines of the
    # generated source that bind each stage's qd, the new state's qd, test
    # the new state's coordinates, its interior rule (suffix n) and its R
    # and row state part, and store a row.
    define, sources = numerics._define, {}

    def record(source, name):
        sources[name] = source
        return define(source, name)

    monkeypatch.setattr(numerics, "_define", record)
    lab = CaseLab(su3)
    lines = sources["loop"].split("\n")

    def numbers(test):
        return {i for i, line in enumerate(lines, 1) if test(line.strip())}

    blocks = {"R": numbers(lambda line: line.startswith("qd_k")),
              "point": numbers(lambda line: line.startswith("qdn =")),
              "finite": numbers(lambda line: line.startswith("if (xn - xn) + ")),
              "rule": numbers(lambda line: line.startswith("if not (not w0n ")),
              "part": numbers(lambda line: line.startswith("if (rn - rn) + ")),
              "row": numbers(lambda line: line.startswith("put(pack("))}
    assert [len(blocks[name]) for name in ("R", "point", "finite", "rule", "part", "row")] \
        == [3, 1, 1, 1, 1, 2]
    # The step loop tests nothing else but whether it has moved.
    assert numbers(lambda line: line.startswith("if ") and line != "if moved:") == \
        blocks["finite"] | blocks["rule"] | blocks["part"]
    # qd is in R and point, so no other line evaluates it.
    assert numbers(lambda line: line.startswith("qd") and " = 0.0 + " in line) == \
        blocks["R"] | blocks["point"]
    counts = dict.fromkeys(("R", "point", "ending", "row"), 0)

    def counting(name):
        fn = getattr(lab, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in counts:
        setattr(lab, name, counting(name))
    monkeypatch.setattr(numerics, "get_lab", lambda case: lab)
    hits = dict.fromkeys(range(1, len(lines) + 1), 0)

    def trace(frame, event, arg):
        if frame.f_code.co_filename != "<kernel loop>":
            return None

        def line(frame, event, arg):
            if event == "line":
                hits[frame.f_lineno] += 1
            return line
        return line

    sigma = math.pi / 6  # the bisector: heading for the vertex, the 200th step leaves
    for init, step, steps, stop in (
            ((1.0, 0.3, 0.7), 1e-4, 1000, "max_steps"),
            ((0.2 * math.cos(sigma), 0.2 * math.sin(sigma), sigma + math.pi), 1e-3, 200,
             "boundary")):
        counts.update(dict.fromkeys(counts, 0))
        hits.update(dict.fromkeys(hits, 0))
        cfg = IntegratorConfig(step=step, max_steps=1000, mode=MODE_CANDIDATE)
        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            trajectory = integrate_curve(state_from_angle(*init), cfg, su3)
        finally:
            sys.settrace(previous)
        assert trajectory.stop_reason == stop
        stored = len(trajectory.states)
        assert stored == (steps + 1 if stop == "max_steps" else steps)
        evaluated = stored + (stop == "boundary")
        assert counts == {"R": 0, "point": 1, "ending": 1, "row": 1}
        inlined = {name: sum(hits[i] for i in block) for name, block in blocks.items()}
        assert inlined == {"R": 3 * steps, "point": evaluated - 1, "finite": evaluated - 1,
                           "rule": evaluated - 1, "part": stored - 1, "row": stored - 1}


def test_csv_row_template_matches_format_spec(tmp_path):
    # One "%.17g" template per row must write what f"{v:.17g}" writes for
    # every value a row can hold, the special ones included; so must the
    # writer, which formats 64 rows per block from an array of doubles, for
    # a full block, a partial one and both, to a path and to a text object.
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1, -7,
              10**20, 0.1, 1 / 3, -1e300, 2.0**-1074 * 3]
    for start in range(len(values)):
        row = tuple((values * 2)[start:start + 9])
        assert numerics._CSV_ROW % row == ",".join(f"{v:.17g}" for v in row) + "\n"
    path = tmp_path / "rows.csv"
    for count in (1, 64, 65, 130):
        rows = [(values * 2)[i % len(values):i % len(values) + 9] for i in range(count)]
        expected = CSV_HEADER + "\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
        trajectory = Trajectory([], rows, "max_steps")
        buffer = io.StringIO()
        trajectory.write_csv(buffer)
        trajectory.write_csv(path)
        assert buffer.getvalue() == expected
        assert path.read_bytes() == expected.encode()
    # An integrated curve of 151 rows writes the same bytes both ways.
    cfg = IntegratorConfig(step=1e-4, max_steps=150)
    curve = integrate_curve(state_from_angle(1.0, 0.2, 0.3), cfg, registry_case("G2"))
    buffer = io.StringIO()
    curve.write_csv(buffer)
    curve.write_csv(path)
    assert len(curve.rows) == 151
    assert path.read_bytes() == buffer.getvalue().encode()
    # A row of 8 or 10 values raises, as "%" does, rather than shifting the
    # values of the rows after it: here 27 values in all, 3 rows' worth.
    for width in (8, 10):
        rows = [values[:9], values[:width], values[:18 - width]]
        with pytest.raises(TypeError):
            Trajectory([], rows, "max_steps").write_csv(io.StringIO())
