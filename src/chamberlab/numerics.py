"""Floating-point profile-curve laboratory.

Integrates minimal-mode and candidate-mode profile curves in the open chamber
with fixed-step RK4, evaluates the geometric scalars along them, and provides
the finite-difference oracles that cross-validate the symbolic pipeline.

Unit speed is never renormalized: the drift is one of the measured
diagnostics.  Curvatures blow up like 1/w near a wall, so integration stops
at the configured wall tolerance rather than continuing into garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .cases import CaseSpec
from .errors import BoundaryError
from .reduction import build_bundle

MODE_MINIMAL = "minimal"
MODE_CANDIDATE = "biharmonic-candidate"
MODES = (MODE_MINIMAL, MODE_CANDIDATE)

# Tangent rotation rate is coeff * R: the minimal constraint kd = -R gives 1,
# the candidate tangential equation kd = -R/3 gives 1/3.
_MODE_COEFF = {MODE_MINIMAL: 1.0, MODE_CANDIDATE: 1.0 / 3.0}

CSV_HEADER = "s,x,y,xd,yd,f,A2,res_poly,res_ode"


@dataclass
class CurveState:
    """One unit-speed sample of a profile curve in the open chamber."""

    s: float
    x: float
    y: float
    xd: float
    yd: float

    def speed_sq(self) -> float:
        return self.xd * self.xd + self.yd * self.yd


@dataclass
class IntegratorConfig:
    step: float = 1e-4
    max_steps: int = 10000
    wall_epsilon: float = 1e-9
    mode: str = MODE_MINIMAL

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.wall_epsilon <= 0:
            raise ValueError("wall_epsilon must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


class _FloatPoly:
    """A SpatialPoly compiled to double-precision terms."""

    __slots__ = ("terms",)

    def __init__(self, poly):
        self.terms = poly.float_terms()

    def __call__(self, x: float, y: float) -> float:
        return sum(c * x**a * y**b for a, b, c in self.terms)


class CaseLab:
    """Compiled float evaluators for one case's pipeline polynomials."""

    def __init__(self, case: CaseSpec):
        self.case = case
        bundle = build_bundle(case)
        self.bundle = bundle
        self.walls = [_FloatPoly(w) for w in bundle.walls]
        self.qd = _FloatPoly(bundle.qd)
        self.t1 = _FloatPoly(bundle.t1)
        self.t2 = _FloatPoly(bundle.t2)
        self.t3 = _FloatPoly(bundle.t3)
        self.t4 = _FloatPoly(bundle.t4)
        self.t5 = _FloatPoly(bundle.t5)
        self.a_coeffs = [_FloatPoly(a) for a in bundle.a_coeffs]
        self.r_dot_terms = [(p, q, _FloatPoly(poly))
                            for (p, q), poly in bundle.r_dot.num.terms.items()]

    # -- chamber geometry ----------------------------------------------------

    def wall_values(self, x: float, y: float) -> list[float]:
        return [w(x, y) for w in self.walls]

    def inside(self, x: float, y: float, wall_epsilon: float) -> bool:
        """Strict interior test: the canonical sign pattern with a margin.

        In the open chamber the zeroth wall is negative and the others are
        positive.
        """
        values = self.wall_values(x, y)
        if values[0] > -wall_epsilon:
            return False
        return all(v > wall_epsilon for v in values[1:])

    # -- pointwise quantities --------------------------------------------------

    def wall_curvatures(self, st: CurveState) -> list[float]:
        values = self.wall_values(st.x, st.y)
        out = []
        for i, w_val in enumerate(values):
            s, c = _trig_float(self.case.d, i)
            out.append((s * st.yd + c * st.xd) / w_val)
        return out

    def R(self, x: float, y: float, xd: float, yd: float) -> float:
        return (-self.t2(x, y) * xd + self.t1(x, y) * yd) / self.qd(x, y)

    def r_dot_symbolic(self, st: CurveState) -> float:
        """Float evaluation of the exact first arclength derivative of R."""
        q = self.qd(st.x, st.y)
        num = sum(poly(st.x, st.y) * st.xd**p * st.yd**q_exp
                  for p, q_exp, poly in self.r_dot_terms)
        return num / (q * q)

    def volume_log_derivative(self, st: CurveState) -> float:
        """(1/2) d/ds log(volume_sq) evaluated pointwise."""
        return ((self.t1(st.x, st.y) * st.xd + self.t2(st.x, st.y) * st.yd)
                / self.qd(st.x, st.y))

    def cubic_form_value(self, st: CurveState) -> float:
        """A0 xd^3 + A1 xd^2 yd + A2 xd yd^2 + A3 yd^3."""
        total = 0.0
        for j, a in enumerate(self.a_coeffs):
            total += a(st.x, st.y) * st.xd ** (3 - j) * st.yd**j
        return total

    def quadratic_term_value(self, st: CurveState) -> float:
        return (self.t3(st.x, st.y) * st.xd**2
                + self.t4(st.x, st.y) * st.xd * st.yd
                + self.t5(st.x, st.y) * st.yd**2)

    def ode_form_value(self, st: CurveState, r_dot: float, r_ddot: float) -> float:
        """Denominator-cleared normal equation rebuilt from given values of R', R''."""
        q = self.qd(st.x, st.y)
        vol_num = self.t1(st.x, st.y) * st.xd + self.t2(st.x, st.y) * st.yd
        quad_num = self.quadratic_term_value(st)
        r_num = -self.t2(st.x, st.y) * st.xd + self.t1(st.x, st.y) * st.yd
        return q**3 * r_ddot + q * vol_num * (q * r_dot) - quad_num * r_num

    def f_value(self, kd: float, wall_ks: list[float]) -> float:
        """Mean-curvature sum f = kd + sum m_i k_i."""
        return kd + sum(m * k for m, k in zip(self.case.multiplicities, wall_ks))

    def a2_value(self, kd: float, wall_ks: list[float]) -> float:
        """Squared second fundamental form |A|^2 = kd^2 + sum m_i k_i^2."""
        return kd * kd + sum(m * k * k for m, k in zip(self.case.multiplicities, wall_ks))

    def mode_kd(self, mode: str, st: CurveState) -> float:
        """Planar curvature imposed by the active mode's constraint."""
        return -_MODE_COEFF[mode] * self.R(st.x, st.y, st.xd, st.yd)


@lru_cache(maxsize=None)
def _trig_float(d: int, i: int) -> tuple[float, float]:
    angle = i * math.pi / d
    return math.sin(angle), math.cos(angle)


@lru_cache(maxsize=None)
def get_lab(case: CaseSpec) -> CaseLab:
    return CaseLab(case)


def state_from_angle(x0: float, y0: float, angle: float, s0: float = 0.0) -> CurveState:
    """Initial state at (x0, y0) with unit tangent at the given angle."""
    return CurveState(s=s0, x=x0, y=y0, xd=math.cos(angle), yd=math.sin(angle))


# ---------------------------------------------------------------------------
# Pointwise geometric quantities
# ---------------------------------------------------------------------------


def principal_curvatures(st: CurveState, case: CaseSpec, kd: float,
                         wall_epsilon: float = 1e-9) -> list[float]:
    """The d wall curvatures followed by the supplied planar curvature kd.

    Multiplicity m_i attaches to entry i; the final entry has multiplicity 1.
    """
    lab = get_lab(case)
    if not lab.inside(st.x, st.y, wall_epsilon):
        raise BoundaryError(f"state ({st.x}, {st.y}) is not strictly inside the chamber")
    return lab.wall_curvatures(st) + [kd]


def geometric_scalars(st: CurveState, case: CaseSpec, kd: float,
                      mode: str = MODE_CANDIDATE,
                      h_fd: float = 1e-5,
                      wall_epsilon: float = 1e-9) -> tuple[float, float, float]:
    """(f, |A|^2, laplacian of f) at a state, with the supplied kd.

    f and |A|^2 are exact algebra in floats; the laplacian is measured by
    central finite differences of f along the mode's flow, using
    laplacian(f) = -f'' - (volume log-derivative) * f'.
    """
    lab = get_lab(case)
    wall_part = principal_curvatures(st, case, kd, wall_epsilon)[:-1]
    f = lab.f_value(kd, wall_part)
    a2 = lab.a2_value(kd, wall_part)

    def f_at(state: CurveState) -> float:
        return lab.f_value(lab.mode_kd(mode, state), lab.wall_curvatures(state))

    plus = _rk4_step(lab, mode, st, h_fd)
    minus = _rk4_step(lab, mode, st, -h_fd)
    f_mid = f_at(st)
    f_plus = f_at(plus)
    f_minus = f_at(minus)
    f_dot = (f_plus - f_minus) / (2 * h_fd)
    f_ddot = (f_plus - 2 * f_mid + f_minus) / (h_fd * h_fd)
    laplacian = -f_ddot - lab.volume_log_derivative(st) * f_dot
    return f, a2, laplacian


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def _rk4_step(lab: CaseLab, mode: str, st: CurveState, h: float) -> CurveState:
    coeff = _MODE_COEFF[mode]

    def rhs(x, y, xd, yd):
        w = coeff * lab.R(x, y, xd, yd)
        return xd, yd, w * yd, -w * xd

    k1 = rhs(st.x, st.y, st.xd, st.yd)
    k2 = rhs(st.x + 0.5 * h * k1[0], st.y + 0.5 * h * k1[1],
             st.xd + 0.5 * h * k1[2], st.yd + 0.5 * h * k1[3])
    k3 = rhs(st.x + 0.5 * h * k2[0], st.y + 0.5 * h * k2[1],
             st.xd + 0.5 * h * k2[2], st.yd + 0.5 * h * k2[3])
    k4 = rhs(st.x + h * k3[0], st.y + h * k3[1],
             st.xd + h * k3[2], st.yd + h * k3[3])
    sixth = h / 6.0
    return CurveState(
        s=st.s + h,
        x=st.x + sixth * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
        y=st.y + sixth * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
        xd=st.xd + sixth * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
        yd=st.yd + sixth * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]),
    )


def step_minimal(st: CurveState, case: CaseSpec, h: float,
                 wall_epsilon: float = 1e-9) -> CurveState:
    """One RK4 step of the minimal-profile flow (kd = -R enforced pointwise)."""
    return _guarded_step(get_lab(case), MODE_MINIMAL, st, h, wall_epsilon)


def step_candidate(st: CurveState, case: CaseSpec, h: float,
                   wall_epsilon: float = 1e-9) -> CurveState:
    """One RK4 step of the candidate flow (tangential equation kd = -R/3)."""
    return _guarded_step(get_lab(case), MODE_CANDIDATE, st, h, wall_epsilon)


def _guarded_step(lab: CaseLab, mode: str, st: CurveState, h: float,
                  wall_epsilon: float) -> CurveState:
    if not lab.inside(st.x, st.y, wall_epsilon):
        raise BoundaryError(f"state ({st.x}, {st.y}) is not strictly inside the chamber")
    nxt = _rk4_step(lab, mode, st, h)
    if not lab.inside(nxt.x, nxt.y, wall_epsilon):
        raise BoundaryError(f"step from s={st.s} crossed a chamber wall")
    return nxt


def normal_residual(st: CurveState, case: CaseSpec,
                    h_fd: float = 1e-5) -> tuple[float, float]:
    """(cubic-form value, denominator-cleared normal equation via FD) at a state.

    The first number evaluates the assembled velocity-cubic coefficients; the
    second reconstructs the same quantity from the candidate flow, taking the
    first and second arclength derivatives of R by central finite differences.
    Agreement is limited by the finite differencing, not the algebra.
    """
    lab = get_lab(case)
    poly_value = lab.cubic_form_value(st)
    plus = _rk4_step(lab, MODE_CANDIDATE, st, h_fd)
    minus = _rk4_step(lab, MODE_CANDIDATE, st, -h_fd)
    r_mid = lab.R(st.x, st.y, st.xd, st.yd)
    r_plus = lab.R(plus.x, plus.y, plus.xd, plus.yd)
    r_minus = lab.R(minus.x, minus.y, minus.xd, minus.yd)
    r_dot = (r_plus - r_minus) / (2 * h_fd)
    r_ddot = (r_plus - 2 * r_mid + r_minus) / (h_fd * h_fd)
    return poly_value, lab.ode_form_value(st, r_dot, r_ddot)


@dataclass
class Trajectory:
    """Uniformly sampled integration output plus diagnostics."""

    case: CaseSpec
    mode: str
    step: float
    states: list[CurveState]
    rows: list[tuple]
    stop_reason: str
    max_abs_f: float
    speed_drift: float
    residual_pairs: list[tuple[float, float]] = field(default_factory=list)

    def write_csv(self, target) -> None:
        """Write rows as CSV with 17-significant-digit floats."""
        own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
        fh = open(target, "w", encoding="utf-8") if own else target
        try:
            fh.write(CSV_HEADER + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        finally:
            if own:
                fh.close()


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def integrate_curve(init: CurveState, cfg: IntegratorConfig,
                    case: CaseSpec) -> Trajectory:
    """Integrate from init until max_steps or a wall stop; compute diagnostics.

    The f column is measured: the planar curvature is reconstructed from
    central differences of the integrated tangent, so deviations expose
    integrator error instead of being hidden by the mode constraint.  At the
    endpoints (no neighbors) the mode constraint value is used.  res_ode needs
    the same neighbors and is NaN at the endpoints.
    """
    lab = get_lab(case)
    if not lab.inside(init.x, init.y, cfg.wall_epsilon):
        raise BoundaryError(
            f"initial state ({init.x}, {init.y}) is not strictly inside the chamber")
    states = [init]
    stop_reason = "max_steps"
    st = init
    for _ in range(cfg.max_steps):
        nxt = _rk4_step(lab, cfg.mode, st, cfg.step)
        if not lab.inside(nxt.x, nxt.y, cfg.wall_epsilon):
            stop_reason = "boundary"
            break
        states.append(nxt)
        st = nxt

    r_values = [lab.R(s.x, s.y, s.xd, s.yd) for s in states]
    n = len(states)
    h = cfg.step
    rows = []
    residual_pairs = []
    max_abs_f = 0.0
    speed_drift = 0.0
    for idx, s in enumerate(states):
        speed_drift = max(speed_drift, abs(s.speed_sq() - 1.0))
        interior = 0 < idx < n - 1
        if interior:
            xdd = (states[idx + 1].xd - states[idx - 1].xd) / (2 * h)
            ydd = (states[idx + 1].yd - states[idx - 1].yd) / (2 * h)
            kd = ydd * s.xd - xdd * s.yd
        else:
            kd = lab.mode_kd(cfg.mode, s)
        wall_ks = lab.wall_curvatures(s)
        f = lab.f_value(kd, wall_ks)
        a2 = lab.a2_value(kd, wall_ks)
        if interior:
            max_abs_f = max(max_abs_f, abs(f))
        res_poly = lab.cubic_form_value(s)
        if interior:
            r_dot = (r_values[idx + 1] - r_values[idx - 1]) / (2 * h)
            r_ddot = (r_values[idx + 1] - 2 * r_values[idx] + r_values[idx - 1]) / (h * h)
            res_ode = lab.ode_form_value(s, r_dot, r_ddot)
            residual_pairs.append((res_poly, res_ode))
        else:
            res_ode = float("nan")
        rows.append((s.s, s.x, s.y, s.xd, s.yd, f, a2, res_poly, res_ode))

    return Trajectory(case=case, mode=cfg.mode, step=cfg.step, states=states,
                      rows=rows, stop_reason=stop_reason, max_abs_f=max_abs_f,
                      speed_drift=speed_drift, residual_pairs=residual_pairs)
