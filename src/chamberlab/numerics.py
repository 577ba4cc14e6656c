"""Floating-point profile-curve laboratory.

Integrates minimal-mode and candidate-mode profile curves in the open chamber
with fixed-step RK4, evaluates the geometric scalars along them, and provides
the finite-difference oracles that cross-validate the symbolic pipeline.

Unit speed is never renormalized: the drift is one of the measured
diagnostics.  Curvatures blow up like 1/w near a wall, so integration stops
within WALL_EPSILON of a wall rather than continuing into garbage.

Each case's polynomials are compiled once into straight-line kernels
(:class:`CaseLab`): R, the per-state values (walls, qd, t1..t5, A0..A3),
the ending rule of :func:`integrate_curve` and a trajectory row, both from
those values, and the whole step loop of :func:`integrate_curve`.  One
source-line generator per formula writes both the standalone kernels and
the blocks inlined in the loop, so they round alike.  The row kernel is the
lab's one implementation of f, |A|^2 and the two residuals: the pointwise
oracles :func:`normal_residual` and :func:`geometric_scalars` read them off
a row at the state, and step on plain floats through :func:`_rk4`, which
calls the R kernel for its stages.  :func:`integrate_curve` is one pass in
the loop kernel, which inlines RK4's three R stages: each new state's
values are computed once and serve its ending rule, its R and its row,
which is packed one step behind the integration straight into the
trajectory's array.  The loop decides how a curve ends and stores its
endpoint row.  A :class:`Trajectory` holds the states, the rows and the
stop reason; its summary values are read off them.  An integrated trajectory
keeps each row's 9 values in one array of doubles, and its ``states`` and
``rows`` are read-only list-like views of it: state i is
``CurveState(*data[9i:9i + 5])`` and row i the 9-tuple.  So ``states[0]``
is rebuilt from the array rather than being the start state, and an int
field of the start reads back as a float; the CSV text does not change,
since ``%.17g`` prints 0 and 0.0 alike.  :meth:`Trajectory.write_csv`
formats the rows 64 at a time straight from that array, with the same
bytes as formatting them one at a time.

Evaluation order is part of the output.  The kernels use only IEEE-754
``+``, ``-``, ``*`` and ``/``, each correctly rounded, and never ``**``,
which calls the C maths library's ``pow`` (libm), whose rounding differs
from one libm to the next.  Kernel contract (see :func:`_poly_lines`): each
power is the product of two smaller ones, x**k = x**(k - k//2) * x**(k//2),
and each monomial x**a * y**b the x power times the y power, each computed
once per call and shared by every polynomial of the kernel; a polynomial's
value is ``0.0 + c_0 * m_0 + c_1 * m_1 + ...`` over its terms in order
(``Form.float_terms``, and for the walls the constants of
:attr:`CaseLab.trig`), left to right.  A value out of float range is +-inf
or NaN, as in any IEEE-754 expression, and no kernel raises but on a
division by zero.  The loop kernel keeps this contract and the order of
every other operation, so its trajectories are byte for byte those of
stepping with :func:`_rk4` and the per-state kernels.  Every other float
sum here is an explicit left-to-right expression or loop rather
than builtin ``sum``, which compensates on Python 3.12+.  So from a given
start state a trajectory's CSV bytes are the same on every platform whose
floats are IEEE-754 binary64, whatever its libm and Python version: they
depend only on the float coefficients, each the double nearest its exact
value.  :func:`state_from_angle` calls libm's ``cos`` and ``sin``, so a
start given by an angle is the one place libm still enters.
"""

from __future__ import annotations

import math
from collections.abc import Callable, MutableSequence, Sequence
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from .cases import CaseSpec
from .errors import BoundaryError
from .reduction import build_bundle, wall_trig

MODE_MINIMAL = "minimal"
MODE_CANDIDATE = "biharmonic-candidate"
MODES = (MODE_MINIMAL, MODE_CANDIDATE)

# Tangent rotation rate is coeff * R: the minimal constraint kd = -R gives 1,
# the candidate tangential equation kd = -R/3 gives 1/3.
_MODE_COEFF = {MODE_MINIMAL: 1.0, MODE_CANDIDATE: 1.0 / 3.0}

CSV_HEADER = "s,x,y,xd,yd,f,A2,res_poly,res_ode"

# A state is inside the chamber when every wall value clears the wall by more
# than this margin.
WALL_EPSILON = 1e-9


class CurveState(NamedTuple):
    """One unit-speed sample of a profile curve in the open chamber."""

    s: float
    x: float
    y: float
    xd: float
    yd: float


def _check_step(name: str, h: float) -> None:
    # The finite differences divide by h * h, which is 0.0 below about 1e-162.
    if not (math.isfinite(h) and h > 0 and h * h > 0):
        raise ValueError(f"{name} must be positive and finite with a nonzero square, got {h}")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")


class _IntegratorFields(NamedTuple):
    step: float = 1e-4
    max_steps: int = 10000
    mode: str = MODE_MINIMAL


class IntegratorConfig(_IntegratorFields):
    """RK4 step size, step budget and mode; every way of building one,
    ``_replace`` and ``_make`` included, raises ValueError on a bad value."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        _check_step("step", cfg.step)
        if type(cfg.max_steps) is not int or cfg.max_steps < 0:
            raise ValueError(f"max_steps must be a non-negative int, got {cfg.max_steps!r}")
        _check_mode(cfg.mode)
        return cfg

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _kernel(name: str, args: tuple[str, ...], polys: dict[str, list], result: str) -> Callable:
    """Compile polynomials in (x, y) into one straight-line function of one point.

    ``polys`` maps a local name to the terms ``(a, b, c)``, c a float, of a
    polynomial in the first two of ``args``.  The function binds each
    polynomial's value to its name (:func:`_poly_lines`) and returns
    ``result``, an expression over those names and ``args``.
    """
    return _function(name, args, [*_poly_lines(args[0], args[1], polys), f"return {result}"])


def _poly_lines(x: str, y: str, polys: dict[str, list], sfx: str = "") -> list[str]:
    """Source lines that bind each polynomial of ``polys`` in (``x``, ``y``)
    to its name followed by ``sfx``.

    Evaluation-order contract, with IEEE-754 ``+`` and ``*`` only, each
    correctly rounded: the powers and monomials are those of
    :func:`_products`, each computed once per block and shared by every
    polynomial, and with ``(a_k, b_k, c_k)`` the terms in order a
    polynomial's value is ``0.0 + c_0 * m_0 + c_1 * m_1 + ...`` left to
    right, ``m_k`` the monomial ``x**a_k * y**b_k`` (a constant term is
    ``c_k`` alone).  So it rounds as the plain left-to-right loop of these
    products does, on any Python version (builtin ``sum`` of floats
    compensates since 3.12) and any libm.  A zero polynomial's value is 0.0.
    Each coefficient enters the source as its ``repr``, which reads back as
    the same float; ``inf`` is a global.  A value out of float range is
    +-inf or NaN, as IEEE-754 arithmetic makes it; the lines raise nothing.
    """
    lines, factor = _products(x, y, {(a, b) for terms in polys.values() for a, b, _ in terms})
    lines.extend(f"{local}{sfx} = {_sum(f'{c!r}{factor[a, b]}' for a, b, c in terms)}"
                 for local, terms in polys.items())
    return lines


def _power_lines(var: str, top: int) -> list[str]:
    """Source lines that bind ``var_<k>`` to the power var**k for k = 2 ..
    ``top``, each the product of two smaller ones by one rule, x**k =
    x**(k - k//2) * x**(k//2) with x**1 the variable itself.  A power out of
    float range is +-inf, where ``**`` would raise OverflowError.
    """
    return [f"{var}_{k} = {_power(var, k - k // 2)} * {_power(var, k // 2)}"
            for k in range(2, top + 1)]


def _power(var: str, k: int) -> str:
    return var if k == 1 else f"{var}_{k}"


def _products(x: str, y: str, monomials) -> tuple[list[str], dict]:
    """Source lines that bind the powers of ``x`` and ``y`` (see
    :func:`_power_lines`) and each monomial x**a * y**b with a, b > 0 of
    ``monomials`` to ``<x>_<a>_<y>_<b>``, the x power times the y power; and
    the factor text of each monomial in a term, ``" * <name>"``, or ``""``
    for (0, 0).  The names derive from the variables' own, so blocks over
    different variables share a function without clashing."""
    lines = (_power_lines(x, max((a for a, _ in monomials), default=0))
             + _power_lines(y, max((b for _, b in monomials), default=0)))
    factor = {}
    for a, b in sorted(monomials):
        if a and b:
            lines.append(f"{x}_{a}_{y}_{b} = {_power(x, a)} * {_power(y, b)}")
            factor[a, b] = f" * {x}_{a}_{y}_{b}"
        else:
            factor[a, b] = f" * {_power(x, a)}" if a else f" * {_power(y, b)}" if b else ""
    return lines, factor


def _sum(terms) -> str:
    """The text ``0.0 + term_0 + term_1 + ...`` of term texts, so a sum of
    floats starts from 0.0 and runs left to right."""
    return "0.0" + "".join(f" + {term}" for term in terms)


def _function(name: str, args, body: list[str]) -> Callable:
    """Compile ``def name(*args):`` over the body lines (see :func:`_define`)."""
    return _define("\n    ".join([f"def {name}({', '.join(args)}):", *body]), name)


def _define(source: str, name: str) -> Callable:
    """Run source text that defines function ``name``; return the function.

    The source sees no builtins, and as its globals only ``inf``, ``nan`` and
    ``ZeroDivisionError``.
    """
    namespace = {"__builtins__": {}, "inf": math.inf, "nan": math.nan,
                 "ZeroDivisionError": ZeroDivisionError}
    exec(compile(source, f"<kernel {name}>", "exec"), namespace)
    return namespace[name]


def _r_num(sfx: str, xd: str, yd: str) -> str:
    """The text of the curvature sum's numerator -t2 xd + t1 yd at a state
    whose t1, t2 are bound with suffix ``sfx``; R is it over qd."""
    return f"-t2{sfx} * {xd} + t1{sfx} * {yd}"


class CaseLab:
    """Compiled float kernels for one case's pipeline polynomials.

    - ``trig``: the one wall table, ``(sin_i, cos_i)`` of i*pi/d, the nearest
      doubles ``(sqrt(k)/2, sign*sqrt(4 - k)/2)`` from ``wall_trig`` (math.sqrt
      rounds correctly, halving is exact).  Wall i is ``x*sin_i - y*cos_i``;
      ``row`` and :func:`principal_curvatures` read its curvature constants here;
    - ``R(x, y, xd, yd)``: the curvature sum (-t2 xd + t1 yd) / qd;
    - ``point(x, y)``: ``((w_0, ..., w_{d-1}), qd, t1, ..., t5, A0, ..., A3)``;
    - ``ending(x, y, xd, yd, values)``: the ending rule of
      :func:`integrate_curve` at a state with ``point``'s ``values`` there
      (:func:`_ending_lines`): None when a curve takes the state, else the
      stop reason, ``'overflow'`` or ``'boundary'``.  Its interior test is
      the canonical sign pattern with the margin WALL_EPSILON (the zeroth
      wall negative, the others positive);
    - ``row(s, x, y, xd, yd, values, kd, r_dot, r_ddot)``: a trajectory's CSV
      row ``(s, x, y, xd, yd, f, |A|^2, res_poly, res_ode)`` at a state from
      ``point``'s ``values`` there, the planar curvature kd and the arclength
      derivatives of R; at an endpoint ``r_dot`` is None and res_ode is NaN.
      The d wall curvatures k_i = (sin_i yd + cos_i xd) / w_i are unrolled
      with ``trig`` and the multiplicities baked in: f = kd + sum m_i k_i,
      |A|^2 = kd^2 + sum m_i k_i^2, res_poly = A0 xd^3 + ... + A3 yd^3 and
      res_ode the denominator-cleared normal equation from the given R',
      R'' (:func:`_row_lines`).  This is the only code that computes them;
    - ``loop``: :func:`integrate_curve`'s whole step loop (:func:`_loop_lines`),
      in which RK4's three R stages, ``point`` at each new state, the
      ending rule and the row are inlined with their own name suffixes
      from the source-line generators of the kernels above, one per
      formula, so they round as those kernels do, bit for bit.
    """

    def __init__(self, case: CaseSpec):
        self.case = case
        bundle = build_bundle(case)
        self.trig = tuple((math.sqrt(k) / 2, sign * math.sqrt(4 - k) / 2)
                          for k, sign in wall_trig(case.d))
        walls = {f"w{i}": [(a, b, c) for a, b, c in ((1, 0, sin_i), (0, 1, -cos_i)) if c]
                 for i, (sin_i, cos_i) in enumerate(self.trig)}
        t = {name: poly.float_terms() for name, poly in
             zip(("qd", "t1", "t2", "t3", "t4", "t5"), (bundle.dense_qd, *bundle.dense_t))}
        a = {f"a{j}": bundle.dense_a.float_terms(j) for j in range(4)}
        curvature = {"t1": t["t1"], "t2": t["t2"], "qd": t["qd"]}
        values = {**walls, **t, **a}
        wall_names = ", ".join(walls) + ","
        self.R = _kernel("R", ("x", "y", "xd", "yd"), curvature,
                         f"({_r_num('', 'xd', 'yd')}) / qd")
        self.point = _kernel("point", ("x", "y"), values,
                             f"(({wall_names}), qd, t1, t2, t3, t4, t5, a0, a1, a2, a3)")
        unpack = f"({wall_names}), qd, t1, t2, t3, t4, t5, a0, a1, a2, a3 = values"
        row = _row_lines(self.trig, case.multiplicities)
        self.ending = _function("ending", ("x", "y", "xd", "yd", "values"), [
            unpack, *_ending_lines(case.d, row, "x", "y", "xd", "yd", "",
                                   lambda stop: [f"return {stop!r}"])])
        self.row = _function("row", _ROW_ARGS, [
            unpack,
            f"rnum = {_r_num('', 'xd', 'yd')}",
            *row("xd", "yd", ""),
            f"if r_dot is None: return {_ROW_HEAD}, nan)",
            f"return {_ROW_HEAD}, {_RES_ODE})"])
        self.loop = _function("loop", _LOOP_ARGS, _loop_lines(case.d, curvature, values, row))
        # CPython 3.11 specializes a function's bytecode from its eighth call
        # on, and a curve calls loop once: eight calls of no step let the
        # first curve run specialized, 30% faster there.
        for _ in range(8):
            self.loop(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0, None, None)


def _interior_rule(d: int, sfx: str) -> str:
    """The strict interior test on the d wall values bound with suffix
    ``sfx``: the zeroth below -WALL_EPSILON (or NaN), the others above it."""
    return " and ".join([f"not w0{sfx} > -{WALL_EPSILON!r}"]
                        + [f"w{i}{sfx} > {WALL_EPSILON!r}" for i in range(1, d)])


def _ending_lines(d: int, row: Callable, x: str, y: str, xd: str, yd: str, sfx: str,
                  end: Callable[[str], list[str]]) -> list[str]:
    """Source lines of the ending rule of :func:`integrate_curve` at the
    state (x, y, xd, yd) of d walls, whose ``point`` values are bound with
    suffix ``sfx``, in the rule's order: a coordinate that is not finite is
    an overflow, a state outside the chamber (:func:`_interior_rule`) a
    wall stop, and an R or a row state part (``row``, :func:`_row_lines`)
    that is not finite an overflow.  The lines ``end(stop)`` run on each.
    The lines bind ``rnum``, ``r`` = R and the state part, each with that
    suffix.
    """
    def test(condition: str, stop: str) -> list[str]:
        return [f"if {condition}:", *(f"    {line}" for line in end(stop))]

    return [*test(f"{_residue((x, y, xd, yd))} != 0.0", "overflow"),
            *test(f"not ({_interior_rule(d, sfx)})", "boundary"),
            f"rnum{sfx} = {_r_num(sfx, xd, yd)}",
            f"r{sfx} = rnum{sfx} / qd{sfx}",
            *row(xd, yd, sfx),
            *test(f"{_residue(f'{v}{sfx}' for v in _STATE_PART)} != 0.0", "overflow")]


def _residue(names) -> str:
    """The text of the sum of ``v - v`` over the named values: 0.0 when
    every value is finite, NaN when one is +-inf or NaN."""
    return " + ".join(f"({v} - {v})" for v in names)


# R and the values of a row's state part (see _row_lines) at a state.
_STATE_PART = ("r", "f", "asq", "poly", "qv", "qr")


def _row_lines(trig, multiplicities) -> Callable:
    """The source-line generator of a row's state part, from the wall table
    ``trig`` and the multiplicities: ``lines(xd, yd, sfx)`` binds, from the
    values of ``point`` and ``rnum`` (:func:`_r_num`) bound with suffix
    ``sfx`` at a state with tangent (xd, yd), ``f`` = sum m_i k_i, ``asq`` =
    sum m_i k_i^2, ``poly`` = res_poly and the products ``qv`` = qd (t1 xd +
    t2 yd) and ``qr`` = (t3 xd^2 + t4 xd yd + t5 yd^2) * rnum of res_ode,
    each with that suffix.  The row is then :data:`_ROW_HEAD` and, at an
    interior state, :data:`_RES_ODE`.

    k_i keeps both terms, even one whose constant is 0.0.  The constants enter
    the source as ``repr`` text, which reads back as the same float; an int
    multiplicity m becomes float(m), with the same products.  The cubic
    A0 xd^3 + ... + A3 yd^3 and the quadratic t3 xd^2 + t4 xd yd + t5 yd^2
    follow :func:`_poly_lines`'s rule in (xd, yd), with one set of monomials,
    and qd^3 in :data:`_RES_ODE` is qd * qd * qd, the product rule's
    qd^2 * qd.
    """
    multiplicities = [float(m) for m in multiplicities]
    cubic, quadratic = ((3, 0), (2, 1), (1, 2), (0, 3)), ((2, 0), (1, 1), (0, 2))

    def lines(xd: str, yd: str, sfx: str) -> list[str]:
        products, factor = _products(xd, yd, {*cubic, *quadratic})
        return [
            *(f"k{i}{sfx} = ({sin_i!r} * {yd} + {cos_i!r} * {xd}) / w{i}{sfx}"
              for i, (sin_i, cos_i) in enumerate(trig)),
            f"f{sfx} = {_sum(f'{m!r} * k{i}{sfx}' for i, m in enumerate(multiplicities))}",
            f"asq{sfx} = "
            f"{_sum(f'{m!r} * k{i}{sfx} * k{i}{sfx}' for i, m in enumerate(multiplicities))}",
            *products,
            f"poly{sfx} = {_sum(f'a{j}{sfx}{factor[m]}' for j, m in enumerate(cubic))}",
            f"qv{sfx} = qd{sfx} * (t1{sfx} * {xd} + t2{sfx} * {yd})",
            f"qr{sfx} = ({_sum(f't{3 + j}{sfx}{factor[m]}' for j, m in enumerate(quadratic))})"
            f" * rnum{sfx}",
        ]
    return lines


# A row at the state (s, x, y, xd, yd) from its state part (see _row_lines)
# and the planar curvature kd, less its last value; at an interior state
# res_ode, from R' and R'' as r_dot and r_ddot.
_ROW_ARGS = ("s", "x", "y", "xd", "yd", "values", "kd", "r_dot", "r_ddot")
_ROW_HEAD = "(s, x, y, xd, yd, kd + f, kd * kd + asq, poly"
_RES_ODE = "qd * qd * qd * r_ddot + qv * (qd * r_dot) - qr"

_LOOP_ARGS = ("s", "x", "y", "xd", "yd", "r", "h", "coeff", "steps", "put", "pack")
# The values that the state part of a row binds at a new state, carried to
# the current one.
_CARRIED = ("x", "y", "xd", "yd", "r", "f", "asq", "poly", "qd", "qv", "qr")


def _loop_lines(d: int, curvature: dict, values: dict, row: Callable) -> list[str]:
    """Body lines of :attr:`CaseLab.loop`, :func:`integrate_curve`'s step loop.

    ``loop(s, x, y, xd, yd, r, h, coeff, steps, put, pack)`` runs up to
    ``steps`` RK4 steps of size h from a start state that the ending rule
    takes, with R there ``r``, whose row the caller has stored.  Each step
    is :func:`_rk4`'s arithmetic with the three R stages inlined
    (``_poly_lines`` with suffixes ``_k2``, ``_k3``, ``_k4``); then
    ``point`` at the new state and the ending rule there
    (:func:`_ending_lines`, suffix ``n``), which binds its R and row state
    part.  Once the rule takes the new state, the current state's interior
    row is packed as 9 doubles by ``pack`` and appended by ``put``, and the
    new state becomes the current one, so no stored row changes.

    Every ending leaves the loop, which stores the current state's endpoint
    row unless it is the start and returns the stop reason: max_steps, the
    rule's, or boundary when an RK4 stage divides by a qd of 0.0, as only a
    stage on a wall does.
    """
    def stage(k: int, step: str, prev: str) -> list[str]:
        """RK4 stage k: the state moved by ``step`` along the velocities of
        stage k - 1, whose variables end in ``prev``, and its R block."""
        x, y, xd, yd = (f"{v}{k}" for v in ("x", "y", "xd", "yd"))
        return [f"{x} = x + {step} * xd{prev}", f"{y} = y + {step} * yd{prev}",
                f"{xd} = xd + {step} * a{k - 1}", f"{yd} = yd + {step} * b{k - 1}",
                *_poly_lines(x, y, curvature, f"_k{k}"),
                f"w = coeff * (({_r_num(f'_k{k}', xd, yd)}) / qd_k{k})",
                f"a{k} = w * {yd}", f"b{k} = -w * {xd}"]

    return [
        "half = 0.5 * h", "sixth = h / 6.0", "h2 = 2 * h", "hh = h * h",
        "moved = False", "stop = 'max_steps'",
        "while steps > 0:",
        "    steps -= 1",
        "    try:",
        *(f"        {line}" for line in [
            "w = coeff * r", "a1 = w * yd", "b1 = -w * xd",
            *stage(2, "half", ""), *stage(3, "half", "2"), *stage(4, "h", "3"),
            "xn = x + sixth * (xd + 2.0 * xd2 + 2.0 * xd3 + xd4)",
            "yn = y + sixth * (yd + 2.0 * yd2 + 2.0 * yd3 + yd4)",
            "xdn = xd + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)",
            "ydn = yd + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)"]),
        "    except ZeroDivisionError:",
        "        stop = 'boundary'",
        "        break",
        *(f"    {line}" for line in [
            *_poly_lines("xn", "yn", values, "n"),
            *_ending_lines(d, row, "xn", "yn", "xdn", "ydn", "n",
                           lambda stop: [f"stop = {stop!r}", "break"])]),
        "    if moved:",
        "        kd = (ydn - ydp) / h2 * xd - (xdn - xdp) / h2 * yd",
        "        r_dot = (rn - rp) / h2",
        "        r_ddot = (rn - 2.0 * r + rp) / hh",
        f"        put(pack{_ROW_HEAD}, {_RES_ODE}))",
        "    s += h",
        "    moved = True",
        "    xdp = xd", "    ydp = yd", "    rp = r",
        *(f"    {name} = {name}n" for name in _CARRIED),
        "if moved:",
        "    kd = -coeff * r",
        f"    put(pack{_ROW_HEAD}, nan))",
        "return stop",
    ]


@lru_cache(maxsize=None)
def get_lab(case: CaseSpec) -> CaseLab:
    return CaseLab(case)


def state_from_angle(x0: float, y0: float, angle: float) -> CurveState:
    """Initial state at (x0, y0) with unit tangent at the given angle, all finite."""
    if not all(map(math.isfinite, (x0, y0, angle))):
        raise ValueError(f"x0, y0 and angle must be finite, got {x0}, {y0}, {angle}")
    return CurveState(s=0.0, x=x0, y=y0, xd=math.cos(angle), yd=math.sin(angle))


# ---------------------------------------------------------------------------
# Pointwise geometric quantities
# ---------------------------------------------------------------------------


def _taken(lab: CaseLab, x, y, xd, yd, where: str,
           outside: str = "is not strictly inside the chamber") -> tuple:
    """``point``'s values at the state (x, y, xd, yd) if the ending rule of
    :func:`integrate_curve` takes it; else BoundaryError, whose message is
    ``where`` and the point, then ``outside`` for a state outside the
    chamber, or else that it overflows the lab's float range."""
    values = lab.point(x, y)
    stop = lab.ending(x, y, xd, yd, values)
    if stop:
        reason = outside if stop == "boundary" else "overflows the lab's float range"
        raise BoundaryError(f"{where} ({x}, {y}) {reason}")
    return values


def _r(values, xd: float, yd: float) -> float:
    """R at a state with tangent (xd, yd) from ``point``'s values there,
    bit for bit the R kernel's value."""
    return (-values[3] * xd + values[2] * yd) / values[1]


def principal_curvatures(st: CurveState, case: CaseSpec, kd: float) -> list[float]:
    """The d wall curvatures (sin_i yd + cos_i xd) / w_i followed by the
    supplied planar curvature kd.

    Multiplicity m_i attaches to entry i; the final entry has multiplicity 1.
    BoundaryError unless the ending rule takes the state.
    """
    lab = get_lab(case)
    values = _taken(lab, st.x, st.y, st.xd, st.yd, "state")
    return [(s * st.yd + c * st.xd) / w for (s, c), w in zip(lab.trig, values[0])] + [kd]


def geometric_scalars(st: CurveState, case: CaseSpec, kd: float,
                      mode: str = MODE_CANDIDATE,
                      h_fd: float = 1e-5) -> tuple[float, float, float]:
    """(f, |A|^2, laplacian of f) at a state, with the supplied kd.

    f and |A|^2 are columns 5 and 6 of the row kernel at the state.  The
    laplacian is measured by central finite differences of f, column 5 with
    the mode's kd = -coeff * R, along the mode's flow, using
    laplacian(f) = -f'' - (volume log-derivative) * f'.  BoundaryError
    unless the ending rule takes the state and its two RK4 neighbours at
    +-h_fd, each stage off the walls (:func:`_step_inside`).
    """
    _check_step("h_fd", h_fd)
    _check_mode(mode)
    lab = get_lab(case)
    values = _taken(lab, st.x, st.y, st.xd, st.yd, "state")
    f, a2 = lab.row(st.s, st.x, st.y, st.xd, st.yd, values, kd, None, None)[5:7]
    coeff, r_mid = _MODE_COEFF[mode], lab.R(st.x, st.y, st.xd, st.yd)

    def f_at(state, v):
        x, y, xd, yd = state
        return lab.row(st.s, x, y, xd, yd, v, -coeff * _r(v, xd, yd), None, None)[5]

    f_mid = lab.row(st.s, st.x, st.y, st.xd, st.yd, values, -coeff * r_mid, None, None)[5]
    f_plus = f_at(*_step_inside(lab, coeff, h_fd, st, r_mid))
    f_minus = f_at(*_step_inside(lab, coeff, -h_fd, st, r_mid))
    f_dot = (f_plus - f_minus) / (2 * h_fd)
    f_ddot = (f_plus - 2 * f_mid + f_minus) / (h_fd * h_fd)
    q, t1, t2 = values[1:4]
    laplacian = -f_ddot - (t1 * st.xd + t2 * st.yd) / q * f_dot
    return f, a2, laplacian


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def _rk4(R: Callable, coeff: float, h: float, x: float, y: float, xd: float, yd: float,
         r0: float) -> tuple[float, float, float, float]:
    """One RK4 step of the flow x' = xd, y' = yd, xd' = w yd, yd' = -w xd with
    w = coeff * R, whose k1 stage uses r0, the value of R at the start."""
    half = 0.5 * h
    w = coeff * r0
    a1, b1 = w * yd, -w * xd
    x2, y2, xd2, yd2 = x + half * xd, y + half * yd, xd + half * a1, yd + half * b1
    w = coeff * R(x2, y2, xd2, yd2)
    a2, b2 = w * yd2, -w * xd2
    x3, y3, xd3, yd3 = x + half * xd2, y + half * yd2, xd + half * a2, yd + half * b2
    w = coeff * R(x3, y3, xd3, yd3)
    a3, b3 = w * yd3, -w * xd3
    x4, y4, xd4, yd4 = x + h * xd3, y + h * yd3, xd + h * a3, yd + h * b3
    w = coeff * R(x4, y4, xd4, yd4)
    a4, b4 = w * yd4, -w * xd4
    sixth = h / 6.0
    return (x + sixth * (xd + 2.0 * xd2 + 2.0 * xd3 + xd4),
            y + sixth * (yd + 2.0 * yd2 + 2.0 * yd3 + yd4),
            xd + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
            yd + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4))


def step_minimal(st: CurveState, case: CaseSpec, h: float) -> CurveState:
    """One RK4 step of the minimal-profile flow (kd = -R enforced pointwise)."""
    return _guarded_step(get_lab(case), MODE_MINIMAL, st, h)


def step_candidate(st: CurveState, case: CaseSpec, h: float) -> CurveState:
    """One RK4 step of the candidate flow (tangential equation kd = -R/3)."""
    return _guarded_step(get_lab(case), MODE_CANDIDATE, st, h)


def _guarded_step(lab: CaseLab, mode: str, st: CurveState, h: float) -> CurveState:
    """The step of :func:`_step_inside` from a state that the ending rule
    takes; BoundaryError as there, or when the rule does not take st."""
    values = _taken(lab, st.x, st.y, st.xd, st.yd, "state")
    nxt, _ = _step_inside(lab, _MODE_COEFF[mode], h, st, _r(values, st.xd, st.yd))
    return CurveState(st.s + h, *nxt)


def _step_inside(lab: CaseLab, coeff: float, h: float, st: CurveState,
                 r0: float) -> tuple[tuple, tuple]:
    """:func:`_rk4`'s step of size h from st, with R there r0, and ``point``'s
    values at the new state; BoundaryError when a stage lands on a wall,
    where qd is 0.0, or the ending rule does not take the new state."""
    try:
        nxt = _rk4(lab.R, coeff, h, st.x, st.y, st.xd, st.yd, r0)
    except ZeroDivisionError:
        raise BoundaryError(f"an RK4 stage from s={st.s} lies on a chamber wall") from None
    return nxt, _taken(lab, *nxt, f"step of {h} from s={st.s} to", "crossed a chamber wall")


def normal_residual(st: CurveState, case: CaseSpec,
                    h_fd: float = 1e-5) -> tuple[float, float]:
    """(cubic-form value, denominator-cleared normal equation via FD) at a state.

    The first number evaluates the assembled velocity-cubic coefficients; the
    second reconstructs the same quantity from the candidate flow, taking the
    first and second arclength derivatives of R by central finite differences.
    Both are the row kernel's res_poly and res_ode (columns 7 and 8) at the
    state.  Agreement is limited by the finite differencing, not the algebra.
    BoundaryError unless the ending rule takes the state and its two RK4
    neighbours at +-h_fd, each stage off the walls (:func:`_step_inside`).
    """
    _check_step("h_fd", h_fd)
    lab = get_lab(case)
    values = _taken(lab, st.x, st.y, st.xd, st.yd, "state")
    coeff, r_mid = _MODE_COEFF[MODE_CANDIDATE], lab.R(st.x, st.y, st.xd, st.yd)
    def r_at(state, v):
        return _r(v, state[2], state[3])

    r_plus = r_at(*_step_inside(lab, coeff, h_fd, st, r_mid))
    r_minus = r_at(*_step_inside(lab, coeff, -h_fd, st, r_mid))
    r_dot = (r_plus - r_minus) / (2 * h_fd)
    r_ddot = (r_plus - 2 * r_mid + r_minus) / (h_fd * h_fd)
    row = lab.row(st.s, st.x, st.y, st.xd, st.yd, values, -coeff * r_mid, r_dot, r_ddot)
    return row[7], row[8]


# The values in a trajectory row, and one CSV row of them: 9 floats (or
# ints) at 17 significant digits, as f"{v:.17g}".  write_csv formats
# _BLOCK_ROWS rows with one % on the row template repeated as bytes: a
# larger block formats no faster and holds more memory while it writes.
_WIDTH = len(CSV_HEADER.split(","))
_CSV_ROW = ",".join(["%.17g"] * _WIDTH) + "\n"
_BLOCK_ROWS = 64
_CSV_BLOCK = (_CSV_ROW * _BLOCK_ROWS).encode()


class _Columns(Sequence):
    """Read-only list of the first ``width`` values of each row in ``data``,
    an array of doubles that holds the rows back to back, ``_WIDTH`` values
    each; entry i is ``make(data[_WIDTH*i:_WIDTH*i + width])``.

    Indexing, slicing and ``IndexError`` follow ``list``; a slice is a list.
    Iteration and slices zip the array's strided columns, at C speed.
    """

    __slots__ = ("_data", "_width", "_make")

    def __init__(self, data: MutableSequence[float], width: int, make: Callable):
        self._data, self._width, self._make = data, width, make

    def __len__(self) -> int:
        return len(self._data) // _WIDTH

    def __getitem__(self, index):
        try:
            rows = range(len(self))[index]
        except IndexError:
            raise IndexError("trajectory index out of range") from None
        if isinstance(rows, int):
            start = _WIDTH * rows
            return self._make(self._data[start:start + self._width])
        return list(self._take(rows))

    def __iter__(self):
        return self._take(range(len(self)))

    def _take(self, rows: range):
        step = _WIDTH * rows.step
        columns = (self._data[_WIDTH * rows.start + k::step] for k in range(self._width))
        return map(self._make, islice(zip(*columns), len(rows)))


class Trajectory(NamedTuple):
    """Uniformly sampled integration output; the diagnostics are read off it.

    The first and last rows are endpoint rows: their kd is the mode
    constraint's and their res_ode is NaN, so the f and residual diagnostics
    read the interior rows only.  A NaN f is passed over, as ``max`` with 0.0
    first does.  ``integrate_curve`` returns ``states`` and ``rows`` as
    read-only views of one array of doubles; a hand-built trajectory may
    hold lists.
    """

    states: Sequence[CurveState]
    rows: Sequence[tuple]
    stop_reason: str

    def _interior_rows(self):
        """An iterator over the rows but the first and the last, which copies
        none of them into a list."""
        return islice(self.rows, 1, max(len(self.rows) - 1, 0))

    @property
    def max_abs_f(self) -> float:
        """Largest |f| over the interior rows, 0.0 without one."""
        return max([0.0] + [abs(r[5]) for r in self._interior_rows()])

    @property
    def speed_drift(self) -> float:
        """Largest |xd^2 + yd^2 - 1| over the states, read off the rows."""
        return max([0.0] + [abs(r[3] * r[3] + r[4] * r[4] - 1.0) for r in self.rows])

    @property
    def residual_pairs(self) -> list[tuple[float, float]]:
        """(res_poly, res_ode) of each interior row."""
        return [(r[7], r[8]) for r in self._interior_rows()]

    def write_csv(self, target) -> None:
        """Write the header and the rows as CSV, each value ``%.17g``.

        ``target`` is a path, which is opened in binary mode, so every line
        ends in ``\\n`` on every platform, or a text file object such as
        ``io.StringIO`` or ``sys.stdout``.  The rows are formatted 64 at a
        time from the trajectory's array of doubles, with the bytes that
        ``_CSV_ROW % row`` gives row by row, and each block is written with
        one call, decoded from ASCII for a text object.  A hand-built
        trajectory's rows are packed into such an array first; a row that
        does not hold 9 values raises TypeError.
        """
        if isinstance(self.rows, _Columns):
            data = self.rows._data
        else:
            from array import array

            data = array("d")
            for row in self.rows:
                if len(row) != _WIDTH:
                    raise TypeError(f"a trajectory row holds {_WIDTH} values, got {len(row)}")
                data.extend(row)
        own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
        fh = open(target, "wb") if own else target
        write = fh.write if own else lambda block: fh.write(block.decode("ascii"))
        size = _BLOCK_ROWS * _WIDTH
        try:
            write(CSV_HEADER.encode() + b"\n")
            for start in range(0, len(data), size):
                values = tuple(data[start:start + size])
                template = _CSV_BLOCK if len(values) == size else \
                    _CSV_ROW.encode() * (len(values) // _WIDTH)
                write(template % values)
        finally:
            if own:
                fh.close()


def integrate_curve(init: CurveState, cfg: IntegratorConfig,
                    case: CaseSpec) -> Trajectory:
    """Integrate from init until max_steps, a wall stop or an overflow.

    The f column is measured: the planar curvature is reconstructed from
    central differences of the integrated tangent, so deviations expose
    integrator error instead of being hidden by the mode constraint.  At the
    endpoints (no neighbors) the mode constraint value is used.  res_ode needs
    the same neighbors and is NaN at the endpoints.

    The ending rule.  The kernels compute in plain IEEE-754 arithmetic, so a
    value out of float range is +-inf or NaN.  Each step is tested once, in
    this order:

    1. an RK4 stage on a wall, where qd is 0.0, ends the curve as boundary;
    2. a new state with a non-finite x, y, xd or yd ends it as overflow;
    3. a new state outside the chamber ends it as boundary;
    4. a new state whose R or row state part (f, |A|^2, res_poly and the
       res_ode products qv and qr, see :func:`_row_lines`) is not finite
       ends it as overflow.

    The curve then ends at the current state, with its endpoint row; else
    the new state is taken.  So every stored state and its R are finite.  A
    start that fails test 2, 3 or 4 raises BoundaryError.

    One pass, in the case's generated step loop (:attr:`CaseLab.loop`): each
    new state's ``point`` values serve its tests and give R there, which
    serves as the next step's k1 stage and as the finite differences of R'.
    A state's interior row is packed once its successor is taken, so no
    formula runs twice on a state and no stored row is rewritten.
    """
    # Imported here: the commands that never integrate a curve do not load
    # the array extension module, about 0.1 MB and 0.4 ms at start-up.
    from array import array
    from struct import Struct

    lab = get_lab(case)
    coeff = _MODE_COEFF[cfg.mode]
    s, x, y, xd, yd = init.s, init.x, init.y, init.xd, init.yd
    v = _taken(lab, x, y, xd, yd, "initial state")
    r = _r(v, xd, yd)
    data = array("d", lab.row(s, x, y, xd, yd, v, -coeff * r, None, None))
    stop_reason = lab.loop(s, x, y, xd, yd, r, cfg.step, coeff, cfg.max_steps,
                           data.frombytes, Struct(f"{_WIDTH}d").pack)
    return Trajectory(_Columns(data, 5, CurveState._make), _Columns(data, _WIDTH, tuple),
                      stop_reason)
