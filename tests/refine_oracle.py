"""Reference root refinement: plain bisection on ``Fraction`` intervals, and
chamber roots found in u by it.

``chamberlab.resultant.refine`` must return exactly what
:func:`bisection_refine` returns for a stop rule that holds on the same cells,
with ``done`` here taking the interval's two ends as Fractions.

:func:`u_chamber_intervals` is the chamber-root search in u that
``chamber_root_scan`` made before it searched in w = u**2: Descartes
isolation of f(u + base), base = floor(cot(pi/d)), then bisection until the
cell lies on one side of the wall, then until both ends round to one double.
:func:`stop_rules` are those two rules on refine's integer cells.
"""

import math
from fractions import Fraction

from chamberlab.certify import _WALL_COT_SQ
from chamberlab.resultant import derivative, homogeneous, positive_roots, quotient, \
    taylor_shift


def bisection_refine(p, lo: Fraction, hi: Fraction, done) -> tuple[Fraction, Fraction]:
    """Bisect the isolating interval (lo, hi) of a root of p until done(lo, hi).

    p is square-free, so just above lo it has the sign of p(lo), or of p'(lo)
    where p(lo) = 0.  A midpoint where p vanishes is returned as (mid, mid).
    """
    def sign(q, u):
        value = homogeneous(q, u.numerator, u.denominator)
        return (value > 0) - (value < 0)

    side = sign(p, lo) or sign(derivative(p), lo)
    while lo != hi and not done(lo, hi):
        mid = (lo + hi) / 2
        s = sign(p, mid)
        lo, hi = (mid, mid) if not s else (mid, hi) if s == side else (lo, mid)
    return lo, hi


def stop_rules(d: int):
    """The two stop rules for refining a root of f(u + base), on integers,
    for the cell [a / 2**j, b / 2**j]: the cell lies on one side of the wall;
    both ends, shifted back by base, round to the same double."""
    wall_sq = _WALL_COT_SQ[d]
    base, num, den = math.isqrt(int(wall_sq)), wall_sq.numerator, wall_sq.denominator

    def off_wall(a, b, j):
        shift, wall = base << j, num << 2 * j
        return (a + shift) ** 2 * den >= wall or (b + shift) ** 2 * den <= wall

    def one_double(a, b, j):
        return (a + (base << j)) / (1 << j) == (b + (base << j)) / (1 << j)

    return off_wall, one_double


def fraction_rules(d: int):
    """The rules of :func:`stop_rules` on Fraction ends, by name."""
    wall_sq = _WALL_COT_SQ[d]
    base = math.isqrt(int(wall_sq))
    return {"off_wall": lambda lo, hi: (lo + base) ** 2 >= wall_sq or (hi + base) ** 2 <= wall_sq,
            "one_double": lambda lo, hi: float(lo + base) == float(hi + base)}


def u_chamber_intervals(f: list[int], d: int):
    """(roots, isolating) for a square-free f in u, d >= 2: the chamber roots
    u > cot(pi/d) as intervals, largest first, and the isolating intervals in
    u that their bisection started from.  A root on an irrational wall is
    divided out first."""
    wall_sq = _WALL_COT_SQ[d]
    base = math.isqrt(int(wall_sq))
    if base * base != wall_sq:
        f = quotient(f, [-wall_sq.numerator, 0, wall_sq.denominator]) or f
    g = taylor_shift(f) if base else f
    while not g[0]:  # a root at u = base lies on or beyond the wall
        g = g[1:]
    rules = fraction_rules(d)
    roots, isolating = [], []
    for lo, hi in reversed(positive_roots(g)[0]):
        isolating.append((lo + base, hi + base))
        lo, hi = bisection_refine(g, lo, hi, rules["off_wall"])
        if (lo + base) ** 2 >= wall_sq:
            lo, hi = bisection_refine(g, lo, hi, rules["one_double"])
            roots.append((lo + base, hi + base))
    return roots, isolating
