"""Reference root refinement: plain bisection on ``Fraction`` intervals.

``chamberlab.resultant.refine`` must return exactly what this returns for a
stop rule that holds on the same cells, with ``done`` here taking the
interval's two ends as Fractions.
"""

from fractions import Fraction

from chamberlab.resultant import derivative, homogeneous


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
