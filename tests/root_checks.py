"""Exact checks of a certificate's chamber roots, apart from how they were found.

:func:`root_problems` recomputes the case's resultant and the factorization
that ``chamber_root_scan`` reports, then checks with ``Fraction`` arithmetic
alone that

- y**a * qd**b * M**c * prod(Q_k**k) is the resultant up to a constant, with
  qd and M read from the bundle's SpatialPolys, not from the scan;
- every listed interval of u = cot(sigma) lies in the open chamber
  u > cot(pi/d), comparing squares with cot(pi/d)**2 from the exact wall
  coefficients;
- the intervals are pairwise disjoint;
- the listed factor (M, or the Q_k of the listed multiplicity) changes sign
  across each interval, or vanishes at a point interval;
- exactly one root is minimal, and it is M's.

:func:`line_cotangent_sum` is the float form of M on the unit arc, for
checking the angle sigma of a certificate's minimal line
(:func:`minimal_sigma`) apart from the exact scan.
"""

import math
from fractions import Fraction

from chamberlab.certify import chamber_root_scan, compute_resultant
from chamberlab.poly import X, Y
from chamberlab.reduction import build_bundle
from bundle_oracle import trig_pairs
from resultant_oracle import poly_mul


def at_y_one(poly) -> list[Fraction]:
    """A rational homogeneous SpatialPoly at y = 1, dense in u = x, low to high."""
    out = [Fraction(0)] * (max((a for a, _ in poly.terms), default=-1) + 1)
    for (a, _), c in poly.terms.items():
        assert c.is_rational
        out[a] = c.a
    return out


def value(p, u) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * u + c
    return acc


def fujiwara_exponent(p: list[int]) -> int:
    """k >= 1 with 2**k >= 2 * max |p_i / p_n|**(1 / (n - i)), Fujiwara's bound
    on every complex root of p, rounded up on bit lengths: the start exponent
    of the root search without the local-max quadratic bound."""
    n, top = len(p) - 1, abs(p[-1]).bit_length()
    return 1 + max([0] + [-((top - abs(c).bit_length() - 1) // (n - i))
                          for i, c in enumerate(p[:-1]) if c])


def roots_above(p: list[int], a: Fraction) -> int:
    """The distinct real roots in (a, oo) of p, of degree >= 1 with p(a) != 0,
    by Sturm's theorem in Fraction arithmetic."""
    assert value(p, a) != 0
    seq = [[Fraction(c) for c in p], [Fraction(i * c) for i, c in enumerate(p)][1:]]
    while len(seq[-1]) > 1:
        r = list(seq[-2])
        while len(r) >= len(seq[-1]):  # r = rem(r, seq[-1])
            q, shift = r[-1] / seq[-1][-1], len(r) - len(seq[-1])
            for i, c in enumerate(seq[-1]):
                r[i + shift] -= q * c
            while r and not r[-1]:
                r.pop()
        if not r:
            break
        seq.append([-c for c in r])

    def changes(values):
        signs = [v > 0 for v in values if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return changes([value(q, a) for q in seq]) - changes([q[-1] for q in seq])


def wall_cot_squared(d: int) -> Fraction:
    s, c = trig_pairs(d)[1]
    return (c * c * (s * s).inverse()).a


def root_problems(cert: dict, case) -> list[str]:
    """Problems with the certificate's roots; [] when every check holds."""
    bundle = build_bundle(case)
    report = compute_resultant(bundle)
    scan = chamber_root_scan(report, bundle)
    problems = []
    exponents = cert["factorization"]
    if [[k, len(f) - 1] for k, f in scan.factors] != exponents["Q"]:
        problems.append("recorded Q factor degrees differ from the scan's")
    qd = at_y_one(bundle.qd)
    m = at_y_one(bundle.t1 * Y - bundle.t2 * X)
    rebuilt = [Fraction(1)]
    for poly, power in [(qd, exponents["qd"]), (m, exponents["M"])] + [
            (f, k) for k, f in scan.factors]:
        for _ in range(power):
            rebuilt = poly_mul(rebuilt, poly)
    res = [Fraction(c, report.scale) for c in report.coeffs]
    while not res[-1]:
        res.pop()
    if len(res) - 1 + exponents["y"] != report.degree or len(rebuilt) != len(res) \
            or any(a * rebuilt[-1] != b * res[-1] for a, b in zip(res, rebuilt)):
        problems.append("y^a qd^b M^c prod(Q_k^k) is not the resultant")

    wall_sq = wall_cot_squared(case.d)
    factor_of = {k: f for k, f in scan.factors}
    intervals = []
    for root in cert["roots"]:
        lo, hi = map(Fraction, root["cot_interval"])
        intervals.append((lo, hi))
        inside = lo >= 0 and lo * lo >= wall_sq and (lo < hi or lo * lo > wall_sq)
        if not inside:
            problems.append(f"interval {root['cot_interval']} leaves the chamber")
        if root["line_is_minimal"] != (root["factor"] == "M"):
            problems.append(f"root at {lo}: minimality does not follow its factor")
        f = m if root["factor"] == "M" else factor_of.get(root["multiplicity"])
        if f is None:
            problems.append(f"root at {lo}: no Q factor of multiplicity {root['multiplicity']}")
            continue
        if lo == hi:
            changes = value(f, lo) == 0
        else:
            changes = value(f, lo) * value(f, hi) < 0
        if not changes:
            problems.append(f"factor {root['factor']} keeps its sign on {root['cot_interval']}")
    # Open intervals, or points: consecutive ones may touch, not overlap.
    intervals.sort()
    for a, b in zip(intervals, intervals[1:]):
        if a[1] > b[0] or a == b:
            problems.append(f"intervals overlap at {b[0]}")
    if sum(r["line_is_minimal"] for r in cert["roots"]) != 1:
        problems.append("not exactly one minimal root")
    return problems


def line_cotangent_sum(case, sigma: float) -> float:
    """S(sigma) = sum of m_i * cot(sigma - i*pi/d); zero iff the line is minimal."""
    return sum(m / math.tan(sigma - i * math.pi / case.d)
               for i, m in enumerate(case.multiplicities))


def minimal_sigma(cert: dict) -> float:
    """sigma = atan2(1, u) at the lower end u of the ``cot_interval`` of the
    certificate's one root with ``line_is_minimal``."""
    (lo,) = [root["cot_interval"][0] for root in cert["roots"] if root["line_is_minimal"]]
    return math.atan2(1.0, float(Fraction(lo)))
