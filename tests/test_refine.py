"""Root refinement, the chamber-root search and the early-exit Descartes test
against their plain forms.

``refine`` must return exactly the interval that bisection returns
(:mod:`refine_oracle`), for the stop rules of a search in u and for any cut
point; the chamber roots that ``chamber_root_scan`` finds in w = u**2 must be
exactly the intervals that Descartes isolation and bisection find in u; and
``descartes_test`` must classify 0, 1 and >= 2 sign variations as the full
Taylor shift does.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from chamberlab import resultant
from chamberlab.cases import default_cases, registry_case
from chamberlab.certify import _WALL_COT_SQ, _chamber_roots, _minimal_form, chamber_root_scan, \
    compute_resultant
from chamberlab.reduction import build_bundle
from chamberlab.resultant import (
    derivative,
    descartes_test,
    gcd_cofactors,
    homogeneous,
    positive_roots,
    quotient,
    refine,
    sign_variations,
    taylor_shift,
)
from refine_oracle import bisection_refine, fraction_rules, stop_rules, u_chamber_intervals
from resultant_oracle import poly_mul
from root_checks import fujiwara_exponent


def wall_poly(d):
    """The wall (u + base)**2 = cot(pi/d)**2 as an integer polynomial in u."""
    wall_sq = _WALL_COT_SQ[d]
    wall = [-wall_sq.numerator, 0, wall_sq.denominator]
    return taylor_shift(wall) if math.isqrt(int(wall_sq)) else wall


def check_chain(p, lo, hi, d):
    """refine equals bisection on (lo, hi) for each rule, and for the float
    rule after the wall rule, as a search in u chains them."""
    (off_wall, one_double), oracles = stop_rules(d), fraction_rules(d)
    got = refine(p, lo, hi, off_wall)
    assert got == bisection_refine(p, lo, hi, oracles["off_wall"]), (p, lo, hi, d)
    assert refine(p, *got, one_double) == bisection_refine(p, *got, oracles["one_double"])
    assert refine(p, lo, hi, one_double) == bisection_refine(p, lo, hi, oracles["one_double"])


def near(value):
    """Linear factors with roots close to value: continued-fraction and dyadic
    approximations, the dyadic ones of depth 3, 20, 60 and 70."""
    out = [[-f.numerator, f.denominator] for f in
           (Fraction(value).limit_denominator(10 ** e) for e in (1, 3, 6))]
    return out + [[-(math.floor(value * 2 ** e) | 1), 1 << e] for e in (3, 20, 60, 70)]


def random_squarefree(rng, factors):
    """A square-free product of random factors, with p(0) != 0, or None."""
    p = [1]
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            f = rng.choice(factors)
        else:
            f = [rng.randint(-9, 9) for _ in range(rng.randint(2, 7))] + [rng.randint(1, 9)]
        p = poly_mul(p, f)
    while p and not p[0]:
        p = p[1:]
    if len(p) < 2:
        return None
    return gcd_cofactors(p, derivative(p))[1]


@pytest.mark.parametrize("d", [3, 4, 6])
def test_refine_matches_bisection_on_random_polynomials(d):
    rng = random.Random(1000 + d)
    wall = wall_poly(d)
    factors = near(math.sqrt(_WALL_COT_SQ[d]) - math.isqrt(int(_WALL_COT_SQ[d]))) + \
        near(math.sqrt(2)) + [[-rng.randint(1, 200), 1 << rng.randint(0, 9)] for _ in range(8)]
    intervals = 0
    for _ in range(120):
        p = random_squarefree(rng, factors)
        if p is None or quotient(p, wall) is not None:
            continue
        if p[-1] < 0:
            p = [-c for c in p]
        for lo, hi in positive_roots(p)[0]:
            check_chain(p, lo, hi, d)
            intervals += 1
    assert intervals > 100


def test_refine_matches_bisection_for_any_cut_point():
    # refine's contract holds for every monotone rule; "the cell lies on one
    # side of c" for a random c in the interval, dyadic or not, is one.
    rng = random.Random(31)
    intervals = 0
    for _ in range(300):
        p = random_squarefree(rng, [[-3, 8], [-2, 0, 1]])
        if p is None:
            continue
        for lo, hi in positive_roots(p)[0]:
            if lo == hi:
                continue
            c = lo + (hi - lo) * rng.choice([Fraction(rng.randint(1, 999), 1000),
                                             Fraction(rng.randint(1, 2 ** 20 - 1), 2 ** 20)])

            def side_of_c(a, b, j, num=c.numerator, den=c.denominator):
                return a * den >= num << j or b * den <= num << j

            want = bisection_refine(p, lo, hi, lambda a, b, c=c: a >= c or b <= c)
            assert refine(p, lo, hi, side_of_c) == want, (p, lo, hi, c)
            intervals += 1
    assert intervals > 300


def _scan_and_u_intervals(case):
    """(scan, roots, isolating): the certificate's chamber-root intervals,
    and those found in u from M's square-free part and the scan's Q_k by
    :func:`u_chamber_intervals`, with the isolating intervals it started from.
    A Q_k root on the minimal line is M's root, listed once."""
    bundle = build_bundle(case)
    scan = chamber_root_scan(compute_resultant(bundle), bundle)
    m = _minimal_form(bundle)
    roots, isolating = set(), []
    for f in [gcd_cofactors(m, derivative(m))[1]] + [f for _, f in scan.factors]:
        found, starts = u_chamber_intervals(f, case.d)
        roots.update(found)
        isolating += starts
    return [(r.lo, r.hi) for r in scan.roots], sorted(roots, key=lambda r: -r[0]), isolating


@pytest.mark.parametrize("d", [3, 4, 6])
def test_refine_matches_bisection_on_chamber_polynomials(d, monkeypatch):
    # Every chamber-root interval of the certificates at d, recomputed in u by
    # Descartes isolation and bisection: the search in w = u**2 lands on the
    # same cells.
    for case in (case for case in default_cases() if case.d == d):
        scan, roots, _ = _scan_and_u_intervals(case)
        assert scan == roots, (case.label, case.multiplicities)
    if d == 4:
        # Searched from Fujiwara's looser bound, Sp2xSpm's chamber root starts
        # from a cell 16 wide in u: a long bisection on a real polynomial.
        monkeypatch.setattr(resultant, "root_bound", fujiwara_exponent)
        scan, roots, isolating = _scan_and_u_intervals(registry_case("Sp2xSpm", {"m": 18}))
        assert scan == roots
        assert any(hi - lo >= 16 for lo, hi in isolating)


# (d, f, k): the test id is "<d>-2-f<k>", d and the power of u in w = u**2,
# with the row number k kept when a row is added or deleted.
W_SEARCH_ROWS = (
    (3, [-1, 2], 0),  # w = 1/2 sits at the dyadic t = 1/2; u = 1/sqrt2 is irrational
    (3, [-4, 9], 1),  # u = 2/3, rational, not dyadic
    (3, [-25, 4], 2),  # u = 5/2, met as a midpoint
    (2, [-9, 1], 3),  # u = 3, an integer
    (4, [-(2 ** 70 + 1) ** 2, 2 ** 140], 5),  # u = 1 + 2**-70: one double first
    (6, [-4, 1], 7),  # u = 2, t = 1 above the bound w = 3
    (6, [-(2 ** 53 + 1) ** 2, 2 ** 104], 8),  # u = 2 + 2**-52, halfway between two doubles
    (6, poly_mul([-3, 1], [-13, 4]), 10),  # on the wall w = 3, and just above it
    # u = ceil(2**60 * cot(pi/d)) / 2**60, less than a double's spacing above
    # the irrational wall: the cells whose ends round to one double still
    # cross it.
    (6, [-(math.isqrt(3 << 120) + 1) ** 2, 2 ** 120], 11),
    (3, [-(math.isqrt((1 << 120) // 3) + 1) ** 2, 2 ** 120], 12),
    (3, poly_mul([-1, 3], poly_mul([-1, 4], [-3, 8])), 13),  # on, below and above w = 1/3
    (4, poly_mul([-1, 1], [-5, 1]), 14),
)


@pytest.mark.parametrize("d,f", [pytest.param(d, f, id=f"{d}-2-f{k}")
                                 for d, f, k in W_SEARCH_ROWS])
def test_w_search_matches_the_u_search(d, f):
    u_poly = [0] * (2 * len(f) - 1)
    u_poly[::2] = f
    assert _chamber_roots(f, d)[0] == u_chamber_intervals(u_poly, d)[0]


def test_refine_meets_a_dyadic_root_before_the_rule_holds():
    # (8u - 3)(u**2 - 2) on (0, 1): the second midpoint is the root 3/8.
    p = poly_mul([-3, 8], [-2, 0, 1])
    for d in (3, 4, 6):
        expected = bisection_refine(p, Fraction(0), Fraction(1), fraction_rules(d)["one_double"])
        assert expected == (Fraction(3, 8),) * 2
        assert refine(p, Fraction(0), Fraction(1), stop_rules(d)[1]) == expected


def test_refine_stops_before_a_deep_dyadic_root():
    # The root 1 + 2**-70 lies inside a cell whose ends both round to 1.0
    # long before bisection reaches it.
    root = Fraction(2 ** 70 + 1, 2 ** 70)
    p = poly_mul([-root.numerator, root.denominator], [-5, 0, 1])
    expected = bisection_refine(p, Fraction(0), Fraction(2), fraction_rules(4)["one_double"])
    lo, hi = refine(p, Fraction(0), Fraction(2), stop_rules(4)[1])
    assert (lo, hi) == expected and lo < root < hi


def test_refine_from_a_left_end_that_is_a_root():
    # (u - 1)(u**2 - 2) on (1, 2): p(1) = 0, so the side comes from p'(1).
    p = poly_mul([-1, 1], [-2, 0, 1])
    assert homogeneous(p, 1, 1) == 0
    for d in (3, 4, 6):
        check_chain(p, Fraction(1), Fraction(2), d)
    # positive_roots yields such intervals when a midpoint is a root.
    p = poly_mul(poly_mul([-1, 1], [-3, 2]), [-7, 0, 4])
    intervals = positive_roots(p)[0]
    assert any(lo < hi and homogeneous(p, lo.numerator, lo.denominator) == 0
               for lo, hi in intervals)
    for lo, hi in intervals:
        check_chain(p, lo, hi, 6)


def test_refine_on_wide_cells():
    p = [-700, 0, 1]
    (lo, hi), = positive_roots(p)[0]
    assert hi - lo >= 16
    for d in (3, 4, 6):
        check_chain(p, lo, hi, d)


def test_descartes_test_classifies_as_the_full_shift():
    # Every list of up to five entries in -2..2, where partial sums often
    # cancel, and random longer ones.
    rng = random.Random(7)
    lists = [list(a) for n in range(1, 6) for a in itertools.product(range(-2, 3), repeat=n)]
    lists += [[rng.choice([0, 0, rng.randint(-9, 9), rng.randint(-10 ** 6, 10 ** 6)])
               for _ in range(rng.randint(6, 12))] for _ in range(2000)]
    seen = set()
    for a in lists:
        full = sign_variations(taylor_shift(a))
        got = descartes_test(a)
        assert got == full if full <= 1 else got >= 2, a
        seen.add(min(full, 2))
    assert seen == {0, 1, 2}
