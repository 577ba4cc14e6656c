"""Root refinement and the early-exit Descartes test against their plain forms.

``refine`` must return exactly the interval that bisection returns
(:mod:`refine_oracle`), for both stop rules of ``_chamber_roots``, and
``descartes_test`` must classify 0, 1 and >= 2 sign variations as the full
Taylor shift does.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from chamberlab import certify, resultant
from chamberlab.cases import default_cases, registry_case
from chamberlab.certify import _WALL_COT_SQ, _stop_rules
from chamberlab.resultant import (
    derivative,
    descartes_test,
    divide_exact,
    gcd,
    homogeneous,
    positive_roots,
    quotient,
    refine,
    sign_variations,
    taylor_shift,
)
from refine_oracle import bisection_refine
from resultant_oracle import poly_mul
from root_checks import fujiwara_exponent


def fraction_rules(d):
    """The stop rules of ``_stop_rules(d)`` on Fraction ends, by name."""
    wall_sq = _WALL_COT_SQ[d]
    base = math.isqrt(int(wall_sq))
    return {"off_wall": lambda lo, hi: (lo + base) ** 2 >= wall_sq or (hi + base) ** 2 <= wall_sq,
            "one_double": lambda lo, hi: float(lo + base) == float(hi + base)}


def wall_poly(d):
    """The wall (u + base)**2 = cot(pi/d)**2 as an integer polynomial in u."""
    wall_sq = _WALL_COT_SQ[d]
    wall = [-wall_sq.numerator, 0, wall_sq.denominator]
    return taylor_shift(wall) if math.isqrt(int(wall_sq)) else wall


def check_chain(p, lo, hi, d):
    """refine equals bisection on (lo, hi) for each rule, and for the float
    rule after the wall rule, as ``_chamber_roots`` chains them."""
    (off_wall, one_double), oracles = _stop_rules(d), fraction_rules(d)
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
    return divide_exact(p, gcd(p, derivative(p)))


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


@pytest.mark.parametrize("d", [3, 4, 6])
def test_refine_matches_bisection_on_chamber_polynomials(d, monkeypatch):
    # Every refine call the certificates make, replayed against bisection.
    calls = []
    original = certify.refine

    def recording(p, lo, hi, done):
        result = original(p, lo, hi, done)
        calls.append((p, lo, hi, done.__name__, result))
        return result

    monkeypatch.setattr(certify, "refine", recording)
    for case in default_cases():
        if case.d == d:
            certify.certify_case(case)
    if d == 4:
        # Searched from Fujiwara's looser bound, Sp2xSpm's chamber roots start
        # from cells 16 wide: long refinements on real polynomials.
        monkeypatch.setattr(resultant, "root_bound", fujiwara_exponent)
        certify.certify_case(registry_case("Sp2xSpm", {"m": 18}))
    assert calls
    for p, lo, hi, rule, result in calls:
        assert result == bisection_refine(p, lo, hi, fraction_rules(d)[rule])
    if d == 4:
        assert any(hi - lo >= 16 for _, lo, hi, _, _ in calls)


def test_refine_meets_a_dyadic_root_before_the_rule_holds():
    # (8u - 3)(u**2 - 2) on (0, 1): the second midpoint is the root 3/8.
    p = poly_mul([-3, 8], [-2, 0, 1])
    for d in (3, 4, 6):
        expected = bisection_refine(p, Fraction(0), Fraction(1), fraction_rules(d)["one_double"])
        assert expected == (Fraction(3, 8),) * 2
        assert refine(p, Fraction(0), Fraction(1), _stop_rules(d)[1]) == expected


def test_refine_stops_before_a_deep_dyadic_root():
    # The root 1 + 2**-70 lies inside a cell whose ends both round to 1.0
    # long before bisection reaches it.
    root = Fraction(2 ** 70 + 1, 2 ** 70)
    p = poly_mul([-root.numerator, root.denominator], [-5, 0, 1])
    expected = bisection_refine(p, Fraction(0), Fraction(2), fraction_rules(4)["one_double"])
    lo, hi = refine(p, Fraction(0), Fraction(2), _stop_rules(4)[1])
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
