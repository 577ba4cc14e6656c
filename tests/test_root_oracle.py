"""The exact chamber roots against sympy's square-free decomposition and
real-root isolation (skipped when sympy is not installed).

For each case the oracle dehomogenizes the resultant at y = 1, divides out
qd and M = t1*y - t2*x as often as sympy's division is exact, takes
``sqf_list`` of the cofactor Q and counts each factor's roots in the chamber
u = cot(sigma) > cot(pi/d) from ``Poly.intervals``, refining any interval
that straddles the wall.  It shares no polynomial code with chamberlab.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from chamberlab.cases import default_cases, registry_case
from chamberlab.certify import ResultantReport, chamber_root_scan, compute_resultant
from chamberlab.errors import PipelineError
from chamberlab.poly import X, Y
from chamberlab.resultant import gcd_cofactors, positive_roots, prs_gcd, squarefree
from chamberlab.reduction import build_bundle
from resultant_oracle import poly_mul
from root_checks import at_y_one, wall_cot_squared

sympy = pytest.importorskip("sympy")
U = sympy.Symbol("u")

EXTRA_ROWS = (("SOpxSOq", {"p": 38, "q": 6}), ("SOpxSOq", {"p": 11, "q": 27}),
              ("Sp2xSpm", {"m": 18}))
ORACLE_CASES = [case for case in default_cases() if case.d > 1] + [
    registry_case(name, params) for name, params in EXTRA_ROWS]


def to_sympy(coeffs):
    """A dense list of ints or Fractions, low to high in u, as a sympy Poly over QQ."""
    return sympy.Poly(list(reversed(coeffs)) or [0], U, domain="QQ")


def chamber_count(f, d):
    """Roots of the square-free Poly f with u > cot(pi/d), a root on the wall excluded."""
    wall_sq = wall_cot_squared(d)
    wall = sympy.Poly(wall_sq.denominator * U ** 2 - wall_sq.numerator, U, domain="QQ")
    if wall_sq in (0, 1):
        wall = sympy.Poly(U - int(wall_sq), U, domain="QQ")
    if f.degree() >= wall.degree() and f.rem(wall).is_zero:
        f = f.exquo(wall)
    count = 0
    for interval, _ in f.intervals():
        lo, hi = (Fraction(int(t.p), int(t.q)) for t in map(sympy.Rational, interval))
        while lo < hi and lo * abs(lo) < wall_sq < hi * abs(hi):
            interval = f.refine_root(lo, hi, eps=(hi - lo) / 4)
            lo, hi = (Fraction(int(t.p), int(t.q)) for t in map(sympy.Rational, interval))
        count += lo >= 0 and lo ** 2 >= wall_sq and (lo < hi or lo ** 2 > wall_sq)
    return count


def oracle(report, bundle):
    """(exponents, [(k, degree, chamber roots)] of Q's sqf_list, M's chamber roots)."""
    res = to_sympy(report.coeffs)
    m = to_sympy(at_y_one(bundle.t1 * Y - bundle.t2 * X))
    exponents = {"y": report.degree - res.degree()}
    for name, poly in (("qd", to_sympy(at_y_one(bundle.qd))), ("M", m)):
        exponents[name] = 0
        while True:
            quo, rem = res.div(poly)
            if not rem.is_zero:
                break
            res, exponents[name] = quo, exponents[name] + 1
    d = bundle.case.d
    factors = sorted((k, f.degree(), chamber_count(f, d)) for f, k in res.sqf_list()[1])
    return exponents, factors, chamber_count(m.sqf_part(), d)


def scan_summary(scan):
    """The scan in the oracle's terms; a root shared by Q_k and M counts for both."""
    per_factor = {k: 0 for k, _ in scan.factors}
    m_roots = 0
    for root in scan.roots:
        if root.factor == "Q":
            per_factor[root.multiplicity] += 1
        else:
            m_roots += 1
            extra = root.multiplicity - scan.exponents["M"]
            if extra:
                per_factor[extra] += 1
    factors = sorted((k, len(f) - 1, per_factor[k]) for k, f in scan.factors)
    return scan.exponents, factors, m_roots


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda case: case.label)
def test_factorization_and_chamber_roots_match_sympy(case):
    bundle = build_bundle(case)
    report = compute_resultant(bundle)
    scan = chamber_root_scan(report, bundle)
    assert scan_summary(scan) == oracle(report, bundle)
    assert scan.exponents["qd"] == 3 and scan.exponents["M"] == 1


def _fake_report(report, extra):
    """The resultant times the integer polynomial extra (low to high in u),
    with the trailing zeros of its y-power kept."""
    degree = report.degree + len(extra) - 1
    coeffs = poly_mul(report.coeffs, extra)
    return ResultantReport(coeffs + [0] * (degree + 1 - len(coeffs)), report.scale,
                           report.formal_degrees, report.trimmed_pairs, degree)


def _synthetic(name, extra):
    bundle = build_bundle(registry_case(name))
    real = compute_resultant(bundle)
    fake = _fake_report(real, extra)
    scan = chamber_root_scan(fake, bundle)
    assert scan_summary(scan) == oracle(fake, bundle)
    return chamber_root_scan(real, bundle), scan


def test_double_root_inside_chamber_is_found():
    # (u - 3)**2 has no sign change: a scan for sign changes cannot see it.
    # At d = 3 the factor must keep the resultant even, (u**2 - 9)**2, for a
    # search in w = u**2; at d = 4 the odd one sends the search to w = u.
    for name, extra in (("SU3", poly_mul([-9, 0, 1], [-9, 0, 1])), ("SO5", [9, -6, 1])):
        real, scan = _synthetic(name, extra)
        (double,) = [r for r in scan.roots if r.multiplicity == 2]
        assert (double.lo, double.hi, double.factor) == (3, 3, "Q")
        assert len(scan.roots) == len(real.roots) + 1


def test_rational_root_is_hit_exactly():
    # 2u - 5 vanishes at the dyadic 5/2 inside the d = 3 chamber (u > 1/sqrt3)
    # and the d = 4 one (u > 1): as 4u**2 - 25 at d = 3, as it is at d = 4.
    for name, extra in (("SO3", [-25, 0, 4]), ("SO5", [-5, 2])):
        real, scan = _synthetic(name, extra)
        assert any(r.lo == r.hi == Fraction(5, 2) for r in scan.roots)
        assert len(scan.roots) == len(real.roots) + 1


def test_odd_factor_at_an_irrational_wall_is_a_pipeline_error():
    # With both parities in u the search runs in w = u, above cot(pi/d),
    # which is irrational at d = 3: no alternating row reaches this.
    bundle = build_bundle(registry_case("SO3"))
    fake = _fake_report(compute_resultant(bundle), [-5, 2])
    with pytest.raises(PipelineError, match="^SO3: .*cot\\(pi/3\\) is irrational"):
        chamber_root_scan(fake, bundle)


@pytest.mark.parametrize("name,extra", [("G2", [-3, 0, 1]), ("SO5", [-1, 1])],
                         ids=["sqrt3-wall-d6", "unit-wall-d4"])
def test_root_on_the_wall_is_excluded(name, extra):
    # u**2 - 3 vanishes on the d = 6 wall u = cot(pi/6); u - 1 on the d = 4
    # wall u = cot(pi/4).  Neither is the whole qd, so each stays in Q.
    real, scan = _synthetic(name, extra)
    assert scan.exponents == real.exponents
    assert [(r.lo, r.hi, r.factor) for r in scan.roots] == \
        [(r.lo, r.hi, r.factor) for r in real.roots]


def test_q_root_on_the_minimal_line_merges_into_m():
    # The p = q = 2 minimal line is u = 1 exactly; a factor u - 1 in Q makes
    # it a double root of the resultant, listed once, as M's.
    real, scan = _synthetic("SOpxSOq", [-1, 1])
    (m_root,) = [r for r in scan.roots if r.factor == "M"]
    assert (m_root.lo, m_root.hi, m_root.multiplicity) == (1, 1, 2)
    assert len(scan.roots) == len(real.roots)


def test_resultant_without_qd_is_a_pipeline_error():
    # y * 1: nothing of qd**3 * M is left to divide out.
    with pytest.raises(PipelineError, match="not divisible by qd"):
        chamber_root_scan(SimpleNamespace(coeffs=[1, 0]), build_bundle(registry_case("SU3")))


def _random_poly(rng, degree):
    return [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 9)]


def test_gcd_and_prs_gcd_match_sympy():
    rng = random.Random(11)
    for _ in range(40):
        common = _random_poly(rng, rng.randint(0, 4))
        a = to_sympy(_random_poly(rng, rng.randint(1, 6))) * to_sympy(common)
        b = to_sympy(_random_poly(rng, rng.randint(1, 6))) * to_sympy(common)
        ia = [int(c) for c in reversed(a.all_coeffs())]
        ib = [int(c) for c in reversed(b.all_coeffs())]
        want = a.gcd(b).monic()
        for got in (gcd_cofactors(ia, ib)[0], prs_gcd(ia, ib)):
            assert to_sympy(got).monic() == want


def test_squarefree_matches_sqf_list():
    rng = random.Random(12)
    for _ in range(30):
        f = to_sympy([1])
        for k in (1, 2, 3):
            if rng.random() < 0.8:
                f *= to_sympy(_random_poly(rng, rng.randint(1, 3))) ** k
        if f.degree() < 1:
            continue
        coeffs = [int(c) for c in reversed(f.all_coeffs())]
        got = {k: to_sympy(g).monic() for k, g in squarefree(coeffs)}
        _, want = f.sqf_list()
        assert got == {k: g.monic() for g, k in want}


def test_positive_roots_isolate_each_root():
    rng = random.Random(13)
    for _ in range(30):
        f = to_sympy([rng.choice([-1, 1]) * rng.randint(1, 9)] +
                     _random_poly(rng, rng.randint(1, 12))[1:]).sqf_part()
        coeffs = [int(c) for c in reversed(f.clear_denoms()[1].all_coeffs())]
        intervals, tests = positive_roots(coeffs)
        assert tests >= 1
        assert len(intervals) == f.count_roots(0, None)
        for lo, hi in intervals:
            lo, hi = sympy.Rational(lo), sympy.Rational(hi)
            if lo == hi:
                assert f.eval(lo) == 0
            else:
                assert f.eval(lo) * f.eval(hi) < 0 and f.count_roots(lo, hi) == 1
