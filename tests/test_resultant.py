import itertools
import math
import random
from fractions import Fraction

import pytest

from chamberlab import certify, resultant
from chamberlab.cases import CaseSpec, default_cases, load_registry, registry_case
from chamberlab.certify import compute_resultant
from chamberlab.cli import EXIT_PIPELINE_ERROR, main
from chamberlab.errors import ExactDivisionError
from chamberlab.reduction import build_bundle
from chamberlab.resultant import (
    _pack,
    _packed_resultant,
    _reflection_parity,
    _unpack,
    divide_exact,
    gcd_cofactors,
    homogeneous,
    positive_roots,
    prs_gcd,
    root_bound,
    sylvester_resultant,
)
from resultant_oracle import (
    determinant_bareiss,
    determinant_cofactor,
    poly_mul,
    sylvester_matrix,
    t_multiply,
)
from root_checks import fujiwara_exponent, roots_above, value

# Dense integer polynomials in u, low to high: U is u, ONE is 1, [] is zero.
U = [0, 1]
ONE = [1]


def _random_linear(rng):
    return [rng.randint(-4, 4), rng.randint(-4, 4)]


def _stripped(p):
    while p and not p[-1]:
        p = p[:-1]
    return p


def _random_coeffs(rng, count):
    while True:
        coeffs = [_stripped(_random_linear(rng)) for _ in range(count)]
        if coeffs[-1]:
            return coeffs


# sylvester_resultant takes only lists with one parity of u per side.  The
# tests of the sign convention, the formal-degree rules and the packed digits
# on lists with both parities call _packed_resultant, the PRS at formal
# degrees that it runs on the halved lists.


def test_linear_resultant_sign_convention():
    # coefficient lists for t - u and t - 1, low-to-high
    pa = [[0, -1], ONE]
    pc = [[-1], ONE]
    assert _packed_resultant(pa, pc) == [1, -1]  # 1 - u
    with pytest.raises(ValueError, match="both parities"):
        sylvester_resultant(pa, pc)


def test_shared_linear_factor_gives_zero():
    rng = random.Random(7)
    for _ in range(10):
        shared = [_stripped(_random_linear(rng)), ONE]  # t - l(u) shape
        pa = t_multiply(shared, _random_coeffs(rng, 3))
        pc = t_multiply(shared, _random_coeffs(rng, 5))
        assert _packed_resultant(pa, pc) == []


def test_sylvester_matrix_shape():
    pa = [[1], [2], [3], [4]]
    pc = [[1], [2], [3], [4], [5], [6]]
    m = sylvester_matrix(pa, pc)
    assert len(m) == 8 and all(len(row) == 8 for row in m)
    assert m[0][:6] == [[6], [5], [4], [3], [2], [1]]  # pc block first
    assert m[3][:4] == [[4], [3], [2], [1]]


def test_bareiss_matches_cofactor_on_random_matrices():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        matrix = [[_stripped(_random_linear(rng)) for _ in range(n)] for _ in range(n)]
        assert determinant_bareiss(matrix) == determinant_cofactor(matrix)


def test_bareiss_handles_zero_pivot():
    matrix = [[[], ONE], [ONE, []]]
    assert determinant_bareiss(matrix) == [-1]
    singular = [[[], []], [ONE, ONE]]
    assert determinant_bareiss(singular) == []


def test_resultant_of_coprime_constants():
    # Res at formal degrees (1, 1) of (t - 2, t - 5) is 5 - 2 up to the
    # pinned sign convention.
    pa = [[-2], ONE]
    pc = [[-5], ONE]
    assert _packed_resultant(pa, pc) == [3]


def test_formal_degree_zero_side_gives_power_of_constant():
    # A side of formal degree 0 puts its constant a0 on the diagonal, so
    # Res(a0, C) = a0**k for C of formal degree k, with either side first.
    rng = random.Random(19)
    for _ in range(20):
        a0 = rng.choice([-1, 1]) * rng.randint(1, 9)
        k = rng.randint(1, 5)
        pc = [_stripped(_random_linear(rng)) for _ in range(k + 1)]
        for pair in (([[a0]], pc), (pc, [[a0]])):
            res = _packed_resultant(*pair)
            assert res == [a0 ** k]
            assert res == determinant_cofactor(sylvester_matrix(*pair))


def test_resultant_homogeneous_for_homogeneous_inputs():
    # x*(2t^3 + 1) and y*(3t^5 + 1) are coprime in t, so the determinant is a
    # nonzero homogeneous polynomial of degree 5*1 + 3*1, which is
    # c * x^5 * y^3 (one x per row of the cubic's block, one y per row of the
    # quintic's).  At y = 1, x = u that is the single monomial c * u^5.
    pa = [U, [], [], [0, 2]]
    pc = [ONE, [], [], [], [], [3]]
    res = _packed_resultant(pa, pc)
    assert len(res) == 6 and res[:5] == [0] * 5 and res[5] != 0


def test_exact_division():
    p = [1, 2, 3]
    q = [-4, 0, 5, 7]
    assert divide_exact(poly_mul(p, q), q) == p
    assert divide_exact([], q) == []
    with pytest.raises(ExactDivisionError):
        divide_exact([1, 0, 1], [1, 1])  # (u^2 + 1) / (u + 1)
    with pytest.raises(ExactDivisionError):
        divide_exact([1, 1], [0, 2])  # (u + 1) / (2u): quotient not integral
    with pytest.raises(ExactDivisionError):
        divide_exact(U, [])


def test_exact_division_drops_the_divisors_top_zeros():
    # A divisor list that ends in zeros divides as the list without them:
    # u^2 / (-u) is -u, and a divisor of zeros alone is the zero polynomial.
    assert divide_exact([0, 0, 1], [0, -1, 0]) == [0, -1]
    assert resultant.quotient([0, 0, 1], [0, -1, 0]) == [0, -1]
    assert divide_exact([2, 4], [1, 2, 0, 0]) == [2]
    assert resultant.quotient([1, 0, 1], [1, 1, 0]) is None
    for zero in ([0], [0, 0, 0]):
        with pytest.raises(ExactDivisionError):
            divide_exact(U, zero)
        assert resultant.quotient(U, zero) is None


def test_rejects_degenerate_degrees():
    for pa, pc in (([ONE], [ONE]), ([], [ONE, ONE]), ([ONE, ONE], []), ([], [])):
        with pytest.raises(ValueError):
            sylvester_resultant(pa, pc)


def _oracle_cases():
    """The 14 default rows, every parametric row drawn from its minimum to 40
    at seeds 1 and 19 (in registry order), and SOn-1 at n = 3..40."""
    cases = list(default_cases())
    for seed in (1, 19):
        rng = random.Random(seed)
        for template in load_registry():
            if template.param_specs:
                params = {name: rng.randint(low, 40) for name, low, _ in template.param_specs}
                cases.append(registry_case(template.name, params))
    return cases + [registry_case("SOn-1", {"n": n}) for n in range(3, 41)]


def _resultant_pairs(cases, monkeypatch):
    """The (pa, pc) that compute_resultant hands to sylvester_resultant, per case."""
    pairs = []

    def recording(pa, pc):
        pairs.append((pa, pc))
        return sylvester_resultant(pa, pc)

    with monkeypatch.context() as patch:
        patch.setattr(certify, "sylvester_resultant", recording)
        for case in cases:
            compute_resultant(build_bundle(case))
    return pairs


def _halving_calls(monkeypatch):
    """A list that gains two entries, one per side, on each call of
    sylvester_resultant that takes the reduced path in v = u**2."""
    calls, halve = [], resultant._halve

    def recording(p, s):
        calls.append(s)
        return halve(p, s)

    monkeypatch.setattr(resultant, "_halve", recording)
    return calls


def test_matches_bareiss_on_registry_resultants(monkeypatch):
    # Every pair compute_resultant hands to sylvester_resultant, checked
    # against the fraction-free determinant of the Sylvester matrix over Z[u].
    # Every registry row has alternating multiplicities, so every pair has
    # the reflection symmetry and takes the reduced path; the packed PRS on
    # the unhalved lists gives the same list.
    pairs = _resultant_pairs(_oracle_cases(), monkeypatch)
    assert len(pairs) == 14 + 38 + 2 * sum(1 for t in load_registry() if t.param_specs)
    calls = _halving_calls(monkeypatch)
    for pa, pc in pairs:
        calls.clear()
        got = sylvester_resultant(pa, pc)
        assert len(calls) == 2
        assert got == determinant_bareiss(sylvester_matrix(pa, pc))
        assert got == resultant._packed_resultant(pa, pc)


def test_d4_tuples_take_the_reduced_path_when_m1_equals_m3(monkeypatch):
    # x -> -x sends wall i to wall 4 - i: it fixes walls 0 and 2 and swaps
    # walls 1 and 3, which alternating multiplicities give one multiplicity.
    # All 9 alternating tuples over {1, 2, 3} take the reduced path, and the
    # packed PRS on the unhalved lists agrees.
    tuples = [(m1, m2, m1, m2) for m1, m2 in itertools.product((1, 2, 3), repeat=2)]
    cases = [CaseSpec(name="T", group="", action="", n=2 + sum(m), d=4, multiplicities=m)
             for m in tuples]
    pairs = _resultant_pairs(cases, monkeypatch)
    calls = _halving_calls(monkeypatch)
    for mults, (pa, pc) in zip(tuples, pairs, strict=True):
        calls.clear()
        got = sylvester_resultant(pa, pc)
        assert len(calls) == 2, mults
        assert got == resultant._packed_resultant(pa, pc), mults


def _parity_entry(rng, j, s):
    """A random u-list, or [], with every exponent i of i + j = s mod 2."""
    if rng.random() < 0.3:
        return []
    return _stripped([rng.randint(-6, 6) * ((i + j - s) % 2 == 0)
                      for i in range(rng.randint(1, 5))])


def _parity_side(rng, count, s):
    roll = rng.random()
    if roll < 0.05:
        return [[] for _ in range(count)]
    coeffs = [_parity_entry(rng, j, s) for j in range(count)]
    if roll < 0.35:
        coeffs[-1] = []
    return coeffs


def test_reduced_path_matches_cofactor_on_symmetric_lists(monkeypatch):
    # Formal degrees 0..4 x 0..5, both parities on each side, with zero
    # entries, vanishing leading coefficients and all-zero sides: lists with
    # the symmetry take the reduced path and reach both signs of
    # e = s_a * n + s_c * m - m * n with a nonzero resultant.  One
    # coefficient of the other parity makes the same lists a ValueError.
    rng = random.Random(31)
    calls, branches, mixed = _halving_calls(monkeypatch), {True: 0, False: 0}, 0
    for m, n in itertools.product(range(5), range(6)):
        if m + n == 0:
            continue
        for s_a, s_c in itertools.product((0, 1), repeat=2):
            for _ in range(8):
                pa, pc = _parity_side(rng, m + 1, s_a), _parity_side(rng, n + 1, s_c)
                calls.clear()
                got = sylvester_resultant(pa, pc)
                assert len(calls) == 2
                assert got == determinant_cofactor(sylvester_matrix(pa, pc)), (pa, pc)
                if got:
                    e = _reflection_parity(pa) * n + _reflection_parity(pc) * m - m * n
                    branches[e >= 0] += 1
                side, s = rng.choice(((pa, s_a), (pc, s_c)))
                j = rng.randrange(len(side))
                i = (s - j) % 2 + 2 * rng.randint(0, 1)  # then i + 1 has the other parity
                side[j] = side[j] + [0] * (i + 2 - len(side[j]))
                side[j][i] = side[j][i] or rng.randint(1, 6)
                side[j][i + 1] = rng.choice([-1, 1]) * rng.randint(1, 6)
                with pytest.raises(ValueError, match="both parities"):
                    _reflection_parity(side)
                calls.clear()
                with pytest.raises(ValueError, match="both parities"):
                    sylvester_resultant(pa, pc)
                assert not calls
                mixed += 1
    assert min(branches.values()) > 0, branches
    assert mixed == 29 * 4 * 8


def test_reduced_resultant_must_vanish_below_u_to_the_minus_e(monkeypatch, tmp_path, capsys):
    # At e = -1 the reduced resultant R~(u**2) must be divisible by u: its
    # constant term vanishes.  A packed determinant that breaks this is an
    # inexact division, which certify reports with exit 3.
    pa, pc = [[1], [0, 1]], [[2], [0, 3]]
    assert sylvester_resultant(pa, pc) == [0, 1]  # Res(1 + u*t, 2 + 3*u*t) at (1, 1)
    monkeypatch.setattr(resultant, "_packed_resultant", lambda pa, pc: [1])
    with pytest.raises(ExactDivisionError, match="not divisible by u\\*\\*1"):
        sylvester_resultant(pa, pc)
    assert main(["certify", "--case", "G2", "--out", str(tmp_path)]) == EXIT_PIPELINE_ERROR
    assert "not divisible by u**7" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_matches_cofactor_on_random_formal_degrees():
    # Formal degrees 0..4 x 0..5 with zero entries, vanishing leading
    # coefficients and all-zero sides: the leading-coefficient rules run
    # before the remainder sequence, and every packed value is unpacked.
    rng = random.Random(23)

    def entry():
        if rng.random() < 0.3:
            return []
        return _stripped([rng.randint(-6, 6) for _ in range(rng.randint(1, 3))])

    def side(count):
        roll = rng.random()
        if roll < 0.05:
            return [[] for _ in range(count)]
        coeffs = [entry() for _ in range(count)]
        if roll < 0.35:
            coeffs[-1] = []
        return coeffs

    checked = 0
    for deg_a in range(5):
        for deg_c in range(6):
            if deg_a + deg_c == 0:
                continue
            for _ in range(40):
                pa, pc = side(deg_a + 1), side(deg_c + 1)
                expected = determinant_cofactor(sylvester_matrix(pa, pc))
                assert _packed_resultant(pa, pc) == expected, (pa, pc)
                checked += 1
    assert checked == 29 * 40


def test_signed_digits_reach_the_bound():
    # At formal degrees (1, 0) the resultant is pc's constant and the bound B
    # is its 1-norm, so a coefficient of -B or a run of +-B digits must come
    # back from the packed integer unchanged.
    pa = [[0, 1], ONE]
    assert _packed_resultant(pa, [[0, 0, -9]]) == [0, 0, -9]
    assert _packed_resultant(pa, [[-9, 9, -9]]) == [-9, 9, -9]
    assert _packed_resultant(pa, [[9, -9, 9]]) == [9, -9, 9]
    assert _packed_resultant([[-1], [-1]], [[-1, 0, 0, 1]]) == [-1, 0, 0, 1]
    # At (1, 1) with one vanishing leading coefficient: det [[-3u, 0], [0, 3u^2]]
    # and det [[0, 3u^2], [-3u, 0]] are -+9u^3, and B = 3 * 3 = 9.
    assert _packed_resultant([[0, 0, 3], []], [[], [0, -3]]) == [0, 0, 0, -9]
    assert _packed_resultant([[], [0, -3]], [[0, 0, 3], []]) == [0, 0, 0, 9]


def test_unpack_inverts_pack_at_the_digit_edges():
    # Signed base-2**s digits lie in [-2**(s-1), 2**(s-1)): runs of both ends
    # and of the values next to them, with carries through every position.
    rng = random.Random(5)
    for s in (1, 2, 3, 7, 8, 63, 64, 65, 200):
        half = 1 << s - 1
        edge = [c for c in (-half, -half + 1, -1, 0, 1, half - 2, half - 1) if -half <= c < half]
        for _ in range(60):
            p = _stripped([rng.choice(edge) for _ in range(rng.randint(0, 12))])
            value = _pack(p, s)
            assert value == homogeneous(p, 1 << s, 1)
            assert _unpack(value, s) == p, (s, p)


def _from_roots(lead, roots, pairs):
    """lead * prod(den * u - num) over the rational roots, times
    u**2 - 2a u + a**2 + b**2 for each complex pair a +- bi."""
    p = [lead]
    for r in roots:
        p = poly_mul(p, [-r.numerator, r.denominator])
    for a, b in pairs:
        p = poly_mul(p, [a * a + b * b, -2 * a, 1])
    return p


def _random_root(rng):
    j = rng.randint(-6, 12)
    kind = rng.randrange(3)
    if kind == 0:  # an exact power of two
        return Fraction(2) ** j
    if kind == 1:  # just below one: a cluster forms when several are drawn
        return Fraction(2) ** j * (1 - Fraction(rng.randint(1, 3), 2 ** rng.randint(8, 40)))
    return Fraction(rng.randint(1, 2 ** 12), 2 ** 12) * Fraction(2) ** j


def _check_bound(p, positive):
    k = root_bound(p)
    assert 0 <= k <= fujiwara_exponent(p), p
    assert all(r < 2 ** k for r in positive), (p, k)
    intervals, tests = positive_roots(p)
    assert tests >= 1 and len(intervals) == len(positive), p
    for (lo, hi), r in zip(intervals, sorted(positive)):
        assert lo == hi == r or lo < r < hi, (p, lo, hi, r)
    return k


def test_root_bound_holds_on_known_roots():
    rng = random.Random(17)
    for _ in range(300):
        positive = {_random_root(rng) for _ in range(rng.randint(0, 5))}
        negative = {-_random_root(rng) for _ in range(rng.randint(0, 3))}
        pairs = {(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(rng.randint(0, 3))}
        if positive or negative or pairs:
            lead = rng.choice([-1, 1]) * rng.randint(1, 30)
            _check_bound(_from_roots(lead, positive | negative, pairs), positive)


def test_root_bound_holds_at_bit_length_edges():
    # Coefficients at and just below powers of two, where rounding on bit
    # lengths is tightest; Sturm's theorem counts the roots above 2**k.
    # A bound without the rounding's + 1 fails the first two fixed rows, one
    # that never raises t_j the last two.
    rng = random.Random(37)
    fixed = [[-7, -3, 8], [-511, -8, 512, 2], [-7, -6, -6, 16], [-512, -1023, -63, 8]]
    for p in fixed + [None] * 3000:
        if p is None and rng.random() < 0.5:
            p = [rng.choice([-1, -1, 1]) * max(2 ** rng.randint(0, 12) - rng.randint(0, 1), 1)
                 * rng.randint(0, 1) for _ in range(rng.randint(1, 6))]
            p.append(rng.choice([-1, 1]) * max(2 ** rng.randint(0, 6) - rng.randint(0, 1), 1))
        elif p is None:  # many negative coefficients share the one positive
            p = [-rng.randint(0, 2 ** rng.randint(0, 11)) for _ in range(rng.randint(1, 5))]
            p.append(2 ** rng.randint(0, 4))
        k = root_bound(p)
        assert 0 <= k <= fujiwara_exponent(p)
        assert value(p, 2 ** k) != 0 and roots_above(p, Fraction(2 ** k)) == 0, (p, k)


def test_root_bound_edge_cases():
    # A root at 2**j needs k > j; a tight cluster just below 2**j stays below.
    for j in range(8):
        assert _check_bound([-(2 ** j), 1], [2 ** j]) > j
        cluster = [2 ** j - Fraction(t, 2 ** 30) for t in (1, 2, 3)]
        assert _check_bound(_from_roots(-7, cluster, []), cluster) >= j
    # No sign variation, whatever the leading sign: no positive root, k = 0.
    for lead in (1, -3):
        assert _check_bound(_from_roots(lead, [Fraction(-1), Fraction(-5, 2)], [(-3, 4)]), []) == 0
    # Complex pairs far out bound Fujiwara's search but not the positive roots.
    p = _from_roots(1, [Fraction(3, 2)], [(-1000, 1), (0, 1000)])
    assert _check_bound(p, [Fraction(3, 2)]) < fujiwara_exponent(p)


def _random_int_poly(rng, degree):
    return [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([-1, 1]) * rng.randint(1, 9)]


def test_gcd_cofactors_multiply_back():
    rng = random.Random(29)
    for _ in range(200):
        common = _random_int_poly(rng, rng.randint(0, 4))
        a, b = (poly_mul(poly_mul(common, _random_int_poly(rng, rng.randint(0, 5))),
                         [rng.choice([-1, 1]) * rng.randint(1, 12)]) for _ in range(2))
        g, qa, qb = gcd_cofactors(a, b)
        assert poly_mul(g, qa) == a and poly_mul(g, qb) == b
        assert g[-1] > 0 and math.gcd(*g) == 1
        if len(a) > 1 and len(b) > 1:
            assert g == prs_gcd(a, b)


def test_coprime_gcd_cofactors_divide_nothing(monkeypatch):
    # A gcd of 1 needs no division: the cofactors are the inputs themselves.
    def no_division(p, d):
        raise AssertionError(f"divide_exact({p}, {d}) called")

    monkeypatch.setattr(resultant, "divide_exact", no_division)
    a, b = poly_mul([1, 1], [-3, 0, 2]), poly_mul([2, -1], [5, 0, 0, 7])
    g, qa, qb = gcd_cofactors(a, b)
    assert (g, qa, qb) == ([1], a, b) and qa is a and qb is b


def test_gcd_falls_back_to_the_remainder_sequence(monkeypatch):
    common = [-2, 0, 7, 3]
    a, b = poly_mul(common, [5, -1, 0, 2]), poly_mul(common, [-4, 6])
    want = gcd_cofactors(a, b)
    assert want == (common, [5, -1, 0, 2], [-4, 6])
    sizes = []

    def rejected(value, s):  # a candidate of too high a degree to divide either
        sizes.append(s)
        return [1] * (len(a) + 1)

    monkeypatch.setattr(resultant, "_unpack", rejected)
    assert gcd_cofactors(a, b) == want
    assert len(sizes) == 6 and sizes == sorted(set(sizes))


def test_matches_sympy_resultant():
    # A third oracle: sympy's resultant of C and A in t at y = 1, divided
    # out against the report's scale, sign included.
    sympy = pytest.importorskip("sympy")
    u, t = sympy.symbols("u t")

    def at_y_one(poly):
        return sum(sympy.Rational(int(c.a.numerator), int(c.a.denominator)) * u ** a
                   for (a, _), c in poly.terms.items())

    # Three rows and a d = 4 tuple with m0 != m1 off the registry.
    alternating = CaseSpec(name="T", group="", action="", n=10, d=4,
                           multiplicities=(1, 3, 1, 3))
    for case in (registry_case("G2"), registry_case("SO4"), registry_case("Sp2xSpm", {"m": 2}),
                 alternating):
        bundle = build_bundle(case)
        report = compute_resultant(bundle)
        assert report.trimmed_pairs == 0 and not report.identically_zero
        c = sum(at_y_one(p) * t ** j for j, p in enumerate(bundle.c_coeffs))
        a = sum(at_y_one(p) * t ** j for j, p in enumerate(bundle.a_coeffs))
        expected = sympy.Poly(sympy.resultant(c, a, t), u)
        got = sympy.Poly(sum(sympy.Rational(k, report.scale) * u ** i
                             for i, k in enumerate(report.coeffs)), u)
        assert got == expected, case.label
