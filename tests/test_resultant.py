import random

import pytest

from chamberlab import certify
from chamberlab.cases import default_cases, load_registry, registry_case
from chamberlab.certify import compute_resultant
from chamberlab.errors import ExactDivisionError
from chamberlab.reduction import build_bundle
from chamberlab.resultant import divide_exact, sylvester_resultant
from resultant_oracle import (
    determinant_bareiss,
    determinant_cofactor,
    poly_mul,
    sylvester_matrix,
    t_multiply,
)

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


def test_linear_resultant_sign_convention():
    # coefficient lists for t - u and t - 1, low-to-high
    pa = [[0, -1], ONE]
    pc = [[-1], ONE]
    assert sylvester_resultant(pa, pc) == [1, -1]  # 1 - u


def test_shared_linear_factor_gives_zero():
    rng = random.Random(7)
    for _ in range(10):
        shared = [_stripped(_random_linear(rng)), ONE]  # t - l(u) shape
        pa = t_multiply(shared, _random_coeffs(rng, 3))
        pc = t_multiply(shared, _random_coeffs(rng, 5))
        assert sylvester_resultant(pa, pc) == []


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
    assert sylvester_resultant(pa, pc) == [3]


def test_formal_degree_zero_side_gives_power_of_constant():
    # A side of formal degree 0 puts its constant a0 on the diagonal, so
    # Res(a0, C) = a0**k for C of formal degree k, with either side first.
    rng = random.Random(19)
    for _ in range(20):
        a0 = rng.choice([-1, 1]) * rng.randint(1, 9)
        k = rng.randint(1, 5)
        pc = [_stripped(_random_linear(rng)) for _ in range(k + 1)]
        for pair in (([[a0]], pc), (pc, [[a0]])):
            res = sylvester_resultant(*pair)
            assert res == [a0 ** k]
            assert res == determinant_cofactor(sylvester_matrix(*pair))


def test_resultant_homogeneous_for_homogeneous_inputs():
    # x*(2t^3 + 1) and y*(3t^5 + 1) are coprime in t, so the determinant is a
    # nonzero homogeneous polynomial of degree 5*1 + 3*1, which is
    # c * x^5 * y^3 (one x per row of the cubic's block, one y per row of the
    # quintic's).  At y = 1, x = u that is the single monomial c * u^5.
    pa = [U, [], [], [0, 2]]
    pc = [ONE, [], [], [], [], [3]]
    res = sylvester_resultant(pa, pc)
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


def test_matches_bareiss_on_registry_resultants(monkeypatch):
    # Every pair compute_resultant hands to sylvester_resultant, checked
    # against the fraction-free determinant of the Sylvester matrix over Z[u].
    pairs = []

    def recording(pa, pc):
        pairs.append((pa, pc))
        return sylvester_resultant(pa, pc)

    monkeypatch.setattr(certify, "sylvester_resultant", recording)
    for case in _oracle_cases():
        compute_resultant(build_bundle(case))
    assert len(pairs) == 14 + 38 + 2 * sum(1 for t in load_registry() if t.param_specs)
    for pa, pc in pairs:
        assert sylvester_resultant(pa, pc) == determinant_bareiss(sylvester_matrix(pa, pc))


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
                assert sylvester_resultant(pa, pc) == expected, (pa, pc)
                checked += 1
    assert checked == 29 * 40


def test_signed_digits_reach_the_bound():
    # At formal degrees (1, 0) the resultant is pc's constant and the bound B
    # is its 1-norm, so a coefficient of -B or a run of +-B digits must come
    # back from the packed integer unchanged.
    pa = [[0, 1], ONE]
    assert sylvester_resultant(pa, [[0, 0, -9]]) == [0, 0, -9]
    assert sylvester_resultant(pa, [[-9, 9, -9]]) == [-9, 9, -9]
    assert sylvester_resultant(pa, [[9, -9, 9]]) == [9, -9, 9]
    assert sylvester_resultant([[-1], [-1]], [[-1, 0, 0, 1]]) == [-1, 0, 0, 1]
    # At (1, 1) with one vanishing leading coefficient: det [[-3u, 0], [0, 3u^2]]
    # and det [[0, 3u^2], [-3u, 0]] are -+9u^3, and B = 3 * 3 = 9.
    assert sylvester_resultant([[0, 0, 3], []], [[], [0, -3]]) == [0, 0, 0, -9]
    assert sylvester_resultant([[], [0, -3]], [[0, 0, 3], []]) == [0, 0, 0, 9]


def test_matches_sympy_resultant():
    # A third oracle: sympy's resultant of C and A in t at y = 1, divided
    # out against the report's scale, sign included.
    sympy = pytest.importorskip("sympy")
    u, t = sympy.symbols("u t")

    def at_y_one(poly):
        return sum(sympy.Rational(int(c.a.numerator), int(c.a.denominator)) * u ** a
                   for (a, _), c in poly.terms.items())

    for case in (registry_case("G2"), registry_case("SO4"), registry_case("Sp2xSpm", {"m": 2})):
        bundle = build_bundle(case)
        report = compute_resultant(bundle)
        assert report.trimmed_pairs == 0 and not report.identically_zero
        c = sum(at_y_one(p) * t ** j for j, p in enumerate(bundle.c_coeffs))
        a = sum(at_y_one(p) * t ** j for j, p in enumerate(bundle.a_coeffs))
        expected = sympy.Poly(sympy.resultant(c, a, t), u)
        got = sympy.Poly(sum(sympy.Rational(k, report.scale) * u ** i
                             for i, k in enumerate(report.coeffs)), u)
        assert got == expected, case.label
