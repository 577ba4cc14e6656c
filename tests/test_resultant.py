import random

import pytest

from chamberlab.errors import ExactDivisionError
from chamberlab.resultant import (
    determinant_bareiss,
    divide_exact,
    sylvester_matrix,
    sylvester_resultant,
)
from resultant_oracle import determinant_cofactor, poly_mul, t_multiply

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
    with pytest.raises(ValueError):
        sylvester_matrix([ONE], [ONE])
    with pytest.raises(ValueError):
        sylvester_matrix([], [ONE, ONE])
