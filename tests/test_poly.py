import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chamberlab import resultant
from chamberlab.errors import ExactDivisionError
from chamberlab.field import FieldScalar, ONE
from chamberlab.poly import Form, SpatialPoly, X, Y, add, arc_derivative, dx, dy, \
    form_flow, form_product, mul, reduced, rows_text, scale
from bundle_oracle import spatial
from float_poly_oracle import float_poly_value

HALF = FieldScalar.rational(1, 2)
SQRT2 = FieldScalar(0, 1)

small_coeffs = st.integers(min_value=-6, max_value=6)
small_monos = st.tuples(st.integers(min_value=0, max_value=3),
                        st.integers(min_value=0, max_value=3))
small_polys = st.dictionaries(small_monos, small_coeffs, max_size=4).map(
    lambda d: SpatialPoly({m: FieldScalar.rational(c) for m, c in d.items()}))
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


def test_product_of_conjugate_linears():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_additive_inverse_gives_empty_map():
    p = X * X * Y - Y + 3
    assert (p + (-p)).terms == {}
    assert (p - p).is_zero


def test_scaling_by_field_scalar():
    p = X * X * Y
    assert (p * SQRT2).terms == {(2, 1): SQRT2}


def test_partial_derivatives():
    p = X * X * Y
    assert p.partial_derivative("x") == X * Y * FieldScalar.rational(2)
    assert SpatialPoly.constant(7).partial_derivative("y").is_zero
    wall = (X - Y) * (SQRT2 * HALF)
    assert wall.partial_derivative("x") == SpatialPoly.constant(SQRT2 * HALF)


def test_evaluate_exact_and_float():
    p = X * X - Y * Y
    two = FieldScalar.rational(2)
    assert p.eval_exact(two, ONE) == FieldScalar.rational(3)
    assert float_poly_value(p, 2.0, 1.0) == pytest.approx(3.0)


def test_form_product_adds_degrees():
    # (x xd + y yd)**2: entry 1, the coefficient of xd yd, is 2 x y.
    u = [[0, 1], [1, 0]]
    v = form_product(u, u)
    assert len(v) == 3
    assert spatial(Form(v, 1), 1) == X * Y * 2


def test_exact_division_of_linear_factor():
    assert (X * X - Y * Y).divide_exact(X - Y) == X + Y


def test_exact_division_rejects_remainder():
    with pytest.raises(ExactDivisionError):
        (X * X + Y).divide_exact(X - Y)
    with pytest.raises(ExactDivisionError):
        X.divide_exact(SpatialPoly.zero())


@settings(max_examples=60, deadline=None)
@given(small_polys, nonzero_polys)
def test_exact_division_inverts_multiplication(p, q):
    assert (p * q).divide_exact(q) == p


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_poly_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


def test_serialization_round_trip_and_order():
    p = X * X * Y + X * 5 - Y * Y * Y * SQRT2
    data = p.to_json()
    monos = [(a, b) for a, b, _ in data]
    keyed = [(a + b, a) for a, b in monos]
    assert keyed == sorted(keyed, reverse=True)
    assert SpatialPoly.from_json(data) == p


def test_rows_text_renders_each_row():
    # A zero exponent's factor is left out, and an exponent of 1 is written.
    p = X * X * Y + X * 5 - Y * SQRT2
    assert rows_text(p.to_json()) == p.to_text() == (
        "(1/1 + 0/1*r2 + 0/1*r3 + 0/1*r6)*x^2*y^1 + (5/1 + 0/1*r2 + 0/1*r3 + 0/1*r6)*x^1"
        " + (0/1 + -1/1*r2 + 0/1*r3 + 0/1*r6)*y^1")
    assert rows_text(Form([[3]], 1).rows()) == "(3/1 + 0/1*r2 + 0/1*r3 + 0/1*r6)"
    assert rows_text([]) == SpatialPoly.zero().to_text() == "0"


# -- arc differentiation -----------------------------------------------------

# The single-wall chamber: qd = -y and R = -xd / y, the numerator xd over qd.
# Forms are (lists, denominator) pairs, a polynomial a form with one list.
QD_1 = ([[-1, 0]], 1)
R_1 = ([[1], [0]], 1)
ZERO_ENTRY = SpatialPoly.zero()


def _entries(form):
    return [spatial(Form(*form), q) for q in range(len(form[0]))]


def test_arc_derivative_of_coordinate_is_velocity():
    # d/ds of x (velocity degree 0, over qd^0) is xd, that is qd * xd over qd.
    out = arc_derivative(([[0, 1]], 1), R_1, QD_1)
    assert _entries(out) == [-Y, ZERO_ENTRY]


def test_arc_derivative_of_velocity_is_rotation_rate():
    # d(xd)/ds = (R/3) yd.  xd is qd * xd over qd, and its derivative
    # (1/3) xd yd / qd is (1/3) qd * xd yd over qd^2.
    out = arc_derivative(([[-1, 0], [0, 0]], 1), R_1, QD_1)
    assert _entries(out) == [ZERO_ENTRY, -Y * FieldScalar.rational(1, 3), ZERO_ENTRY]


def test_arc_derivative_single_wall_chain():
    # Hand-derived: d/ds of (-xd/y) along the single-wall candidate flow is
    # (4/3) xd yd / y^2.
    out = arc_derivative(R_1, R_1, QD_1)
    four_thirds = SpatialPoly.constant(FieldScalar.rational(4, 3))
    assert _entries(out) == [ZERO_ENTRY, four_thirds, ZERO_ENTRY]


def test_form_round_trip_and_list_arithmetic():
    # The list helpers on numerators, the denominators carried beside them.
    p = X * X * FieldScalar.rational(3, 4) - X * Y * FieldScalar.rational(1, 6) + Y * Y
    q = X * 2 - Y * FieldScalar.rational(5, 3)
    (fp,), den_p = dp = reduced([[12, -2, 9]], 12)
    (fq,), den_q = dq = reduced([[-5, 6]], 3)
    assert spatial(dp) == p and spatial(dq) == q
    assert spatial(Form([mul(fp, fq)], den_p * den_q)) == p * q
    assert mul(fp, fq) == mul(fq, fp)
    assert spatial(Form([dx(fp)], den_p)) == p.partial_derivative("x")
    assert spatial(Form([dy(fp)], den_p)) == p.partial_derivative("y")
    assert spatial(Form([add(fp, scale(-1, fp))], 1)) == SpatialPoly.zero()
    with pytest.raises(ValueError, match="different degrees"):
        add(fp, fq)


# -- integer lists -------------------------------------------------------------


def _value(p, u):
    """The list p at y = 1, x = u: sum(p[a] * u**a)."""
    return sum(c * u ** a for a, c in enumerate(p))


def _random_list(rng, length):
    return [rng.choice([0, rng.randint(-9, 9), rng.randint(-10 ** 30, 10 ** 30)])
            for _ in range(length)]


def test_list_helpers_match_fraction_arithmetic():
    # Product, sum, scaling and both derivatives of random lists, checked at
    # exact rational points u = x/y: a degree-k list is p(u) * y**k, so
    # d/dx is p'(u) * y**(k - 1) and d/dy is (k p(u) - u p'(u)) * y**(k - 1).
    rng = random.Random(31)
    points = [Fraction(n, dn) for n, dn in ((0, 1), (1, 1), (-2, 3), (7, 5), (-11, 2))]
    for _ in range(200):
        k, j = rng.randint(0, 8), rng.randint(0, 8)
        a, b, c = _random_list(rng, k + 1), _random_list(rng, j + 1), _random_list(rng, k + 1)
        s = rng.randint(-5, 5)
        product, total = mul(a, b), add(a, scale(s, c), c)
        assert len(product) == k + j + 1 and len(total) == k + 1
        assert len(dx(a)) == len(dy(a)) == k
        for u in points:
            derivative = sum(n * c * u ** (n - 1) for n, c in enumerate(a) if n)
            assert _value(product, u) == _value(a, u) * _value(b, u)
            assert _value(total, u) == _value(a, u) + (s + 1) * _value(c, u)
            assert _value(dx(a), u) == derivative
            assert _value(dy(a), u) == k * _value(a, u) - u * derivative


def test_list_sum_of_unequal_lengths_raises():
    # A sum never truncates or pads: lengths are degrees plus one, and a sum
    # of two degrees is a broken derivation.
    for a, b in (([1, 2], [1, 2, 3]), ([1, 2, 3], [1]), ([5], [])):
        with pytest.raises(ValueError, match="sum of polynomials of different degrees"):
            add(a, b)
        with pytest.raises(ValueError, match="different degrees"):
            add(a, a, b)
    assert add([1, 2], [3, 4], [5, 6]) == [9, 12] and add([]) == []


def test_list_derivative_of_a_constant_has_degree_minus_one():
    # d/dx of a constant is [], and its product with a degree-k list is the
    # zero list of degree k - 1, which a sum of that degree accepts.  The
    # root scan's derivative in u is the same function.
    assert resultant.derivative is dx
    assert dx([7]) == dy([7]) == []
    assert mul([1, 2, 3], dx([7])) == [0, 0]
    assert add(mul([1, 2, 3], dy([7])), [4, 5]) == [4, 5]


def test_form_flow_is_the_coordinate_flow():
    # F(x**2 xd + x y yd) = (2x xd + y yd) xd + x yd yd.
    assert form_flow([[0, 0, 1], [0, 1, 0]]) == [[0, 2], [1, 0], [0, 1]]
