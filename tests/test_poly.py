import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chamberlab.errors import ExactDivisionError
from chamberlab.field import FieldScalar, HALF, ONE, SQRT2
from chamberlab.poly import (
    NOT_HOMOGENEOUS,
    DensePoly,
    SpatialPoly,
    X,
    Y,
    ZERO_POLY,
    arc_derivative,
    form_product,
)
from float_poly_oracle import float_poly_value

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
    p = SpatialPoly.monomial(2, 1)
    assert (p * SQRT2).terms == {(2, 1): SQRT2}


def test_partial_derivatives():
    p = SpatialPoly.monomial(2, 1)
    assert p.partial_derivative("x") == SpatialPoly.monomial(1, 1, FieldScalar.rational(2))
    assert SpatialPoly.constant(7).partial_derivative("y").is_zero
    wall = SpatialPoly.linear(SQRT2 * HALF, -(SQRT2 * HALF))
    assert wall.partial_derivative("x") == SpatialPoly.constant(SQRT2 * HALF)


def test_homogeneous_degree_three_outcomes():
    assert (X * X - Y * Y).homogeneous_degree() == 2
    assert (X * X + Y).homogeneous_degree() == NOT_HOMOGENEOUS
    assert SpatialPoly.zero().homogeneous_degree() == ZERO_POLY


def test_evaluate_exact_and_float():
    p = X * X - Y * Y
    two = FieldScalar.rational(2)
    assert p.eval_exact(two, ONE) == FieldScalar.rational(3)
    assert float_poly_value(p, 2.0, 1.0) == pytest.approx(3.0)


def test_form_product_adds_degrees():
    u = [DensePoly.of(X), DensePoly.of(Y)]
    v = form_product(u, u)
    assert len(v) == 3
    assert v[1].to_spatial() == X * Y * 2


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


@settings(max_examples=40, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_degree_of_product_adds(p, q):
    assert (p * q).total_degree() == p.total_degree() + q.total_degree()


def test_serialization_round_trip_and_order():
    p = X * X * Y + X * 5 - Y * Y * Y * SQRT2
    data = p.to_json()
    monos = [(a, b) for a, b, _ in data]
    keyed = [(a + b, a) for a, b in monos]
    assert keyed == sorted(keyed, reverse=True)
    assert SpatialPoly.from_json(data) == p


# -- arc differentiation -----------------------------------------------------

# The single-wall chamber: qd = -y and R = -xd / y, the numerator xd over qd.
QD_1 = DensePoly.of(-Y)
R_1 = [DensePoly([1]), DensePoly([])]
ZERO_ENTRY = SpatialPoly.zero()


def _entries(form):
    return [p.to_spatial() for p in form]


def test_arc_derivative_of_coordinate_is_velocity():
    # d/ds of x (velocity degree 0, over qd^0) is xd, that is qd * xd over qd.
    out = arc_derivative([DensePoly.of(X)], R_1, QD_1)
    assert _entries(out) == [-Y, ZERO_ENTRY]


def test_arc_derivative_of_velocity_is_rotation_rate():
    # d(xd)/ds = (R/3) yd.  xd is qd * xd over qd, and its derivative
    # (1/3) xd yd / qd is (1/3) qd * xd yd over qd^2.
    out = arc_derivative([QD_1, DensePoly([])], R_1, QD_1)
    assert _entries(out) == [ZERO_ENTRY, -Y * FieldScalar.rational(1, 3), ZERO_ENTRY]


def test_arc_derivative_single_wall_chain():
    # Hand-derived: d/ds of (-xd/y) along the single-wall candidate flow is
    # (4/3) xd yd / y^2.
    out = arc_derivative(R_1, R_1, QD_1)
    four_thirds = SpatialPoly.constant(FieldScalar.rational(4, 3))
    assert _entries(out) == [ZERO_ENTRY, four_thirds, ZERO_ENTRY]


def test_monomial_and_linear_reject_non_field_coefficients():
    for build in (lambda: SpatialPoly.monomial(1, 0, 0.5),
                  lambda: SpatialPoly.linear("a", 1),
                  lambda: SpatialPoly.linear(1, None)):
        with pytest.raises(TypeError):
            build()


def test_dense_poly_round_trip_and_arithmetic():
    p = X * X * FieldScalar.rational(3, 4) - X * Y * FieldScalar.rational(1, 6) + Y * Y
    q = X * 2 - Y * FieldScalar.rational(5, 3)
    dp, dq = DensePoly.of(p), DensePoly.of(q)
    assert dp.coeffs == [12, -2, 9] and dp.den == 12
    assert dp.to_spatial() == p
    assert (dp * dq).to_spatial() == p * q
    assert (dp * dq - dq * dp).coeffs == []
    assert (dp ** 3).to_spatial() == p ** 3
    assert dp.dx().to_spatial() == p.partial_derivative("x")
    assert dp.dy().to_spatial() == p.partial_derivative("y")
    assert DensePoly.of(SpatialPoly.zero()).coeffs == []
    with pytest.raises(ValueError):
        dp + dq
    with pytest.raises(ValueError, match="not rational"):
        DensePoly.of(X * SQRT2)
    with pytest.raises(ValueError, match="one common degree"):
        DensePoly.of(X + 1)
