import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chamberlab.errors import ExactDivisionError
from chamberlab.field import FieldScalar, HALF, ONE, SQRT2
from chamberlab.poly import (
    NOT_HOMOGENEOUS,
    DensePoly,
    ReducedExpr,
    SpatialPoly,
    VelocityForm,
    X,
    Y,
    ZERO_POLY,
    arc_derivative,
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


def test_velocity_form_basis_velocity_picks_coefficient():
    a0 = X * X
    a3 = Y * Y
    cubic = VelocityForm(3, {(3, 0): a0, (0, 3): a3})
    value = cubic.eval_exact(FieldScalar.rational(5), ONE, ONE, FieldScalar.rational(0))
    assert value == a0.eval_exact(FieldScalar.rational(5), ONE)


def test_velocity_form_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        VelocityForm(2, {(1, 0): X})
    with pytest.raises(ValueError):
        VelocityForm(1, {(1, 0): X}) + VelocityForm(2, {(2, 0): X})


def test_velocity_form_product_adds_degrees():
    u = VelocityForm.velocity_linear(X, Y)
    v = u * u
    assert v.vdeg == 2
    assert v.coefficient(1, 1) == X * Y * 2


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


def _d1_curvature_sum():
    """R for the single-wall chamber: numerator xd over qd = -y."""
    qd = -Y
    num = VelocityForm.velocity_linear(SpatialPoly.constant(1), SpatialPoly.zero())
    return ReducedExpr(num, 1, qd)


def test_arc_derivative_of_coordinate_is_velocity():
    r = _d1_curvature_sum()
    coord = ReducedExpr(VelocityForm.spatial(X), 0, r.qd)
    out = arc_derivative(coord, r)
    assert out.qd_power == 0 and out.velocity_degree == 1
    assert out.num == VelocityForm.velocity_linear(SpatialPoly.constant(1),
                                                   SpatialPoly.zero())


def test_arc_derivative_of_velocity_is_rotation_rate():
    r = _d1_curvature_sum()
    xd = ReducedExpr(VelocityForm.velocity_linear(SpatialPoly.constant(1),
                                                  SpatialPoly.zero()), 0, r.qd)
    out = arc_derivative(xd, r)
    # d(xd)/ds = (R/3) yd: numerator (1/3) * xd * yd over qd.
    assert out.qd_power == 1 and out.velocity_degree == 2
    expected = VelocityForm(2, {(1, 1): SpatialPoly.constant(FieldScalar.rational(1, 3))})
    assert out.num == expected


def test_arc_derivative_single_wall_chain():
    # Hand-derived: d/ds of (-xd/y) along the single-wall candidate flow is
    # (4/3) xd yd / y^2.
    r = _d1_curvature_sum()
    out = arc_derivative(r, r)
    assert out.qd_power == 2 and out.velocity_degree == 2
    expected = VelocityForm(2, {(1, 1): SpatialPoly.constant(FieldScalar.rational(4, 3))})
    assert out.num == expected


def test_arc_derivative_rejects_mismatched_case():
    r = _d1_curvature_sum()
    other = ReducedExpr(r.num, 1, -X)
    with pytest.raises(ValueError):
        arc_derivative(other, r)


def test_reduced_expr_equality_across_powers():
    r = _d1_curvature_sum()
    promoted = ReducedExpr(r.num * r.qd, 2, r.qd)
    assert promoted == r
    different = ReducedExpr(r.num * r.qd * 2, 2, r.qd)
    assert different != r


def test_monomial_and_linear_reject_non_field_coefficients():
    for build in (lambda: SpatialPoly.monomial(1, 0, 0.5),
                  lambda: SpatialPoly.linear("a", 1),
                  lambda: SpatialPoly.linear(1, None)):
        with pytest.raises(TypeError):
            build()


def test_arc_derivative_rejects_non_homogeneous_numerator():
    r = _d1_curvature_sum()
    mixed = ReducedExpr(VelocityForm.velocity_linear(X + Y * Y, SpatialPoly.zero()), 1, r.qd)
    with pytest.raises(ValueError):
        arc_derivative(mixed, r)
    # Coefficients of one velocity form in different degrees.
    uneven = ReducedExpr(VelocityForm.velocity_linear(X, SpatialPoly.constant(1)), 1, r.qd)
    with pytest.raises(ValueError):
        arc_derivative(uneven, r)


def test_arc_derivative_rejects_irrational_numerator():
    r = _d1_curvature_sum()
    irrational = ReducedExpr(VelocityForm.velocity_linear(X * SQRT2, SpatialPoly.zero()),
                             1, r.qd)
    with pytest.raises(ValueError):
        arc_derivative(irrational, r)


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
