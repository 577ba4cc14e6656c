from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundle_oracle import trig_pairs
from field_oracle import dense_add, dense_inverse, dense_mul, dense_sub

from chamberlab.field import FieldScalar, ONE, Rat, ZERO

HALF = FieldScalar(Fraction(1, 2))
SQRT2 = FieldScalar(0, 1)
SQRT3 = FieldScalar(0, 0, 1)
SQRT6 = FieldScalar(0, 0, 0, 1)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
scalars = st.builds(FieldScalar, rationals, rationals, rationals, rationals)
nonzero_scalars = scalars.filter(lambda u: not u.is_zero)
# Each coordinate is zero with probability 1/2, so rational, pure-sqrt2 and
# other sparse elements are drawn as often as dense ones.
sparse_rationals = st.tuples(st.booleans(), rationals).map(lambda t: t[1] if t[0] else 0)
sparse_scalars = st.builds(FieldScalar, sparse_rationals, sparse_rationals,
                           sparse_rationals, sparse_rationals)


class CountingFraction(Fraction):
    """A Fraction that counts the multiplies it takes part in."""

    multiplies = 0

    def __mul__(self, other):
        CountingFraction.multiplies += 1
        return Fraction.__mul__(self, other)

    def __rmul__(self, other):
        CountingFraction.multiplies += 1
        return Fraction.__rmul__(self, other)


def counting_scalar(*components):
    return FieldScalar._raw(*(CountingFraction(c) for c in components))


def multiplies_in(u, v):
    CountingFraction.multiplies = 0
    product = u * v
    count = CountingFraction.multiplies
    assert product == dense_mul(u, v)
    return count


def test_conjugate_product():
    assert (ONE + SQRT2) * (ONE - SQRT2) == FieldScalar.rational(-1)


def test_exact_square_of_half_sqrt2():
    u = SQRT2 * HALF
    assert u * u == HALF


def test_basis_multiplication():
    assert SQRT2 * SQRT3 == SQRT6
    assert SQRT2 * SQRT6 == SQRT3 * 2
    assert SQRT3 * SQRT6 == SQRT2 * 3


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_division_and_power():
    u = FieldScalar(1, 2, 0, 1)
    assert (u / u) == ONE
    assert u ** 0 == ONE
    assert u ** 3 == u * u * u
    assert u ** -2 == (u * u).inverse()


@settings(max_examples=60, deadline=None)
@given(nonzero_scalars)
def test_inverse_is_multiplicative_inverse(u):
    assert u * u.inverse() == ONE


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_ring_axioms(u, v, w):
    assert (u + v) * w == u * w + v * w
    assert (u * v) * w == u * (v * w)
    assert u * v == v * u
    assert u + (v + w) == (u + v) + w


@settings(max_examples=200, deadline=None)
@given(sparse_scalars, sparse_scalars)
def test_sparse_arithmetic_matches_dense_oracle(u, v):
    assert u * v == dense_mul(u, v)
    assert u + v == dense_add(u, v)
    assert u - v == dense_sub(u, v)
    assert -u == dense_sub(ZERO, u)
    if not v.is_zero:
        assert v.inverse() == dense_inverse(v)
        assert u / v == dense_mul(u, dense_inverse(v))


def test_multiply_counts_only_nonzero_components():
    rational = counting_scalar(Fraction(3, 7), 0, 0, 0)
    other = counting_scalar(Fraction(-5, 2), 0, 0, 0)
    root2 = counting_scalar(0, Fraction(2, 3), 0, 0)
    dense = counting_scalar(1, Fraction(1, 2), Fraction(-2, 3), 5)
    assert multiplies_in(rational, other) == 1
    assert multiplies_in(rational, root2) == 1
    # Only products of two coordinates are counted, not the factor 2 of
    # sqrt2 * sqrt2 applied to their result.
    assert multiplies_in(root2, root2) == 1
    assert multiplies_in(dense, dense) == 16


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_pythagorean_identity_exact(d):
    # Each wall x*sin - y*cos of build_walls has sin**2 + cos**2 = 1.
    for s, c in trig_pairs(d):
        assert s * s + c * c == ONE


def test_canonical_text_round_trip():
    u = FieldScalar(Fraction(-3, 4), 2, Fraction(1, 6), -5)
    text = u.to_text()
    assert text == "-3/4 + 2/1*r2 + 1/6*r3 + -5/1*r6"
    assert FieldScalar.from_text(text) == u


@settings(max_examples=40, deadline=None)
@given(scalars)
def test_text_round_trip_random(u):
    assert FieldScalar.from_text(u.to_text()) == u


def test_from_text_rejects_malformed():
    with pytest.raises(ValueError):
        FieldScalar.from_text("1/2 + 3/4*r2")
    with pytest.raises(ValueError):
        FieldScalar.from_text("1/2 + 3/4*r5 + 0/1*r3 + 0/1*r6")
    with pytest.raises(ValueError):
        FieldScalar.from_text("1/0 + 0/1*r2 + 0/1*r3 + 0/1*r6")


def test_hash_consistent_with_eq():
    assert hash(FieldScalar(1, 2, 3, 4)) == hash(FieldScalar(Rat(1), Rat(2), Rat(3), Rat(4)))
    # A rational element equals its Rat and an equal int, so it hashes like them.
    assert len({FieldScalar(3), 3}) == 1
    assert len({FieldScalar(Fraction(1, 2)), Rat(1, 2)}) == 1
    assert len({FieldScalar(3), 3, FieldScalar(0, 3), SQRT2 * 3}) == 2
