import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_oracle import dense_add, dense_inverse, dense_mul, dense_sub

from chamberlab.errors import UnsupportedCaseError
from chamberlab.field import (
    FieldScalar,
    HALF,
    ONE,
    Rat,
    SQRT2,
    SQRT3,
    SQRT6,
    ZERO,
    embed_real,
    to_float,
    trig_pair,
)

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


@settings(max_examples=40, deadline=None)
@given(scalars, scalars)
def test_embedding_is_multiplicative(u, v):
    bits = 120
    lhs = embed_real(u * v, bits)
    with mpmath.workprec(bits):
        rhs = embed_real(u, bits) * embed_real(v, bits)
        err = abs(lhs - rhs)
        bound = mpmath.mpf(2) ** (-bits + 8) * (1 + abs(lhs))
    assert err <= bound


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_trig_pair_zero_angle(d):
    assert trig_pair(d, 0) == (ZERO, ONE)


def test_trig_pair_known_values():
    s, c = trig_pair(4, 1)
    assert s == SQRT2 * HALF and c == SQRT2 * HALF
    s, c = trig_pair(3, 1)
    assert s == SQRT3 * HALF and c == HALF
    s, c = trig_pair(6, 5)
    assert s == HALF and c == -(SQRT3 * HALF)


@pytest.mark.parametrize("d", [5, 7, 0, -1])
def test_trig_pair_rejects_bad_d(d):
    with pytest.raises(UnsupportedCaseError):
        trig_pair(d, 0)


def test_trig_pair_rejects_bad_index():
    with pytest.raises(ValueError):
        trig_pair(4, 4)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_pythagorean_identity_exact(d):
    for i in range(d):
        s, c = trig_pair(d, i)
        assert s * s + c * c == ONE


def test_embed_known_constants():
    assert float(embed_real(SQRT2, 53)) == pytest.approx(math.sqrt(2), abs=1e-15)
    assert float(embed_real(ZERO, 53)) == 0.0
    third = FieldScalar.rational(1, 3)
    with mpmath.workprec(200):
        err = abs(embed_real(third, 100) - mpmath.mpf(1) / 3)
        assert err < mpmath.mpf(2) ** -96


def test_embed_rejects_low_precision():
    with pytest.raises(ValueError):
        embed_real(ONE, 20)


def test_to_float_matches_math():
    u = FieldScalar(1, 1, 1, 1)
    expected = 1 + math.sqrt(2) + math.sqrt(3) + math.sqrt(6)
    assert to_float(u) == pytest.approx(expected, rel=1e-15)


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
