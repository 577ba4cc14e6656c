"""Test oracle for the lab's compiled float polynomials: the plain term loop.

This is the float evaluator the lab's compiled straight-line functions must
agree with bit for bit, written as an explicit left-to-right loop so that it
does not depend on builtin ``sum`` (which compensates on Python 3.12+), and
with products only, so that it does not depend on libm's ``pow``.  Each
power is x**k = x**(k - k//2) * x**(k//2) (:func:`power`), each monomial
the x power times the y power (:func:`monomial`), and starting from 0.0 the
loop adds ``c * x**a * y**b`` term by term in :func:`float_terms` order.
A value out of float range is +-inf or NaN, as in the kernels; nothing
raises.
``float_reduced_value`` evaluates a velocity form over a power of qd, such
as a bundle's ``r_dot``, from these values, for derivative oracles, which
compare approximately; its own powers of xd, yd and qd are ``**``.
"""

import math

from chamberlab.poly import Form
from field_oracle import exact_sign


def float_terms(poly, q: int = 0) -> list[tuple[int, int, float]]:
    """A Form's ``float_terms(q)``; a SpatialPoly's terms in canonical
    order, each coefficient the nearest double: a rational one by ``float``,
    a wall's +-sqrt(k)/2 from k = 4 c**2, exactly an integer."""
    if isinstance(poly, Form):
        return poly.float_terms(q)
    out = []
    for (a, b), c in poly.sorted_terms():
        if c.is_rational:
            out.append((a, b, float(c.a)))
        else:
            k = c * c * 4
            assert k.is_rational and k.a.denominator == 1, c
            out.append((a, b, math.copysign(math.sqrt(k.a) / 2, exact_sign(c))))
    return out


def power(x: float, k: int) -> float:
    """x**k as products: 1.0 for k = 0, x for k = 1, and
    x**(k - k//2) * x**(k//2) above.  A power out of float range is +-inf,
    as an IEEE-754 product is, where ``x ** k`` would raise OverflowError.
    """
    if k < 2:
        return x if k else 1.0
    return power(x, k - k // 2) * power(x, k // 2)


def monomial(x: float, y: float, a: int, b: int) -> float:
    """x**a * y**b as the x power times the y power.  A factor x**0 or y**0
    is 1.0, which changes no bit, so this equals the kernels' monomial,
    which leaves that factor out."""
    return power(x, a) * power(y, b)


def float_poly_value(poly, x: float, y: float, q: int = 0) -> float:
    total = 0.0
    for a, b, c in float_terms(poly, q):
        total += c * monomial(x, y, a, b)
    return total


def float_reduced_value(form: Form, qd, st) -> float:
    """A velocity form over qd**v, v = len(form.lists) - 1, at a curve state,
    summed entry by entry."""
    v = len(form.lists) - 1
    num = 0
    for q in range(v + 1):
        num += float_poly_value(form, st.x, st.y, q) * st.xd**(v - q) * st.yd**q
    return num / float_poly_value(qd, st.x, st.y) ** v
