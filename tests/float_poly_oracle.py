"""Test oracle for the lab's compiled float polynomials: the plain term loop.

This is the float evaluator the lab used before its polynomials were compiled
to straight-line functions, written as an explicit left-to-right loop so that
it does not depend on builtin ``sum`` (which compensates on Python 3.12+).
Starting from the int 0 and adding ``c * x**a * y**b`` term by term in
:func:`float_terms` order, it rounds exactly as the compiled function must.
``float_reduced_value`` evaluates a velocity form over a power of qd, such
as a bundle's ``r_dot``, the same way, for derivative oracles.
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


def float_poly_value(poly, x: float, y: float, q: int = 0) -> float:
    total = 0
    for a, b, c in float_terms(poly, q):
        total += c * x**a * y**b
    return total


def float_reduced_value(form: Form, qd, st) -> float:
    """A velocity form over qd**v, v = len(form.lists) - 1, at a curve state,
    summed entry by entry."""
    v = len(form.lists) - 1
    num = 0
    for q in range(v + 1):
        num += float_poly_value(form, st.x, st.y, q) * st.xd**(v - q) * st.yd**q
    return num / float_poly_value(qd, st.x, st.y) ** v
