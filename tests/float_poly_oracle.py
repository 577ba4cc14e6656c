"""Test oracle for the lab's compiled float polynomials: the plain term loop.

This is the float evaluator the lab used before its polynomials were compiled
to straight-line functions, written as an explicit left-to-right loop so that
it does not depend on builtin ``sum`` (which compensates on Python 3.12+).
Starting from the int 0 and adding ``c * x**a * y**b`` term by term in
``float_terms()`` order, it rounds exactly as the compiled function must.
``float_reduced_value`` evaluates a reduced expression such as a bundle's
``r_dot`` the same way, for derivative oracles.
"""


def float_poly_value(poly, x: float, y: float) -> float:
    total = 0
    for a, b, c in poly.float_terms():
        total += c * x**a * y**b
    return total


def float_reduced_value(expr, st) -> float:
    """num / qd**qd_power of a ReducedExpr at a curve state, summed term by term."""
    num = 0
    for (p, q), poly in expr.num.terms.items():
        num += float_poly_value(poly, st.x, st.y) * st.xd**p * st.yd**q
    return num / float_poly_value(expr.qd, st.x, st.y) ** expr.qd_power
