"""Test oracle for the lab's compiled float polynomials: the plain term loop.

This is the float evaluator the lab used before its polynomials were compiled
to straight-line functions, written as an explicit left-to-right loop so that
it does not depend on builtin ``sum`` (which compensates on Python 3.12+).
Starting from the int 0 and adding ``c * x**a * y**b`` term by term in
``float_terms()`` order, it rounds exactly as the compiled function must.
``float_reduced_value`` evaluates a velocity form over a power of qd, such
as a bundle's ``r_dot``, the same way, for derivative oracles.
"""


def float_poly_value(poly, x: float, y: float) -> float:
    total = 0
    for a, b, c in poly.float_terms():
        total += c * x**a * y**b
    return total


def float_reduced_value(form, qd, st) -> float:
    """A list form over qd**v, v = len(form) - 1, at a curve state, summed
    entry by entry."""
    v = len(form) - 1
    num = 0
    for q, poly in enumerate(form):
        num += float_poly_value(poly.to_spatial(), st.x, st.y) * st.xd**(v - q) * st.yd**q
    return num / float_poly_value(qd, st.x, st.y) ** v
