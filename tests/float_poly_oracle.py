"""Test oracle for the lab's compiled float polynomials: the plain term loop.

This is the float evaluator the lab used before its polynomials were compiled
to straight-line functions, written as an explicit left-to-right loop so that
it does not depend on builtin ``sum`` (which compensates on Python 3.12+).
Starting from the int 0 and adding ``c * x**a * y**b`` term by term in
``float_terms()`` order, it rounds exactly as the compiled function must.
"""


def float_poly_value(poly, x: float, y: float) -> float:
    total = 0
    for a, b, c in poly.float_terms():
        total += c * x**a * y**b
    return total
