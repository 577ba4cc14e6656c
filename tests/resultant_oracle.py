"""Test helpers for the dense Z[u] resultant: a cofactor oracle and converters.

Polynomials in u are dense integer lists, low to high, trailing zeros
stripped (``[]`` is zero), as in :mod:`chamberlab.resultant`.
"""

from chamberlab.poly import SpatialPoly


def _strip(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def poly_add(p, q):
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _strip(out)


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _strip(out)


def poly_neg(p):
    return [-c for c in p]


def determinant_cofactor(matrix):
    """Naive cofactor expansion along the first row."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = []
    for j, entry in enumerate(matrix[0]):
        if not entry:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = poly_mul(entry, determinant_cofactor(minor))
        total = poly_add(total, term if j % 2 == 0 else poly_neg(term))
    return total


def t_multiply(p, q):
    """Coefficient lists (low-to-high in t) of the product of two t-polynomials."""
    out = [[] for _ in range(len(p) + len(q) - 1)]
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] = poly_add(out[i + j], poly_mul(pi, qj))
    return out


def at_y_equal_one(poly: SpatialPoly):
    """The dense list of an integer-coefficient SpatialPoly with y = 1, x = u.

    Substituting y = 1 is a ring map Z[x, y] -> Z[u], so sums, products and
    determinants of mapped entries are the mapped sums, products and
    determinants.
    """
    out = []
    for (a, _), c in poly.terms.items():
        if not c.is_rational or c.a.denominator != 1:
            raise ValueError(f"{c.to_text()} is not an integer")
        out = poly_add(out, [0] * a + [int(c.a.numerator)])
    return out
