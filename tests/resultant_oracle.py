"""Test helpers for the dense Z[u] resultant: Sylvester matrices, a Bareiss
and a cofactor oracle, and converters.

Polynomials in u are dense integer lists, low to high, trailing zeros
stripped (``[]`` is zero), as in :mod:`chamberlab.resultant`.
"""

from chamberlab.poly import SpatialPoly
from chamberlab.resultant import divide_exact


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


def sylvester_matrix(pa, pc):
    """Sylvester matrix for coefficient lists given low-to-high.

    ``pa`` has formal degree len(pa)-1 and ``pc`` formal degree len(pc)-1;
    either may be 0, not both.  The first len(pa)-1 rows carry pc's
    coefficients, the remaining rows pa's.
    """
    deg_a = len(pa) - 1
    deg_c = len(pc) - 1
    if min(deg_a, deg_c) < 0 or deg_a + deg_c < 1:
        raise ValueError("formal degrees must be at least 0 and not both 0")
    size = deg_a + deg_c
    desc_c = list(reversed(pc))
    desc_a = list(reversed(pa))
    return ([[[]] * shift + desc_c + [[]] * (size - shift - deg_c - 1)
             for shift in range(deg_a)]
            + [[[]] * shift + desc_a + [[]] * (size - shift - deg_a - 1)
               for shift in range(deg_c)])


def determinant_bareiss(matrix):
    """Fraction-free Bareiss determinant over Z[u].

    Every division is exact (the intermediate entries are minors of the row
    permuted matrix); a zero pivot is replaced by the first nonzero entry
    below it, and each such row swap flips the sign.
    """
    n = len(matrix)
    m = [row[:] for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return []
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for row_i in m[k + 1:]:
            head = row_i[k]
            for j in range(k + 1, n):
                entry = poly_add(poly_mul(pivot, row_i[j]), poly_neg(poly_mul(head, row_k[j])))
                row_i[j] = entry if prev is None else divide_exact(entry, prev)
        prev = pivot
    det = m[n - 1][n - 1]
    return poly_neg(det) if sign < 0 else det


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
