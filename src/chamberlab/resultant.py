"""Sylvester resultants over Z[u] by fraction-free (Bareiss) elimination.

The entries are dense integer coefficient lists in one variable u, low to
high, with trailing zeros stripped, so ``[]`` is the zero polynomial.  Every
resultant chamberlab certifies has homogeneous rational coefficients in
(x, y); :func:`chamberlab.certify.compute_resultant` clears denominators,
sets u = x/y and rehomogenizes the result, which keeps this module to plain
integer arithmetic.

The Sylvester matrix is built from formal degrees (the supplied coefficient
lists fix them), so vanishing leading coefficients are kept as zero entries.
One side may have formal degree 0: the matrix is then its constant a0 on the
diagonal, and Res(a0, C) = a0**k for C of formal degree k.  Row layout puts
the second polynomial's coefficient block first, which fixes the sign
convention: the resultant of (t - u, t - 1) at formal degrees (1, 1) is 1 - u.
"""

from __future__ import annotations

from .errors import ExactDivisionError

IntPoly = list[int]


def _sub_products(p: IntPoly, q: IntPoly, r: IntPoly, s: IntPoly) -> IntPoly:
    """p*q - r*s, trailing zeros stripped."""
    n = max(len(p) + len(q), len(r) + len(s)) - 1
    if n <= 0:
        return []
    out = [0] * n
    if p and q:
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(q, i):
                    out[j] += a * b
    if r and s:
        for i, a in enumerate(r):
            if a:
                for j, b in enumerate(s, i):
                    out[j] -= a * b
    while out and not out[-1]:
        out.pop()
    return out


def divide_exact(p: IntPoly, d: IntPoly) -> IntPoly:
    """Exact quotient p / d in Z[u]; raises ExactDivisionError otherwise."""
    if not d:
        raise ExactDivisionError("division by the zero polynomial")
    if not p:
        return []
    shift = len(p) - len(d)
    if shift < 0:
        raise ExactDivisionError("division left a remainder")
    lead = d[-1]
    rem = list(p)
    quot = [0] * (shift + 1)
    for k in range(shift, -1, -1):
        top = rem[k + len(d) - 1]
        if top:
            qk, r = divmod(top, lead)
            if r:
                raise ExactDivisionError("division left a remainder")
            quot[k] = qk
            for j, c in enumerate(d, k):
                rem[j] -= qk * c
    if any(rem):
        raise ExactDivisionError("division left a remainder")
    return quot


def sylvester_matrix(pa: list[IntPoly], pc: list[IntPoly]) -> list[list[IntPoly]]:
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
    matrix = []
    desc_c = list(reversed(pc))
    desc_a = list(reversed(pa))
    for shift in range(deg_a):
        matrix.append([[]] * shift + desc_c + [[]] * (size - shift - deg_c - 1))
    for shift in range(deg_c):
        matrix.append([[]] * shift + desc_a + [[]] * (size - shift - deg_a - 1))
    return matrix


def determinant_bareiss(matrix: list[list[IntPoly]]) -> IntPoly:
    """Fraction-free Bareiss determinant over Z[u].

    Every division is exact (the intermediate entries are minors of the row
    permuted matrix); a zero pivot is replaced by the first nonzero entry
    below it, and each such row swap flips the sign.
    """
    n = len(matrix)
    m = [row[:] for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 1:
        return m[0][0]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return []
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            for j in range(k + 1, n):
                entry = _sub_products(pivot, row_i[j], head, row_k[j])
                if prev is not None:
                    entry = divide_exact(entry, prev)
                row_i[j] = entry
        prev = pivot
    det = m[n - 1][n - 1]
    return [-c for c in det] if sign < 0 else det


def sylvester_resultant(pa: list[IntPoly], pc: list[IntPoly]) -> IntPoly:
    """Resultant of the two coefficient lists (low-to-high) at formal degrees."""
    return determinant_bareiss(sylvester_matrix(pa, pc))
