"""Polynomials in Z[u]: Sylvester resultants by fraction-free (Bareiss)
elimination, and exact real roots.

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

For real roots: the heuristic gcd of Char, Geddes and Gonnet (J. Symb.
Comput. 7, 1989), checked by exact division, else the primitive remainder
sequence; Yun's square-free decomposition; Descartes' rule with
Vincent-Collins-Akritas bisection (Collins & Akritas, SYMSAC 1976).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, zip_longest

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


# -- exact real roots ---------------------------------------------------------


def primitive(p: IntPoly) -> IntPoly:
    """p over its content, with a positive leading coefficient."""
    g = math.gcd(*p) if p[-1] > 0 else -math.gcd(*p)
    return [c // g for c in p]


def derivative(p: IntPoly) -> IntPoly:
    return [i * c for i, c in enumerate(p)][1:]


def subtract(p: IntPoly, q: IntPoly) -> IntPoly:
    out = [a - b for a, b in zip_longest(p, q, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def homogeneous(p: IntPoly, x: int, y: int) -> int:
    """sum(p[a] * x**a * y**(n - a)), n = len(p) - 1, that is y**n * p(x / y)."""
    acc, ypow = 0, 1
    for c in reversed(p):
        acc = acc * x + c * ypow
        ypow *= y
    return acc


def quotient(p: IntPoly, d: IntPoly) -> IntPoly | None:
    """p / d in Z[u], or None if d does not divide p."""
    try:
        return divide_exact(p, d)
    except ExactDivisionError:
        return None


def gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd of two nonzero polynomials."""
    a, b = primitive(a), primitive(b)
    if len(a) == 1 or len(b) == 1:
        return [1]
    # From 2 * min(|a|, |b|) + 2 on, a candidate dividing both is the gcd.
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(6):
        h, digits = math.gcd(homogeneous(a, xi, 1), homogeneous(b, xi, 1)), []
        while h:  # symmetric base-xi digits
            r = h % xi
            digits.append(r - xi if 2 * r > xi else r)
            h = (h - digits[-1]) // xi
        g = primitive(digits)
        if quotient(a, g) is not None and quotient(b, g) is not None:
            return g
        xi = xi * 73794 // 27011
    return prs_gcd(a, b)


def prs_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """gcd by the primitive remainder sequence, for a and b of degree >= 1."""
    a, b = sorted((a, b), key=len, reverse=True)
    while True:
        r = a
        while len(r) >= len(b):  # r = lead(b) * r - top(r) * u**k * b
            top, k = r[-1], len(r) - len(b)
            r = [c * b[-1] for c in r]
            for j, c in enumerate(b, k):
                r[j] -= top * c
            r = subtract(r, [])
        if len(r) <= 1:
            return primitive(b) if not r else [1]
        a, b = b, primitive(r)


def squarefree(f: IntPoly) -> list[tuple[int, IntPoly]]:
    """Yun's decomposition of f, degree >= 1: [(k, f_k)] with f = c * prod(f_k**k),
    each f_k primitive, square-free and of degree >= 1, pairwise coprime.

    Every divisor is a primitive gcd, so each division is exact in Z[u].
    """
    f = primitive(f)
    g = gcd(f, derivative(f))
    b, c = divide_exact(f, g), divide_exact(derivative(f), g)
    out, k = [], 1
    while len(b) > 1:
        d = subtract(c, derivative(b))
        a = gcd(b, d) if d else primitive(b)
        b, c = divide_exact(b, a), divide_exact(d, a) if d else []
        if len(a) > 1:
            out.append((k, a))
        k += 1
    return out


def taylor_shift(p: IntPoly) -> IntPoly:
    """p(u + 1): pass i turns the tail from i on into its suffix sums."""
    a = list(p)
    for i in range(len(a) - 1):
        a[i:] = list(accumulate(a[:i - 1:-1] if i else a[::-1]))[::-1]
    return a


def sign_variations(p: IntPoly) -> int:
    signs = [c > 0 for c in p if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def positive_roots(p: IntPoly) -> tuple[list[tuple[Fraction, Fraction]], int]:
    """Isolating intervals of the positive roots of a square-free p, p(0) != 0.

    Returns ``(intervals, tests)``: each (lo, hi) holds one root strictly
    inside, or lo == hi is a root; ``tests`` counts the Descartes tests.  All
    roots lie below 2**k (Fujiwara).  A node (q, c, h) holds a positive
    multiple of p(2**k * (c + x) / 2**h) for x in (0, 1), where the sign
    variations of (x + 1)**n * q(1 / (x + 1)) bound the root count.
    """
    n, top = len(p) - 1, abs(p[-1]).bit_length()
    k = 1 + max([0] + [-((top - abs(c).bit_length() - 1) // (n - i))
                       for i, c in enumerate(p[:-1]) if c])
    stack, out, tests = [([c << k * i for i, c in enumerate(p)], 0, 0)], [], 0
    while stack:
        q, c, h = stack.pop()
        tests += 1
        v = sign_variations(taylor_shift(q[::-1]))
        if v == 1:
            out.append((Fraction(c << k, 1 << h), Fraction(c + 1 << k, 1 << h)))
        elif v > 1:
            left = [x << n - i for i, x in enumerate(q)]
            right = taylor_shift(left)
            if not right[0]:
                out.append((Fraction(2 * c + 1 << k, 2 << h),) * 2)
            stack += [(right, 2 * c + 1, h + 1), (left, 2 * c, h + 1)]
    return sorted(out), tests


def refine(p: IntPoly, lo: Fraction, hi: Fraction, done) -> tuple[Fraction, Fraction]:
    """Bisect the isolating interval (lo, hi) of a root of p until done(lo, hi).

    p is square-free, so just above lo it has the sign of p(lo), or of p'(lo)
    where p(lo) = 0.  A midpoint where p vanishes is returned as (mid, mid).
    """
    def sign(q, u):
        value = homogeneous(q, u.numerator, u.denominator)
        return (value > 0) - (value < 0)

    side = sign(p, lo) or sign(derivative(p), lo)
    while lo != hi and not done(lo, hi):
        mid = (lo + hi) / 2
        s = sign(p, mid)
        lo, hi = (mid, mid) if not s else (mid, hi) if s == side else (lo, mid)
    return lo, hi
