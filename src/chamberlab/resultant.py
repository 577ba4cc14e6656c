"""Polynomials in Z[u]: Sylvester resultants by the subresultant remainder
sequence on Kronecker-packed integers, and exact real roots.

Polynomials in u are dense integer lists, low to high, with trailing zeros
stripped, so ``[]`` is the zero polynomial.  Every resultant chamberlab
certifies has homogeneous rational coefficients in (x, y);
:func:`chamberlab.certify.compute_resultant` clears denominators, sets
u = x/y and rehomogenizes the result, which keeps this module to plain
integer arithmetic.

The resultant of two polynomials in t over Z[u] is taken at formal degrees:
the coefficient lists fix them, and a vanishing leading coefficient counts.
The second polynomial's block fills the first Sylvester rows, which pins the
sign: the resultant of (t - u, t - 1) at formal degrees (1, 1) is 1 - u.

No matrix is built.  Packing: each coefficient p is replaced by the integer
p(2**k), a ring map Z[u] -> Z, so the packed polynomials' resultant is the
packed resultant.  Bound: with B = (sum of |c| over pc)**deg_a * (sum of |c|
over pa)**deg_c, every resultant coefficient lies in [-B, B], because each
term of the Sylvester expansion takes one entry per row and the 1-norm is
submultiplicative.  With k = B.bit_length() + 2 the signed base-2**k digits
of the packed resultant are its coefficients.

Formal degrees, for F the packed pc of formal degree n and G the packed pa of
formal degree m: a side of degree 0 gives its constant to the power of the
other side's degree; if F_n = G_m = 0 the first Sylvester column is zero;
otherwise expanding along that column gives Res_{n,m} = (-1)**m * G_m *
Res_{n-1,m} when F_n = 0 and F_n * Res_{n,m-1} when G_m = 0.  At true degrees
the subresultant PRS (Brown & Traub, J. ACM 18, 1971; Cohen, Algorithm 3.3.7,
without content removal) finishes over Z, and every division it makes is
checked to be exact.

For real roots: the heuristic gcd of Char, Geddes and Gonnet (J. Symb.
Comput. 7, 1989), checked by exact division, else the primitive remainder
sequence; Yun's square-free decomposition; Descartes' rule with
Vincent-Collins-Akritas bisection (Collins & Akritas, SYMSAC 1976).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, zip_longest

from .errors import ExactDivisionError

IntPoly = list[int]


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


def _exact(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ExactDivisionError("division left a remainder")
    return q


def pseudo_remainder(a: IntPoly, b: IntPoly) -> IntPoly:
    """The remainder of lead(b)**(len(a) - len(b) + 1) * a on division by b."""
    e = len(a) - len(b) + 1
    while len(a) >= len(b):  # a = lead(b) * a - top(a) * x**shift * b
        top, shift = a[-1], len(a) - len(b)
        a = [c * b[-1] for c in a[:-1]]
        for j, c in enumerate(b[:-1], shift):
            a[j] -= top * c
        a, e = subtract(a, []), e - 1
    return [c * b[-1] ** e for c in a]


def _resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) over Z at formal degrees len(f) - 1 and len(g) - 1, not both 0."""
    if len(g) == 1:
        return g[0] ** (len(f) - 1)
    if len(f) == 1:
        return f[0] ** (len(g) - 1)
    if not f[-1] and not g[-1]:
        return 0
    if not f[-1]:
        return (-1) ** (len(g) - 1) * g[-1] * _resultant(f[:-1], g)
    if not g[-1]:
        return f[-1] * _resultant(f, g[:-1])
    sign, lead, h = 1, 1, 1
    if len(f) < len(g):
        f, g = g, f
        sign = -1 if len(f) % 2 == len(g) % 2 == 0 else 1
    while len(g) > 1:
        delta = len(f) - len(g)
        if len(f) % 2 == len(g) % 2 == 0:
            sign = -sign
        divisor = lead * h ** delta
        f, g = g, [_exact(c, divisor) for c in pseudo_remainder(f, g)]
        lead = f[-1]
        h = _exact(h * lead ** delta, h ** delta)
    n = len(f) - 1
    return sign * _exact(h * g[0] ** n, h ** n) if g else 0


def sylvester_resultant(pa: list[IntPoly], pc: list[IntPoly]) -> IntPoly:
    """Resultant of the two coefficient lists (low-to-high) at formal degrees.

    ``pa`` has formal degree len(pa)-1 and ``pc`` formal degree len(pc)-1;
    either may be 0, not both.  The pc block fills the first Sylvester rows.
    """
    m, n = len(pa) - 1, len(pc) - 1
    if min(m, n) < 0 or m + n < 1:
        raise ValueError("formal degrees must be at least 0 and not both 0")
    bound = sum(map(abs, chain(*pc))) ** m * sum(map(abs, chain(*pa))) ** n
    k = bound.bit_length() + 2
    f, g = ([sum(c << k * i for i, c in enumerate(p)) for p in q] for q in (pc, pa))
    value = _resultant(f, g)
    out, half = [], 1 << k - 1
    while value:  # signed base-2**k digits
        out.append(((value + half) & (2 * half - 1)) - half)
        value = (value - out[-1]) >> k
    return out


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
        r = pseudo_remainder(a, b)
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
