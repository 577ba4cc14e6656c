"""Polynomials in Z[u]: Sylvester resultants by the subresultant remainder
sequence on Kronecker-packed integers, and exact real roots.

Polynomials in u are dense integer lists, low to high, with trailing zeros
stripped, so ``[]`` is the zero polynomial.  Every resultant chamberlab
certifies has homogeneous rational coefficients in (x, y), stored as integer
lists in u = x/y over one denominator per form;
:func:`chamberlab.certify.compute_resultant` takes those lists as they are
and rehomogenizes the result, which keeps this module to plain integer
arithmetic.

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

Reflection: the chamber's reflection x -> -x sends wall i to wall d - i, so
it preserves a row with m_i = m_(d-i), as alternating multiplicities are.
Then every exponent of u in u**j * pa[j] has one parity s_a, and every one
in u**k * pc[k] one parity s_c (empty entries do not count).  Write
u**j * pa[j] = u**s_a * A~_j(u**2), and C~ likewise; the reduced lists hold
the same coefficients, so the bound is unchanged.  With m = len(pa) - 1,
n = len(pc) - 1 and t = u*tau, A(u*tau) = u**s_a * A~(u**2, tau).  Since
Res(F(l*tau), G(l*tau)) = l**(m*n) * Res(F, G) and Res(c*F, G) = c**n *
Res(F, G) for F of formal degree m,

    Res(A, C) = u**e * R~(u**2),  R~ = Res(A~, C~),  e = s_a*n + s_c*m - m*n,

so the packed PRS runs on R~, at half the degree in u.  For e < 0 the low
-e coefficients of R~(u**2) must vanish, else ExactDivisionError.  Lists
with both parities on one side take the packed PRS in u.

For real roots: the heuristic gcd of Char, Geddes and Gonnet (J. Symb.
Comput. 7, 1989) at xi = 2**s, packed and read back as above and checked by
exact division, else the primitive remainder sequence; the check's
quotients are the cofactors, which Yun's square-free decomposition takes as
its quotients.  Descartes' rule with Vincent-Collins-Akritas bisection
(Collins & Akritas, SYMSAC 1976) starts from (0, 2**k), k the smaller of
Fujiwara's bound and the local-max quadratic positive-root bound (Akritas,
Strzebonski & Vigklas, 2008); each test is an early-terminated partial
Taylor shift (Rouillier & Zimmermann, J. Comput. Appl. Math. 162, 2004)
that walks the same tree.  An isolating interval is refined by quadratic
interval refinement (Abbott, "Quadratic interval refinement for real
roots", 2006) on integer cells, and the result is exactly the interval that
plain bisection returns for the same monotone stop rule: the first cell on
the root's chain where the rule holds, or the root where bisection meets it
first.  :func:`chamberlab.certify.chamber_root_scan` runs all of this on
half-degree lists in w = u**2 (w = u for the few resultants with both
parities in u), shifted so that the chamber's rational bound on w sits at 0,
and refines each root in w until its cell in u is known.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, zip_longest

from .errors import ExactDivisionError
from .poly import dx as derivative

IntPoly = list[int]


def divide_exact(p: IntPoly, d: IntPoly) -> IntPoly:
    """Exact quotient p / d in Z[u]; raises ExactDivisionError otherwise.

    Zero entries at the top of d are dropped first, so the quotient's length
    is len(p) minus the length of d without them, plus one.
    """
    if not d or not d[-1]:
        d = subtract(d, [])
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
    Lists with the reflection symmetry are reduced to v = u**2 first.
    """
    m, n = len(pa) - 1, len(pc) - 1
    if min(m, n) < 0 or m + n < 1:
        raise ValueError("formal degrees must be at least 0 and not both 0")
    s_a, s_c = _reflection_parity(pa), _reflection_parity(pc)
    if s_a is None or s_c is None:
        return _packed_resultant(pa, pc)
    reduced = _packed_resultant(_halve(pa, s_a), _halve(pc, s_c))
    if not reduced:
        return []
    e = s_a * n + s_c * m - m * n  # the resultant is u**e * reduced(u**2)
    low = max(e, 0)
    out = [0] * (low + 2 * len(reduced) - 1)
    out[low::2] = reduced
    if e >= 0:
        return out
    if any(out[:-e]):
        raise ExactDivisionError(f"the reduced resultant is not divisible by u**{-e}")
    return out[-e:]


def _reflection_parity(p: list[IntPoly]) -> int | None:
    """The one parity of every exponent in u**j * p[j], or None if there are two.

    A list with no nonzero coefficient has parity 0.
    """
    parities = {(i + j) & 1 for j, q in enumerate(p) for i, c in enumerate(q) if c}
    return None if len(parities) > 1 else parities.pop() if parities else 0


def _halve(p: list[IntPoly], s: int) -> list[IntPoly]:
    """The lists P~_j in v with u**j * p[j] = u**s * P~_j(u**2)."""
    return [([0] * j + q)[s::2] for j, q in enumerate(p)]


def _packed_resultant(pa: list[IntPoly], pc: list[IntPoly]) -> IntPoly:
    """sylvester_resultant in u, on the packed integers."""
    m, n = len(pa) - 1, len(pc) - 1
    bound = sum(map(abs, chain(*pc))) ** m * sum(map(abs, chain(*pa))) ** n
    k = bound.bit_length() + 2
    f, g = ([_pack(p, k) for p in q] for q in (pc, pa))
    return _unpack(_resultant(f, g), k)


def _pack(p: IntPoly, s: int) -> int:
    """p(2**s)."""
    return sum(c << s * i for i, c in enumerate(p))


def _unpack(value: int, s: int) -> IntPoly:
    """The p with _pack(p, s) == value and coefficients in [-2**(s-1), 2**(s-1)):
    digit i is the two's complement bits s*i on, plus the carry from below."""
    half, mask, out, carry, shift = 1 << s - 1, (1 << s) - 1, [], 0, 0
    while (rest := value >> shift) != -carry:
        digit = (rest & mask) + carry
        carry = digit >= half
        out.append(digit - (carry << s))
        shift += s
    return out


# -- exact real roots ---------------------------------------------------------


def primitive(p: IntPoly) -> IntPoly:
    """p over its content, with a positive leading coefficient."""
    g = math.gcd(*p) if p[-1] > 0 else -math.gcd(*p)
    return [c // g for c in p]


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


def gcd_cofactors(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly, IntPoly]:
    """(g, a / g, b / g) for g the primitive gcd of two nonzero polynomials."""
    pa, pb = primitive(a), primitive(b)
    if len(pa) == 1 or len(pb) == 1:
        return [1], a, b
    # From xi = 2**s >= 2 * min(|a|, |b|) + 2 on, a candidate dividing both is the gcd.
    s = (2 * min(max(map(abs, pa)), max(map(abs, pb))) + 1).bit_length()
    for _ in range(6):
        g = primitive(_unpack(math.gcd(_pack(pa, s), _pack(pb, s)), s))
        if g == [1]:
            return g, a, b
        if (qa := quotient(a, g)) is not None and (qb := quotient(b, g)) is not None:
            return g, qa, qb
        s += s // 4 + 2
    g = prs_gcd(pa, pb)
    return g, divide_exact(a, g), divide_exact(b, g)


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

    Every divisor is a primitive gcd, so each division is exact in Z[u]; the
    quotients are the cofactors that the gcd's own check computed.
    """
    f = primitive(f)
    _, b, c = gcd_cofactors(f, derivative(f))
    out, k = [], 1
    while len(b) > 1:
        d = subtract(c, derivative(b))
        a, b, c = gcd_cofactors(b, d) if d else (primitive(b), [1], [])
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


def descartes_test(p: IntPoly) -> int:
    """The sign variations of p(u + 1) when they are 0 or 1, else some count >= 2.

    The Taylor shift stops early.  After pass i the entries up to i are final
    and the variations of the whole list never increase; once a final entry
    is nonzero their parity is that of the result.  So the shift stops when
    at most one sign change is left, at a checked pass, or when the final
    entries already change sign twice.
    """
    a, last, changes = list(p), None, 0
    for i in range(len(a) - 1):
        a[i:] = list(accumulate(a[:i - 1:-1] if i else a[::-1]))[::-1]
        if a[i]:
            changes += last is not None and last != (a[i] > 0)
            last = a[i] > 0
        if changes > 1:
            break
        if last is not None and not i & i + 1:  # passes 0, 1, 3, 7, ...
            positive = list(map((0).__lt__, filter(None, a)))
            count = positive.count(True)
            if all(positive[:count]) or all(positive[len(positive) - count:]):
                break
    return sign_variations(a)


def root_bound(p: IntPoly) -> int:
    """A k >= 0 with every positive root of p, of degree >= 1, below 2**k.

    The smaller of Fujiwara's bound on all roots, 2 * max |p_i / p_n|**(1 /
    (n - i)), and the local-max quadratic one, each rounded up on bit lengths
    (log2 |c| < bits(c) <= log2 |c| + 1).  The latter pairs each p_i of sign
    opposite to p_n, low to high, with the p_j, j > i, of p_n's sign that
    minimizes b_i = (2**t_j * |p_i / p_j|)**(1 / (j - i)), t_j = 1, 2, ...
    counting p_j's uses.  For u >= max b_i each share 2**-t_j of p_j * u**j
    outweighs its p_i * u**i, and the shares sum below 1: p(u) != 0.
    """
    n, bits = len(p) - 1, [abs(c).bit_length() for c in p]
    fujiwara = 1 + max([0] + [-((bits[-1] - b - 1) // (n - i))
                              for i, b in enumerate(bits[:-1]) if b])
    lead = p[-1] > 0
    used = {j: 1 for j, c in enumerate(p) if c and (c > 0) == lead}
    lmq = 0
    for i, c in enumerate(p):
        if c and (c > 0) != lead:  # log2 b_i < (t_j + bits_i + 1 - bits_j) / (j - i)
            _, j = min(((t + bits[i] + 1 - bits[j]) / (j - i), j)
                       for j, t in used.items() if j > i)
            lmq = max(lmq, -((bits[j] - bits[i] - 1 - used[j]) // (j - i)))
            used[j] += 1
    return min(fujiwara, lmq)


def positive_roots(p: IntPoly) -> tuple[list[tuple[Fraction, Fraction]], int]:
    """Isolating intervals of the positive roots of a square-free p, p(0) != 0.

    Returns ``(intervals, tests)``: each (lo, hi) holds one root strictly
    inside, or lo == hi is a root; ``tests`` counts the Descartes tests.  All
    roots lie below 2**k, k = root_bound(p).  A node (q, c, h) holds a
    positive multiple of p(2**k * (c + x) / 2**h) for x in (0, 1), where the
    sign variations of (x + 1)**n * q(1 / (x + 1)) bound the root count.
    """
    n, k = len(p) - 1, root_bound(p)
    stack, out, tests = [([c << k * i for i, c in enumerate(p)], 0, 0)], [], 0
    while stack:
        q, c, h = stack.pop()
        tests += 1
        v = descartes_test(q[::-1])
        if v == 1:
            out.append((Fraction(c << k, 1 << h), Fraction(c + 1 << k, 1 << h)))
        elif v > 1:
            left = [x << n - i for i, x in enumerate(q)]
            right = taylor_shift(left)
            if not right[0]:
                out.append((Fraction(2 * c + 1 << k, 2 << h),) * 2)
            stack += [(right, 2 * c + 1, h + 1), (left, 2 * c, h + 1)]
    return sorted(out), tests


def _dyadic_value(p: IntPoly, m: int, j: int) -> int:
    """2**(j * n) * p(m / 2**j), n = len(p) - 1, for j >= 0."""
    acc, shift = 0, 0
    for c in reversed(p):
        acc = acc * m + (c << shift)
        shift += j
    return acc


def refine(p: IntPoly, lo: Fraction, hi: Fraction, done) -> tuple[Fraction, Fraction]:
    """The interval that bisecting (lo, hi), a root's isolating interval,
    returns at the first cell where done holds.

    lo and hi are dyadic, p is square-free, and done(a, b, j) tests the cell
    [a / 2**j, b / 2**j] and, once true, stays true on every cell inside it.
    Bisection halves the cell that holds the root until done holds, and
    returns (mid, mid) at a midpoint where p vanishes.  Just above lo p has
    the sign of p(lo), or of p'(lo) where p(lo) = 0.

    Cell i at depth t is [x(t, i), x(t, i + 1)], x(t, i) = lo + i * (hi - lo)
    / 2**t; the cells that hold the root form the chain that bisection
    walks.  Quadratic interval refinement walks it faster: a secant step
    guesses the cell at depth t + L, and the exact signs at its ends confirm
    it.  L doubles on success and halves otherwise, down to L = 1, a
    bisection step; a missed guess whose signs still pin down one cell moves
    there.  A guess where done holds is first cut back, by binary search
    over its ancestors, to the first one where done holds.  So done fails on
    the guess's ancestors, and the cell the search moves to, or a root at an
    end of the guess, shares them: bisection stops there too.
    """
    if lo == hi:
        return lo, hi
    j0 = max(lo.denominator, hi.denominator).bit_length() - 1
    a0 = lo.numerator << j0 - lo.denominator.bit_length() + 1
    width = (hi.numerator << j0 - hi.denominator.bit_length() + 1) - a0
    n = len(p) - 1

    def x(t, i):  # the numerator over 2**(j0 + t)
        return (a0 << t) + i * width

    def value(t, i):  # a positive multiple of p(x(t, i))
        return _dyadic_value(p, x(t, i), j0 + t)

    def stop(t, i):
        return done(x(t, i), x(t, i + 1), j0 + t)

    if stop(0, 0):
        return lo, hi
    fa, fb = value(0, 0), value(0, 1)
    positive = fa > 0 if fa else _dyadic_value(derivative(p), a0, j0) > 0  # just above lo
    t, i, step = 0, 0, 2  # done fails on cell (t, i), which holds the root
    while True:
        depth, grid = t + step, 1 << step
        guess = (i << step) + min(max(grid * fa // ((fa - fb) or 1), 0), grid - 1)
        if stop(depth, guess):
            above = t  # done fails at depth above and holds at depth
            while depth - above > 1:
                mid = (above + depth) // 2
                if stop(mid, guess >> depth - mid):
                    depth, guess = mid, guess >> depth - mid
                else:
                    above = mid
            step, grid = depth - t, 1 << depth - t
        # The root lies in cells a .. b - 1 at depth; fl and fr are p at the ends.
        k, a, b, fl, fr = guess - (i << step), 0, grid, fa << step * n, fb << step * n
        for q in (k, k + 1):
            if a < q < b:
                v = value(depth, (i << step) + q)
                if not v:
                    return (Fraction(x(depth, (i << step) + q), 1 << j0 + depth),) * 2
                if (v > 0) == positive:
                    a, fl = q, v
                else:
                    b, fr = q, v
        if b - a & b - a - 1:  # not one cell of the chain
            step //= 2
            continue
        s = (b - a).bit_length() - 1
        depth, i, fa, fb = depth - s, (i << step) + a >> s, fl >> s * n, fr >> s * n
        if stop(depth, i):
            den = 1 << j0 + depth
            return Fraction(x(depth, i), den), Fraction(x(depth, i + 1), den)
        t, step = depth, 2 * step if not s else max(step // 2, 1)
