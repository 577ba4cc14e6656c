"""Dense reference arithmetic for FieldScalar, used only as a test oracle.

``dense_mul`` is the fixed 16-product formula that FieldScalar.__mul__ used
before its product went over the nonzero coordinates only; it does every
rational multiply whatever the operands.  The other functions are the
matching componentwise formulas, and :func:`exact_sign`, which decides the
sign of an element by comparing squares of rationals, with no square root.
"""

from chamberlab.field import FieldScalar


def dense_mul(self, other):
    o = FieldScalar._coerce(other)
    a1, b1, c1, e1 = self.a, self.b, self.c, self.e
    a2, b2, c2, e2 = o.a, o.b, o.c, o.e
    # sqrt2*sqrt3 = sqrt6, sqrt2*sqrt6 = 2*sqrt3, sqrt3*sqrt6 = 3*sqrt2
    return FieldScalar._raw(
        a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * e1 * e2,
        a1 * b2 + b1 * a2 + 3 * (c1 * e2 + e1 * c2),
        a1 * c2 + c1 * a2 + 2 * (b1 * e2 + e1 * b2),
        a1 * e2 + e1 * a2 + b1 * c2 + c1 * b2,
    )


def dense_add(u, v):
    return FieldScalar._raw(u.a + v.a, u.b + v.b, u.c + v.c, u.e + v.e)


def dense_sub(u, v):
    return FieldScalar._raw(u.a - v.a, u.b - v.b, u.c - v.c, u.e - v.e)


def dense_inverse(u):
    """Inverse from the dense product: the conjugate product over the norm."""
    conj2 = FieldScalar._raw(u.a, -u.b, u.c, -u.e)
    conj3 = FieldScalar._raw(u.a, u.b, -u.c, -u.e)
    conj23 = FieldScalar._raw(u.a, -u.b, -u.c, u.e)
    conj = dense_mul(dense_mul(conj2, conj3), conj23)
    norm = dense_mul(u, conj).a
    return FieldScalar._raw(conj.a / norm, conj.b / norm, conj.c / norm, conj.e / norm)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _sign_sqrt2(r, s) -> int:
    """sign(r + s*sqrt2) for rationals r, s.

    When the signs differ, the larger of r**2 and 2*s**2 decides; they are
    never equal, since sqrt2 is irrational.
    """
    if _sign(r) * _sign(s) >= 0:
        return _sign(r) or _sign(s)
    return _sign(r) if r * r > 2 * s * s else _sign(s)


def exact_sign(u: FieldScalar) -> int:
    """sign(a + b*sqrt2 + c*sqrt3 + e*sqrt6), read as P + Q*sqrt3.

    P = a + b*sqrt2 and Q = c + e*sqrt2 lie in Q(sqrt2).  When their signs
    differ, the sign of P**2 - 3*Q**2, again in Q(sqrt2) and never 0 since
    sqrt3 is not in Q(sqrt2), says which of |P| and |Q*sqrt3| is larger.
    """
    a, b, c, e = u.a, u.b, u.c, u.e
    p, q = _sign_sqrt2(a, b), _sign_sqrt2(c, e)
    if p * q >= 0:
        return p or q
    p_larger = _sign_sqrt2(a * a + 2 * b * b - 3 * c * c - 6 * e * e,
                           2 * a * b - 6 * c * e) > 0
    return p if p_larger else q
