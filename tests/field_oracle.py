"""Dense reference arithmetic for FieldScalar, used only as a test oracle.

``dense_mul`` is the fixed 16-product formula that FieldScalar.__mul__ used
before its product went over the nonzero coordinates only; it does every
rational multiply whatever the operands.  The other functions are the
matching componentwise formulas.
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
