"""Test oracle for the chamber arc evaluator: the plain mpmath Horner form.

Each coefficient is embedded into the reals at ``precision_bits`` and divided
by the largest magnitude, and P(cot s) runs as an mpmath Horner loop at that
precision.  The sign is exact only while the rounding error stays below
|P(cot s)|; :class:`chamberlab.certify._ArcEvaluator` replaces it with
fixed-point integer arithmetic and an exact fallback.

``horner_bits`` (default ``precision_bits``) sets the precision of the
coefficients and of the Horner loop apart from that of the cotangent, so
the oracle can evaluate P far more accurately at the very same cotangent.
"""

import mpmath

from chamberlab.field import embed_real


class MpmathArcEvaluator:
    """Evaluates a homogeneous polynomial at (cos s, sin s), normalized."""

    def __init__(self, poly, degree, precision_bits, horner_bits=None):
        self.degree = degree
        self.precision_bits = precision_bits
        self.horner_bits = horner_bits or precision_bits
        with mpmath.workprec(self.horner_bits):
            coeffs = {}
            for (a, _), c in poly.terms.items():
                coeffs[a] = embed_real(c, self.horner_bits)
            top = max(abs(v) for v in coeffs.values())
            self.horner = [coeffs.get(a, mpmath.mpf(0)) / top
                           for a in range(degree, -1, -1)]

    def cot_form(self, sigma):
        """P(cot sigma); same sign as the polynomial on (0, pi)."""
        with mpmath.workprec(self.precision_bits):
            u = mpmath.cot(sigma)
        with mpmath.workprec(self.horner_bits):
            acc = mpmath.mpf(0)
            for coeff in self.horner:
                acc = acc * u + coeff
            return acc

    def value(self, sigma):
        """Normalized polynomial value at (cos sigma, sin sigma)."""
        with mpmath.workprec(self.precision_bits):
            return self.cot_form(sigma) * mpmath.sin(sigma) ** self.degree
