"""Per-case resultant certificates: compute, scan, classify, emit.

The certificate records what the computation shows for one case: the
resultant of the velocity-cubic and slope-quintic coefficient polynomials is
(or is not) a nonzero homogeneous polynomial of the predicted degree, plus the
directions in the open chamber where it vanishes and whether each such
direction is a minimal line.  The logical step from "nonzero resultant of the
right degree" to nonexistence of proper solutions is referenced, not
recomputed.

The resultant is kept as Bareiss returns it, a dense integer list P in
u = x/y over one denominator.  The chamber directions come from sign changes
of P(cot s), u = cot s rounded to 200 bits.  Each sign is the exact sign of P
at that rounded cotangent: a fixed-point Horner scheme with 264 fraction
bits, whose error with n coefficients and |u| < 2**b (b >= 0) is below
n * 2**(b*n) units of its last place, decides outside that bound, and exact
integer evaluation inside it (see _ArcEvaluator).  Precision, scan and
minimality settings are constants: a certificate depends on its case alone.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import mpmath

from .cases import CaseSpec
from .errors import PipelineError, PoleProximityError
from .field import FieldScalar, format_rational
from .poly import NOT_HOMOGENEOUS, SpatialPoly
from .reduction import ReductionBundle, build_bundle
from .resultant import sylvester_resultant

# The cotangent precision (recorded in certificates) and fixed-point fraction bits.
DEFAULT_PRECISION_BITS = 200
_GUARD_BITS = DEFAULT_PRECISION_BITS + 64
# Grid doublings the root scan may spend confirming its root set.
MAX_DOUBLINGS = 5


def expected_resultant_degree(d: int) -> int:
    """Formal degree count: five cubic coefficients and three quintic ones."""
    return 27 * (d - 1)


@dataclass
class ResultantReport:
    """Outcome of the resultant computation for one case.

    The resultant is sum(coeffs[a] * x**a * y**(degree - a)) / scale, coeffs
    and scale coprime; it is identically zero when coeffs == [].
    """

    coeffs: list[int]
    scale: int
    formal_degrees: tuple[int, int]
    trimmed_pairs: int
    degree: int | None

    @property
    def identically_zero(self) -> bool:
        return not self.coeffs

    @property
    def poly(self) -> SpatialPoly:
        """The resultant as a homogeneous SpatialPoly with rational coefficients."""
        return SpatialPoly({(a, self.degree - a): FieldScalar.rational(c, self.scale)
                            for a, c in enumerate(self.coeffs) if c})

    def exact_value(self, x: int, y: int) -> FieldScalar:
        """The resultant at the integer point (x, y), exactly."""
        return FieldScalar.rational(_homogeneous_horner(self.coeffs[::-1], x, y),
                                    self.scale)


def _integer_lists(polys: list[SpatialPoly], label: str,
                   name: str) -> tuple[list[list[int]], int, int]:
    """Dense Z[u] lists (u = x/y) of one coefficient list, denominators cleared.

    Returns ``(lists, degree, scale)``: ``lists[j]`` is ``scale * polys[j]`` at
    y = 1, low to high, where ``scale`` is the lcm of every coefficient's
    denominator and ``degree`` the common homogeneous degree of the nonzero
    entries (None if there are none; every list is then ``[]``).  Irrational
    coefficients and mixed degrees raise PipelineError.
    """
    degree = None
    scale = 1
    for poly in polys:
        if poly.is_zero:
            continue
        hdeg = poly.homogeneous_degree()
        if hdeg == NOT_HOMOGENEOUS or degree not in (None, hdeg):
            raise PipelineError(f"{label}: the {name} coefficients are not "
                                f"homogeneous of one common degree")
        degree = hdeg
        for coeff in poly.terms.values():
            if not coeff.is_rational:
                raise PipelineError(f"{label}: {name} coefficient {coeff.to_text()} "
                                    f"is not rational")
            scale = math.lcm(scale, int(coeff.a.denominator))
    lists = []
    for poly in polys:
        dense = [0] * (0 if poly.is_zero else degree + 1)
        for (a, _), coeff in poly.terms.items():
            dense[a] = int(coeff.a.numerator) * (scale // int(coeff.a.denominator))
        while dense and not dense[-1]:
            dense.pop()
        lists.append(dense)
    return lists, degree, scale


def compute_resultant(bundle: ReductionBundle) -> ResultantReport:
    """Resultant of the cubic and quintic coefficient lists at formal degrees (3, 5).

    If the leading coefficients of BOTH lists vanish identically the formal
    Sylvester determinant is trivially zero (the two velocity forms share the
    direction xd = 0, which the slope chart excludes).  That common formal
    root is removed by trimming one leading coefficient from each list until
    one leading coefficient is nonzero or one list is down to its constant;
    the count of trimmed pairs is recorded.  The determinant at the formal degrees left then decides every
    case: a constant a0 against an all-zero quintic gives a0**deg_c.

    The determinant itself runs in Z[u]: each list must be rational and
    homogeneous of one degree (DA for A, DC for C) and its denominators are
    cleared.  The integer resultant is kept as it comes, over the scale this
    puts on the Sylvester rows, at degree deg_a*DC + deg_c*DA; both are
    divided by their gcd.  An all-zero list has no degree; a nonzero
    determinant multiplies it by a formal degree of 0.
    """
    pa = list(bundle.a_coeffs)
    pc = list(bundle.c_coeffs)
    trimmed = 0
    while len(pa) > 1 and len(pc) > 1 and pa[-1].is_zero and pc[-1].is_zero:
        pa.pop()
        pc.pop()
        trimmed += 1
    formal = (len(pa) - 1, len(pc) - 1)
    label = bundle.case.label
    int_a, hdeg_a, scale_a = _integer_lists(pa, label, "A")
    int_c, hdeg_c, scale_c = _integer_lists(pc, label, "C")
    deg_a, deg_c = formal
    dense = sylvester_resultant(int_a, int_c)
    if not dense:
        return ResultantReport([], 1, formal, trimmed, None)
    degree = (deg_a and deg_a * hdeg_c) + (deg_c and deg_c * hdeg_a)
    scale = scale_a ** deg_c * scale_c ** deg_a
    g = math.gcd(scale, *dense)
    coeffs = [c // g for c in dense] + [0] * (degree + 1 - len(dense))
    return ResultantReport(coeffs, scale // g, formal, trimmed, degree)


@dataclass
class RootScan:
    """Sign-change roots of the resultant restricted to the open chamber arc."""

    roots: list[float]
    residuals: list[float]
    grid_size: int
    warnings: list[str] = field(default_factory=list)


def _homogeneous_horner(coeffs: list[int], x: int, y: int) -> int:
    """Exact sum of coeffs[i] * x**(n-i) * y**i, n = len(coeffs) - 1 (high first)."""
    acc = 0
    ypow = 1
    for c in coeffs:
        acc = acc * x + c * ypow
        ypow *= y
    return acc


class _ArcEvaluator:
    """Evaluates a homogeneous integer polynomial at (cos s, sin s), normalized.

    ``coeffs`` is dense and low to high, as ResultantReport.coeffs: the
    polynomial is sum(coeffs[a] * x**a * y**(n-a)), n = len(coeffs) - 1, and
    on (0, pi) it has the sign of its dehomogenization P(u) at u = cot s.  u
    is ``mpmath.cot(s)`` at DEFAULT_PRECISION_BITS, an exact dyadic
    man * 2**exp.

    P(u) runs as a fixed-point Horner scheme with g = _GUARD_BITS
    fraction bits, ``acc = ((acc * U) >> g) + (c << g)`` with U = u * 2**g.
    When U is exact (exp >= -g) each of the n - 1 shifts truncates by less
    than one unit, so with n coefficients and |u| < 2**b, b >= 0, the
    accumulated error is below sum(|u|**k, k < n - 1) <= n * 2**(b*n) units
    of 2**-g.  An accumulator outside that bound has the sign of P(u);
    otherwise, or when U is not exact, the sign comes from the exact integer
    form sum(c_k * man**k * 2**(-exp*(n-1-k))), which is P(u) times a power
    of two (for exp >= 0, the plain integer Horner at u).  Either way
    ``cot_form`` returns the exact sign of P at the 200-bit cotangent.

    ``value`` divides the accumulator by the largest coefficient magnitude, so
    residual thresholds are scale free, and rounds at DEFAULT_PRECISION_BITS
    (for |u| < 2**-64, U is truncated to g bits, far below that rounding).
    """

    def __init__(self, coeffs: list[int]):
        self.degree = len(coeffs) - 1
        self.coeffs = coeffs[::-1]
        self.shifted = [c << _GUARD_BITS for c in self.coeffs]
        self.top = max(abs(c) for c in coeffs)

    def _fixed_horner(self, sigma) -> tuple[int, int, int]:
        """(man, exp, acc): cot sigma = man * 2**exp, acc the fixed-point P(cot sigma)."""
        with mpmath.workprec(DEFAULT_PRECISION_BITS):
            man, exp = mpmath.cot(sigma).man_exp
        g = _GUARD_BITS
        shift = exp + g
        big_u = man << shift if shift >= 0 else man >> -shift
        acc = 0
        for c in self.shifted:
            acc = ((acc * big_u) >> g) + c
        return man, exp, acc

    def cot_form(self, sigma) -> int:
        """Sign (-1, 0 or 1) of P(cot sigma), the polynomial's sign on (0, pi)."""
        man, exp, acc = self._fixed_horner(sigma)
        n = len(self.coeffs)
        if exp + _GUARD_BITS < 0 or \
                abs(acc) <= n << (max(abs(man).bit_length() + exp, 0) * n):
            x, y = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
            acc = _homogeneous_horner(self.coeffs, x, y)
        return (acc > 0) - (acc < 0)

    def value(self, sigma) -> mpmath.mpf:
        """Normalized polynomial value at (cos sigma, sin sigma)."""
        _, _, acc = self._fixed_horner(sigma)
        with mpmath.workprec(DEFAULT_PRECISION_BITS):
            return mpmath.mpf((acc, -_GUARD_BITS)) / self.top \
                * mpmath.sin(sigma) ** self.degree


def chamber_root_scan(ev: _ArcEvaluator, d: int) -> RootScan:
    """All sign-change roots of ev's polynomial at (cos s, sin s) on the open chamber arc.

    Scans a grid on (0, pi/d), bisects each sign change to within 1e-12, and
    accepts once a doubled grid finds the same root set; if the root count
    keeps changing for MAX_DOUBLINGS doublings an unresolved-root-cluster
    warning is attached.  Each angle is evaluated once per scan.
    """
    hi = math.pi / d
    margin = 1e-8 * hi
    sign = functools.cache(ev.cot_form)

    def scan(n: int) -> list[float]:
        grid = [margin + (hi - 2 * margin) * k / n for k in range(n + 1)]
        values = [sign(s) for s in grid]
        roots = []
        for idx in range(n):
            v0, v1 = values[idx], values[idx + 1]
            if v0 == 0:
                roots.append(grid[idx])
                continue
            if (v0 < 0) == (v1 < 0) or v1 == 0:
                continue
            lo_s, hi_s, lo_v = grid[idx], grid[idx + 1], v0
            while hi_s - lo_s > 1e-12:
                mid = 0.5 * (lo_s + hi_s)
                mv = sign(mid)
                if mv == 0:
                    lo_s = hi_s = mid
                    break
                if (mv < 0) == (lo_v < 0):
                    lo_s = mid
                else:
                    hi_s = mid
            roots.append(0.5 * (lo_s + hi_s))
        if values and values[-1] == 0:
            roots.append(grid[-1])
        return roots

    n = max(256, 4 * ev.degree)
    warnings = []
    roots = scan(n)
    for _ in range(MAX_DOUBLINGS):
        n *= 2
        refined = scan(n)
        if len(refined) == len(roots) and all(
                abs(a - b) < 1e-9 for a, b in zip(refined, sorted(roots))):
            roots = refined
            break
        roots = refined
    else:
        warnings.append("unresolved-root-cluster: root set still changing at grid cap")
    roots = sorted(roots)
    residuals = [abs(float(ev.value(s))) for s in roots]
    return RootScan(roots=roots, residuals=residuals, grid_size=n, warnings=warnings)


def line_cotangent_sum(case: CaseSpec, sigma: float) -> float:
    """S(sigma) = sum of m_i * cot(sigma - i*pi/d); zero iff the line is minimal."""
    total = 0.0
    for i, m in enumerate(case.multiplicities):
        arg = sigma - i * math.pi / case.d
        dist = abs(arg - math.pi * round(arg / math.pi))
        if dist < 1e-9:
            raise PoleProximityError(
                f"sigma={sigma!r} within 1e-09 of a cotangent pole")
        total += m / math.tan(arg)
    return total


def classify_line_minimality(case: CaseSpec, sigma: float) -> tuple[bool, float]:
    """Whether the line through the origin at angle sigma is a minimal direction.

    The test threshold is 1e-8 * sum(m_i)/sin^2(margin), the natural size of
    the derivative of the cotangent sum near the evaluation point, so root
    refinement error cannot flip the verdict.
    """
    if not 0 < sigma < math.pi / case.d:
        raise ValueError(f"sigma={sigma} outside the open chamber arc")
    value = line_cotangent_sum(case, sigma)
    margin = min(abs(sigma - i * math.pi / case.d -
                     math.pi * round((sigma - i * math.pi / case.d) / math.pi))
                 for i in range(case.d))
    scale = sum(case.multiplicities) / math.sin(margin) ** 2
    return abs(value) < 1e-8 * scale, value


def minimal_line_angles(case: CaseSpec) -> list[float]:
    """Roots of the cotangent sum in the open chamber arc, by bisection to 1e-14.

    The sum is strictly decreasing from +inf to -inf on the arc, so there is
    exactly one root; a list is returned for interface symmetry with the
    resultant root scan.
    """
    hi_edge = math.pi / case.d
    lo, hi = 1e-9, hi_edge - 1e-9
    f_lo = line_cotangent_sum(case, lo)
    f_hi = line_cotangent_sum(case, hi)
    if f_lo < 0 or f_hi > 0:  # pragma: no cover - monotone structure
        raise ArithmeticError("cotangent sum does not bracket a root")
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if line_cotangent_sum(case, mid) > 0:
            lo = mid
        else:
            hi = mid
    return [0.5 * (lo + hi)]


def emit_certificate(case: CaseSpec, report: ResultantReport,
                     ev: _ArcEvaluator | None, scan: RootScan | None,
                     duration_ms: float) -> dict:
    """Assemble the certificate document (stable field names); ev evaluates report."""
    expected = expected_resultant_degree(case.d)
    if report.identically_zero:
        conclusion = "inconclusive-resultant-vanishes"
    elif report.degree == expected:
        conclusion = "nonexistence-certified"
    else:
        conclusion = "degree-mismatch"

    roots = []
    if scan is not None:
        for sigma, residual in zip(scan.roots, scan.residuals):
            minimal, s_value = classify_line_minimality(case, sigma)
            z = math.tan(sigma)
            roots.append({
                "sigma": sigma,
                "z": z if math.isfinite(z) else None,
                "line_is_minimal": minimal,
                "line_f_sum": s_value,
                "residual": residual,
            })

    samples = []
    exact_samples = []
    if not report.identically_zero:
        for frac in (0.3, 0.5, 0.7):
            sigma = frac * math.pi / case.d
            samples.append({"sigma": sigma, "z": math.tan(sigma),
                            "value": float(ev.value(sigma))})
        # Exact nonvanishing witnesses, machine checkable with no rounding.
        for px, py in ((2, 1), (3, 2)):
            value = report.exact_value(px, py)
            exact_samples.append({"x": format_rational(FieldScalar.rational(px).a),
                                  "y": format_rational(FieldScalar.rational(py).a),
                                  "value": value.to_text()})

    return {
        "case": case.name,
        "label": case.label,
        "group": case.group,
        "n": case.n,
        "d": case.d,
        "multiplicities": list(case.multiplicities),
        "params": case.params_dict,
        "resultant_degree": report.degree,
        "expected_degree": expected,
        "identically_zero": report.identically_zero,
        "formal_degrees": list(report.formal_degrees),
        "trimmed_leading_pairs": report.trimmed_pairs,
        "roots": roots,
        "samples": samples,
        "exact_samples": exact_samples,
        "scan_warnings": list(scan.warnings) if scan else [],
        "conclusion": conclusion,
        "precision_bits": DEFAULT_PRECISION_BITS,
        "duration_ms": duration_ms,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }


def certify_case(case: CaseSpec) -> dict:
    """Full certification pipeline for one case."""
    start = time.monotonic()
    bundle = build_bundle(case)
    report = compute_resultant(bundle)
    ev = scan = None
    if not report.identically_zero:
        ev = _ArcEvaluator(report.coeffs)
        if report.degree > 0:
            scan = chamber_root_scan(ev, case.d)
    duration_ms = (time.monotonic() - start) * 1000.0
    return emit_certificate(case, report, ev, scan, duration_ms)


def write_json_atomic(path: Path, document) -> None:
    """Write document as indented, key-sorted JSON, replacing path in one step.

    The text goes to a temporary file in the same directory, which then
    replaces path by ``os.replace``: a failed write leaves no partial file and
    an existing file untouched.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def output_path(directory: str | Path, label: str, kind: str) -> Path:
    """``directory/<label>.<kind>.json``, with the case label made filename safe."""
    safe = label.replace("(", "_").replace(")", "").replace(",", "_")
    return Path(directory) / f"{safe}.{kind}.json"


def write_certificate(certificate: dict, directory: str | Path) -> Path:
    """Write one certificate JSON; the filename is derived from the case label."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = output_path(directory, certificate["label"], "certificate")
    write_json_atomic(path, certificate)
    return path
