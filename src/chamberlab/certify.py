"""Per-case resultant certificates: compute, scan, classify, emit.

The certificate records what the computation shows for one case: the
resultant of the velocity-cubic and slope-quintic coefficient polynomials is
(or is not) a nonzero homogeneous polynomial of the predicted degree, plus the
directions in the open chamber where it vanishes and whether each such
direction is a minimal line.  The logical step from "nonzero resultant of the
right degree" to nonexistence of proper solutions is referenced, not
recomputed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import mpmath

from .cases import CaseSpec
from .errors import PipelineError, PoleProximityError
from .field import FieldScalar, embed_real, format_rational
from .poly import NOT_HOMOGENEOUS, SpatialPoly, ZERO_POLY
from .reduction import ReductionBundle, build_bundle
from .resultant import sylvester_resultant

DEFAULT_PRECISION_BITS = 200


def expected_resultant_degree(d: int) -> int:
    """Formal degree count: five cubic coefficients and three quintic ones."""
    return 27 * (d - 1)


@dataclass
class ResultantReport:
    """Outcome of the resultant computation for one case."""

    poly: SpatialPoly
    formal_degrees: tuple[int, int]
    trimmed_pairs: int
    degree: int | None
    identically_zero: bool
    homogeneous: bool


def _integer_lists(polys: list[SpatialPoly], label: str,
                   name: str) -> tuple[list[list[int]], int, int]:
    """Dense Z[u] lists (u = x/y) of one coefficient list, denominators cleared.

    Returns ``(lists, degree, scale)``: ``lists[j]`` is ``scale * polys[j]`` at
    y = 1, low to high, where ``scale`` is the lcm of every coefficient's
    denominator and ``degree`` the common homogeneous degree of the nonzero
    entries.  Irrational coefficients and mixed degrees raise PipelineError.
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
        dense = [0] * (degree + 1)
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
    at least one of them is nonzero; the count of trimmed pairs is recorded.

    The determinant itself runs in Z[u]: each list must be rational and
    homogeneous of one degree (DA for A, DC for C), its denominators are
    cleared, and the integer resultant is divided by the scale this puts on
    the Sylvester rows and rehomogenized at degree deg_a*DC + deg_c*DA.
    """
    pa = list(bundle.a_coeffs)
    pc = list(bundle.c_coeffs)
    trimmed = 0
    while len(pa) > 1 and len(pc) > 1 and pa[-1].is_zero and pc[-1].is_zero:
        pa.pop()
        pc.pop()
        trimmed += 1
    formal = (len(pa) - 1, len(pc) - 1)
    if all(p.is_zero for p in pa) or all(p.is_zero for p in pc) \
            or len(pa) < 2 or len(pc) < 2:
        return ResultantReport(SpatialPoly.zero(), formal, trimmed, None, True, True)
    label = bundle.case.label
    int_a, hdeg_a, scale_a = _integer_lists(pa, label, "A")
    int_c, hdeg_c, scale_c = _integer_lists(pc, label, "C")
    deg_a, deg_c = formal
    dense = sylvester_resultant(int_a, int_c)
    total = deg_a * hdeg_c + deg_c * hdeg_a
    scale = scale_a ** deg_c * scale_c ** deg_a
    res = SpatialPoly({(a, total - a): FieldScalar.rational(c, scale)
                       for a, c in enumerate(dense) if c})
    hdeg = res.homogeneous_degree()
    if hdeg == ZERO_POLY:
        return ResultantReport(res, formal, trimmed, None, True, True)
    if hdeg == NOT_HOMOGENEOUS:
        raise PipelineError(f"{label}: resultant is not homogeneous")
    return ResultantReport(res, formal, trimmed, hdeg, False, True)


@dataclass
class RootScan:
    """Sign-change roots of the resultant restricted to the open chamber arc."""

    roots: list[float]
    residuals: list[float]
    grid_size: int
    warnings: list[str] = field(default_factory=list)


class _ArcEvaluator:
    """Evaluates a homogeneous polynomial at (cos s, sin s), normalized.

    Coefficients are divided by the largest magnitude so residual thresholds
    are scale free.  On (0, pi) the sign equals the sign of the cotangent
    Horner form, which is what the bisection uses.
    """

    def __init__(self, poly: SpatialPoly, degree: int, precision_bits: int):
        self.degree = degree
        self.precision_bits = precision_bits
        with mpmath.workprec(precision_bits):
            coeffs = {}
            for (a, b), c in poly.terms.items():
                coeffs[a] = embed_real(c, precision_bits)
            top = max(abs(v) for v in coeffs.values())
            self.horner = [coeffs.get(a, mpmath.mpf(0)) / top
                           for a in range(degree, -1, -1)]

    def cot_form(self, sigma) -> mpmath.mpf:
        """P(cot sigma); same sign as the polynomial on (0, pi)."""
        with mpmath.workprec(self.precision_bits):
            u = mpmath.cot(sigma)
            acc = mpmath.mpf(0)
            for coeff in self.horner:
                acc = acc * u + coeff
            return acc

    def value(self, sigma) -> mpmath.mpf:
        """Normalized polynomial value at (cos sigma, sin sigma)."""
        with mpmath.workprec(self.precision_bits):
            return self.cot_form(sigma) * mpmath.sin(sigma) ** self.degree


def chamber_root_scan(res: SpatialPoly, d: int,
                      precision_bits: int = DEFAULT_PRECISION_BITS,
                      initial_grid: int | None = None,
                      max_doublings: int = 5,
                      refine_tol: float = 1e-12) -> RootScan:
    """All sign-change roots of res(cos s, sin s) for s in the open chamber arc.

    Scans a grid on (0, pi/d), bisects each sign change to within refine_tol,
    and accepts once a doubled grid finds the same root set; if the root count
    keeps changing up to the doubling cap an unresolved-root-cluster warning
    is attached.
    """
    degree = res.homogeneous_degree()
    if degree in (ZERO_POLY, NOT_HOMOGENEOUS):
        raise ValueError("root scan needs a nonzero homogeneous polynomial")
    ev = _ArcEvaluator(res, degree, precision_bits)
    hi = math.pi / d
    margin = 1e-8 * hi

    def scan(n: int) -> list[float]:
        grid = [margin + (hi - 2 * margin) * k / n for k in range(n + 1)]
        values = [ev.cot_form(s) for s in grid]
        roots = []
        for idx in range(n):
            v0, v1 = values[idx], values[idx + 1]
            if v0 == 0:
                roots.append(grid[idx])
                continue
            if (v0 < 0) == (v1 < 0) or v1 == 0:
                continue
            lo_s, hi_s, lo_v = grid[idx], grid[idx + 1], v0
            while hi_s - lo_s > refine_tol:
                mid = 0.5 * (lo_s + hi_s)
                mv = ev.cot_form(mid)
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

    n = initial_grid or max(256, 4 * degree)
    warnings = []
    roots = scan(n)
    for _ in range(max_doublings):
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


def line_cotangent_sum(case: CaseSpec, sigma: float,
                       pole_margin: float = 1e-9) -> float:
    """S(sigma) = sum of m_i * cot(sigma - i*pi/d); zero iff the line is minimal."""
    total = 0.0
    for i, m in enumerate(case.multiplicities):
        arg = sigma - i * math.pi / case.d
        dist = abs(arg - math.pi * round(arg / math.pi))
        if dist < pole_margin:
            raise PoleProximityError(
                f"sigma={sigma!r} within {pole_margin} of a cotangent pole")
        total += m / math.tan(arg)
    return total


def classify_line_minimality(case: CaseSpec, sigma: float,
                             tol_base: float = 1e-8,
                             pole_margin: float = 1e-9) -> tuple[bool, float]:
    """Whether the line through the origin at angle sigma is a minimal direction.

    The test threshold scales with sum(m_i)/sin^2(margin), the natural size of
    the derivative of the cotangent sum near the evaluation point, so root
    refinement error cannot flip the verdict.
    """
    if not 0 < sigma < math.pi / case.d:
        raise ValueError(f"sigma={sigma} outside the open chamber arc")
    value = line_cotangent_sum(case, sigma, pole_margin)
    margin = min(abs(sigma - i * math.pi / case.d -
                     math.pi * round((sigma - i * math.pi / case.d) / math.pi))
                 for i in range(case.d))
    scale = sum(case.multiplicities) / math.sin(margin) ** 2
    return abs(value) < tol_base * scale, value


def minimal_line_angles(case: CaseSpec, tol: float = 1e-14) -> list[float]:
    """Roots of the cotangent sum in the open chamber arc, by bisection.

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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if line_cotangent_sum(case, mid) > 0:
            lo = mid
        else:
            hi = mid
    return [0.5 * (lo + hi)]


def emit_certificate(case: CaseSpec, report: ResultantReport,
                     scan: RootScan | None,
                     precision_bits: int, duration_ms: float) -> dict:
    """Assemble the certificate document (stable field names)."""
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
            try:
                minimal, s_value = classify_line_minimality(case, sigma)
            except PoleProximityError:
                minimal, s_value = False, None
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
        ev = _ArcEvaluator(report.poly, report.degree, precision_bits)
        for frac in (0.3, 0.5, 0.7):
            sigma = frac * math.pi / case.d
            samples.append({"sigma": sigma, "z": math.tan(sigma),
                            "value": float(ev.value(sigma))})
        # Exact nonvanishing witnesses, machine checkable with no rounding.
        for px, py in ((2, 1), (3, 2)):
            value = report.poly.eval_exact(FieldScalar.rational(px),
                                           FieldScalar.rational(py))
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
        "precision_bits": precision_bits,
        "duration_ms": duration_ms,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }


def certify_case(case: CaseSpec,
                 precision_bits: int = DEFAULT_PRECISION_BITS) -> dict:
    """Full certification pipeline for one case."""
    start = time.monotonic()
    bundle = build_bundle(case)
    report = compute_resultant(bundle)
    scan = None
    if not report.identically_zero and report.degree > 0:
        scan = chamber_root_scan(report.poly, case.d, precision_bits)
    duration_ms = (time.monotonic() - start) * 1000.0
    return emit_certificate(case, report, scan, precision_bits, duration_ms)


def write_certificate(certificate: dict, directory: str | Path) -> Path:
    """Write one certificate JSON; the filename is derived from the case label."""
    import json

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    safe = certificate["label"].replace("(", "_").replace(")", "").replace(",", "_")
    path = directory / f"{safe}.certificate.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump(certificate, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
