"""Per-case resultant certificates: compute, factor, isolate roots, emit.

The certificate records what the computation shows for one case: the
resultant of the velocity-cubic and slope-quintic coefficient polynomials is
(or is not) a nonzero homogeneous polynomial of the predicted degree, plus the
directions in the open chamber where it vanishes and whether each such
direction is a minimal line.  The logical step from "nonzero resultant of the
right degree" to nonexistence of proper solutions is referenced, not
recomputed.

The resultant, taken on the bundle's dense lists A and C as they are, is a
dense integer list in u = x/y over one denominator; on the unit arc
u = cot(sigma), and the chamber sigma in (0, pi/d) is u > cot(pi/d).  Its
chamber roots come from an exact factorization (chamber_root_scan) and
rational isolating intervals; membership in the chamber and minimality are
decided exactly, and floats only display them.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from .cases import CaseSpec
from .errors import PipelineError
from .field import FieldScalar, format_rational, rational_text
from .poly import DensePoly, SpatialPoly
from .reduction import ReductionBundle, build_bundle
from .resultant import derivative, gcd_cofactors, homogeneous, positive_roots, primitive, \
    quotient, refine, squarefree, subtract, sylvester_resultant, taylor_shift

# Bits of every float in a certificate (IEEE doubles); no decision uses one.
DEFAULT_PRECISION_BITS = 53


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

    def exact_value(self, x: int, y: int) -> Fraction:
        """The resultant at the integer point (x, y), exactly."""
        return Fraction(homogeneous(self.coeffs, x, y), self.scale)


def _integer_lists(polys: list[DensePoly], label: str,
                   name: str) -> tuple[list[list[int]], int, int]:
    """Dense Z[u] lists (u = x/y) of one coefficient list, denominators cleared.

    Returns ``(lists, degree, scale)``: ``lists[j]`` is ``scale * polys[j]`` at
    y = 1, low to high, where ``scale`` is the lcm of the denominators and
    ``degree`` the common homogeneous degree of the nonzero entries (None if
    there are none; every list is then ``[]``).  Mixed degrees raise
    PipelineError.
    """
    degrees = {len(p.coeffs) - 1 for p in polys if p.coeffs}
    if len(degrees) > 1:
        raise PipelineError(f"{label}: the {name} coefficients are not "
                            f"homogeneous of one common degree")
    scale = math.lcm(*(p.den for p in polys))
    lists = []
    for p in polys:
        coeffs = [c * (scale // p.den) for c in p.coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        lists.append(coeffs)
    return lists, (degrees.pop() if degrees else None), scale


def compute_resultant(bundle: ReductionBundle) -> ResultantReport:
    """Resultant of the cubic and quintic coefficient lists at formal degrees (3, 5).

    If the leading coefficients of BOTH lists vanish identically the formal
    Sylvester determinant is trivially zero (the two velocity forms share the
    direction xd = 0, which the slope chart excludes).  That common formal
    root is removed by trimming one leading coefficient from each list until
    one leading coefficient is nonzero or one list is down to its constant;
    the count of trimmed pairs is recorded.  The determinant at the formal degrees left then decides every
    case: a constant a0 against an all-zero quintic gives a0**deg_c.

    The determinant itself runs in Z[u], on the bundle's DensePolys: each list
    must be homogeneous of one degree (DA for A, DC for C) and its
    denominators are cleared.  The integer resultant is kept as it comes,
    over the scale this puts on the Sylvester rows, at degree
    deg_a*DC + deg_c*DA; both are divided by their gcd.  An all-zero list has no degree; a nonzero
    determinant multiplies it by a formal degree of 0.
    """
    pa = list(bundle.dense_a)
    pc = list(bundle.dense_c)
    trimmed = 0
    while len(pa) > 1 and len(pc) > 1 and not (pa[-1].coeffs or pc[-1].coeffs):
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
class ChamberRoot:
    """u = cot(sigma) in (lo, hi), or lo == hi; "M" marks a minimal line."""

    lo: Fraction
    hi: Fraction
    factor: str
    multiplicity: int


@dataclass
class RootScan:
    """Powers of y, qd and M, Yun's [(k, Q_k)] of the cofactor Q, the chamber
    roots and the number of Descartes tests (``grid_size``)."""

    exponents: dict[str, int]
    factors: list[tuple[int, list[int]]]
    roots: list[ChamberRoot]
    grid_size: int


# cot(pi/d)**2: sigma < pi/d exactly when u = cot(sigma) > cot(pi/d).
_WALL_COT_SQ = {2: Fraction(0), 3: Fraction(1, 3), 4: Fraction(1), 6: Fraction(3)}


def _stop_rules(d: int):
    """The two stop rules for refining a root of f(u + base), on integers,
    for the cell [a / 2**j, b / 2**j]: the cell lies on one side of the wall;
    both ends, shifted back by base, round to the same double."""
    wall_sq = _WALL_COT_SQ[d]
    base, num, den = math.isqrt(int(wall_sq)), wall_sq.numerator, wall_sq.denominator

    def off_wall(a, b, j):
        shift, wall = base << j, num << 2 * j
        return (a + shift) ** 2 * den >= wall or (b + shift) ** 2 * den <= wall

    def one_double(a, b, j):
        return (a + (base << j)) / (1 << j) == (b + (base << j)) / (1 << j)

    return off_wall, one_double


def _chamber_roots(f: list[int], d: int) -> tuple[list[tuple[Fraction, Fraction]], int]:
    """Roots of a square-free f in the chamber, largest first, and the tests spent.

    The search runs above base = floor(cot(pi/d)) and compares squares with
    the wall; a root exactly on an irrational wall is divided out first.
    d = 1 searches the whole line.
    """
    if d == 1:
        below, tests = _chamber_roots([-c if i % 2 else c for i, c in enumerate(f)], 2)
        above, more = _chamber_roots(f, 2)
        zero = [(Fraction(0),) * 2] if not f[0] else []
        return above + zero + [(-hi, -lo) for lo, hi in below[::-1]], tests + more
    wall_sq = _WALL_COT_SQ[d]
    base = math.isqrt(int(wall_sq))
    if base * base != wall_sq:
        f = quotient(f, [-wall_sq.numerator, 0, wall_sq.denominator]) or f
    g = taylor_shift(f) if base else f
    while not g[0]:  # a root at u = base lies on or beyond the wall
        g = g[1:]
    intervals, tests = positive_roots(g)
    off_wall, one_double = _stop_rules(d)
    roots = []
    for lo, hi in reversed(intervals):
        lo, hi = refine(g, lo, hi, off_wall)
        if (lo + base) ** 2 >= wall_sq:
            lo, hi = refine(g, lo, hi, one_double)
            roots.append((lo + base, hi + base))
    return roots, tests


def _minimal_form(bundle: ReductionBundle) -> tuple[list[int], list[int]]:
    """M = t1*y - t2*x at y = 1, primitive, and its square-free part.  On the
    unit arc M = -qd * sum(m_i * cot(sigma - i*pi/d)), and that sum falls
    strictly from +inf to -inf on the chamber: M has exactly one chamber root.
    The numerator of R is [-t2, t1]."""
    neg_t2, t1 = bundle.r
    scale = math.lcm(neg_t2.den, t1.den)
    m = primitive(subtract([c * (scale // t1.den) for c in t1.coeffs],
                           [0] + [-c * (scale // neg_t2.den) for c in neg_t2.coeffs]))
    return m, gcd_cofactors(m, derivative(m))[1] if len(m) > 1 else m


def chamber_root_scan(report: ResultantReport, bundle: ReductionBundle) -> RootScan:
    """The resultant as c * y**a * qd**b * M**c * Q, and its chamber roots.

    a counts the trailing zero coefficients; qd and M (integer and primitive
    in u) divide out for as long as the division is exact, and b, c >= 1 are
    required (so d >= 2).  A root of a square-free factor Q_k of Q is minimal
    only if gcd(Q_k, M) vanishes there; such a root is listed once, as M's,
    with multiplicity c + k.
    """
    label, d = bundle.case.label, bundle.case.d
    res, exponents = list(report.coeffs), {"y": 0}
    while not res[-1]:
        res.pop()
        exponents["y"] += 1
    (qd,), _, _ = _integer_lists([bundle.dense_qd], label, "qd")
    m, m_part = _minimal_form(bundle)
    for name, f in (("qd", primitive(qd)), ("M", m)):
        exponents[name] = 0
        while len(f) > 1 and (q := quotient(res, f)) is not None:
            res, exponents[name] = q, exponents[name] + 1
        if not exponents[name]:
            raise PipelineError(f"{label}: the resultant is not divisible by {name}")
    factors = squarefree(res) if len(res) > 1 else []
    m_roots, tests = _chamber_roots(m_part, d)
    if len(m_roots) != 1:
        raise PipelineError(f"{label}: M has {len(m_roots)} chamber roots, not one")
    roots, m_mult = [], exponents["M"]
    for k, f in factors:
        shared, f, _ = gcd_cofactors(f, m)
        if len(shared) > 1:
            on_m, n = _chamber_roots(shared, d)
            m_mult, tests = m_mult + k * len(on_m), tests + n
        found, n = _chamber_roots(f, d)
        roots, tests = roots + [ChamberRoot(lo, hi, "Q", k) for lo, hi in found], tests + n
    roots += [ChamberRoot(lo, hi, "M", m_mult) for lo, hi in m_roots]
    return RootScan(exponents, factors, sorted(roots, key=lambda r: -r.lo), tests)


def line_cotangent_sum(case: CaseSpec, sigma: float) -> float:
    """S(sigma) = sum of m_i * cot(sigma - i*pi/d); zero iff the line is minimal."""
    return sum(m / math.tan(sigma - i * math.pi / case.d)
               for i, m in enumerate(case.multiplicities))


def minimal_line_angles(case: CaseSpec) -> list[float]:
    """[sigma] of the minimal line: atan2(1, u) at M's chamber root, u rounded once."""
    roots, _ = _chamber_roots(_minimal_form(build_bundle(case))[1], case.d)
    return [math.atan2(1.0, float(lo)) for lo, _ in roots]


def _root_entry(root: ChamberRoot) -> dict:
    u = float(root.lo)
    return {"cot_interval": [format_rational(root.lo), format_rational(root.hi)],
            "factor": root.factor, "multiplicity": root.multiplicity,
            "line_is_minimal": root.factor == "M",
            "sigma": math.atan2(1.0, u), "z": 1.0 / u if u else None}


def emit_certificate(case: CaseSpec, report: ResultantReport, scan: RootScan | None,
                     duration_ms: float) -> dict:
    """Assemble the certificate document (stable field names)."""
    expected = expected_resultant_degree(case.d)
    if report.identically_zero:
        conclusion = "inconclusive-resultant-vanishes"
    elif report.degree == expected:
        conclusion = "nonexistence-certified"
    else:
        conclusion = "degree-mismatch"

    samples = []
    exact_samples = []
    if not report.identically_zero:
        # The resultant over its largest coefficient at (cos s, sin s), exact
        # at the doubles' values, then rounded once: int true division rounds
        # correctly.
        for frac in (0.3, 0.5, 0.7):
            sigma = frac * math.pi / case.d
            x, y = Fraction(math.cos(sigma)), Fraction(math.sin(sigma))
            den = max(x.denominator, y.denominator)
            value = homogeneous(report.coeffs, int(x * den), int(y * den)) / (
                max(map(abs, report.coeffs)) * den ** report.degree)
            samples.append({"sigma": sigma, "z": math.tan(sigma), "value": value})
        # Exact nonvanishing witnesses, machine checkable with no rounding.
        for px, py in ((2, 1), (3, 2)):
            exact_samples.append({"x": format_rational(px), "y": format_rational(py),
                                  "value": rational_text(report.exact_value(px, py))})

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
        "factorization": None if scan is None else {
            **scan.exponents, "Q": [[k, len(f) - 1] for k, f in scan.factors]},
        "roots": [] if scan is None else [_root_entry(r) for r in scan.roots],
        "samples": samples,
        "exact_samples": exact_samples,
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
    scan = None
    if report.degree == expected_resultant_degree(case.d) > 0:
        scan = chamber_root_scan(report, bundle)
    duration_ms = (time.monotonic() - start) * 1000.0
    return emit_certificate(case, report, scan, duration_ms)


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
