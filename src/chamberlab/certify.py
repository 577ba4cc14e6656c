"""Per-case resultant certificates: compute, factor, isolate roots, emit.

The certificate records what the computation shows for one case: the
resultant of the velocity-cubic and slope-quintic coefficient polynomials is
(or is not) a nonzero homogeneous polynomial of the predicted degree, plus the
directions in the open chamber where it vanishes and whether each such
direction is a minimal line.  The logical step from "nonzero resultant of the
right degree" to nonexistence of proper solutions is referenced, not
recomputed.

The resultant, taken on the integer lists of the bundle's forms A and C as
they are, is a dense integer list in u = x/y over one denominator; on the
unit arc u = cot(sigma), and the chamber sigma in (0, pi/d) is
u > cot(pi/d).  Its chamber roots come from an exact factorization
(chamber_root_scan) and rational isolating intervals; membership in the
chamber and minimality are decided exactly, and the certificate records them
exactly: its one float is the run's duration_ms.
Certifying builds no element of Q(sqrt2, sqrt3); a report's ``poly`` view,
read by no code here, is parsed from the resultant's JSON rows.

The scan works in w = u**2: the resultant, qd and M are each u**z times a
polynomial in u**2, which the chamber's reflection x -> -x makes true of
every valid case, since its multiplicities alternate.  The chamber is then
w > cot(pi/d)**2, a rational bound: 0, 1/3, 1 or 3.  Each root found in w is
reported in u, on the dyadic cells that hold it, read off w with math.isqrt:
the first cell above the wall whose ends round to one double, which is what
bisection in u returns.  Each Yun factor F(w) is reported as F(u**2), with
u's own power joined to the factor of its multiplicity.  The minimal line
is M's one chamber root, the root that a certificate marks
``line_is_minimal``; at d = 1 there is no scan, and M is a multiple of x.
"""

from __future__ import annotations

import json
import math
import os
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .cases import CaseSpec
from .errors import PipelineError
from .field import field_text, format_rational
from .poly import Form, SpatialPoly
from .reduction import ReductionBundle, build_bundle, wall_trig
from .resultant import derivative, gcd_cofactors, homogeneous, positive_roots, primitive, \
    quotient, refine, squarefree, subtract, sylvester_resultant, taylor_shift

# The certificate layout's version.  Schema 2 holds no libm value: every
# datum is exact but duration_ms.
CERTIFICATE_SCHEMA = 2
# Bits of the run's floats (IEEE doubles).  A certificate's one float is
# duration_ms, and no decision uses a float.
DEFAULT_PRECISION_BITS = 53


def expected_resultant_degree(d: int) -> int:
    """Formal degree count: five cubic coefficients and three quintic ones."""
    return 27 * (d - 1)


class ResultantReport(NamedTuple):
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
        """The resultant as a homogeneous SpatialPoly with rational
        coefficients, parsed from the list's JSON rows on each read."""
        return SpatialPoly.from_json(Form([self.coeffs], self.scale).rows())

    def exact_value(self, x: int, y: int) -> Fraction:
        """The resultant at the integer point (x, y), exactly."""
        return Fraction(homogeneous(self.coeffs, x, y), self.scale)


def compute_resultant(bundle: ReductionBundle) -> ResultantReport:
    """Resultant of the cubic and quintic coefficient lists at formal degrees (3, 5).

    If the leading coefficients of BOTH lists vanish identically the formal
    Sylvester determinant is trivially zero (the two velocity forms share the
    direction xd = 0, which the slope chart excludes).  That common formal
    root is removed by trimming one leading coefficient from each list until
    one leading coefficient is nonzero or one list is down to its constant;
    the count of trimmed pairs is recorded.  The determinant at the formal
    degrees left then decides every case: a constant a0 against an all-zero
    quintic gives a0**deg_c.

    The determinant itself runs in Z[u], on the forms' integer lists as they
    are, trailing zeros stripped: every list of A has one length DA + 1, and
    of C DC + 1.  The integer resultant is kept as it comes, over the scale
    that the forms' denominators put on the Sylvester rows, at degree
    deg_a*DC + deg_c*DA; both are divided by their gcd.  Where the
    determinant is nonzero, a side whose lists are all zero has a formal
    degree of 0, so its DA or DC counts for nothing.  Lists that no valid
    case has, as ones with both parities of u, raise PipelineError with the
    case label.
    """
    (pa, den_a), (pc, den_c) = bundle.dense_a, bundle.dense_c
    hdeg_a, hdeg_c = len(pa[0]) - 1, len(pc[0]) - 1
    pa, pc = ([subtract(p, []) for p in lists] for lists in (pa, pc))
    trimmed = 0
    while len(pa) > 1 and len(pc) > 1 and not (pa[-1] or pc[-1]):
        pa, pc, trimmed = pa[:-1], pc[:-1], trimmed + 1
    formal = deg_a, deg_c = len(pa) - 1, len(pc) - 1
    try:
        dense = sylvester_resultant(pa, pc)
    except ValueError as exc:  # lists that a valid case cannot have, as two parities of u
        raise PipelineError(f"{bundle.case.label}: {exc}") from exc
    if not dense:
        return ResultantReport([], 1, formal, trimmed, None)
    degree = deg_a * hdeg_c + deg_c * hdeg_a
    scale = den_a ** deg_c * den_c ** deg_a
    g = math.gcd(scale, *dense)
    coeffs = [c // g for c in dense] + [0] * (degree + 1 - len(dense))
    return ResultantReport(coeffs, scale // g, formal, trimmed, degree)


class ChamberRoot(NamedTuple):
    """u = cot(sigma) in (lo, hi), or lo == hi; "M" marks a minimal line."""

    lo: Fraction
    hi: Fraction
    factor: str
    multiplicity: int


class RootScan(NamedTuple):
    """Powers of y, qd and M, Yun's [(k, Q_k)] of the cofactor Q, the chamber
    roots and the number of Descartes tests (``grid_size``)."""

    exponents: dict[str, int]
    factors: list[tuple[int, list[int]]]
    roots: list[ChamberRoot]
    grid_size: int


# cot(pi/d)**2 = (4 - k)/k, k = 4 sin(pi/d)**2 from wall 1's entry of the wall
# table: sigma < pi/d exactly when u = cot(sigma) > cot(pi/d).
_WALL_COT_SQ = {d: Fraction(4 - k, k) for d in (2, 3, 4, 6) for k in [wall_trig(d)[1][0]]}


def _in_w(label: str, f: list[int], name: str) -> tuple[int, list[int]]:
    """(z, F) with the nonzero f = u**z * F(u**2), F(0) != 0.

    A term of the other parity would be lost by the halving: PipelineError.
    """
    z = next(i for i, c in enumerate(f) if c)
    if any(f[z + 1::2]):
        raise PipelineError(f"{label}: {name} is not a power of u times a polynomial in u**2")
    return z, f[z::2]


def _in_u(f: list[int]) -> list[int]:
    """f(u**2) as a list in u."""
    out = [0] * (2 * len(f) - 1)
    out[::2] = f
    return out


def _squarefree_part(f: list[int]) -> list[int]:
    return gcd_cofactors(f, derivative(f))[1] if len(f) > 1 else f


def _first_cell(floor_at, depth: int, ok) -> tuple[Fraction, Fraction]:
    """The cell [a, a + 1] / 2**j, a = floor_at(j), of least j in 0..depth on
    which ok(a, j) holds; ok holds at depth and, once true, deeper down."""
    fails, holds = -1, depth
    while holds - fails > 1:
        mid = (fails + holds) // 2
        fails, holds = (fails, mid) if ok(floor_at(mid), mid) else (mid, holds)
    a = floor_at(holds)
    return Fraction(a, 1 << holds), Fraction(a + 1, 1 << holds)


def _chamber_roots(f: list[int], d: int) -> tuple[list[tuple[Fraction, Fraction]], int]:
    """Roots u of a square-free f(u**2) in the chamber, largest first, and the
    Descartes tests spent.

    The search runs in w = u**2, above the rational bound cot(pi/d)**2 = p/q:
    on g(t) = q**n * f((p + t) / q) for t > 0, so a root at t = 0 lies on the
    wall and a dyadic u has a dyadic t.  Each root u is reported on its dyadic
    chain, the cells [a, a + 1] / 2**j that hold it, j = 0, 1, ...: the first
    cell that lies above the wall and whose ends round to one double, or
    (u, u) where u is a cell's midpoint before that.  Bisection in u returns
    the same from any isolating interval of the chain, or above it, on which
    that rule fails.  A t-interval is refined until the least dyadic u-cell
    that holds its image is such a cell; math.isqrt reads the u-cells off w.
    """
    p, q = _WALL_COT_SQ[d].as_integer_ratio()
    g = [c * q ** (len(f) - 1 - i) for i, c in enumerate(f)]
    for _ in range(p):
        g = taylor_shift(g)
    while not g[0]:
        g = g[1:]
    intervals, tests = positive_roots(g)

    def floor_u(num, den, j):  # floor(u * 2**j) at w = num / den
        return math.isqrt((num << 2 * j) // den)

    def ok(a, j):  # the u-cell [a, a + 1] / 2**j, j >= 0, is above the wall and one double wide
        return j >= 0 and a * a * q >= p << 2 * j and a / (1 << j) == (a + 1) / (1 << j)

    def u_cell(a, b, j):  # the least dyadic u-cell holding the image of [a, b] / 2**j
        den, lo, hi = q << j, (p << j) + a, (p << j) + b
        depth = j + q.bit_length() + (hi // den).bit_length() + 1  # 2**-depth < the width in u
        lo, hi = floor_u(lo, den, depth), floor_u(hi, den, depth)
        return lo >> (lo ^ hi).bit_length(), depth - (lo ^ hi).bit_length()

    def done(a, b, j):  # ok on the u-cell of [a, b] / 2**j; that needs w's cell 2**-50 * w wide
        return b - a << 50 < (p << j) + b and ok(*u_cell(a, b, j))

    def point(t):  # the u-interval of the root at t
        w = (p + t) / q

        def floor_at(k):
            return floor_u(w.numerator, w.denominator, k)

        depth = (w.denominator.bit_length() - 1) // 2
        if floor_at(depth) ** 2 * w.denominator == w.numerator << 2 * depth:  # u dyadic
            if depth < 1 or not ok(floor_at(depth - 1), depth - 1):
                return (Fraction(floor_at(depth), 1 << depth),) * 2
            depth -= 1  # u is the midpoint of its cell at depth - 1
        else:
            depth = 64
            while not ok(floor_at(depth), depth):
                depth *= 2
        return _first_cell(floor_at, depth, ok)

    roots = []
    for lo, hi in reversed(intervals):
        lo, hi = refine(g, lo, hi, done)
        if lo == hi:
            roots.append(point(lo))
            continue
        j = max(lo.denominator, hi.denominator).bit_length() - 1
        a, depth = u_cell(lo.numerator << j - lo.denominator.bit_length() + 1,
                          hi.numerator << j - hi.denominator.bit_length() + 1, j)
        roots.append(_first_cell(lambda k, a=a, depth=depth: a >> depth - k, depth, ok))
    return roots, tests


def _minimal_form(bundle: ReductionBundle) -> list[int]:
    """M = t1*y - t2*x at y = 1, primitive.  On the unit arc M = -qd *
    sum(m_i * cot(sigma - i*pi/d)), and that sum falls strictly from +inf to
    -inf on the chamber: M has exactly one chamber root.  The numerator of R
    is [-t2, t1]."""
    neg_t2, t1 = bundle.r.lists
    return primitive(subtract(t1, [0] + [-c for c in neg_t2]))


def chamber_root_scan(report: ResultantReport, bundle: ReductionBundle) -> RootScan:
    """The resultant as c * y**a * qd**b * M**c * Q, and its chamber roots.

    a counts the trailing zero coefficients; qd and M (integer and primitive
    in u) divide out for as long as the division is exact, and b, c >= 1 are
    required (so d >= 2).  The rest of the resultant, qd and M are each u**z
    times a polynomial in u**2, else PipelineError, and the scan runs in
    w = u**2: the divisions, Yun's decomposition of Q, the gcds with M and
    the root search.  Q's factors are reported in u: each Q_k(w) as
    Q_k(u**2), and u's power in Q joins the factor of that multiplicity.  A
    root of a square-free factor Q_k of Q is minimal only if gcd(Q_k, M)
    vanishes there; such a root is listed once, as M's, with multiplicity
    c + k.
    """
    label, d = bundle.case.label, bundle.case.d
    res, exponents = list(report.coeffs), {"y": 0}
    while not res[-1]:
        res.pop()
        exponents["y"] += 1
    qd = subtract(bundle.dense_qd.lists[0], [])  # in Z[u], trailing zeros stripped
    (z, res), qd, (z_m, m) = (_in_w(label, f, name) for f, name in (
        (res, "the resultant"), (primitive(qd), "qd"), (_minimal_form(bundle), "M")))
    for name, (z_f, f) in (("qd", qd), ("M", (z_m, m))):
        exponents[name] = 0
        while (z_f or len(f) > 1) and z >= z_f and (q := quotient(res, f)) is not None:
            z, res, exponents[name] = z - z_f, q, exponents[name] + 1
        if not exponents[name]:
            raise PipelineError(f"{label}: the resultant is not divisible by {name}")
    factors = squarefree(res) if len(res) > 1 else []
    m_roots, tests = _chamber_roots(_squarefree_part(m), d)
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
    u_factors = [(k, [0] * (k == z) + _in_u(f)) for k, f in factors]
    if z and all(k != z for k, _ in factors):
        u_factors = sorted(u_factors + [(z, [0, 1])], key=lambda kf: kf[0])
    return RootScan(exponents, u_factors, sorted(roots, key=lambda r: -r.lo), tests)


def _root_entry(root: ChamberRoot) -> dict:
    return {"cot_interval": [format_rational(root.lo), format_rational(root.hi)],
            "factor": root.factor, "multiplicity": root.multiplicity,
            "line_is_minimal": root.factor == "M"}


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

    # Exact nonvanishing witnesses, machine checkable with no rounding.
    exact_samples = [] if report.identically_zero else [
        {"x": format_rational(px), "y": format_rational(py),
         "value": field_text(report.exact_value(px, py))} for px, py in ((2, 1), (3, 2))]

    return {
        "schema": CERTIFICATE_SCHEMA,
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
        "exact_samples": exact_samples,
        "conclusion": conclusion,
        "precision_bits": DEFAULT_PRECISION_BITS,
        "duration_ms": duration_ms,
        "created_utc": _utc_now(),
    }


def _utc_now() -> str:
    """The current UTC time in ISO 8601, YYYY-MM-DDTHH:MM:SS[.ffffff]+00:00,
    the microseconds left out when they are zero."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{micros:06d}+00:00" if micros else f"{stamp}+00:00"


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
            fh.write(json.dumps(document, indent=1, sort_keys=True) + "\n")
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
