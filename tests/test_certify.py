import json
import math
from types import SimpleNamespace

import mpmath
import pytest

from arc_oracle import MpmathArcEvaluator
from chamberlab import certify
from chamberlab.cases import registry_case
from chamberlab.certify import (
    DEFAULT_PRECISION_BITS,
    _ArcEvaluator,
    certify_case,
    chamber_root_scan,
    classify_line_minimality,
    compute_resultant,
    emit_certificate,
    expected_resultant_degree,
    line_cotangent_sum,
    minimal_line_angles,
    write_certificate,
)
from chamberlab.errors import PipelineError, PoleProximityError
from chamberlab.field import FieldScalar
from chamberlab.poly import SpatialPoly, X, Y
from chamberlab.reduction import build_bundle

# Roots of the p=q=2 resultant, frozen from an independent computer-algebra
# run of the same construction (sign-change scan on its trig restriction).
D2_ROOTS = [0.4908826782893113, 0.6358604747819308,
            0.7853981633974483, 0.9349358520129654]

# Exact value of the U5 resultant at (2, 1), cross-checked against an
# independent computer-algebra computation of the same Sylvester determinant.
U5_RES_AT_2_1 = "-18260404613543917212879947116239934916425/725594112"


def test_single_wall_resultant_constant():
    # Hand-derived: the cubic degenerates to (16/9) z^2 - 14/9 and the quintic
    # to -(32/27)(z^3 + z); after trimming the shared formal leading zeros the
    # determinant is the constant below.
    bundle = build_bundle(registry_case("SOn-1"))
    report = compute_resultant(bundle)
    assert report.trimmed_pairs == 1
    assert report.formal_degrees == (2, 4)
    assert report.degree == 0
    assert report.poly == SpatialPoly.constant(FieldScalar.rational(-22937600, 531441))


def test_degenerate_quintic_is_inconclusive():
    # At n=5 the single-wall cubic is a nonzero constant and the quintic table
    # cancels identically; any resultant convention degenerates.
    bundle = build_bundle(registry_case("SOn-1", {"n": 5}))
    report = compute_resultant(bundle)
    assert report.identically_zero


def test_u5_resultant_degree_and_value(u5):
    report = compute_resultant(build_bundle(u5))
    assert not report.identically_zero
    assert report.trimmed_pairs == 0
    assert report.degree == expected_resultant_degree(4) == 81
    value = report.poly.eval_exact(FieldScalar.rational(2), FieldScalar.rational(1))
    num, den = U5_RES_AT_2_1.split("/")
    assert value == FieldScalar.rational(int(num), int(den))


@pytest.mark.parametrize("name,d", [("SO3", 3), ("G2", 6)])
def test_resultant_degree_follows_chamber_type(name, d):
    report = compute_resultant(build_bundle(registry_case(name)))
    assert report.degree == 27 * (d - 1)
    assert not report.identically_zero


def test_planted_common_root_resultant_is_zero(u5):
    bundle = build_bundle(u5)
    report = compute_resultant(bundle)

    # both forms share the factor (y*t - x): resultant must vanish
    zero = SpatialPoly.zero()
    fake = compute_resultant(_fake_bundle(bundle.case, (-X, Y, zero, zero),
                                          (-X, Y, zero, zero, zero, zero)))
    assert fake.identically_zero
    assert not report.identically_zero


def _fake_bundle(case, a_coeffs, c_coeffs):
    return SimpleNamespace(case=case, a_coeffs=a_coeffs, c_coeffs=c_coeffs)


def test_resultant_rejects_irrational_coefficients(u5):
    sqrt2 = SpatialPoly.monomial(1, 0, FieldScalar(0, 1))
    bundle = _fake_bundle(u5, (-X, Y, Y * 2, Y * 3),
                          (X, Y, sqrt2, Y, SpatialPoly.zero(), X))
    with pytest.raises(PipelineError, match="not rational"):
        compute_resultant(bundle)


def test_resultant_rejects_mixed_degrees(u5):
    bundle = _fake_bundle(u5, (-X, Y, X * Y, Y),
                          (X, Y, X, Y, SpatialPoly.zero(), X))
    with pytest.raises(PipelineError, match="one common degree"):
        compute_resultant(bundle)
    bundle = _fake_bundle(u5, (-X, Y, X, Y),
                          (X, Y, X + 1, Y, SpatialPoly.zero(), X))
    with pytest.raises(PipelineError, match="one common degree"):
        compute_resultant(bundle)


def test_resultant_rational_boundary_scales_back(u5):
    # Denominators are cleared per list and divided out again: halving every
    # A coefficient and thirding every C coefficient scales the resultant by
    # (1/2)^5 * (1/3)^3 (five rows of A, three of C).
    a = (-X, Y, X * 2, Y * 3)
    c = (X, Y * 5, X, -Y, SpatialPoly.zero(), X * 7)
    whole = compute_resultant(_fake_bundle(u5, a, c))
    half = FieldScalar.rational(1, 2)
    third = FieldScalar.rational(1, 3)
    scaled = compute_resultant(_fake_bundle(u5, tuple(p * half for p in a),
                                            tuple(p * third for p in c)))
    assert whole.degree == scaled.degree == 3 * 1 + 5 * 1
    assert scaled.poly == whole.poly * FieldScalar.rational(1, 2 ** 5 * 3 ** 3)


def test_root_scan_symmetric_quadratic():
    res = X * X - Y * Y
    scan = chamber_root_scan(res, 2)
    assert len(scan.roots) == 1
    assert scan.roots[0] == pytest.approx(math.pi / 4, abs=1e-11)


def test_root_scan_positive_definite_is_empty():
    res = X * X + Y * Y
    scan = chamber_root_scan(res, 2)
    assert scan.roots == []


def test_root_scan_d2_matches_independent_run():
    report = compute_resultant(build_bundle(registry_case("SOpxSOq")))
    scan = chamber_root_scan(report.poly, 2)
    assert len(scan.roots) == len(D2_ROOTS)
    for found, expected in zip(scan.roots, D2_ROOTS):
        assert found == pytest.approx(expected, abs=1e-10)
    assert all(r < 1e-10 for r in scan.residuals)


def test_u5_root_scan_golden(u5):
    # Frozen from a pipeline run: a single interior root, the minimal line
    # with slope 1/sqrt(5).
    report = compute_resultant(build_bundle(u5))
    scan = chamber_root_scan(report.poly, 4)
    assert len(scan.roots) == 1
    assert scan.roots[0] == pytest.approx(0.4205343352841455, abs=1e-10)
    assert math.tan(scan.roots[0]) == pytest.approx(1 / math.sqrt(5), abs=1e-10)
    minimal, _ = classify_line_minimality(u5, scan.roots[0])
    assert minimal


def test_root_residuals_meet_threshold(u5):
    report = compute_resultant(build_bundle(u5))
    scan = chamber_root_scan(report.poly, 4, DEFAULT_PRECISION_BITS)
    # residuals are measured on max-normalized coefficients
    assert all(r < 1e-10 for r in scan.residuals)


def test_classify_minimality_d2_cases():
    balanced = registry_case("SOpxSOq", {"p": 2, "q": 2})
    minimal, value = classify_line_minimality(balanced, math.pi / 4)
    assert minimal and abs(value) < 1e-12

    skew = registry_case("SOpxSOq", {"p": 2, "q": 3})
    minimal, value = classify_line_minimality(skew, math.pi / 4)
    assert not minimal
    assert value == pytest.approx(1.0, abs=1e-12)  # 2*cot(pi/4) - tan(pi/4)


def test_classify_minimality_single_wall_hyperplane():
    case = registry_case("SOn-1")
    minimal, value = classify_line_minimality(case, math.pi / 2)
    assert minimal and abs(value) < 1e-12


def test_classification_is_scale_free():
    # The cotangent sum, not any 1/s prefactor, decides minimality: the value
    # only depends on the angle.
    case = registry_case("SOpxSOq", {"p": 3, "q": 5})
    _, v1 = classify_line_minimality(case, 0.9)
    assert v1 == pytest.approx(line_cotangent_sum(case, 0.9))


def test_pole_proximity_error():
    case = registry_case("SOpxSOq")
    with pytest.raises(PoleProximityError):
        classify_line_minimality(case, 1e-12)
    with pytest.raises(ValueError):
        classify_line_minimality(case, 2 * math.pi)


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 5)])
def test_minimal_cone_angle_closed_form(p, q):
    case = registry_case("SOpxSOq", {"p": p, "q": q})
    (sigma,) = minimal_line_angles(case)
    assert sigma == pytest.approx(math.atan(math.sqrt((q - 1) / (p - 1))), abs=1e-10)


def test_certificate_u5(u5, tmp_path):
    cert = certify_case(u5)
    assert cert["conclusion"] == "nonexistence-certified"
    assert cert["resultant_degree"] == cert["expected_degree"] == 81
    assert not cert["identically_zero"]
    assert len(cert["roots"]) == 1
    root = cert["roots"][0]
    assert root["line_is_minimal"]
    assert root["z"] == pytest.approx(1 / math.sqrt(5), abs=1e-9)
    for key in ("case", "n", "d", "multiplicities", "params", "resultant_degree",
                "expected_degree", "identically_zero", "roots", "conclusion",
                "precision_bits", "duration_ms"):
        assert key in cert
    # exact nonvanishing witness recorded in field-scalar text form
    witness = cert["exact_samples"][0]
    assert witness["x"] == "2/1" and witness["y"] == "1/1"
    assert FieldScalar.from_text(witness["value"]) == \
        compute_resultant(build_bundle(u5)).poly.eval_exact(
            FieldScalar.rational(2), FieldScalar.rational(1))

    path = write_certificate(cert, tmp_path)
    on_disk = json.loads(path.read_text())
    assert on_disk["conclusion"] == "nonexistence-certified"


def test_certificate_conclusion_logic(u5):
    bundle = build_bundle(u5)
    report = compute_resultant(bundle)

    zero_like = type(report)(poly=SpatialPoly.zero(), formal_degrees=(3, 5),
                             trimmed_pairs=0, degree=None, identically_zero=True,
                             homogeneous=True)
    cert = emit_certificate(u5, zero_like, None, 200, 0.0)
    assert cert["conclusion"] == "inconclusive-resultant-vanishes"

    tampered = type(report)(poly=report.poly, formal_degrees=(3, 5),
                            trimmed_pairs=0, degree=80, identically_zero=False,
                            homogeneous=True)
    cert = emit_certificate(u5, tampered, None, 200, 0.0)
    assert cert["conclusion"] == "degree-mismatch"


def test_certificate_determinism(su3):
    a = certify_case(su3)
    b = certify_case(su3)
    for volatile in ("duration_ms", "created_utc"):
        a.pop(volatile), b.pop(volatile)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_precision_bits_recorded(su3):
    cert = certify_case(su3, precision_bits=300)
    assert cert["precision_bits"] == 300


def test_scan_warning_when_doubling_disabled():
    # With no confirmation doubling allowed the scan cannot establish a
    # stable root set and must say so.
    scan = chamber_root_scan(X * X - Y * Y, 2, max_doublings=0)
    assert any("unresolved-root-cluster" in w for w in scan.warnings)
    assert scan.roots and scan.roots[0] == pytest.approx(math.pi / 4, abs=1e-11)


def test_arc_evaluator_normalizes():
    ev = _ArcEvaluator(X * X - Y * Y, 2, 100)
    # the double-precision angle is only within ~1e-17 of the exact root
    assert float(ev.value(math.pi / 4)) == pytest.approx(0.0, abs=1e-15)
    assert float(ev.value(0.1)) == pytest.approx(math.cos(0.1) ** 2 - math.sin(0.1) ** 2,
                                                 abs=1e-12)


def _chamber_grid(d, points):
    hi = math.pi / d
    margin = 1e-8 * hi
    return [margin + (hi - 2 * margin) * k / (points - 1) for k in range(points)]


def test_arc_evaluator_matches_mpmath_oracle(all_cases):
    # The oracle evaluates P at the same precision_bits cotangent, with a
    # Horner loop at twice the precision: signs agree exactly and values to
    # the evaluator's few final roundings.
    bits = DEFAULT_PRECISION_BITS
    tol = mpmath.mpf(2) ** (8 - bits)
    checked = 0
    for case in all_cases:
        report = compute_resultant(build_bundle(case))
        if not report.degree:
            continue
        ev = _ArcEvaluator(report.poly, report.degree, bits)
        oracle = MpmathArcEvaluator(report.poly, report.degree, bits, 2 * bits)
        for sigma in _chamber_grid(case.d, 512):
            expected = oracle.value(sigma)
            assert ev.cot_form(sigma) == mpmath.sign(expected), (case.label, sigma)
            assert abs(ev.value(sigma) - expected) <= tol * abs(expected), (case.label, sigma)
        checked += 1
    assert checked == 13


def test_arc_evaluator_exact_fallback(monkeypatch):
    # Values far below the fixed-point error bound: (X - Y)^2 and (X - Y)^3
    # next to the root at pi/4, and X next to pi/2, where cot sigma < 2**-264
    # has no exact fixed-point image.  Each sign must come from the exact
    # integer form and agree with a 400-bit Horner loop at the same cotangent.
    calls = []
    exact = certify._homogeneous_horner
    monkeypatch.setattr(certify, "_homogeneous_horner",
                        lambda *args: calls.append(args) or exact(*args))
    bits = DEFAULT_PRECISION_BITS
    with mpmath.workprec(4 * bits):
        two = mpmath.mpf(2)
        quarter, half = mpmath.pi / 4, mpmath.pi / 2
        points = [((X - Y) * (X - Y), 2, quarter + two ** -150),
                  ((X - Y) * (X - Y), 2, quarter - two ** -150),
                  ((X - Y) ** 3, 3, quarter + two ** -100),
                  ((X - Y) ** 3, 3, quarter - two ** -100),
                  (X, 1, half - two ** -300)]
    signs = []
    for poly, degree, sigma in points:
        oracle = MpmathArcEvaluator(poly, degree, bits, 2 * bits)
        before = len(calls)
        sign = _ArcEvaluator(poly, degree, bits).cot_form(sigma)
        assert len(calls) == before + 1
        assert sign == mpmath.sign(oracle.cot_form(sigma))
        signs.append(sign)
    assert signs == [1, 1, -1, 1, 1]


def test_arc_evaluator_rejects_irrational_coefficients():
    sqrt2_y2 = SpatialPoly.monomial(0, 2, FieldScalar(0, 1))
    with pytest.raises(PipelineError, match="not rational"):
        _ArcEvaluator(X * X - sqrt2_y2, 2, DEFAULT_PRECISION_BITS)


@pytest.mark.parametrize("name", ["SOn-1", "U5"])
def test_arc_evaluator_exact_value_matches_eval_exact(name):
    poly = compute_resultant(build_bundle(registry_case(name))).poly
    ev = _ArcEvaluator(poly, poly.homogeneous_degree(), DEFAULT_PRECISION_BITS)
    for px, py in ((2, 1), (3, 2), (-5, 7), (0, 1)):
        assert ev.exact_value(px, py) == poly.eval_exact(FieldScalar.rational(px),
                                                         FieldScalar.rational(py))


def test_failed_certificate_write_leaves_no_partial_file(tmp_path, monkeypatch):
    cert = {"label": "U5", "conclusion": "nonexistence-certified"}
    path = write_certificate(cert, tmp_path)
    written = path.read_bytes()

    def failing_dump(obj, fh, **kwargs):
        fh.write('{"case": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(OSError, match="disk full"):
        write_certificate(dict(cert, label="SU3"), tmp_path)
    with pytest.raises(OSError, match="disk full"):
        write_certificate(cert, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert path.read_bytes() == written
