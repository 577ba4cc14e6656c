import json
import math
import re
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from chamberlab import resultant
from chamberlab.cases import CaseSpec, registry_case
from chamberlab.certify import (
    ResultantReport,
    _chamber_roots,
    certify_case,
    chamber_root_scan,
    compute_resultant,
    emit_certificate,
    expected_resultant_degree,
    output_path,
    write_certificate,
)
from chamberlab.errors import PipelineError
from chamberlab.field import FieldScalar
from chamberlab.poly import X, Y, SpatialPoly, reduced
from chamberlab.reduction import build_bundle, wall_products
from golden import GRID_CERTIFICATE_HASHES, PARAMETRIC_CERTIFICATES, PARAMETRIC_ROWS, \
    certificate_sha256, stable_certificate_text
from grid import grid_key
from root_checks import at_y_one, line_cotangent_sum, minimal_sigma, root_problems

# Roots of the p=q=2 resultant, frozen from an independent computer-algebra
# run of the same construction (sign-change scan on its trig restriction).
D2_ROOTS = [0.4908826782893113, 0.6358604747819308,
            0.7853981633974483, 0.9349358520129654]

# Exact value of the U5 resultant at (2, 1), cross-checked against an
# independent computer-algebra computation of the same Sylvester determinant.
U5_RES_AT_2_1 = "-18260404613543917212879947116239934916425/725594112"

# Descartes tests that chamber_root_scan spends per default row with d >= 2:
# the size of the Vincent-Collins-Akritas trees in w = u**2, above the
# chamber's bound, from root_bound's 2**k, frozen from the full Taylor shift.
# The early-exit test must walk the same trees.
ROOT_SCAN_TESTS = {"SOpxSOq(p=2,q=2)": 12, "SO3": 2, "SU3": 16, "Sp3": 2, "F4": 2,
                   "SO5": 14, "SO2xSOm(m=3)": 4, "SU2xUm(m=2)": 2, "Sp2xSpm(m=2)": 2,
                   "U5": 2, "U1xSpin10": 2, "G2": 3, "SO4": 3}


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


def test_degenerate_quintic_certifies_by_determinant():
    # At n=5 the single-wall cubic is the nonzero constant -18 and the quintic
    # table cancels identically.  Trimming the shared direction xd = 0 leaves
    # formal degrees (0, 2), whose Sylvester determinant is (-18)**2.
    case = registry_case("SOn-1", {"n": 5})
    report = compute_resultant(build_bundle(case))
    assert report.formal_degrees == (0, 2)
    assert report.trimmed_pairs == 3
    assert report.degree == 0
    assert report.poly == SpatialPoly.constant(FieldScalar.rational(324))
    cert = certify_case(case)
    assert cert["conclusion"] == "nonexistence-certified"
    assert [w["value"] for w in cert["exact_samples"]] == \
        [FieldScalar.rational(324).to_text()] * 2


def test_every_single_wall_instance_certifies():
    for n in range(3, 41):
        cert = certify_case(registry_case("SOn-1", {"n": n}))
        assert cert["conclusion"] == "nonexistence-certified", n


def test_every_grid_instance_certifies(multiplicity_grid):
    # The chamber types' whole alternating-multiplicity grid, beyond the 14
    # registry actions: each certifies at degree 27(d - 1), and from d = 2 on
    # the minimal line is its one minimal root.  Each certificate is the
    # golden one.
    golden = json.loads(GRID_CERTIFICATE_HASHES.read_text())
    assert len(golden) == len(multiplicity_grid)
    for case in multiplicity_grid:
        cert = certify_case(case)
        assert certificate_sha256(cert) == golden[grid_key(case)], case.multiplicities
        assert cert["conclusion"] == "nonexistence-certified", case.multiplicities
        assert cert["resultant_degree"] == 27 * (case.d - 1), case.multiplicities
        if case.d >= 2:
            assert sum(r["line_is_minimal"] for r in cert["roots"]) == 1, case.multiplicities


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
    fake = compute_resultant(_fake_bundle(bundle.case, [_lin(-1, 0), _lin(0, 1), _ZERO, _ZERO],
                                          [_lin(-1, 0), _lin(0, 1), _ZERO, _ZERO, _ZERO, _ZERO]))
    assert fake.identically_zero
    assert not report.identically_zero


def _lin(a, b):
    """a*x + b*y as a list (entry i is the coefficient of x^i y^(k - i))."""
    return [b, a]


_ZERO = [0, 0]


def _fake_bundle(case, a_lists, c_lists, den_a=1, den_c=1):
    """A bundle with only the forms A and C, over den_a and den_c."""
    return SimpleNamespace(case=case, dense_a=reduced(a_lists, den_a),
                           dense_c=reduced(c_lists, den_c))


def test_resultant_rejects_irrational_coefficients():
    # A bundle's lists are rational by construction: a class of walls whose
    # product would be irrational over its leading coefficient breaks the
    # alternation rule, which wall_products checks first, naming the case.
    irrational = CaseSpec(name="T", group="", action="", n=8, d=3, multiplicities=(1, 2, 3))
    with pytest.raises(PipelineError, match="^T: .*must alternate"):
        wall_products(irrational)


def test_a_term_of_the_other_parity_stops_the_scan(monkeypatch, tmp_path, capsys):
    # The scan halves the resultant, qd and M in w = u**2.  A resultant term
    # of the other parity would be lost by the halving, so the scan raises
    # PipelineError instead, and certify exits 3 with no certificate.
    from chamberlab import certify
    from chamberlab.cli import EXIT_PIPELINE_ERROR, main

    exact = certify.sylvester_resultant

    def with_odd_term(pa, pc):
        res = exact(pa, pc)
        z = next(i for i, c in enumerate(res) if c)
        return res[:z + 1] + [res[z + 1] + 1] + res[z + 2:]

    monkeypatch.setattr(certify, "sylvester_resultant", with_odd_term)
    message = r"the resultant is not a power of u times a polynomial in u\*\*2"
    with pytest.raises(PipelineError, match=f"^G2: {message}"):
        certify_case(registry_case("G2"))
    assert main(["certify", "--case", "SO5", "--out", str(tmp_path)]) == EXIT_PIPELINE_ERROR
    assert "SO5: the resultant is not a power of u" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_resultant_rational_boundary_scales_back(u5):
    # A form's denominator scales the Sylvester rows and is divided out
    # again: A over 2 and C over 3 scale the resultant by
    # (1/2)^5 * (1/3)^3 (five rows of A, three of C).
    a = [_lin(-1, 0), _lin(0, 1), _lin(2, 0), _lin(0, 3)]
    c = [_lin(1, 0), _lin(0, 5), _lin(1, 0), _lin(0, -1), _ZERO, _lin(0, 7)]
    whole = compute_resultant(_fake_bundle(u5, a, c))
    scaled = compute_resultant(_fake_bundle(u5, a, c, 2, 3))
    assert scaled.scale == whole.scale * 2 ** 5 * 3 ** 3
    assert whole.degree == scaled.degree == 3 * 1 + 5 * 1
    assert scaled.poly == whole.poly * FieldScalar.rational(1, 2 ** 5 * 3 ** 3)


def test_lists_with_both_parities_of_u_stop_with_the_case_label(monkeypatch, u5, tmp_path,
                                                                capsys):
    # The lists of test_resultant_rational_boundary_scales_back, but C's top
    # list is 7u, not 7: u**5 * C5 has the even power u**6 where every other
    # term of C is odd.  No valid case has such lists, so the resultant
    # stops with a PipelineError that names the case; certify exits 3 and
    # writes nothing.
    from chamberlab import certify
    from chamberlab.cli import EXIT_PIPELINE_ERROR, main

    a = [_lin(-1, 0), _lin(0, 1), _lin(2, 0), _lin(0, 3)]
    c = [_lin(1, 0), _lin(0, 5), _lin(1, 0), _lin(0, -1), _ZERO, _lin(7, 0)]
    message = "the exponents of u in u**j * p[j] have both parities"
    with pytest.raises(PipelineError, match=f"^{re.escape(f'{u5.label}: {message}')}$"):
        compute_resultant(_fake_bundle(u5, a, c))
    monkeypatch.setattr(certify, "build_bundle", lambda case: _fake_bundle(case, a, c))
    assert main(["certify", "--case", "SO5", "--out", str(tmp_path)]) == EXIT_PIPELINE_ERROR
    assert f"pipeline invariant violated: SO5: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def _scan(case):
    bundle = build_bundle(case)
    return chamber_root_scan(compute_resultant(bundle), bundle)


def test_root_scan_symmetric_quadratic():
    # u**2 - 1, searched as w - 1 in w = u**2: the root u = 1 (sigma = pi/4)
    # is a bisection point, hit exactly.
    roots, tests = _chamber_roots([-1, 1], 2)
    assert roots == [(1, 1)] and tests >= 1


def test_root_scan_positive_definite_is_empty():
    # u**2 + 1, as w + 1
    assert _chamber_roots([1, 1], 2)[0] == []


def test_root_scan_d2_matches_independent_run():
    scan = _scan(registry_case("SOpxSOq"))
    assert len(scan.roots) == len(D2_ROOTS)
    for root, expected in zip(scan.roots, D2_ROOTS):
        assert math.atan2(1.0, float(root.lo)) == pytest.approx(expected, abs=1e-10)
    assert [r.factor for r in scan.roots] == ["Q", "Q", "M", "Q"]


def test_u5_root_scan_golden(u5):
    # Frozen from a pipeline run: a single interior root, the minimal line
    # with slope 1/sqrt(5), so u = cot(sigma) = sqrt(5) inside its interval.
    (root,) = _scan(u5).roots
    assert root.factor == "M" and root.multiplicity == 1
    assert root.lo ** 2 < 5 < root.hi ** 2
    assert math.atan2(1.0, float(root.lo)) == pytest.approx(0.4205343352841455, abs=1e-10)


def test_root_scan_counts_descartes_tests(monkeypatch):
    calls = []
    variations = resultant.sign_variations
    monkeypatch.setattr(resultant, "sign_variations",
                        lambda p: calls.append(p) or variations(p))
    scan = _scan(registry_case("G2"))
    assert [(r.factor, r.multiplicity) for r in scan.roots] == [("Q", 1), ("M", 1)]
    assert scan.grid_size == len(calls) > 0


def test_root_scan_test_counts_are_pinned(all_cases):
    assert {case.label: _scan(case).grid_size for case in all_cases if case.d >= 2} \
        == ROOT_SCAN_TESTS


def test_certificate_roots_pass_exact_checks(all_cases):
    checked = 0
    for case in all_cases:
        cert = certify_case(case)
        if cert["factorization"] is None:
            assert case.d == 1 and cert["roots"] == []
            continue
        assert root_problems(cert, case) == [], case.label
        checked += 1
    assert checked == 13


@pytest.mark.parametrize("name,params", PARAMETRIC_ROWS,
                         ids=[f"{n}({','.join(f'{k}={v}' for k, v in p.items())})"
                              for n, p in PARAMETRIC_ROWS])
def test_parametric_certificates_match_golden(name, params):
    certificate = certify_case(registry_case(name, params))
    path = output_path(PARAMETRIC_CERTIFICATES, certificate["label"], "certificate")
    assert stable_certificate_text(certificate) == path.read_text(encoding="utf-8")


def test_minimal_root_of_every_certificate(all_cases, multiplicity_grid):
    # Every certificate from d = 2 on, the 13 default rows and the 200 grid
    # cases, has one minimal root, and the float cotangent sum changes sign
    # across its sigma, from + to -.
    cases = [case for case in (*all_cases, *multiplicity_grid) if case.d >= 2]
    assert len(cases) == 213
    for case in cases:
        sigma = minimal_sigma(certify_case(case))
        assert 0 < sigma < math.pi / case.d, case
        assert line_cotangent_sum(case, sigma - 1e-9) > 0 > \
            line_cotangent_sum(case, sigma + 1e-9), case


def test_classify_minimality_d2_cases():
    # Minimality is read off the factor: p = q = 2 has its minimal line at
    # u = 1 exactly; at p = 2, q = 3 the line sigma = pi/4 is not minimal.
    balanced = _scan(registry_case("SOpxSOq", {"p": 2, "q": 2}))
    (m_root,) = [r for r in balanced.roots if r.factor == "M"]
    assert m_root.lo == m_root.hi == 1

    skew = registry_case("SOpxSOq", {"p": 2, "q": 3})
    assert line_cotangent_sum(skew, math.pi / 4) == pytest.approx(1.0, abs=1e-12)
    (m_root,) = [r for r in _scan(skew).roots if r.factor == "M"]
    # tan(sigma) = sqrt((q-1)/(p-1)), so u = 1/sqrt(2).
    assert m_root.lo ** 2 < Fraction(1, 2) < m_root.hi ** 2


def test_classify_minimality_single_wall_hyperplane():
    # d = 1 has no root scan: M = t1*y - t2*x is a nonzero multiple of x, so
    # the minimal line is u = 0, sigma = pi/2, where the cotangent sum is 0.
    case = registry_case("SOn-1")
    bundle = build_bundle(case)
    m = at_y_one(bundle.t1 * Y - bundle.t2 * X)
    assert len(m) == 2 and m[0] == 0 != m[1]
    assert line_cotangent_sum(case, math.pi / 2) == pytest.approx(0.0, abs=1e-12)


def test_classification_is_scale_free():
    # M is linear in the multiplicities, so scaling all of them moves no
    # minimal line: SOpxSOq (3, 5) has multiplicities (2, 4), twice (2, 3)'s.
    assert minimal_sigma(certify_case(registry_case("SOpxSOq", {"p": 3, "q": 5}))) == \
        minimal_sigma(certify_case(registry_case("SOpxSOq", {"p": 2, "q": 3})))
    assert line_cotangent_sum(registry_case("SOpxSOq", {"p": 3, "q": 5}), 0.9) == \
        pytest.approx(2 * line_cotangent_sum(registry_case("SOpxSOq", {"p": 2, "q": 3}), 0.9))


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 5)])
def test_minimal_cone_angle_closed_form(p, q):
    sigma = minimal_sigma(certify_case(registry_case("SOpxSOq", {"p": p, "q": q})))
    assert sigma == pytest.approx(math.atan(math.sqrt((q - 1) / (p - 1))), abs=1e-10)


def test_certificate_u5(u5, tmp_path):
    cert = certify_case(u5)
    assert cert["conclusion"] == "nonexistence-certified"
    assert cert["resultant_degree"] == cert["expected_degree"] == 81
    assert not cert["identically_zero"]
    assert len(cert["roots"]) == 1
    root = cert["roots"][0]
    assert root["line_is_minimal"] and root["factor"] == "M"
    assert root["z"] == pytest.approx(1 / math.sqrt(5), abs=1e-9)
    lo, hi = (Fraction(t) for t in root["cot_interval"])
    assert lo ** 2 < 5 < hi ** 2
    assert cert["factorization"] == {"y": 4, "qd": 3, "M": 1, "Q": [[1, 64]]}
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

    zero_like = type(report)(coeffs=[], scale=1, formal_degrees=(3, 5),
                             trimmed_pairs=0, degree=None)
    assert zero_like.identically_zero
    assert zero_like.poly == SpatialPoly.zero()
    cert = emit_certificate(u5, zero_like, None, 0.0)
    assert cert["roots"] == [] and cert["factorization"] is None
    assert cert["conclusion"] == "inconclusive-resultant-vanishes"

    tampered = type(report)(coeffs=report.coeffs, scale=report.scale,
                            formal_degrees=(3, 5), trimmed_pairs=0, degree=80)
    cert = emit_certificate(u5, tampered, None, 0.0)
    assert cert["conclusion"] == "degree-mismatch"


def test_certificate_determinism(su3):
    a = certify_case(su3)
    b = certify_case(su3)
    for volatile in ("duration_ms", "created_utc"):
        a.pop(volatile), b.pop(volatile)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_created_utc_is_now_in_utc(su3):
    # The golden comparison drops created_utc: check its form here.  It
    # parses as an ISO 8601 time with a UTC offset of 0, within a minute of
    # this test's clock.
    stamp = datetime.fromisoformat(certify_case(su3)["created_utc"])
    assert stamp.utcoffset() == timedelta(0)
    assert abs(stamp - datetime.now(timezone.utc)) < timedelta(minutes=1)


def test_display_samples_round_exact_values():
    # u**2 - 1 is x**2 - y**2: each sample is cos**2 - sin**2 at the doubles'
    # exact values, rounded once.
    report = ResultantReport([-1, 0, 1], 1, (1, 1), 0, 2)
    for sample in emit_certificate(registry_case("SOpxSOq"), report, None, 0.0)["samples"]:
        c, s = Fraction(math.cos(sample["sigma"])), Fraction(math.sin(sample["sigma"]))
        assert sample["value"] == float(c * c - s * s)
    # The G2 sample at pi/12 lies on the minimal line: the resultant is tiny there.
    values = [s["value"] for s in certify_case(registry_case("G2"))["samples"]]
    assert abs(values[1]) < 1e-30 < min(abs(values[0]), abs(values[2]))


def test_every_display_sample_is_the_exact_value_rounded_once(all_cases):
    # Each sample is R(cos s, sin s) / max|coefficient| at the doubles' exact
    # values, summed here term by term in Fraction arithmetic, then rounded.
    cases = list(all_cases) + [registry_case(name, params) for name, params in PARAMETRIC_ROWS]
    checked = 0
    for case in cases:
        report = compute_resultant(build_bundle(case))
        largest = max(map(abs, report.coeffs))
        for sample in emit_certificate(case, report, None, 0.0)["samples"]:
            x, y = Fraction(math.cos(sample["sigma"])), Fraction(math.sin(sample["sigma"]))
            exact = sum(c * x ** a * y ** (report.degree - a)
                        for a, c in enumerate(report.coeffs) if c) / largest
            assert sample["value"].hex() == float(exact).hex(), case.label
            checked += 1
    assert checked == 3 * len(cases)


@pytest.mark.parametrize("name", ["SOn-1", "U5"])
def test_resultant_exact_value_matches_eval_exact(name):
    report = compute_resultant(build_bundle(registry_case(name)))
    poly = report.poly
    assert math.gcd(report.scale, *report.coeffs) == 1
    assert len(report.coeffs) == report.degree + 1
    for px, py in ((2, 1), (3, 2), (-5, 7), (0, 1)):
        assert report.exact_value(px, py) == poly.eval_exact(FieldScalar.rational(px),
                                                             FieldScalar.rational(py))


def test_resultant_poly_is_the_coefficient_list(all_cases):
    # .poly, parsed from the list's JSON rows, has the terms of the
    # homogeneous SpatialPoly sum(coeffs[a] / scale * x**a * y**(degree - a)),
    # built term by term, on every golden row, default and parametric, and
    # is zero for a vanishing resultant.
    cases = [*all_cases, *(registry_case(name, params) for name, params in PARAMETRIC_ROWS)]
    for case in cases:
        report = compute_resultant(build_bundle(case))
        expected = SpatialPoly({(a, report.degree - a): FieldScalar.rational(c, report.scale)
                                for a, c in enumerate(report.coeffs) if c})
        assert report.poly.terms == expected.terms, case.label
        assert report.poly.to_json() == expected.to_json(), case.label
    assert ResultantReport([], 1, (3, 5), 0, None).poly == SpatialPoly()


def test_failed_certificate_write_leaves_no_partial_file(tmp_path, monkeypatch):
    cert = {"label": "U5", "conclusion": "nonexistence-certified"}
    path = write_certificate(cert, tmp_path)
    written = path.read_bytes()

    real_open = Path.open

    def failing_open(self, *args, **kwargs):
        # The file's one write puts part of the text down, then fails.
        fh = real_open(self, *args, **kwargs)
        write = fh.write

        def partial_write(text):
            write(text[:9])
            raise OSError("disk full")

        fh.write = partial_write
        return fh

    monkeypatch.setattr(Path, "open", failing_open)
    with pytest.raises(OSError, match="disk full"):
        write_certificate(dict(cert, label="SU3"), tmp_path)
    with pytest.raises(OSError, match="disk full"):
        write_certificate(cert, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert path.read_bytes() == written
