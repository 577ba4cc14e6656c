"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; a failed assertion marks the criterion FAILED.
"""

import json
import math
import random
import time

from chamberlab.cases import registry_case, validate_case
from chamberlab.certify import certify_case, compute_resultant, expected_resultant_degree
from chamberlab.field import FieldScalar
from chamberlab.numerics import (
    IntegratorConfig,
    MODE_CANDIDATE,
    MODE_MINIMAL,
    get_lab,
    integrate_curve,
    principal_curvatures,
    state_from_angle,
    step_candidate,
)
from chamberlab.poly import SpatialPoly
from chamberlab.reduction import build_bundle, verify_reference_example
from chamberlab.resultant import sylvester_resultant
from bundle_oracle import curvature_expr_pair, linear
from float_poly_oracle import float_reduced_value
from golden import RESULTANT_HASHES, resultant_sha256
from resultant_oracle import at_y_equal_one, determinant_cofactor, sylvester_matrix, t_multiply
from root_checks import line_cotangent_sum, minimal_sigma


def _report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def _random_interior_state(case, rng):
    sigma = rng.uniform(0.25, 0.75) * math.pi / case.d
    radius = rng.uniform(0.7, 1.5)
    angle = rng.uniform(0, 2 * math.pi)
    return state_from_angle(radius * math.cos(sigma), radius * math.sin(sigma), angle)


def test_criterion_1_reference_example_golden():
    start = time.monotonic()
    report = verify_reference_example()
    elapsed = time.monotonic() - start
    assert report["passed"], report["diffs"]
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, f"derived U(5) coefficients match the published polynomials "
               f"up to scale {report['scale'].split(' ')[0]} in {elapsed:.2f}s")


def test_criterion_2_certification_sweep(all_cases):
    golden = json.loads(RESULTANT_HASHES.read_text())
    assert sorted(golden) == sorted(case.label for case in all_cases)
    worst = 0.0
    for case in all_cases:
        start = time.monotonic()
        report = compute_resultant(build_bundle(case))
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        expected = expected_resultant_degree(case.d)
        assert not report.identically_zero, case.label
        assert report.degree == expected, (case.label, report.degree, expected)
        assert resultant_sha256(report) == golden[case.label], case.label
        assert elapsed < 300.0, f"{case.label} took {elapsed:.1f}s"
    _report(2, f"all {len(all_cases)} registry cases: resultant homogeneous of "
               f"degree 27(d-1), nonzero, equal to the golden resultant; "
               f"slowest case {worst:.1f}s")


def test_criterion_3_curvature_formula_equivalence(all_cases):
    checked = 0
    for case in all_cases:
        for i in range(case.d):
            form_log, form_direct = curvature_expr_pair(case, i)
            assert form_log == form_direct, (case.label, i)
            checked += 1
    _report(3, f"log-derivative and ratio curvature forms agree exactly "
               f"({checked} wall comparisons)")


def test_criterion_4_derivative_oracle(all_cases):
    # Fourth-order central stencil at step 1e-5; the sample points come from
    # RK4 steps of the candidate flow (per-step error ~h^5, far below the
    # stencil truncation).
    rng = random.Random(20260809)
    h = 1e-5
    worst = 0.0
    for case in all_cases:
        lab = get_lab(case)
        bundle = build_bundle(case)
        for _ in range(20):
            st = _random_interior_state(case, rng)
            p1 = step_candidate(st, case, h)
            p2 = step_candidate(p1, case, h)
            m1 = step_candidate(st, case, -h)
            m2 = step_candidate(m1, case, -h)
            r = [lab.R(s.x, s.y, s.xd, s.yd) for s in (m2, m1, p1, p2)]
            fd = (r[0] - 8 * r[1] + 8 * r[2] - r[3]) / (12 * h)
            sym = float_reduced_value(bundle.r_dot, bundle.qd, st)
            scale = max(abs(sym), abs(fd))
            assert scale > 1e-9, (case.label, "degenerate sample")
            rel = abs(sym - fd) / scale
            worst = max(worst, rel)
            assert rel < 1e-6, (case.label, rel)
    _report(4, f"symbolic dR/ds vs central differences on 20 random candidate "
               f"trajectories per case; worst relative error {worst:.2e}")


def test_criterion_5_residual_cross_check():
    total_points = 0
    worst = 0.0
    for name in ("SU3", "U5"):
        case = registry_case(name)
        cfg = IntegratorConfig(step=1e-4, max_steps=1200, mode=MODE_CANDIDATE)
        trajectory = integrate_curve(state_from_angle(1.0, 0.3, 0.7), cfg, case)
        pairs = trajectory.residual_pairs
        assert len(pairs) >= 1000, name
        total_points += len(pairs)
        sup = max(max(abs(a), abs(b)) for a, b in pairs)
        assert sup > 0
        sup_diff = max(abs(a - b) for a, b in pairs)
        assert sup_diff / sup < 1e-4, name
        for a, b in pairs:
            local = max(abs(a), abs(b))
            if local >= 0.01 * sup:
                rel = abs(a - b) / local
                worst = max(worst, rel)
                assert rel < 1e-4, name
    _report(5, f"cleared normal equation via finite differences matches the "
               f"cubic form on {total_points} samples; worst relative error {worst:.2e}")


def test_criterion_6_minimal_mode_integration():
    for name in ("SO3", "SU3"):
        case = registry_case(name)
        cfg = IntegratorConfig(step=1e-4, max_steps=10000, mode=MODE_MINIMAL)
        trajectory = integrate_curve(state_from_angle(1.0, 0.3, 0.7), cfg, case)
        assert trajectory.stop_reason == "max_steps", name
        assert len(trajectory.states) == 10001, name
        assert trajectory.max_abs_f < 1e-6, (name, trajectory.max_abs_f)
        assert trajectory.speed_drift < 1e-9, (name, trajectory.speed_drift)
    _report(6, "SO(3) and SU(3) minimal curves over 10^4 RK4 steps: "
               "max|f| < 1e-6, speed drift < 1e-9, no boundary stop")


def test_criterion_7_minimal_cone_angle_d2():
    for p, q in ((2, 2), (2, 3), (3, 5)):
        case = registry_case("SOpxSOq", {"p": p, "q": q})
        sigma = minimal_sigma(certify_case(case))
        expected = math.atan(math.sqrt((q - 1) / (p - 1)))
        assert abs(sigma - expected) < 1e-10, (p, q, sigma, expected)
        # direct bisection oracle on the defining cotangent sum
        lo, hi = 1e-6, math.pi / 2 - 1e-6
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if line_cotangent_sum(case, mid) > 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - expected) < 1e-10, (p, q)
    _report(7, "d=2 certificates' minimal cone angles equal arctan(sqrt((q-1)/(p-1))) "
               "to 1e-10 for (2,2), (2,3), (3,5)")


def _random_linear(rng):
    return linear(FieldScalar.rational(rng.randint(-5, 5)),
                  FieldScalar.rational(rng.randint(-5, 5)))


def _at_y_equal_one(polys):
    return [at_y_equal_one(p) for p in polys]


def test_criterion_8_resultant_sanity():
    # The pairs are drawn in Z[x, y] and mapped entry by entry to Z[u] by the
    # ring map y = 1, which keeps common factors and commutes with
    # determinants; the random entries are homogeneous, so it also keeps
    # nonzero determinants nonzero.
    rng = random.Random(8)
    for _ in range(100):
        shared = _at_y_equal_one([_random_linear(rng), SpatialPoly.constant(1)])
        pa = t_multiply(shared, _at_y_equal_one([_random_linear(rng) for _ in range(3)]))
        pc = t_multiply(shared, _at_y_equal_one([_random_linear(rng) for _ in range(5)]))
        assert sylvester_resultant(pa, pc) == []

    nonzero = 0
    for _ in range(100):
        pa = _at_y_equal_one([_random_linear(rng) for _ in range(3)])
        pc = _at_y_equal_one([_random_linear(rng) for _ in range(4)])
        res = sylvester_resultant(pa, pc)
        assert res == determinant_cofactor(sylvester_matrix(pa, pc))
        if res:
            nonzero += 1
    assert nonzero >= 90  # random pairs are coprime with high probability
    _report(8, f"100 planted-common-root pairs gave zero resultants; 100 random "
               f"pairs: the resultant equals cofactor expansion exactly ({nonzero} nonzero)")


def test_criterion_9_registry_integrity(all_cases):
    rng = random.Random(9)
    assert len(all_cases) == 14
    for case in all_cases:
        assert validate_case(case) == [], case.label
        assert case.d in (1, 2, 3, 4, 6)
        assert 1 + sum(case.multiplicities) == case.n - 1, case.label
        st = _random_interior_state(case, rng)
        assert len(principal_curvatures(st, case, 0.0)) == case.d + 1, case.label
    _report(9, f"all {len(all_cases)} registry rows pass the dimension identity "
               f"and produce d+1 principal curvatures")
