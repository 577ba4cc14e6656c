import json
import math

import pytest

from chamberlab.cases import registry_case
from chamberlab.errors import PipelineError
from chamberlab.field import FieldScalar, HALF, ONE, SQRT2, ZERO
from chamberlab.poly import SpatialPoly, VelocityForm, X, Y, arc_derivative
from chamberlab.reduction import (
    build_bundle,
    build_walls,
    curvature_expr_pair,
    reference_example_polys,
    verify_reference_example,
)
from golden import BUNDLE_HASHES, bundle_sha256


def _rat(p, q=1):
    return FieldScalar.rational(p, q)


def _poly(mapping):
    return SpatialPoly({m: _rat(*v) if isinstance(v, tuple) else _rat(v)
                        for m, v in mapping.items()})


# -- walls and chamber data ---------------------------------------------------


def test_walls_u5(u5):
    walls = build_walls(u5)
    half_sqrt2 = SQRT2 * HALF
    assert walls[0] == -Y
    assert walls[1] == (X - Y) * half_sqrt2
    assert walls[2] == X
    assert walls[3] == (X + Y) * half_sqrt2


def test_walls_low_types():
    assert build_walls(registry_case("SOn-1")) == [-Y]
    assert build_walls(registry_case("SOpxSOq")) == [-Y, X]


def test_chamber_data_u5(u5):
    b = build_bundle(u5)
    qd, vol = b.qd, b.volume_sq
    assert qd == X * Y * (X * X - Y * Y) * _rat(-1, 2)
    expected = (X ** 10) * (Y ** 10) * ((X * X - Y * Y) ** 8) * _rat(1, 256)
    assert vol == expected


def test_chamber_data_d2():
    case = registry_case("SOpxSOq", {"p": 2, "q": 2})
    b = build_bundle(case)
    qd, vol = b.qd, b.volume_sq
    assert qd == -(X * Y)
    assert vol == X * X * Y * Y


def test_volume_sq_vanishes_on_wall(u5):
    # (1, 1) lies on the x = y wall of the quarter-cone chamber.
    vol = build_bundle(u5).volume_sq
    assert vol.eval_exact(ONE, ONE) == ZERO
    assert vol.eval_float(1.0, 1.0) == 0.0


def test_chamber_sign_pattern_on_arc(all_cases):
    # Interior of the chamber: first wall negative, the rest positive.
    for case in all_cases:
        walls = build_walls(case)
        for k in range(1, 8):
            sigma = k * math.pi / (8 * case.d)
            x, y = math.cos(sigma), math.sin(sigma)
            values = [w.eval_float(x, y) for w in walls]
            assert values[0] < 0, case.label
            assert all(v > 0 for v in values[1:]), case.label


# -- T polynomials -------------------------------------------------------------


def test_t12_single_wall():
    b = build_bundle(registry_case("SOn-1"))
    t1, t2 = b.t1, b.t2
    assert t1.is_zero
    assert t2 == SpatialPoly.constant(-1)


def test_t12_d2_parametric():
    b = build_bundle(registry_case("SOpxSOq", {"p": 2, "q": 3}))
    t1, t2 = b.t1, b.t2
    assert t1 == -Y          # -(p-1) y
    assert t2 == X * _rat(-2)  # -(q-1) x


def test_t12_degrees(all_cases):
    for case in all_cases:
        b = build_bundle(case)
        t1, t2 = b.t1, b.t2
        if not t1.is_zero:
            assert t1.homogeneous_degree() == case.d - 1, case.label
        assert t2.homogeneous_degree() == case.d - 1, case.label


def test_t345_single_wall():
    b = build_bundle(registry_case("SOn-1"))
    t3, t4, t5 = b.t3, b.t4, b.t5
    assert t3 == SpatialPoly.constant(_rat(10, 9))
    assert t4.is_zero and t5.is_zero


def test_t345_d2():
    # Independently derived with a computer-algebra prototype of the same
    # formulas (frozen oracle).
    b = build_bundle(registry_case("SOpxSOq", {"p": 2, "q": 2}))
    t3, t4, t5 = b.t3, b.t4, b.t5
    assert t3 == X * X * _rat(10, 9)
    assert t4 == X * Y * _rat(-2, 9)
    assert t5 == Y * Y * _rat(10, 9)


def test_t345_mirror_symmetry_u5(u5):
    # Empirical check for the mirror-symmetric multiplicity pattern; nothing
    # in the pipeline assumes it.
    b = build_bundle(u5)
    t3, t4, t5 = b.t3, b.t4, b.t5
    assert t3.swap_variables() == t5
    assert t4.swap_variables() == t4


def test_t345_degrees(all_cases):
    for case in all_cases:
        b = build_bundle(case)
        for t in (b.t3, b.t4, b.t5):
            if not t.is_zero:
                assert t.homogeneous_degree() == 2 * case.d - 2, case.label


# -- R and its derivatives ------------------------------------------------------


def test_r_single_wall_is_minus_xd_over_y():
    r = build_bundle(registry_case("SOn-1")).r
    value = r.eval_exact(_rat(3), _rat(2), ONE, ZERO)
    assert value == _rat(-1, 2)


def test_r_equals_weighted_curvature_sum_u5(u5):
    r = build_bundle(u5).r
    x, y = _rat(2), _rat(1)
    xd, yd = _rat(3, 5), _rat(4, 5)
    walls = build_walls(u5)
    total = ZERO
    from chamberlab.field import trig_pair

    for i, m in enumerate(u5.multiplicities):
        s, c = trig_pair(u5.d, i)
        k_i = (s * yd + c * xd) / walls[i].eval_exact(x, y)
        total = total + k_i * m
    assert r.eval_exact(x, y, xd, yd) == total


def test_r_derivative_shapes(all_cases):
    for case in all_cases:
        b = build_bundle(case)
        r_dot, r_ddot = b.r_dot, b.r_ddot
        assert (r_dot.velocity_degree, r_dot.qd_power) == (2, 2), case.label
        assert (r_ddot.velocity_degree, r_ddot.qd_power) == (3, 3), case.label
        for expr, stage in ((r_dot, 2), (r_ddot, 3)):
            for poly in expr.num.terms.values():
                assert poly.homogeneous_degree() == stage * (case.d - 1), case.label


def test_r_dot_single_wall():
    r_dot = build_bundle(registry_case("SOn-1")).r_dot
    expected = VelocityForm(2, {(1, 1): SpatialPoly.constant(_rat(4, 3))})
    assert r_dot.num == expected


# -- assembled coefficients ------------------------------------------------------


def test_assemble_a_single_wall():
    a = build_bundle(registry_case("SOn-1")).a_coeffs
    assert [p.to_json() for p in a] == [
        [[0, 0, _rat(-14, 9).to_text()]],
        [],
        [[0, 0, _rat(16, 9).to_text()]],
        [],
    ]


def test_assemble_a_d2():
    # Frozen oracle from an independent computer-algebra run of the pipeline.
    a = build_bundle(registry_case("SOpxSOq", {"p": 2, "q": 2})).a_coeffs
    assert a[0] == _poly({(3, 0): (-14, 9), (1, 2): (4, 9)})
    assert a[1] == _poly({(2, 1): (8, 9), (0, 3): (-16, 9)})
    assert a[2] == _poly({(3, 0): (16, 9), (1, 2): (-8, 9)})
    assert a[3] == _poly({(2, 1): (-4, 9), (0, 3): (14, 9)})


def test_assemble_degrees(all_cases):
    for case in all_cases:
        bundle = build_bundle(case)
        for j, a in enumerate(bundle.a_coeffs):
            if not a.is_zero:
                assert a.homogeneous_degree() == 3 * (case.d - 1), (case.label, j)
        for j, c in enumerate(bundle.c_coeffs):
            if not c.is_zero:
                assert c.homogeneous_degree() == 4 * (case.d - 1), (case.label, j)


def test_c_table_last_line(all_cases):
    for case in all_cases:
        bundle = build_bundle(case)
        assert bundle.c_coeffs[5] == -(bundle.a_coeffs[3] * bundle.t1), case.label


def test_c5_u5_golden(u5):
    # Frozen from a pipeline run (regression guard).
    c5 = build_bundle(u5).c_coeffs[5]
    expected = _poly({
        (10, 2): (845, 36), (8, 4): (15431, 72), (6, 6): (-1363, 9),
        (4, 8): (5945, 36), (2, 10): (-3725, 36), (0, 12): (1375, 72),
    })
    assert c5 == expected


def test_all_zero_a_gives_all_zero_c():
    from chamberlab.reduction import quintic_table

    zero = SpatialPoly.zero()
    bundle = build_bundle(registry_case("SU3"))
    table = quintic_table(bundle.qd, bundle.t1, bundle.t2, (zero,) * 4)
    assert all(c.is_zero for c in table)


def test_degenerate_constant_cubic_cancels_quintic():
    # For this instantiation the cubic degenerates to a nonzero constant and
    # the whole quintic table cancels.
    bundle = build_bundle(registry_case("SOn-1", {"n": 5}))
    assert bundle.a_coeffs[0] == SpatialPoly.constant(-18)
    assert all(a.is_zero for a in bundle.a_coeffs[1:])
    assert all(c.is_zero for c in bundle.c_coeffs)


def test_bundle_wall_degrees(all_cases):
    for case in all_cases:
        bundle = build_bundle(case)
        assert all(w.homogeneous_degree() == 1 for w in bundle.walls)
        assert bundle.qd.homogeneous_degree() == case.d
        assert bundle.volume_sq.homogeneous_degree() == 2 * sum(case.multiplicities)


def test_volume_log_derivative_identity(all_cases):
    # (1/2) d(volume_sq)/dx * qd == t1 * volume_sq, same for y with t2.
    for case in all_cases:
        bundle = build_bundle(case)
        half = _rat(1, 2)
        lhs_x = bundle.volume_sq.partial_derivative("x") * bundle.qd * half
        lhs_y = bundle.volume_sq.partial_derivative("y") * bundle.qd * half
        assert lhs_x == bundle.t1 * bundle.volume_sq, case.label
        assert lhs_y == bundle.t2 * bundle.volume_sq, case.label


def test_curvature_formula_equivalence_exact(all_cases):
    for case in all_cases:
        for i in range(case.d):
            form_log, form_direct = curvature_expr_pair(case, i)
            assert form_log == form_direct, (case.label, i)


def test_bundles_match_golden_hashes(all_cases):
    golden = json.loads(BUNDLE_HASHES.read_text())
    assert sorted(golden) == sorted(case.label for case in all_cases)
    for case in all_cases:
        assert bundle_sha256(build_bundle(case)) == golden[case.label], case.label


def test_bundle_derives_each_stage_once(monkeypatch, u5):
    # R' and R'' are two arclength derivatives, taken through the module
    # global so that profilers can wrap it.
    from chamberlab import reduction

    calls = []

    def counting(expr, r):
        calls.append(expr)
        return arc_derivative(expr, r)

    monkeypatch.setattr(reduction, "arc_derivative", counting)
    build_bundle.cache_clear()
    try:
        bundle = build_bundle(u5)
    finally:
        build_bundle.cache_clear()
    assert len(calls) == 2
    assert calls == [bundle.r, bundle.r_dot]


def test_pipeline_error_on_invalid_case():
    from chamberlab.cases import CaseSpec

    bad = CaseSpec(name="bad", group="", action="", n=9, d=2,
                   multiplicities=(1, 1))
    with pytest.raises(PipelineError):
        build_bundle(bad)


# -- the published reference example -------------------------------------------


def test_reference_polys_are_mirror_symmetric():
    a0, a1, a2, a3 = reference_example_polys()
    assert a0.swap_variables() == a3
    assert a1.swap_variables() == a2


def test_reference_example_passes():
    report = verify_reference_example()
    assert report["passed"], report["diffs"]
    assert report["scale"] == _rat(1, 36).to_text()


def test_reference_example_detects_tampering(monkeypatch, u5):
    from chamberlab import cases as cases_module
    from chamberlab.cases import CaseSpec

    # One more on the third multiplicity, one less on n: a valid case whose
    # cubic differs from the published one.
    tampered = CaseSpec(name="U5", group=u5.group, action=u5.action,
                        n=u5.n - 1, d=u5.d, multiplicities=(4, 4, 5, 4))
    monkeypatch.setattr(cases_module, "registry_case",
                        lambda name, params=None, registry=None: tampered)
    report = verify_reference_example()
    assert not report["passed"]
    assert report["diffs"]


def test_reference_example_rejects_inconsistent_case(monkeypatch, u5):
    from chamberlab import cases as cases_module
    from chamberlab.cases import CaseSpec

    # The multiplicities no longer satisfy 1 + sum(m) = n - 1.
    inconsistent = CaseSpec(name="U5", group=u5.group, action=u5.action,
                            n=u5.n, d=u5.d, multiplicities=(4, 4, 5, 4))
    monkeypatch.setattr(cases_module, "registry_case",
                        lambda name, params=None, registry=None: inconsistent)
    with pytest.raises(PipelineError, match="invalid case"):
        verify_reference_example()


def test_u5_mirror_symmetry_of_derived_coefficients(u5):
    a = build_bundle(u5).a_coeffs
    assert a[0].swap_variables() == a[3]
    assert a[1].swap_variables() == a[2]


def test_mirror_symmetry_only_for_symmetric_multiplicities():
    # Not assumed by the pipeline; checked empirically where multiplicities
    # are mirror symmetric (m_i == m_{d-1-i} fails for SOpxSOq p != q).
    asym = registry_case("SOpxSOq", {"p": 2, "q": 4})
    a = build_bundle(asym).a_coeffs
    assert a[0].swap_variables() != a[3]
