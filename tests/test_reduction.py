import dataclasses
import itertools
import json
import math
import random

import pytest

from chamberlab import reduction
from chamberlab.cases import registry_case
from chamberlab.errors import PipelineError
from chamberlab.field import FieldScalar, HALF, ONE, SQRT2, ZERO
from chamberlab.poly import DensePoly, SpatialPoly, X, Y, arc_derivative
from chamberlab.reduction import build_bundle, build_walls, bundle_to_json, \
    verify_reference_example
from bundle_oracle import curvature_expr_pair, dense_form_value, oracle_bundle
from float_poly_oracle import float_poly_value
from golden import BUNDLE_HASHES, PARAMETRIC_BUNDLE_HASHES, PARAMETRIC_ROWS, bundle_sha256


def _rat(p, q=1):
    return FieldScalar.rational(p, q)


def _mirror(p):
    """The polynomial p(y, x)."""
    return DensePoly(p.coeffs[::-1], p.den)


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
    assert float_poly_value(vol, 1.0, 1.0) == 0.0


def test_chamber_sign_pattern_on_arc(all_cases):
    # Interior of the chamber: first wall negative, the rest positive.
    for case in all_cases:
        walls = build_walls(case)
        for k in range(1, 8):
            sigma = k * math.pi / (8 * case.d)
            x, y = math.cos(sigma), math.sin(sigma)
            values = [float_poly_value(w, x, y) for w in walls]
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
    t3, t4, t5 = build_bundle(u5).dense_t[2:]
    assert _mirror(t3) == t5
    assert _mirror(t4) == t4


def test_t345_degrees(all_cases):
    for case in all_cases:
        b = build_bundle(case)
        for t in (b.t3, b.t4, b.t5):
            if not t.is_zero:
                assert t.homogeneous_degree() == 2 * case.d - 2, case.label


# -- R and its derivatives ------------------------------------------------------


def test_r_single_wall_is_minus_xd_over_y():
    bundle = build_bundle(registry_case("SOn-1"))
    value = dense_form_value(bundle.r, bundle.qd, _rat(3), _rat(2), ONE, ZERO)
    assert value == _rat(-1, 2)


def test_r_equals_weighted_curvature_sum_u5(u5):
    bundle = build_bundle(u5)
    x, y = _rat(2), _rat(1)
    xd, yd = _rat(3, 5), _rat(4, 5)
    walls = build_walls(u5)
    total = ZERO
    from chamberlab.field import trig_pair

    for i, m in enumerate(u5.multiplicities):
        s, c = trig_pair(u5.d, i)
        k_i = (s * yd + c * xd) / walls[i].eval_exact(x, y)
        total = total + k_i * m
    assert dense_form_value(bundle.r, bundle.qd, x, y, xd, yd) == total


def test_r_derivative_shapes(all_cases):
    for case in all_cases:
        b = build_bundle(case)
        for form, stage in ((b.r_dot, 2), (b.r_ddot, 3)):
            assert len(form) == stage + 1, case.label
            for poly in form:
                if poly.coeffs:
                    assert len(poly.coeffs) - 1 == stage * (case.d - 1), case.label


def test_r_dot_single_wall():
    r_dot = build_bundle(registry_case("SOn-1")).r_dot
    assert [(p.coeffs, p.den) for p in r_dot] == [([], 1), ([4], 3), ([], 1)]


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
    from chamberlab.reduction import _quintic

    bundle = build_bundle(registry_case("SU3"))
    t1, t2 = bundle.r[1], -bundle.r[0]
    table = _quintic(DensePoly.of(bundle.qd), t1, t2, (DensePoly([]),) * 4)
    assert all(not c.coeffs for c in table)


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


def test_parametric_bundles_match_golden_hashes():
    golden = json.loads(PARAMETRIC_BUNDLE_HASHES.read_text())
    cases = [registry_case(name, params) for name, params in PARAMETRIC_ROWS]
    assert sorted(golden) == sorted(case.label for case in cases)
    for case in cases:
        assert bundle_sha256(build_bundle(case)) == golden[case.label], case.label


def test_bundle_derives_each_stage_once(monkeypatch, u5):
    # R' and R'' are two arclength derivatives, taken through the module
    # global so that profilers can wrap it.
    from chamberlab import reduction

    calls = []

    def counting(num, r, qd):
        calls.append(num)
        return arc_derivative(num, r, qd)

    monkeypatch.setattr(reduction, "arc_derivative", counting)
    build_bundle.cache_clear()
    try:
        bundle = build_bundle(u5)
    finally:
        build_bundle.cache_clear()
    assert len(calls) == 2
    assert calls[0] is bundle.r and calls[1] is bundle.r_dot


def test_pipeline_error_on_invalid_case():
    from chamberlab.cases import CaseSpec

    bad = CaseSpec(name="bad", group="", action="", n=9, d=2,
                   multiplicities=(1, 1))
    with pytest.raises(PipelineError):
        build_bundle(bad)


# -- the published reference example -------------------------------------------


def test_reference_example_names_one_changed_coefficient(monkeypatch):
    ref = list(reduction._REFERENCE)
    ref[1] = ref[1].copy()
    ref[1][4] += 1  # the published x^4 y^5 coefficient of A1 is 4320
    monkeypatch.setattr(reduction, "_REFERENCE", tuple(ref))
    report = verify_reference_example()
    assert not report["passed"]
    assert report["diffs"] == [
        f"A1 x^4 y^5: derived {_rat(4320, 36).to_text()} vs reference*scale "
        f"{_rat(4321, 36).to_text()}"]


def test_reference_example_reports_a_broken_mirror(monkeypatch, u5):
    bundle = build_bundle(u5)
    a3 = bundle.dense_a[3]
    coeffs = a3.coeffs.copy()
    coeffs[0] += a3.den  # A3's y^9 coefficient, the mirror of A0's x^9
    broken = dataclasses.replace(bundle, dense_a=(*bundle.dense_a[:3],
                                                  DensePoly(coeffs, a3.den)))
    monkeypatch.setattr(reduction, "build_bundle", lambda case: broken)
    report = verify_reference_example()
    assert not report["passed"]
    assert report["diffs"][1:] == ["mirror identity A0(x,y) == A3(y,x) fails"]
    assert report["diffs"][0].startswith("A3 x^0 y^9: derived ")


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
    a = build_bundle(u5).dense_a
    assert _mirror(a[0]) == a[3]
    assert _mirror(a[1]) == a[2]


def test_mirror_symmetry_only_for_symmetric_multiplicities():
    # Not assumed by the pipeline; checked empirically where multiplicities
    # are mirror symmetric (m_i == m_{d-1-i} fails for SOpxSOq p != q).
    asym = registry_case("SOpxSOq", {"p": 2, "q": 4})
    a = build_bundle(asym).dense_a
    assert _mirror(a[0]) != a[3]


# -- the dense derivation against the sparse oracle -------------------------------


def _d4_case(mults):
    from chamberlab.cases import CaseSpec

    return CaseSpec(name="T", group="", action="", n=2 + sum(mults), d=4,
                    multiplicities=mults)


def _oracle_rows():
    """The 14 default rows, every parametric row drawn from its minimum to 40
    at seeds 1, 7 and 13 (in registry order), and every d = 4 tuple of
    multiplicities in {1, 2, 3}^4."""
    from chamberlab.cases import default_cases, load_registry

    rows = list(default_cases())
    for seed in (1, 7, 13):
        rng = random.Random(seed)
        for template in load_registry():
            if template.param_specs:
                params = {name: rng.randint(low, 40) for name, low, _ in template.param_specs}
                rows.append(registry_case(template.name, params))
    return rows + [_d4_case(m) for m in itertools.product((1, 2, 3), repeat=4)]


def test_bundle_matches_sparse_oracle():
    for case in _oracle_rows():
        doc = bundle_to_json(build_bundle(case))
        for key, expected in oracle_bundle(case).items():
            assert doc[key] == expected, (case.label, case.multiplicities, key)


def test_irrational_wall_products_raise():
    # At d = 3 the walls x*sqrt3/2 -+ y/2 over their leading coefficient are
    # irrational unless they share a multiplicity.
    from chamberlab.cases import CaseSpec

    case = CaseSpec(name="T", group="", action="", n=8, d=3, multiplicities=(1, 2, 3))
    with pytest.raises(PipelineError, match="not rational"):
        build_bundle(case)


def test_mixed_d4_multiplicities_derive_and_certify():
    from chamberlab.certify import certify_case

    for mults in ((4, 4, 5, 4), (1, 2, 3, 4)):
        case = _d4_case(mults)
        bundle = build_bundle(case)
        assert bundle.volume_sq.homogeneous_degree() == 2 * sum(mults)
        assert certify_case(case)["conclusion"] == "nonexistence-certified", mults


# -- dense bundles end to end ------------------------------------------------------


def _default_and_parametric_rows():
    from chamberlab.cases import default_cases

    return list(default_cases()) + [registry_case(n, p) for n, p in PARAMETRIC_ROWS]


def _dense_polys(bundle):
    return [bundle.dense_qd, bundle.dense_volume_sq, *bundle.dense_t, *bundle.r,
            *bundle.r_dot, *bundle.r_ddot, *bundle.dense_a, *bundle.dense_c]


def _bits(terms):
    return [(a, b, c.hex()) for a, b, c in terms]


def test_dense_writers_match_the_spatial_ones():
    for case in _default_and_parametric_rows():
        for poly in _dense_polys(build_bundle(case)):
            spatial = poly.to_spatial()
            assert poly.to_json() == spatial.to_json(), case.label
            assert _bits(poly.float_terms()) == _bits(spatial.float_terms()), case.label
    # Past the double range a coefficient rounds to +-inf, as to_float does.
    huge = DensePoly([-(10 ** 400), 3, 10 ** 400], 7)
    assert huge.float_terms() == huge.to_spatial().float_terms() == \
        [(2, 0, math.inf), (1, 1, 3 / 7), (0, 2, -math.inf)]
    assert huge.to_json() == huge.to_spatial().to_json()


def test_dense_poly_equality_and_repr():
    assert DensePoly([2, 4], 6) == DensePoly([1, 2], 3)
    assert hash(DensePoly([2, 4], 6)) == hash(DensePoly([1, 2], 3))
    assert DensePoly([1, 2], 3) != DensePoly([1, 2])
    assert DensePoly([0, 0]) == DensePoly([])
    assert repr(DensePoly([-2, 0, 1], 3)) == "DensePoly([-2, 0, 1], 3)"


def _cold_bundle(case):
    from chamberlab import reduction

    build_bundle.cache_clear()
    reduction._wall_classes.cache_clear()
    try:
        return build_bundle(case)
    finally:
        build_bundle.cache_clear()


def test_cold_builds_compare_equal():
    from chamberlab.cases import default_cases

    for case in default_cases():
        assert _cold_bundle(case) == _cold_bundle(case), case.label


def test_views_are_the_lists_as_spatial_polys(u5):
    bundle = build_bundle(u5)
    assert bundle.qd == bundle.dense_qd.to_spatial()
    assert (bundle.t1, bundle.t5) == (bundle.dense_t[0].to_spatial(),
                                      bundle.dense_t[4].to_spatial())
    assert bundle.a_coeffs == tuple(p.to_spatial() for p in bundle.dense_a)
    assert bundle.c_coeffs is bundle.c_coeffs


def _raise(*args, **kwargs):
    raise AssertionError("converted between SpatialPoly and DensePoly")


def test_derive_and_certify_convert_nothing(monkeypatch):
    # Past the wall classes (warmed here, before the patch) no polynomial
    # crosses between the two representations: not when a cold bundle is
    # built, written, or certified.
    from chamberlab.cases import default_cases
    from chamberlab.certify import certify_case

    cases = list(default_cases())
    for case in cases:
        build_bundle(case)
    build_bundle.cache_clear()
    monkeypatch.setattr(DensePoly, "to_spatial", _raise)
    monkeypatch.setattr(DensePoly, "of", _raise)
    try:
        for name in ("SOn-1", "SOpxSOq", "SU3", "Sp2xSpm", "G2"):
            assert certify_case(registry_case(name))["conclusion"] == "nonexistence-certified"
        for case in cases:
            bundle_to_json(build_bundle(case))
    finally:
        build_bundle.cache_clear()


def test_wall_classes_are_shared_by_partition():
    # SO3, SU3, Sp3 and F4 all have d = 3 and three equal multiplicities.
    from chamberlab import reduction

    build_bundle.cache_clear()
    reduction._wall_classes.cache_clear()
    try:
        for name in ("SO3", "SU3", "Sp3", "F4"):
            build_bundle(registry_case(name))
    finally:
        build_bundle.cache_clear()
    info = reduction._wall_classes.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 3)


def test_failing_wall_class_names_each_caller():
    from chamberlab.cases import CaseSpec
    from chamberlab.reduction import wall_products

    for name in ("first", "second"):
        case = CaseSpec(name=name, group="", action="", n=8, d=3, multiplicities=(3, 2, 1))
        with pytest.raises(PipelineError, match=f"^{name}: .* not rational"):
            wall_products(case)
