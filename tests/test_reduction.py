import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from chamberlab import reduction
from chamberlab.cases import registry_case
from chamberlab.errors import PipelineError
from chamberlab.field import FieldScalar, ONE, ZERO
from chamberlab.poly import ZERO_POLY, Form, SpatialPoly, X, Y, arc_derivative, reduced
from chamberlab.reduction import ReductionBundle, build_bundle, build_walls, \
    bundle_to_json, verify_reference_example, wall_rows
from bundle_oracle import curvature_expr_pair, dense_form_value, field_wall_classes, \
    oracle_bundle, spatial, trig_pairs, walls_of
from float_poly_oracle import float_poly_value
from golden import BUNDLE_HASHES, GRID_BUNDLE_HASHES, MIXED_D4_CERTIFICATE_HASHES, \
    PARAMETRIC_BUNDLE_HASHES, PARAMETRIC_ROWS, bundle_sha256, certificate_sha256, \
    grid_bundle_hashes
from grid import MIXED_D4, grid_key, mixed_d4_case


def _rat(p, q=1):
    return FieldScalar.rational(p, q)


def _mirror(form, q=0):
    """List q of a form as the polynomial p(y, x), a one-list form."""
    return Form([form.lists[q][::-1]], form.den)


def _entry(form, q):
    """List q of a form as a one-list form."""
    return Form([form.lists[q]], form.den)


def _poly(mapping):
    return SpatialPoly({m: _rat(*v) if isinstance(v, tuple) else _rat(v)
                        for m, v in mapping.items()})


# -- walls and chamber data ---------------------------------------------------


def test_walls_u5(u5):
    walls = build_walls(u5)
    half_sqrt2 = FieldScalar(0, Fraction(1, 2))
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
        t1, t2 = build_bundle(case).dense_t[:2]
        if any(t1.lists[0]):
            assert t1.degree() == case.d - 1, case.label
        assert t2.degree() == case.d - 1, case.label


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
        for t in build_bundle(case).dense_t[2:]:
            if any(t.lists[0]):
                assert t.degree() == 2 * case.d - 2, case.label


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
    for i, ((s, c), m) in enumerate(zip(trig_pairs(u5.d), u5.multiplicities)):
        k_i = (s * yd + c * xd) / walls[i].eval_exact(x, y)
        total = total + k_i * m
    assert dense_form_value(bundle.r, bundle.qd, x, y, xd, yd) == total


def test_r_derivative_shapes(all_cases):
    for case in all_cases:
        b = build_bundle(case)
        for form, stage in ((b.r_dot, 2), (b.r_ddot, 3)):
            assert len(form.lists) == stage + 1, case.label
            for p in form.lists:
                assert len(p) - 1 == stage * (case.d - 1), case.label


def test_r_dot_single_wall():
    r_dot = build_bundle(registry_case("SOn-1")).r_dot
    assert r_dot == Form([[0], [4], [0]], 3)


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
        for j, a in enumerate(bundle.dense_a.lists):
            assert len(a) - 1 == 3 * (case.d - 1), (case.label, j)
        for j, c in enumerate(bundle.dense_c.lists):
            assert len(c) - 1 == 4 * (case.d - 1), (case.label, j)


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
    ((t1,), den_1), ((t2,), den_2) = bundle.dense_t[:2]
    t = ([c * den_2 for c in t1], [c * den_1 for c in t2]), den_1 * den_2
    table, _ = _quintic(bundle.dense_qd, t, ([[0] * 7] * 4, 1))
    assert len(table) == 6 and all(c == [0] * 9 for c in table)


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
        rows = wall_rows(case)
        assert len(rows) == case.d and all(rows), case.label
        assert all(a + b == 1 for wall in rows for a, b, _ in wall), case.label
        assert bundle.dense_qd.degree() == case.d
        assert bundle.dense_volume_sq.degree() == 2 * sum(case.multiplicities)


def _flat_degrees(report):
    return [(key, v) for key, value in report.items()
            for v in (value if isinstance(value, list) else [value])]


def test_degree_table_over_the_multiplicity_grid(multiplicity_grid):
    # build_bundle checks no degree: the dense arithmetic fixes each one, and
    # this table is where a wrong one shows.  Only the single wall (d = 1)
    # has vanishing entries: t1, t4, t5, A1, A3 and some of A and C.
    for case in multiplicity_grid:
        d, bundle = case.d, build_bundle(case)
        expected = {"d": d, "qd": d, "volume_sq": 2 * sum(case.multiplicities),
                    "t1": d - 1, "t2": d - 1, "t345": [2 * d - 2] * 3,
                    "a": [3 * (d - 1)] * 4, "c": [4 * (d - 1)] * 6,
                    "r": [d - 1] * 2, "r_dot": [2 * (d - 1)] * 3, "r_ddot": [3 * (d - 1)] * 4}
        got = {**bundle.degree_report(),
               **{key: [form.degree(q) for q in range(len(form.lists))]
                  for key in ("r", "r_dot", "r_ddot") for form in [getattr(bundle, key)]}}
        pairs = zip(_flat_degrees(got), _flat_degrees(expected), strict=True)
        for (key, degree), (want_key, want) in pairs:
            assert key == want_key, (case.multiplicities, key, want_key)
            assert degree == want or (degree == ZERO_POLY and d == 1), \
                (case.multiplicities, key, degree, want)


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


def test_grid_bundles_match_golden_hashes():
    # Every bundle of the 208-case multiplicity grid, as derive writes it.
    assert grid_bundle_hashes() == json.loads(GRID_BUNDLE_HASHES.read_text())


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
    assert reduced(*calls[0]) == bundle.r and reduced(*calls[1]) == bundle.r_dot


def test_pipeline_error_on_invalid_case():
    from chamberlab.cases import CaseSpec

    bad = CaseSpec(name="bad", group="", action="", n=9, d=2,
                   multiplicities=(1, 1))
    with pytest.raises(PipelineError):
        build_bundle(bad)


@pytest.mark.parametrize("d", [0, 5])
def test_build_walls_rejects_an_invalid_chamber_type(d):
    # No wall table for d = 0 or 5: build_walls raises build_bundle's
    # PipelineError rather than returning [] or a bare KeyError.
    from chamberlab.cases import CaseSpec

    bad = CaseSpec(name="bad", group="", action="", n=d + 2, d=d, multiplicities=(1,) * d)
    message = rf"^bad: invalid case: \['inadmissible chamber type d={d}'\]$"
    for build in (wall_rows, build_walls, build_bundle):
        with pytest.raises(PipelineError, match=message):
            build(bad)


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
    lists, den = bundle.dense_a
    a3 = lists[3].copy()
    a3[0] += den  # A3's y^9 coefficient, the mirror of A0's x^9
    broken = bundle._replace(dense_a=Form([*lists[:3], a3], den))
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
                        lambda name, params=None: tampered)
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
                        lambda name, params=None: inconsistent)
    with pytest.raises(PipelineError, match="invalid case"):
        verify_reference_example()


def test_u5_mirror_symmetry_of_derived_coefficients(u5):
    a = build_bundle(u5).dense_a
    assert _mirror(a, 0) == _entry(a, 3)
    assert _mirror(a, 1) == _entry(a, 2)


def test_mirror_symmetry_only_for_symmetric_multiplicities():
    # Not assumed by the pipeline; checked empirically where multiplicities
    # are mirror symmetric (m_i == m_{d-1-i} fails for SOpxSOq p != q).
    asym = registry_case("SOpxSOq", {"p": 2, "q": 4})
    a = build_bundle(asym).dense_a
    assert _mirror(a, 0) != _entry(a, 3)


# -- the dense derivation against the sparse oracle -------------------------------


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
    return rows + [mixed_d4_case(m) for m in itertools.product((1, 2, 3), repeat=4)]


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

    golden = json.loads(MIXED_D4_CERTIFICATE_HASHES.read_text())
    assert len(golden) == len(MIXED_D4)
    for mults in MIXED_D4:
        case = mixed_d4_case(mults)
        bundle = build_bundle(case)
        assert bundle.dense_volume_sq.degree() == 2 * sum(mults)
        cert = certify_case(case)
        assert cert["conclusion"] == "nonexistence-certified", mults
        assert certificate_sha256(cert) == golden[grid_key(case)], mults


# -- dense bundles end to end ------------------------------------------------------


def _default_and_parametric_rows():
    from chamberlab.cases import default_cases

    return list(default_cases()) + [registry_case(n, p) for n, p in PARAMETRIC_ROWS]


def _forms(bundle):
    return [bundle.dense_qd, bundle.dense_volume_sq, *bundle.dense_t, bundle.r,
            bundle.r_dot, bundle.r_ddot, bundle.dense_a, bundle.dense_c]


def _entries(bundle):
    """(form, q) for every list q of every stored form."""
    return [(form, q) for form in _forms(bundle) for q in range(len(form.lists))]


def test_every_stored_field_is_a_reduced_form(multiplicity_grid):
    # compute_resultant reads A's and C's lists with no degree check: each
    # field build_bundle stores, A and C included, is integer lists of one
    # length over a denominator coprime to all their entries, so no form can
    # hold two degrees.  Over the 14 default rows, the 208 grid cases and
    # both mixed d = 4 tuples.
    from chamberlab.cases import default_cases

    cases = [*default_cases(), *multiplicity_grid, *map(mixed_d4_case, MIXED_D4)]
    assert len(cases) == 14 + 208 + 2
    for case in cases:
        bundle = build_bundle(case)
        forms = _forms(bundle)
        assert len(forms) == len(ReductionBundle._fields) - 1 + len(bundle.dense_t) - 1
        assert (len(bundle.dense_a.lists), len(bundle.dense_c.lists)) == (4, 6)
        for form in forms:
            lists, den = form
            key = (case.label, case.multiplicities, form)
            assert type(form) is Form and type(den) is int and den > 0, key
            assert len({len(p) for p in lists}) == 1, key
            assert all(type(c) is int for c in itertools.chain(*lists)), key
            assert math.gcd(den, *itertools.chain(*lists)) == 1, key


def _rounds_to(q: Fraction, f: float) -> bool:
    """f is the double nearest q, ties to even, decided on Fractions."""
    lo, hi = ((Fraction(f) + Fraction(math.nextafter(f, t))) / 2 for t in (-math.inf, math.inf))
    even = int(Fraction(f) / Fraction(math.ulp(f))) % 2 == 0
    return lo < q < hi or (q in (lo, hi) and even)


def test_dense_writers_match_the_spatial_ones():
    # rows writes the text of the SpatialPoly built term by term;
    # float_terms has its terms in the same order, each coefficient the
    # correctly rounded quotient.
    for case in _default_and_parametric_rows():
        for form, q in _entries(build_bundle(case)):
            expected = spatial(form, q)
            assert form.rows(q) == expected.to_json(), case.label
            terms = form.float_terms(q)
            assert [(a, b) for a, b, _ in terms] == [m for m, _ in expected.sorted_terms()]
            assert all(_rounds_to(Fraction(form.lists[q][a], form.den), f)
                       for a, _, f in terms), case.label
    # Past the double range a coefficient rounds to +-inf.
    huge = Form([[-(10 ** 400), 3, 10 ** 400]], 7)
    assert huge.float_terms() == [(2, 0, math.inf), (1, 1, 3 / 7), (0, 2, -math.inf)]
    assert huge.rows() == spatial(huge).to_json()


def test_reduced_forms_compare_by_value():
    # One gcd over the denominator and every entry of every list: a form is
    # equal to any other spelling of it once reduced, and a zero form is
    # over 1.  Lists already reduced are kept, not copied.
    assert reduced([[2, 4], [0, 6]], 6) == Form([[1, 2], [0, 3]], 3)
    assert reduced([[2, 4], [0, 3]], 6) == Form([[2, 4], [0, 3]], 6)
    assert reduced([[0, 0], [0, 0]], 5) == Form([[0, 0], [0, 0]], 1)
    assert Form([[1, 2]], 3) != Form([[1, 2]], 1)
    lists = [[1, 2], [3, 0]]
    assert reduced(lists, 4).lists is lists
    assert repr(Form([[-2, 0, 1]], 3)) == "Form(lists=[[-2, 0, 1]], den=3)"


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


def _view_pairs(bundle):
    """(view, (form, q)) for every view parsed from a form's list q."""
    return [(bundle.qd, (bundle.dense_qd, 0)), (bundle.volume_sq, (bundle.dense_volume_sq, 0)),
            *zip((bundle.t1, bundle.t2, bundle.t3, bundle.t4, bundle.t5),
                 ((t, 0) for t in bundle.dense_t)),
            *zip(bundle.a_coeffs, ((bundle.dense_a, j) for j in range(4)), strict=True),
            *zip(bundle.c_coeffs, ((bundle.dense_c, j) for j in range(6)), strict=True)]


def test_views_are_the_lists_as_spatial_polys():
    # Each view, parsed from its list's rows, has the terms of the list built
    # term by term: coefficient c / den at x^a y^(k - a) for each nonzero c.
    for case in _default_and_parametric_rows():
        bundle = build_bundle(case)
        for view, (form, q) in _view_pairs(bundle):
            assert view.terms == spatial(form, q).terms, case.label
        assert bundle.c_coeffs is bundle.c_coeffs


def test_walls_are_a_cached_view(all_cases):
    # The bundle stores only exact rational data; its walls are parsed from
    # wall_rows on first read and kept.  They are the walls built from
    # FieldScalars, and the rows are the text of those.
    assert "walls" not in ReductionBundle._fields
    for case in all_cases:
        bundle = build_bundle(case)
        expected = walls_of(case.d)
        assert bundle.walls == build_walls(case) == expected, case.label
        assert [w.terms for w in bundle.walls] == [w.terms for w in expected], case.label
        assert wall_rows(case) == [w.to_json() for w in expected], case.label
        assert bundle.walls is bundle.walls


def test_field_types_leave_the_top_level_api():
    import chamberlab
    from chamberlab import field, poly

    assert all(hasattr(chamberlab, name) for name in chamberlab.__all__)
    for name in ("FieldScalar", "SpatialPoly", "build_walls"):
        assert name not in chamberlab.__all__
        assert not hasattr(chamberlab, name)
    assert (field.FieldScalar, poly.SpatialPoly, reduction.build_walls) == \
        (FieldScalar, SpatialPoly, build_walls)


def _raise(*args, **kwargs):
    raise AssertionError("a FieldScalar, a SpatialPoly or field arithmetic")


def test_derive_and_certify_run_in_q(monkeypatch, tmp_path, capsys):
    # From cold caches, certifying a case, building its lab and curves,
    # writing every default bundle and derive --format text construct no
    # FieldScalar and no SpatialPoly and read no view: the walls' rows are
    # written from the sin**2 table, and the text from the lists' rows.
    from chamberlab import numerics
    from chamberlab.cases import default_cases
    from chamberlab.certify import certify_case
    from chamberlab.cli import EXIT_OK, main

    build_bundle.cache_clear()
    reduction._wall_classes.cache_clear()
    numerics.get_lab.cache_clear()
    try:
        # Every FieldScalar comes from __init__ or _raw; every SpatialPoly
        # from __init__, from_json or arithmetic on those.
        for cls, name in ((FieldScalar, "__init__"), (FieldScalar, "_raw"),
                          (SpatialPoly, "__init__"), (SpatialPoly, "from_json")):
            monkeypatch.setattr(cls, name, _raise)
        for name in ("SOn-1", "SOpxSOq", "SU3", "Sp2xSpm", "G2"):
            case = registry_case(name)
            assert certify_case(case)["conclusion"] == "nonexistence-certified"
            numerics.get_lab(case)
            sigma = 0.45 * math.pi / case.d
            start = numerics.state_from_angle(3 * math.cos(sigma), 3 * math.sin(sigma), 0.7)
            for mode in numerics.MODES:
                cfg = numerics.IntegratorConfig(step=1e-4, max_steps=100, mode=mode)
                assert len(numerics.integrate_curve(start, cfg, case).rows) == 101
        cases = default_cases()
        assert len(cases) == 14
        for case in cases:
            bundle = build_bundle(case)
            bundle_to_json(bundle)
            assert vars(bundle) == {}, case.label
        code = main(["derive", "--case", "all", "--format", "text", "--out", str(tmp_path)])
        assert code == EXIT_OK, capsys.readouterr().err
        assert capsys.readouterr().out.count("A0 = ") == 14
    finally:
        build_bundle.cache_clear()
        numerics.get_lab.cache_clear()


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [(first,)] + part
        for j in range(len(part)):
            yield part[:j] + [(first, *part[j])] + part[j + 1:]


def test_wall_class_rule_matches_the_field_path():
    # Every set partition of the wall indices at every d: the rule in Q
    # raises exactly where the walls multiplied in Q(sqrt2, sqrt3) leave an
    # irrational P / l, and otherwise gives the same qd, l**2 and P / l.
    partitions = [(d, tuple(part)) for d in (1, 2, 3, 4, 6)
                  for part in _set_partitions(tuple(range(d)))]
    assert len(partitions) == 1 + 2 + 5 + 15 + 203
    for d, classes in partitions:
        try:
            expected = field_wall_classes(d, classes)
        except ValueError:
            with pytest.raises(ValueError, match="not rational"):
                reduction._wall_classes(d, classes)
            continue
        qd, products = reduction._wall_classes(d, classes)
        assert spatial(qd) == expected[0], (d, classes)
        assert [(lead_sq, spatial(p)) for lead_sq, p in products] == expected[1], \
            (d, classes)


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
