import json
import re

import pytest

from chamberlab import cases, cli
from chamberlab.cases import (
    CaseSpec,
    default_cases,
    instantiate_case,
    load_registry,
    registry_case,
    validate_case,
)
from chamberlab.errors import BoundError, RegistryError

EXPECTED_NAMES = {
    "SOn-1", "SOpxSOq", "SO3", "SU3", "Sp3", "F4", "SO5", "SO2xSOm",
    "SU2xUm", "Sp2xSpm", "U5", "U1xSpin10", "G2", "SO4",
}


def test_registry_contains_all_rows(registry):
    assert {t.name for t in registry} == EXPECTED_NAMES
    parametric = {t.name for t in registry if t.is_parametric}
    assert parametric == {"SOn-1", "SOpxSOq", "SO2xSOm", "SU2xUm", "Sp2xSpm"}


def test_registry_known_fixed_rows(registry):
    by_name = {t.name: t for t in registry}
    su3 = by_name["SU3"]
    assert (su3.n_expr, su3.d, su3.multiplicity_exprs) == (8, 3, (2, 2, 2))
    g2 = by_name["G2"]
    assert (g2.n_expr, g2.d, g2.multiplicity_exprs) == (14, 6, (2, 2, 2, 2, 2, 2))
    u5 = by_name["U5"]
    assert (u5.n_expr, u5.d, u5.multiplicity_exprs) == (20, 4, (5, 4, 5, 4))


def test_instantiate_so_p_q():
    case = registry_case("SOpxSOq", {"p": 2, "q": 2})
    assert (case.n, case.d, case.multiplicities) == (4, 2, (1, 1))


def test_instantiate_so2_x_som():
    case = registry_case("SO2xSOm", {"m": 3})
    assert (case.n, case.d, case.multiplicities) == (6, 4, (1, 1, 1, 1))


def test_instantiate_sp2_x_spm():
    case = registry_case("Sp2xSpm", {"m": 2})
    assert (case.n, case.d, case.multiplicities) == (16, 4, (3, 4, 3, 4))


def test_bound_violation_names_the_bound():
    with pytest.raises(BoundError, match="p >= 2"):
        registry_case("SOpxSOq", {"p": 1, "q": 5})
    with pytest.raises(BoundError, match="n >= 3"):
        registry_case("SOn-1", {"n": 2})


def test_unknown_parameter_rejected():
    with pytest.raises(BoundError, match="no parameter"):
        registry_case("SU3", {"m": 4})


@pytest.mark.parametrize("value", [3.9, 3.0, True, "3", None])
def test_non_int_parameter_rejected(value):
    # Neither truncated (3.9 -> 3), nor read as an int (True -> 1, "3" -> 3).
    with pytest.raises(BoundError, match=r"parameter 'p' must be an int, got "
                                         + re.escape(repr(value))):
        registry_case("SOpxSOq", {"p": value, "q": 3})
    with pytest.raises(BoundError, match="parameter 'q' must be an int"):
        registry_case("SOpxSOq", {"p": 3, "q": value})


def test_packaged_registry_is_parsed_once_per_process(monkeypatch):
    # registry_case, default_cases and the command line read the packaged
    # registry from one parse; load_registry() itself parses afresh on every
    # call.
    calls = []
    parse = cases.load_registry
    monkeypatch.setattr(cases, "load_registry", lambda *a: calls.append(a) or parse(*a))
    cases._packaged_registry.cache_clear()
    try:
        for _ in range(3):
            assert registry_case("U5").d == 4
            assert len(default_cases()) == len(EXPECTED_NAMES)
            assert cli._select_cases("all", {}) == default_cases()
            assert cli._select_cases("g2", {}) == [registry_case("G2")]
            assert cli.main(["cases"]) == cli.EXIT_OK
        assert calls == [()]
    finally:
        cases._packaged_registry.cache_clear()
    assert load_registry() == load_registry() and load_registry() is not load_registry()


def test_unknown_case_rejected():
    with pytest.raises(RegistryError, match="unknown case"):
        registry_case("nonsense")


def test_validate_known_good_cases():
    assert validate_case(registry_case("U5")) == []
    f4 = registry_case("F4")
    assert f4.multiplicities == (8, 8, 8)
    assert validate_case(f4) == []


def test_validate_flags_dimension_identity():
    tampered = CaseSpec(name="U5", group="U(5)", action="", n=20, d=4,
                        multiplicities=(5, 4, 5, 5))
    violations = validate_case(tampered)
    assert any("dimension identity" in v for v in violations)


def test_validate_flags_bad_d_and_multiplicities():
    bad = CaseSpec(name="bad", group="", action="", n=9, d=5,
                   multiplicities=(7,))
    violations = validate_case(bad)
    assert any("inadmissible" in v for v in violations)
    nonpos = CaseSpec(name="bad2", group="", action="", n=4, d=2,
                      multiplicities=(0, 2))
    assert any("positive" in v for v in validate_case(nonpos))


def test_all_default_cases_validate(all_cases):
    assert len(all_cases) == 14
    for case in all_cases:
        assert validate_case(case) == [], case.label
        assert len(case.multiplicities) == case.d


def test_default_parameters_are_smallest(registry):
    defaults = {t.name: t.default_params() for t in registry if t.is_parametric}
    assert defaults["SOpxSOq"] == {"p": 2, "q": 2}
    assert defaults["SO2xSOm"] == {"m": 3}
    assert defaults["SU2xUm"] == {"m": 2}
    assert defaults["Sp2xSpm"] == {"m": 2}
    assert defaults["SOn-1"] == {"n": 3}


def test_malformed_registry_reports_location(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"cases": [\n  {"name": "x",}\n]}')
    with pytest.raises(RegistryError, match="line"):
        load_registry(bad)


def test_registry_rejects_wrong_multiplicity_count(tmp_path):
    doc = {"cases": [{"name": "x", "group": "g", "d": 2, "n": 4,
                      "multiplicities": [1]}]}
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(RegistryError, match="expected 2 multiplicities"):
        load_registry(path)


@pytest.mark.parametrize("summands", [1500, 3000])
def test_deeply_nested_expression_is_a_registry_error(tmp_path, summands):
    # 1 + 1 + ... nests one BinOp per summand: at 1500 the evaluator's
    # recursion and at 3000 the parser's exceed the interpreter's limit.
    expr = "+".join(["1"] * summands)
    doc = {"cases": [{"name": "Deep", "group": "g", "d": 1, "n": expr,
                      "multiplicities": [1]}]}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    (template,) = load_registry(path)
    with pytest.raises(RegistryError, match=r"^case Deep \(n\): cannot (parse|evaluate) ") as info:
        instantiate_case(template)
    # The message names the row and the cause, and quotes the expression by
    # its first 40 characters and its length, not all of it.
    message = str(info.value)
    assert len(message) < 200, message
    assert f"'{expr[:40]}'... ({len(expr)} characters): " in message
    assert "recursion" in message or "nested" in message, message


def test_case_label_and_params():
    case = registry_case("SOpxSOq", {"p": 3, "q": 5})
    assert case.label == "SOpxSOq(p=3,q=5)"
    assert case.params_dict == {"p": 3, "q": 5}


# (label, n, multiplicities) of every row at its defaults and of one draw per
# parametric row, as the registry instantiated them when expressions were
# evaluated by Python's eval.
INSTANTIATED = [
    ("SOn-1(n=3)", 3, (1,)), ("SOpxSOq(p=2,q=2)", 4, (1, 1)),
    ("SO3", 5, (1, 1, 1)), ("SU3", 8, (2, 2, 2)), ("Sp3", 14, (4, 4, 4)),
    ("F4", 26, (8, 8, 8)), ("SO5", 10, (2, 2, 2, 2)),
    ("SO2xSOm(m=3)", 6, (1, 1, 1, 1)), ("SU2xUm(m=2)", 8, (1, 2, 1, 2)),
    ("Sp2xSpm(m=2)", 16, (3, 4, 3, 4)), ("U5", 20, (5, 4, 5, 4)),
    ("U1xSpin10", 32, (9, 6, 9, 6)), ("G2", 14, (2, 2, 2, 2, 2, 2)),
    ("SO4", 8, (1, 1, 1, 1, 1, 1)),
]
INSTANTIATED_PARAMETRIC = [
    ("SOpxSOq", {"p": 38, "q": 6}, 44, (5, 37)),
    ("Sp2xSpm", {"m": 18}, 144, (67, 4, 67, 4)),
    ("SU2xUm", {"m": 7}, 28, (11, 2, 11, 2)),
    ("SO2xSOm", {"m": 9}, 18, (7, 1, 7, 1)),
    ("SOn-1", {"n": 11}, 11, (9,)),
]


def test_rows_instantiate_unchanged(all_cases):
    assert [(c.label, c.n, c.multiplicities) for c in all_cases] == INSTANTIATED
    for name, params, n, mults in INSTANTIATED_PARAMETRIC:
        case = registry_case(name, params)
        assert (case.n, case.multiplicities) == (n, mults), name


ESCAPE = "().__class__.__mro__[1].__subclasses__().__len__()"


def _one_row_registry(tmp_path, **row):
    doc = {"cases": [{"name": "x", "group": "g", "d": 1, "n": "n",
                      "multiplicities": ["n - 2"],
                      "params": [{"name": "n", "min": 3, "default": 3}], **row}]}
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(doc))
    return load_registry(path)


@pytest.mark.parametrize("row", [
    {"n": ESCAPE},
    {"multiplicities": [ESCAPE]},
    {"bounds": [f"{ESCAPE} > 0"]},
])
def test_registry_expressions_cannot_run_code(tmp_path, row):
    if "bounds" in row:
        # Bounds are the parameter minimums: a row with a bounds list, or
        # any other unknown key, is rejected when the registry is loaded.
        for extra in (row, {"limits": ["n < 9"]}):
            with pytest.raises(RegistryError, match="unknown keys"):
                _one_row_registry(tmp_path, **extra)
        return
    (template,) = _one_row_registry(tmp_path, **row)
    with pytest.raises(RegistryError, match="not allowed"):
        instantiate_case(template)


@pytest.mark.parametrize("row, message", [
    ({"n": 3.5}, "n must be an integer or an expression string, got 3.5"),
    ({"n": True}, "n must be an integer or an expression string, got True"),
    ({"multiplicities": [None]}, "multiplicity must be an integer or an expression string"),
    ({"params": [{"name": "n", "min": 3, "default": 3, "max": 4}]},
     "parameter 'n': unknown keys ['max']"),
    ({"params": [{"name": "n", "min": 2.5, "default": 3}]},
     "parameter 'n': min must be an integer, got 2.5"),
    ({"params": [{"name": "n", "min": 3, "default": "3"}]},
     "parameter 'n': default must be an integer, got '3'"),
    ({"params": [{"name": "n", "min": False, "default": 3}]},
     "parameter 'n': min must be an integer, got False"),
    ({"params": ["n"]}, "a parameter must be an object, got 'n'"),
    ({"d": 2.7}, "d must be an integer, got 2.7"),
    ({"d": True}, "d must be an integer, got True"),
    ({"multiplicities": "222"}, "multiplicities must be a list, got '222'"),
    ({"name": 5}, "name must be a string, got 5"),
    ({"group": None}, "group must be a string, got None"),
    ({"action": 3}, "action must be a string, got 3"),
    ({"params": [{"name": 1, "min": 3, "default": 3}]},
     "a parameter name must be a string, got 1"),
    ({"params": [{"name": "n", "min": 3, "default": 2}]},
     "parameter 'n': default 2 is below its min 3"),
    ({"params": [{"name": "n", "min": 3, "default": 3}, {"name": "n", "min": 4, "default": 4}]},
     "duplicate parameter names ['n', 'n']"),
])
def test_registry_rejects_malformed_values_at_load(tmp_path, row, message):
    # A value that is not what the row format allows fails when the registry
    # is loaded, naming the row, instead of at instantiation or not at all.
    with pytest.raises(RegistryError, match=re.escape(f"case[0]: {message}")):
        _one_row_registry(tmp_path, **row)


_ROW = {"name": "x", "group": "g", "d": 2, "n": 4, "multiplicities": [1, 1]}


@pytest.mark.parametrize("doc, message", [
    ([], "missing top-level 'cases' list"),
    ({"rows": []}, "missing top-level 'cases' list"),
    ({"cases": 5}, "'cases' must be a list, got 5"),
    ({"cases": {"a": 1}}, "'cases' must be a list, got {'a': 1}"),
    ({"cases": [[]]}, "case[0]: a case must be an object, got []"),
    ({"cases": ["SO3"]}, "case[0]: a case must be an object, got 'SO3'"),
    ({"cases": [_ROW, {**_ROW, "d": 5, "multiplicities": [1] * 5}]},
     "case[1]: inadmissible d=5"),
    ({"cases": [_ROW, _ROW]}, "duplicate case names"),
    # registry_case ignores case, so "X" could not be reached beside "x".
    ({"cases": [_ROW, {**_ROW, "name": "X"}]}, "duplicate case names"),
])
def test_registry_rejects_a_malformed_document(tmp_path, doc, message):
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(RegistryError, match=re.escape(f"{path}: {message}")):
        load_registry(path)


@pytest.mark.parametrize("expr,message", [
    ("n ** 2", "not allowed"),
    ("n / 2", "not allowed"),
    ("len(n)", "not allowed"),
    ("m + 1", "unknown name 'm'"),
    ("n // 0", "division"),
    ("n +", "cannot parse"),
    ("n >= 3", "not allowed"),
    ("n > 2 and n", "not allowed"),
])
def test_registry_expression_whitelist(tmp_path, expr, message):
    (template,) = _one_row_registry(tmp_path, n=expr)
    with pytest.raises(RegistryError, match=message):
        instantiate_case(template)


# The registry's expressions, written out: (n, d, multiplicities) per row.
PARAMETRIC_ROWS = {
    "SOn-1": lambda n: (n, 1, (n - 2,)),
    "SOpxSOq": lambda p, q: (p + q, 2, (q - 1, p - 1)),
    "SO2xSOm": lambda m: (2 * m, 4, (m - 2, 1, m - 2, 1)),
    "SU2xUm": lambda m: (4 * m, 4, (2 * m - 3, 2, 2 * m - 3, 2)),
    "Sp2xSpm": lambda m: (8 * m, 4, (4 * m - 5, 4, 4 * m - 5, 4)),
}


def test_parametric_rows_instantiate_from_minimum_to_40(registry):
    parametric = [t for t in registry if t.is_parametric]
    assert {t.name for t in parametric} == set(PARAMETRIC_ROWS)
    for template in parametric:
        expected = PARAMETRIC_ROWS[template.name]
        names = [name for name, _, _ in template.param_specs]
        grid = [{}]
        for name, minimum, _ in template.param_specs:
            grid = [dict(g, **{name: v}) for g in grid for v in range(minimum, 41)]
        for params in grid:
            case = instantiate_case(template, params)
            assert (case.n, case.d, case.multiplicities) == \
                expected(*(params[k] for k in names)), (template.name, params)
        for name, minimum, _ in template.param_specs:
            for value in range(minimum - 3, minimum):
                with pytest.raises(BoundError, match=f"'{name} >= {minimum}'"):
                    instantiate_case(template, {name: value})


def test_registry_expression_arithmetic(tmp_path):
    (template,) = _one_row_registry(tmp_path, n="2 * n - -1 - n - 1",
                                    multiplicities=["-(2 - n) // 1"])
    case = instantiate_case(template, {"n": 7})
    assert (case.n, case.multiplicities) == (7, (5,))
