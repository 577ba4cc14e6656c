"""Registry of the cohomogeneity-two actions and case instantiation.

The registry ships as a versioned JSON document (``data/registry.json``) so
hypothetical (d, multiplicities) combinations can be explored by editing data
rather than code.  Parametric rows carry integer expressions in their
parameters; each parameter's ``min`` is its bound, and the minimums are the
only bounds a row has.
"""

from __future__ import annotations

import ast
import functools
import json
import operator
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .errors import BoundError, RegistryError

# The chamber types d: the orbit space is a chamber with d walls at angles pi/d.
ADMISSIBLE_D = (1, 2, 3, 4, 6)


class CaseSpec(NamedTuple):
    """One concrete action: chamber type d, ambient dimension, multiplicities."""

    name: str
    group: str
    action: str
    n: int
    d: int
    multiplicities: tuple[int, ...]
    params: tuple[tuple[str, int], ...] = ()

    @property
    def params_dict(self) -> dict[str, int]:
        return dict(self.params)

    @property
    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}({inner})"


class CaseTemplate(NamedTuple):
    """A registry row; parametric rows instantiate to a CaseSpec."""

    name: str
    group: str
    action: str
    d: int
    n_expr: object
    multiplicity_exprs: tuple
    param_specs: tuple[tuple[str, int, int], ...] = ()  # (name, min, default)

    @property
    def is_parametric(self) -> bool:
        return bool(self.param_specs)

    def default_params(self) -> dict[str, int]:
        return {name: default for name, _, default in self.param_specs}


_BINARY_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.FloorDiv: operator.floordiv}
# "notes" and "metadata" document a row for its readers; the program ignores them.
_ROW_KEYS = {"name", "group", "action", "d", "n", "multiplicities", "params",
             "notes", "metadata"}
_PARAM_KEYS = {"name", "min", "default"}


# An expression longer than this is quoted in an error by its start and length.
_QUOTED_CHARS = 40


def _quoted(text: str) -> str:
    """repr(text), or of its first _QUOTED_CHARS characters and its length."""
    if len(text) <= _QUOTED_CHARS:
        return repr(text)
    return f"{text[:_QUOTED_CHARS]!r}... ({len(text)} characters)"


def _evaluate(expr: str, params: dict[str, int], where: str) -> int:
    """Integer value of a registry expression over the case parameters.

    Only integer literals, parameter names, ``+ - * //`` and unary minus are
    accepted; anything else (comparisons, attribute access, calls,
    subscripts, other literals) is a RegistryError, so registry data cannot
    run code; so is an expression nested too deeply to parse or evaluate
    (RecursionError).  Bounds are not expressions: they are the parameter
    minimums.  An error quotes a long expression by its start and length.
    """
    def walk(node):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        if isinstance(node, ast.Name) and node.id in params:
            return params[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
            return _BINARY_OPS[type(node.op)](walk(node.left), walk(node.right))
        what = (f"unknown name {node.id!r}" if isinstance(node, ast.Name)
                else f"{_quoted(ast.unparse(node))} is not allowed")
        raise RegistryError(f"{where}: cannot evaluate {_quoted(expr)}: {what}")

    try:
        tree = ast.parse(expr, mode="eval")
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise RegistryError(f"{where}: cannot parse {_quoted(expr)}: {exc}") from exc
    try:
        return walk(tree.body)
    except (ZeroDivisionError, RecursionError) as exc:
        raise RegistryError(f"{where}: cannot evaluate {_quoted(expr)}: {exc}") from exc


def _eval_int(expr, params: dict[str, int], where: str) -> int:
    return expr if isinstance(expr, int) else _evaluate(expr, params, where)


def _expression(value, what: str):
    """A row's n or multiplicity: an int literal or an expression string."""
    if type(value) is int or isinstance(value, str):
        return value
    raise ValueError(f"{what} must be an integer or an expression string, got {value!r}")


def _param_spec(entry: dict) -> tuple[str, int, int]:
    """(name, min, default) of a ``params`` entry, whose min and default are ints."""
    if not isinstance(entry, dict):
        raise ValueError(f"a parameter must be an object, got {entry!r}")
    unknown = sorted(set(entry) - _PARAM_KEYS)
    if unknown:
        raise ValueError(f"parameter {entry.get('name')!r}: unknown keys {unknown}")
    if not isinstance(entry["name"], str):
        raise ValueError(f"a parameter name must be a string, got {entry['name']!r}")
    for key in ("min", "default"):
        if type(entry[key]) is not int:
            raise ValueError(f"parameter {entry['name']!r}: {key} must be an integer, "
                             f"got {entry[key]!r}")
    if entry["default"] < entry["min"]:
        raise ValueError(f"parameter {entry['name']!r}: default {entry['default']} is "
                         f"below its min {entry['min']}")
    return entry["name"], entry["min"], entry["default"]


def load_registry(path: str | Path | None = None) -> list[CaseTemplate]:
    """Parse the registry document into templates (packaged file by default),
    afresh on every call.  Two rows whose names are equal when case is
    ignored are a RegistryError, since registry_case ignores case."""
    if path is None:
        source = resources.files("chamberlab").joinpath("data/registry.json")
        text = source.read_text(encoding="utf-8")
        where = "registry.json"
    else:
        where = str(path)
        text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RegistryError(f"{where}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or "cases" not in doc:
        raise RegistryError(f"{where}: missing top-level 'cases' list")
    if not isinstance(doc["cases"], list):
        raise RegistryError(f"{where}: 'cases' must be a list, got {doc['cases']!r}")
    templates = []
    for idx, row in enumerate(doc["cases"]):
        where_row = f"{where}: case[{idx}]"
        try:
            if not isinstance(row, dict):
                raise ValueError(f"a case must be an object, got {row!r}")
            unknown = sorted(set(row) - _ROW_KEYS)
            if unknown:
                raise ValueError(f"unknown keys {unknown}")
            for key in ("name", "group", "action"):
                if not isinstance(row.get(key, ""), str):
                    raise ValueError(f"{key} must be a string, got {row[key]!r}")
            if type(row["d"]) is not int:
                raise ValueError(f"d must be an integer, got {row['d']!r}")
            if not isinstance(row["multiplicities"], list):
                raise ValueError(f"multiplicities must be a list, got {row['multiplicities']!r}")
            template = CaseTemplate(
                name=row["name"],
                group=row["group"],
                action=row.get("action", ""),
                d=row["d"],
                n_expr=_expression(row["n"], "n"),
                multiplicity_exprs=tuple(_expression(m, "multiplicity")
                                         for m in row["multiplicities"]),
                param_specs=tuple(_param_spec(p) for p in row.get("params", [])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryError(f"{where_row}: {exc}") from exc
        if template.d not in ADMISSIBLE_D:
            raise RegistryError(f"{where_row}: inadmissible d={template.d}")
        if len(template.multiplicity_exprs) != template.d:
            raise RegistryError(f"{where_row}: expected {template.d} multiplicities")
        param_names = [name for name, _, _ in template.param_specs]
        if len(set(param_names)) != len(param_names):
            raise RegistryError(f"{where_row}: duplicate parameter names {param_names}")
        templates.append(template)
    names = [t.name.lower() for t in templates]
    if len(set(names)) != len(names):
        raise RegistryError(f"{where}: duplicate case names (compared ignoring case)")
    return templates


def instantiate_case(template: CaseTemplate, params: dict[str, int] | None = None) -> CaseSpec:
    """Fill a template's parameters (defaults where omitted) and check their minimums.

    Each given value must be an int (a bool is not): BoundError names the
    parameter otherwise, rather than truncating 3.9 to 3 or reading True as 1.
    """
    values = template.default_params()
    for key, val in (params or {}).items():
        if key not in values:
            raise BoundError(f"case {template.name} has no parameter {key!r}")
        if type(val) is not int:
            raise BoundError(f"case {template.name}: parameter {key!r} must be an int, "
                             f"got {val!r}")
        values[key] = val
    for name, minimum, _ in template.param_specs:
        if values[name] < minimum:
            raise BoundError(f"case {template.name}: bound '{name} >= {minimum}' "
                             f"violated by {values}")
    n = _eval_int(template.n_expr, values, f"case {template.name} (n)")
    mults = tuple(_eval_int(expr, values, f"case {template.name} (multiplicity)")
                  for expr in template.multiplicity_exprs)
    return CaseSpec(
        name=template.name,
        group=template.group,
        action=template.action,
        n=n,
        d=template.d,
        multiplicities=mults,
        params=tuple(sorted(values.items())),
    )


def validate_case(case: CaseSpec) -> list[str]:
    """Consistency violations (empty list means the case is well formed)."""
    violations = []
    if case.d not in ADMISSIBLE_D:
        violations.append(f"inadmissible chamber type d={case.d}")
    if len(case.multiplicities) != case.d:
        violations.append(f"expected {case.d} multiplicities, got {len(case.multiplicities)}")
    if any(m < 1 for m in case.multiplicities):
        violations.append("multiplicities must be positive")
    if 1 + sum(case.multiplicities) != case.n - 1:
        violations.append(
            f"dimension identity fails: 1 + sum(m) = {1 + sum(case.multiplicities)} "
            f"but n - 1 = {case.n - 1}")
    return violations


@functools.lru_cache(maxsize=None)
def _packaged_registry() -> tuple[CaseTemplate, ...]:
    """The packaged registry, parsed once per process."""
    return tuple(load_registry())


def registry_case(name: str, params: dict[str, int] | None = None) -> CaseSpec:
    """Look a row of the packaged registry up by name, ignoring case, and
    instantiate it (defaults for parameters)."""
    templates = _packaged_registry()
    for template in templates:
        if template.name.lower() == name.lower():
            return instantiate_case(template, params)
    known = ", ".join(t.name for t in templates)
    raise RegistryError(f"unknown case {name!r}; known cases: {known}")


def default_cases() -> list[CaseSpec]:
    """Every row of the packaged registry, parametric ones at their smallest
    admissible values."""
    return [instantiate_case(t) for t in _packaged_registry()]
