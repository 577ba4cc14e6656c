"""Command-line front end: cases, derive, certify, integrate, verify-paper-example.

Exit codes: 0 success, 1 some case not certified (every certificate and the
table are still written), 2 user error (unknown case, bad parameters, bad or
non-finite start state, bad integrator setting, unwritable output path), 3
internal pipeline invariant violation or any other unexpected exception.  All
outputs are reproducible run to run except timestamp and duration metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .cases import CaseSpec, _packaged_registry, default_cases, registry_case
from .certify import certify_case, output_path, write_certificate, write_json_atomic
from .errors import BoundaryError, BoundError, ExactDivisionError, PipelineError, \
    RegistryError
from .poly import rows_text
from .reduction import build_bundle, bundle_to_json, verify_reference_example

ENV_OUT_DIR = "CHAMBERLAB_OUT"

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_USER_ERROR = 2
EXIT_PIPELINE_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chamberlab",
        description="Exact certificates and numeric curve laboratory for "
                    "invariant profile curves in planar orbit spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cases = sub.add_parser("cases", help="list the case registry")
    p_cases.add_argument("--format", choices=("json", "text"), default="text")

    p_derive = sub.add_parser("derive", help="write per-case pipeline bundles")
    _case_args(p_derive)
    p_derive.add_argument("--format", choices=("json", "text"), default="json")
    p_derive.add_argument("--out", default=None, help="output directory")

    p_cert = sub.add_parser("certify", help="write per-case resultant certificates")
    _case_args(p_cert)
    p_cert.add_argument("--out", default=None, help="output directory")

    p_int = sub.add_parser("integrate", help="integrate one profile curve to CSV")
    _case_args(p_int, allow_all=False)
    # numerics.MODES, written out: the commands that integrate no curve do
    # not import the lab.
    p_int.add_argument("--mode", choices=("minimal", "biharmonic-candidate"),
                       default="minimal")
    p_int.add_argument("--x0", type=float, required=True)
    p_int.add_argument("--y0", type=float, required=True)
    p_int.add_argument("--angle", type=float, required=True,
                       help="initial tangent angle in radians")
    p_int.add_argument("--steps", type=int, default=10000)
    p_int.add_argument("--step-size", type=float, default=1e-4)
    p_int.add_argument("--out", default=None,
                       help="CSV path ('-' for stdout); default derived from case")

    sub.add_parser("verify-paper-example",
                   help="check the derived U(5) coefficients against the "
                        "published reference polynomials")
    return parser


def _case_args(parser: argparse.ArgumentParser, allow_all: bool = True) -> None:
    help_case = "case name" + (" or 'all'" if allow_all else "")
    parser.add_argument("--case", required=True, help=help_case)
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE", help="parameter override (repeatable)")


def _parse_params(pairs: list[str]) -> dict[str, int]:
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise BoundError(f"--param expects KEY=VALUE, got {pair!r}")
        key = key.strip()
        if key in params:
            raise BoundError(f"--param {key} is given twice")
        try:
            params[key] = int(value)
        except ValueError as exc:
            raise BoundError(f"--param {key}: {value!r} is not an integer") from exc
    return params


def _select_cases(name: str, params: dict[str, int],
                  allow_all: bool = True) -> list[CaseSpec]:
    if name.lower() == "all":
        if not allow_all:
            raise BoundError("this command needs a single case, not 'all'")
        if params:
            raise BoundError("--param cannot be combined with --case all")
        return default_cases()
    return [registry_case(name, params)]


def _out_dir(flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_OUT_DIR)
    if env:
        return Path(env)
    return Path("chamberlab_out")


def _cmd_cases(args) -> int:
    registry = _packaged_registry()
    if args.format == "json":
        rows = [{
            "name": t.name, "group": t.group, "action": t.action, "d": t.d,
            "n": t.n_expr, "multiplicities": list(t.multiplicity_exprs),
            "params": [{"name": n, "min": lo, "default": df}
                       for n, lo, df in t.param_specs],
        } for t in registry]
        print(json.dumps(rows, indent=1))
    else:
        print(f"{'name':<11} {'group':<18} {'d':>2} {'n':>6}  multiplicities")
        for t in registry:
            mults = ",".join(str(m) for m in t.multiplicity_exprs)
            print(f"{t.name:<11} {t.group:<18} {t.d:>2} {str(t.n_expr):>6}  ({mults})")
    return EXIT_OK


def _cmd_derive(args) -> int:
    cases = _select_cases(args.case, _parse_params(args.param))
    out_dir = _out_dir(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for case in cases:
        doc = bundle_to_json(build_bundle(case))
        path = output_path(out_dir, case.label, "bundle")
        write_json_atomic(path, doc)
        if args.format == "text":
            print(f"# {case.label}")
            for j, rows in enumerate(doc["a_coeffs"]):
                print(f"A{j} = {rows_text(rows)}")
            for j, rows in enumerate(doc["c_coeffs"]):
                print(f"C{j} = {rows_text(rows)}")
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    cases = _select_cases(args.case, _parse_params(args.param))
    out_dir = _out_dir(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    certificates = []
    for case in cases:
        certificate = certify_case(case)
        write_certificate(certificate, out_dir)
        certificates.append(certificate)
    print(f"{'case':<16} {'d':>2} {'degree':>7} {'expected':>8} "
          f"{'roots':>5} {'minimal':>7}  conclusion")
    failures = 0
    for certificate in certificates:
        roots = certificate["roots"]
        n_min = sum(1 for r in roots if r["line_is_minimal"])
        degree = certificate["resultant_degree"]
        print(f"{certificate['label']:<16} {certificate['d']:>2} "
              f"{degree if degree is not None else '-':>7} "
              f"{certificate['expected_degree']:>8} {len(roots):>5} {n_min:>7}  "
              f"{certificate['conclusion']}")
        if certificate["conclusion"] != "nonexistence-certified":
            failures += 1
    if failures:
        print(f"{failures} case(s) not certified", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    return EXIT_OK


def _cmd_integrate(args) -> int:
    from .numerics import IntegratorConfig, integrate_curve, state_from_angle

    (case,) = _select_cases(args.case, _parse_params(args.param), allow_all=False)
    try:
        cfg = IntegratorConfig(step=args.step_size, max_steps=args.steps, mode=args.mode)
        init = state_from_angle(args.x0, args.y0, args.angle)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    trajectory = integrate_curve(init, cfg, case)
    summary = sys.stdout
    if args.out == "-":
        trajectory.write_csv(sys.stdout)
        summary = sys.stderr  # keeps the CSV on stdout clean
    else:
        out = Path(args.out) if args.out else _out_dir(None) / f"{case.name}.trajectory.csv"
        out.parent.mkdir(parents=True, exist_ok=True)
        trajectory.write_csv(str(out))
        print(f"wrote {out}")
    print(f"steps={len(trajectory.states) - 1} stop={trajectory.stop_reason} "
          f"max|f|={trajectory.max_abs_f:.3e} speed_drift={trajectory.speed_drift:.3e}",
          file=summary)
    return EXIT_OK


def _cmd_verify_reference(_args) -> int:
    report = verify_reference_example()
    if report["passed"]:
        print(f"PASS: derived U(5) coefficients match the published reference "
              f"polynomials up to the common scale {report['scale']}")
        return EXIT_OK
    print("FAIL: derived U(5) coefficients disagree with the reference values:")
    for diff in report["diffs"]:
        print(f"  {diff}")
    return EXIT_PIPELINE_ERROR


_HANDLERS = {
    "cases": _cmd_cases,
    "derive": _cmd_derive,
    "certify": _cmd_certify,
    "integrate": _cmd_integrate,
    "verify-paper-example": _cmd_verify_reference,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (RegistryError, BoundError, BoundaryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except (PipelineError, ExactDivisionError) as exc:
        print(f"pipeline invariant violated: {exc}", file=sys.stderr)
        return EXIT_PIPELINE_ERROR
    except Exception as exc:  # a bug, e.g. a list sum of unequal degrees
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PIPELINE_ERROR


if __name__ == "__main__":
    sys.exit(main())
