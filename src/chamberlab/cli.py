"""Command-line front end: cases, derive, certify, integrate, verify-paper-example.

Exit codes: 0 success, 1 some case not certified (every certificate and the
table are still written), 2 user error (unknown case, bad parameters, bad
start state), 3 internal pipeline invariant violation.  All outputs are
reproducible run to run except timestamp and duration metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .cases import CaseSpec, default_cases, instantiate_case, load_registry
from .certify import DEFAULT_PRECISION_BITS, certify_case, write_certificate, \
    write_json_atomic
from .errors import BoundaryError, BoundError, PipelineError, RegistryError
from .numerics import MODES, IntegratorConfig, integrate_curve, state_from_angle
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
    p_cert.add_argument("--precision-bits", type=int, default=DEFAULT_PRECISION_BITS)
    p_cert.add_argument("--jobs", type=int, default=1,
                        help="worker processes for --case all")

    p_int = sub.add_parser("integrate", help="integrate one profile curve to CSV")
    _case_args(p_int, allow_all=False)
    p_int.add_argument("--mode", choices=MODES, default="minimal")
    p_int.add_argument("--x0", type=float, required=True)
    p_int.add_argument("--y0", type=float, required=True)
    p_int.add_argument("--angle", type=float, required=True,
                       help="initial tangent angle in radians")
    p_int.add_argument("--steps", type=int, default=10000)
    p_int.add_argument("--step-size", type=float, default=1e-4)
    p_int.add_argument("--wall-epsilon", type=float, default=1e-9)
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
        try:
            params[key.strip()] = int(value)
        except ValueError as exc:
            raise BoundError(f"--param {key}: {value!r} is not an integer") from exc
    return params


def _select_cases(name: str, params: dict[str, int],
                  allow_all: bool = True) -> list[CaseSpec]:
    registry = load_registry()
    if name.lower() == "all":
        if not allow_all:
            raise BoundError("this command needs a single case, not 'all'")
        if params:
            raise BoundError("--param cannot be combined with --case all")
        return default_cases(registry)
    for template in registry:
        if template.name.lower() == name.lower():
            return [instantiate_case(template, params)]
    known = ", ".join(t.name for t in registry)
    raise RegistryError(f"unknown case {name!r}; known cases: {known}")


def _out_dir(flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_OUT_DIR)
    if env:
        return Path(env)
    return Path("chamberlab_out")


def _cmd_cases(args) -> int:
    registry = load_registry()
    if args.format == "json":
        rows = [{
            "name": t.name, "group": t.group, "action": t.action, "d": t.d,
            "n": t.n_expr, "multiplicities": list(t.multiplicity_exprs),
            "params": [{"name": n, "min": lo, "default": df}
                       for n, lo, df in t.param_specs],
            "bounds": list(t.bounds),
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
        bundle = build_bundle(case)
        doc = bundle_to_json(bundle)
        safe = case.label.replace("(", "_").replace(")", "").replace(",", "_")
        path = out_dir / f"{safe}.bundle.json"
        write_json_atomic(path, doc)
        if args.format == "text":
            print(f"# {case.label}")
            for j, a in enumerate(bundle.a_coeffs):
                print(f"A{j} = {a.to_text()}")
            for j, c in enumerate(bundle.c_coeffs):
                print(f"C{j} = {c.to_text()}")
        print(f"wrote {path}")
    return EXIT_OK


def _certify_one(payload):
    case, precision_bits, out_dir = payload
    certificate = certify_case(case, precision_bits)
    path = write_certificate(certificate, out_dir)
    return certificate, str(path)


def _cmd_certify(args) -> int:
    cases = _select_cases(args.case, _parse_params(args.param))
    out_dir = _out_dir(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payloads = [(case, args.precision_bits, out_dir) for case in cases]
    if args.jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_certify_one, payloads))
    else:
        results = [_certify_one(p) for p in payloads]
    print(f"{'case':<16} {'d':>2} {'degree':>7} {'expected':>8} "
          f"{'roots':>5} {'minimal':>7}  conclusion")
    failures = 0
    for certificate, path in results:
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
    (case,) = _select_cases(args.case, _parse_params(args.param), allow_all=False)
    cfg = IntegratorConfig(step=args.step_size, max_steps=args.steps,
                           wall_epsilon=args.wall_epsilon, mode=args.mode)
    init = state_from_angle(args.x0, args.y0, args.angle)
    trajectory = integrate_curve(init, cfg, case)
    if args.out == "-":
        trajectory.write_csv(sys.stdout)
    else:
        out = Path(args.out) if args.out else _out_dir(None) / f"{case.name}.trajectory.csv"
        out.parent.mkdir(parents=True, exist_ok=True)
        trajectory.write_csv(str(out))
        print(f"wrote {out}")
    print(f"steps={len(trajectory.states) - 1} stop={trajectory.stop_reason} "
          f"max|f|={trajectory.max_abs_f:.3e} speed_drift={trajectory.speed_drift:.3e}")
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
    except (RegistryError, BoundError, BoundaryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except PipelineError as exc:
        print(f"pipeline invariant violated: {exc}", file=sys.stderr)
        return EXIT_PIPELINE_ERROR


if __name__ == "__main__":
    sys.exit(main())
