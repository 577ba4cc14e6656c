"""Golden certificate, hash and trajectory fixtures, and the script that makes them.

The tests import the helpers below.  To regenerate the fixtures, run from the
repository root:

    PYTHONPATH=src python tests/golden.py

This writes ``tests/fixtures/certificates/<label>.certificate.json`` for
every registry row at its default parameters, with the volatile fields
``duration_ms`` and ``created_utc`` removed, and the same for the
parametric instances PARAMETRIC_ROWS in
``tests/fixtures/parametric_certificates/``, and
``tests/fixtures/resultant_sha256.json``, which maps each case label to the
SHA-256 of the JSON rows of its resultant (:func:`resultant_sha256`), and
``tests/fixtures/bundle_sha256.json``, which maps each case label to the
SHA-256 of its bundle file as ``chamberlab derive`` writes it, and
``tests/fixtures/parametric_bundle_sha256.json``, the same for
PARAMETRIC_ROWS, and ``tests/fixtures/grid_bundle_sha256.json``, the same
for the 208 cases of ``grid.multiplicity_grid`` keyed by ``grid.grid_key``,
and ``tests/fixtures/grid_certificate_sha256.json``, the SHA-256 of
:func:`stable_certificate_text` of each of those 208 certificates, by the
same key, and ``tests/fixtures/derive_text_sha256.json``, the SHA-256
of the stdout of ``chamberlab derive --case all --format text --out bundles``
run in an empty directory (:func:`derive_text_stdout`), and
``tests/fixtures/trajectory_sha256.json``, which maps ``<label>/<mode>`` to
the SHA-256 of the CSV of a short RK4 curve (:func:`trajectory_csv`) for each
of the lab rows SOn-1, SOpxSOq, SU3, SO5 and G2 (chamber types d = 1, 2, 3, 4
and 6) in both modes, and
``tests/fixtures/wall_stop.json``, which pins the CSV hash, stop reason and
state count of a curve of each lab row and mode that runs into the chamber's
vertex (:func:`wall_stop_curves`), and ``tests/fixtures/lab_pointwise.json``,
the ``repr`` of ``normal_residual`` and ``geometric_scalars`` at three fixed
states of each lab row (:func:`pointwise_reprs`).  The lab's float
constants are each the double nearest the exact value: the correctly rounded
quotient of a rational coefficient, and ``math.sqrt(k) / 2`` for each +-sqrt(k)/2
of the one wall table ``CaseLab.trig``, which gives the walls' coefficients and
the wall curvatures' (sin, cos), and every start state is a literal double.
So these lab fixtures pin the kernels' float arithmetic alone, on any libm.
The tests compare the current code against these files, so regenerate only
when a change of output is intended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from chamberlab import certify
from chamberlab.cases import default_cases, registry_case
from chamberlab.cli import main as cli_main
from chamberlab.numerics import (
    MODES,
    CurveState,
    IntegratorConfig,
    geometric_scalars,
    integrate_curve,
    normal_residual,
)
from chamberlab.poly import Form
from chamberlab.reduction import build_bundle, bundle_to_json
from grid import grid_key, multiplicity_grid

FIXTURES = Path(__file__).resolve().parent / "fixtures"
CERTIFICATES = FIXTURES / "certificates"
PARAMETRIC_CERTIFICATES = FIXTURES / "parametric_certificates"
RESULTANT_HASHES = FIXTURES / "resultant_sha256.json"
BUNDLE_HASHES = FIXTURES / "bundle_sha256.json"
PARAMETRIC_BUNDLE_HASHES = FIXTURES / "parametric_bundle_sha256.json"
GRID_BUNDLE_HASHES = FIXTURES / "grid_bundle_sha256.json"
GRID_CERTIFICATE_HASHES = FIXTURES / "grid_certificate_sha256.json"
DERIVE_TEXT_HASH = FIXTURES / "derive_text_sha256.json"
# The command whose stdout DERIVE_TEXT_HASH pins; its relative --out makes the
# "wrote" lines independent of where it runs.
DERIVE_TEXT_ARGS = ("derive", "--case", "all", "--format", "text", "--out", "bundles")
TRAJECTORY_HASHES = FIXTURES / "trajectory_sha256.json"
WALL_STOPS = FIXTURES / "wall_stop.json"
POINTWISE = FIXTURES / "lab_pointwise.json"
TRAJECTORY_ROWS = ("SOn-1", "SOpxSOq", "SU3", "SO5", "G2")
TRAJECTORY_STEPS = 1000
# The lab fixtures' start states are literal doubles, so that the fixtures
# hold on any libm: each is float.hex of the value that glibc's cos and sin
# give for the geometry named above its table.  Unit tangents (cos a, sin a)
# by tangent angle a:
TANGENTS = {
    0.7: ("0x1.87996529f9d93p-1", "0x1.49d6e694619b8p-1"),
    2.0: ("-0x1.aa22657537205p-2", "0x1.d18f6ead1b446p-1"),
    -1.0: ("0x1.14a280fb5068cp-1", "-0x1.aed548f090ceep-1"),
}
# (3 cos s, 3 sin s) at s = 0.45 pi/d, by chamber type d: trajectory_csv's
# start, heading at the tangent angle 0.7.
TRAJECTORY_STARTS = {
    1: ("0x1.e09111b7c7d32p-2", "0x1.7b45b6f23eb45p+1"),
    2: ("0x1.23fef2b2e734ep+1", "0x1.f2c6ae9016665p+0"),
    3: ("0x1.5625815ede152p+1", "0x1.5caa2a073a680p+0"),
    4: ("0x1.6843f609c434bp+1", "0x1.09d161e234f06p+0"),
    6: ("0x1.7563da47954dap+1", "0x1.669273c2fbcd8p-1"),
}
# (0.2 cos s, 0.2 sin s, cos(s + pi), sin(s + pi)) at s = 0.5 pi/d, by d:
# wall_stop_curves' start on the chamber's bisector, heading for the origin.
WALL_STOP_STARTS = {
    1: ("0x1.c3d09eb53c672p-57", "0x1.999999999999ap-3",
        "-0x1.a79394c9e8a0ap-53", "-0x1.0000000000000p+0"),
    2: ("0x1.21a1851ff630bp-3", "0x1.21a1851ff630ap-3",
        "-0x1.6a09e667f3bcep-1", "-0x1.6a09e667f3bccp-1"),
    3: ("0x1.62b9586ad0a23p-3", "0x1.9999999999999p-4",
        "-0x1.bb67ae8584cacp-1", "-0x1.ffffffffffffbp-2"),
    4: ("0x1.7a6bca5c20a9fp-3", "0x1.397e885588783p-4",
        "-0x1.d906bcf328d47p-1", "-0x1.87de2a6aea961p-2"),
    6: ("0x1.8ba4a9f6d65abp-3", "0x1.a80c935b80a80p-5",
        "-0x1.ee8dd4748bf15p-1", "-0x1.0907dc1930691p-2"),
}
# (r cos s, r sin s, a) at (r, s, a) = (1, 0.3 pi/d, 0.7), (2, 0.5 pi/d, 2.0)
# and (3, 0.7 pi/d, -1.0), by d: the states that pointwise_reprs samples.
POINTWISE_STATES = {
    1: (("0x1.2cf2304755a5ep-1", "0x1.9e3779b97f4a8p-1", 0.7),
        ("0x1.1a62633145c07p-53", "0x1.0000000000000p+1", 2.0),
        ("-0x1.c36b486b0078cp+0", "0x1.36a99b4b1f77ep+1", -1.0)),
    2: (("0x1.c83201d3d2c6dp-1", "0x1.d0e2e2b44de00p-2", 0.7),
        ("0x1.6a09e667f3bcdp+0", "0x1.6a09e667f3bccp+0", 2.0),
        ("0x1.5caa2a073a681p+0", "0x1.5625815ede151p+1", -1.0)),
    3: (("0x1.e6f0e134454ffp-1", "0x1.3c6ef372fe94fp-2", 0.7),
        ("0x1.bb67ae8584cabp+0", "0x1.fffffffffffffp-1", 2.0),
        ("0x1.1d5e1be26cf12p+1", "0x1.00f23712988e2p+1", -1.0)),
    4: (("0x1.f1da785f71bcep-1", "0x1.de189a594fbcbp-3", 0.7),
        ("0x1.d906bcf328d46p+0", "0x1.87de2a6aea963p-1", 2.0),
        ("0x1.4769f04fbc3f0p+1", "0x1.914765d6fc5eap+0", -1.0)),
    6: (("0x1.f9b24942fe45cp-1", "0x1.4060b67a85375p-3", 0.7),
        ("0x1.ee8dd4748bf15p+0", "0x1.0907dc1930690p-1", 2.0),
        ("0x1.667eb0b3fca04p+1", "0x1.133a017db1e6dp+0", -1.0)),
}
# The planar curvature that pointwise_reprs passes.
POINTWISE_KD = 0.25
VOLATILE = ("duration_ms", "created_utc")
# Parametric instances beyond the defaults: the rows the benchmark's sweep
# draws at seeds 1, 7 and 19 (SOn-1 at n = 5 has a vanishing quintic).  They
# reach wide root intervals (Sp2xSpm) and high multiplicities.
PARAMETRIC_ROWS = (
    ("SOn-1", {"n": 5}), ("SOn-1", {"n": 11}), ("SOn-1", {"n": 23}),
    ("SOpxSOq", {"p": 11, "q": 27}), ("SOpxSOq", {"p": 35, "q": 9}),
    ("SOpxSOq", {"p": 38, "q": 6}),
    ("Sp2xSpm", {"m": 5}), ("Sp2xSpm", {"m": 18}), ("Sp2xSpm", {"m": 34}),
)


def stable_certificate_text(certificate: dict) -> str:
    """The certificate as write_certificate lays it out, minus volatile fields."""
    stable = {k: v for k, v in certificate.items() if k not in VOLATILE}
    return json.dumps(stable, indent=1, sort_keys=True) + "\n"


def without_volatile_lines(text: str) -> str:
    """A written certificate file with its top-level volatile lines removed.

    Neither volatile key sorts last, so what remains is exactly
    :func:`stable_certificate_text` of the same certificate.
    """
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(tuple(f' "{k}": ' for k in VOLATILE)))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def certificate_sha256(certificate: dict) -> str:
    """SHA-256 of :func:`stable_certificate_text`."""
    return _sha256(stable_certificate_text(certificate))


def resultant_sha256(report) -> str:
    """SHA-256 of ``json.dumps`` of the resultant's JSON rows, written from
    the report's coefficient list."""
    return _sha256(json.dumps(Form([report.coeffs], report.scale).rows()))


def bundle_sha256(bundle) -> str:
    """SHA-256 of the bundle file text that ``chamberlab derive`` writes."""
    return _sha256(json.dumps(bundle_to_json(bundle), indent=1, sort_keys=True) + "\n")


def grid_bundle_hashes() -> dict[str, str]:
    """:func:`bundle_sha256` of every multiplicity-grid case, by its grid_key."""
    return {grid_key(case): bundle_sha256(build_bundle(case)) for case in multiplicity_grid()}


def certificate_hashes(cases) -> dict[str, str]:
    """:func:`certificate_sha256` of each case's certificate, by its grid_key."""
    return {grid_key(case): certificate_sha256(certify.certify_case(case)) for case in cases}


def derive_text_stdout() -> str:
    """stdout of ``chamberlab`` with DERIVE_TEXT_ARGS, run in an empty
    temporary directory; raises unless the command exits 0."""
    cwd = os.getcwd()
    buffer = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli_main(list(DERIVE_TEXT_ARGS))
        finally:
            os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"chamberlab {' '.join(DERIVE_TEXT_ARGS)} exited {code}")
    return buffer.getvalue()


def derive_text_hashes() -> dict[str, str]:
    """The SHA-256 of :func:`derive_text_stdout`, keyed by its command line."""
    return {" ".join(DERIVE_TEXT_ARGS): _sha256(derive_text_stdout())}


def start_state(x: str, y: str, xd: str, yd: str) -> CurveState:
    """The state at arclength 0 with these coordinates, each a float.hex string."""
    return CurveState(0.0, *map(float.fromhex, (x, y, xd, yd)))


def trajectory_csv(case, mode: str) -> str:
    """CSV text of a 1000-step curve from a fixed interior start.

    The start, TRAJECTORY_STARTS[d], lies at radius 3 and polar angle
    0.45 pi/d, at least 0.15 pi/d from every wall; the curve runs 0.1 in
    arclength and stays inside.
    """
    init = start_state(*TRAJECTORY_STARTS[case.d], *TANGENTS[0.7])
    cfg = IntegratorConfig(step=1e-4, max_steps=TRAJECTORY_STEPS, mode=mode)
    buffer = io.StringIO()
    integrate_curve(init, cfg, case).write_csv(buffer)
    return buffer.getvalue()


def trajectory_hashes() -> dict[str, str]:
    """SHA-256 of :func:`trajectory_csv` for every lab row and mode."""
    hashes = {}
    for name in TRAJECTORY_ROWS:
        case = registry_case(name)
        for mode in MODES:
            text = trajectory_csv(case, mode)
            hashes[f"{case.label}/{mode}"] = _sha256(text)
    return hashes


def wall_stop_curves() -> dict[str, dict]:
    """CSV hash, stop reason and state count of a curve that stops at a wall.

    For every lab row and mode the curve starts at WALL_STOP_STARTS[d], at
    radius 0.2 on the chamber's bisector, and heads for the origin, where all
    walls meet, with step 1e-3: it stops at the boundary after about 200
    steps, well before max_steps.
    """
    out = {}
    for name in TRAJECTORY_ROWS:
        case = registry_case(name)
        init = start_state(*WALL_STOP_STARTS[case.d])
        for mode in MODES:
            cfg = IntegratorConfig(step=1e-3, max_steps=400, mode=mode)
            trajectory = integrate_curve(init, cfg, case)
            buffer = io.StringIO()
            trajectory.write_csv(buffer)
            out[f"{case.label}/{mode}"] = {"sha256": _sha256(buffer.getvalue()),
                                           "stop_reason": trajectory.stop_reason,
                                           "states": len(trajectory.states)}
    return out


def pointwise_reprs() -> dict[str, dict]:
    """``repr`` of the pointwise oracles at POINTWISE_STATES of every lab row.

    normal_residual at its default difference step, and geometric_scalars in
    each mode with kd = POINTWISE_KD; keys are ``<label>/<state index>``.
    """
    out = {}
    for name in TRAJECTORY_ROWS:
        case = registry_case(name)
        for index, (x, y, angle) in enumerate(POINTWISE_STATES[case.d]):
            st = start_state(x, y, *TANGENTS[angle])
            entry = {"normal_residual": repr(normal_residual(st, case))}
            for mode in MODES:
                entry[f"geometric_scalars/{mode}"] = repr(
                    geometric_scalars(st, case, POINTWISE_KD, mode=mode))
            out[f"{case.label}/{index}"] = entry
    return out


def _write_hashes(path: Path, hashes: dict) -> None:
    path.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def main() -> int:
    reports = []
    compute = certify.compute_resultant

    def recording(bundle):
        report = compute(bundle)
        reports.append(report)
        return report

    certify.compute_resultant = recording
    hashes = {}
    bundle_hashes = {}
    CERTIFICATES.mkdir(parents=True, exist_ok=True)
    for case in default_cases():
        certificate = certify.certify_case(case)
        path = certify.write_certificate(certificate, CERTIFICATES)
        path.write_text(stable_certificate_text(certificate), encoding="utf-8")
        hashes[case.label] = resultant_sha256(reports[-1])
        bundle_hashes[case.label] = bundle_sha256(build_bundle(case))
        print(f"{case.label}: {certificate['conclusion']}", file=sys.stderr)
    PARAMETRIC_CERTIFICATES.mkdir(parents=True, exist_ok=True)
    parametric_bundle_hashes = {}
    for name, params in PARAMETRIC_ROWS:
        case = registry_case(name, params)
        certificate = certify.certify_case(case)
        path = certify.output_path(PARAMETRIC_CERTIFICATES, certificate["label"], "certificate")
        path.write_text(stable_certificate_text(certificate), encoding="utf-8")
        parametric_bundle_hashes[case.label] = bundle_sha256(build_bundle(case))
    _write_hashes(RESULTANT_HASHES, hashes)
    _write_hashes(BUNDLE_HASHES, bundle_hashes)
    _write_hashes(PARAMETRIC_BUNDLE_HASHES, parametric_bundle_hashes)
    _write_hashes(GRID_BUNDLE_HASHES, grid_bundle_hashes())
    _write_hashes(GRID_CERTIFICATE_HASHES, certificate_hashes(multiplicity_grid()))
    _write_hashes(DERIVE_TEXT_HASH, derive_text_hashes())
    _write_hashes(TRAJECTORY_HASHES, trajectory_hashes())
    _write_hashes(WALL_STOPS, wall_stop_curves())
    _write_hashes(POINTWISE, pointwise_reprs())
    return 0


if __name__ == "__main__":
    sys.exit(main())
