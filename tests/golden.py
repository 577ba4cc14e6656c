"""Golden certificate, hash and trajectory fixtures, and the script that makes them.

The tests import the helpers below.  To regenerate the fixtures, run from the
repository root:

    PYTHONPATH=src python tests/golden.py

This writes ``tests/fixtures/certificates/<label>.certificate.json`` for
every registry row at its default parameters, with the volatile fields
``duration_ms`` and ``created_utc`` removed, and
``tests/fixtures/resultant_sha256.json``, which maps each case label to the
SHA-256 of ``json.dumps(report.poly.to_json())``, and
``tests/fixtures/bundle_sha256.json``, which maps each case label to the
SHA-256 of its bundle file as ``chamberlab derive`` writes it, and
``tests/fixtures/trajectory_sha256.json``, which maps ``<label>/<mode>`` to
the SHA-256 of the CSV of a short RK4 curve (:func:`trajectory_csv`) for each
of the lab rows SOpxSOq, SU3, SO5 and G2 in both modes.  The lab's float
coefficients come from ``to_float`` (mpmath at 53 bits), so the trajectory
hashes do not depend on the rational backend.  The tests compare the current
code against these files, so regenerate only when a change of output is
intended.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
from pathlib import Path

from chamberlab import certify
from chamberlab.cases import default_cases, registry_case
from chamberlab.numerics import MODES, IntegratorConfig, integrate_curve, state_from_angle
from chamberlab.reduction import build_bundle, bundle_to_json

FIXTURES = Path(__file__).resolve().parent / "fixtures"
CERTIFICATES = FIXTURES / "certificates"
RESULTANT_HASHES = FIXTURES / "resultant_sha256.json"
BUNDLE_HASHES = FIXTURES / "bundle_sha256.json"
TRAJECTORY_HASHES = FIXTURES / "trajectory_sha256.json"
TRAJECTORY_ROWS = ("SOpxSOq", "SU3", "SO5", "G2")
TRAJECTORY_STEPS = 1000
VOLATILE = ("duration_ms", "created_utc")


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


def resultant_sha256(poly) -> str:
    return hashlib.sha256(json.dumps(poly.to_json()).encode("utf-8")).hexdigest()


def bundle_sha256(bundle) -> str:
    """SHA-256 of the bundle file text that ``chamberlab derive`` writes."""
    text = json.dumps(bundle_to_json(bundle), indent=1, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trajectory_csv(case, mode: str) -> str:
    """CSV text of a 1000-step curve from a fixed interior start.

    The start lies at radius 3 and polar angle 0.45 pi/d, at least 0.15 pi/d
    from every wall; the curve runs 0.1 in arclength and stays inside.
    """
    sigma = 0.45 * math.pi / case.d
    init = state_from_angle(3.0 * math.cos(sigma), 3.0 * math.sin(sigma), 0.7)
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
            hashes[f"{case.label}/{mode}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return hashes


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
        hashes[case.label] = resultant_sha256(reports[-1].poly)
        bundle_hashes[case.label] = bundle_sha256(build_bundle(case))
        print(f"{case.label}: {certificate['conclusion']}", file=sys.stderr)
    _write_hashes(RESULTANT_HASHES, hashes)
    _write_hashes(BUNDLE_HASHES, bundle_hashes)
    _write_hashes(TRAJECTORY_HASHES, trajectory_hashes())
    return 0


if __name__ == "__main__":
    sys.exit(main())
