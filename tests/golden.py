"""Golden certificate and resultant-hash fixtures, and the script that makes them.

The tests import the helpers below.  To regenerate the fixtures, run from the
repository root:

    PYTHONPATH=src python tests/golden.py

This writes ``tests/fixtures/certificates/<label>.certificate.json`` for
every registry row at its default parameters, with the volatile fields
``duration_ms`` and ``created_utc`` removed, and
``tests/fixtures/resultant_sha256.json``, which maps each case label to the
SHA-256 of ``json.dumps(report.poly.to_json())``.  The tests compare the
current code against these files, so regenerate only when a change of output
is intended.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from chamberlab import certify
from chamberlab.cases import default_cases

FIXTURES = Path(__file__).resolve().parent / "fixtures"
CERTIFICATES = FIXTURES / "certificates"
RESULTANT_HASHES = FIXTURES / "resultant_sha256.json"
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


def main() -> int:
    reports = []
    compute = certify.compute_resultant

    def recording(bundle):
        report = compute(bundle)
        reports.append(report)
        return report

    certify.compute_resultant = recording
    hashes = {}
    CERTIFICATES.mkdir(parents=True, exist_ok=True)
    for case in default_cases():
        certificate = certify.certify_case(case)
        path = certify.write_certificate(certificate, CERTIFICATES)
        path.write_text(stable_certificate_text(certificate), encoding="utf-8")
        hashes[case.label] = resultant_sha256(reports[-1].poly)
        print(f"{case.label}: {certificate['conclusion']}", file=sys.stderr)
    RESULTANT_HASHES.write_text(
        json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
