"""Exact certificates and a numeric laboratory for invariant profile curves.

The package reduces the geometry of isometry-group-invariant hypersurfaces to
exact polynomial data over the planar orbit space: wall forms with
coefficients +-sqrt(k)/2 from an integer sin**2 table, and rational volume
and coefficient polynomials derived from that table in Q alone on dense
integer lists, the curvature sum and its arclength derivatives as lists of
them, Sylvester resultants by the subresultant remainder sequence on
Kronecker-packed integers, machine-readable per-case nonexistence
certificates, and an RK4 profile-curve integrator that cross-validates the
symbolic pipeline.

The Q(sqrt2, sqrt3) types, which only views build, are not exported here:
``FieldScalar``, ``SpatialPoly`` and ``build_walls`` live in :mod:`.field`,
:mod:`.poly` and :mod:`.reduction`.
"""

from .cases import CaseSpec, default_cases, instantiate_case, load_registry, \
    registry_case, validate_case
from .certify import certify_case, chamber_root_scan, compute_resultant, \
    expected_resultant_degree
from .errors import ChamberlabError
from .field import Rat
from .reduction import ReductionBundle, build_bundle, verify_reference_example
from .resultant import sylvester_resultant

__version__ = "0.1.0"

# The float lab's names, imported from :mod:`.numerics` on first use
# (PEP 562), so the commands that integrate no curve do not load it.
_NUMERICS = ("CurveState", "IntegratorConfig", "MODE_CANDIDATE", "MODE_MINIMAL",
             "geometric_scalars", "integrate_curve", "normal_residual",
             "principal_curvatures", "state_from_angle", "step_candidate", "step_minimal")


def __getattr__(name: str):
    if name in _NUMERICS:
        from . import numerics
        return getattr(numerics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CaseSpec", "ChamberlabError", "CurveState",
    "IntegratorConfig", "MODE_CANDIDATE", "MODE_MINIMAL", "Rat",
    "ReductionBundle", "build_bundle",
    "certify_case", "chamber_root_scan", "compute_resultant",
    "default_cases", "expected_resultant_degree",
    "geometric_scalars", "instantiate_case", "integrate_curve",
    "load_registry", "normal_residual", "principal_curvatures", "registry_case",
    "state_from_angle", "step_candidate", "step_minimal", "sylvester_resultant",
    "validate_case", "verify_reference_example",
]
