"""Exact certificates and a numeric laboratory for invariant profile curves.

The package reduces the geometry of isometry-group-invariant hypersurfaces to
exact polynomial data over the planar orbit space: wall forms and volume
polynomials over Q(sqrt2, sqrt3), a formal arclength differentiation engine,
Sylvester resultants by fraction-free elimination over Z[u], machine-readable
per-case nonexistence certificates, and an RK4 profile-curve integrator that
cross-validates the symbolic pipeline.
"""

from .cases import CaseSpec, default_cases, instantiate_case, load_registry, \
    registry_case, validate_case
from .certify import certify_case, chamber_root_scan, classify_line_minimality, \
    compute_resultant, expected_resultant_degree, minimal_line_angles
from .errors import ChamberlabError
from .field import FieldScalar, Rat, embed_real, to_float, trig_pair
from .numerics import CurveState, IntegratorConfig, MODE_CANDIDATE, MODE_MINIMAL, \
    geometric_scalars, integrate_curve, normal_residual, principal_curvatures, \
    state_from_angle, step_candidate, step_minimal
from .poly import ReducedExpr, SpatialPoly, VelocityForm, arc_derivative
from .reduction import ReductionBundle, build_bundle, build_walls, \
    verify_reference_example
from .resultant import determinant_bareiss, sylvester_resultant

__version__ = "0.1.0"

__all__ = [
    "CaseSpec", "ChamberlabError", "CurveState", "FieldScalar",
    "IntegratorConfig", "MODE_CANDIDATE", "MODE_MINIMAL", "Rat", "ReducedExpr",
    "ReductionBundle", "SpatialPoly", "VelocityForm", "arc_derivative",
    "build_bundle", "build_walls", "certify_case",
    "chamber_root_scan", "classify_line_minimality", "compute_resultant",
    "default_cases", "determinant_bareiss",
    "embed_real", "expected_resultant_degree",
    "geometric_scalars", "instantiate_case", "integrate_curve",
    "load_registry", "minimal_line_angles", "normal_residual",
    "principal_curvatures", "registry_case", "state_from_angle",
    "step_candidate", "step_minimal", "sylvester_resultant", "to_float",
    "trig_pair", "validate_case", "verify_reference_example",
]
