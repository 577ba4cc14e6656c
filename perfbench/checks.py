"""Independent checks of chamberlab's outputs; each returns a list of problems.

The certificate check shares no code with the program's resultant: it
evaluates the coefficient polynomials at each exact sample point and takes
the determinant of the numeric Sylvester matrix by plain Gaussian
elimination over the field.
"""

from __future__ import annotations

import math

from chamberlab.field import FieldScalar, parse_rational
from chamberlab.poly import SpatialPoly


def field_determinant(matrix: list[list[FieldScalar]]) -> FieldScalar:
    """Determinant by Gaussian elimination with exact field division."""
    m = [row[:] for row in matrix]
    n = len(m)
    det = FieldScalar(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if not m[i][k].is_zero), None)
        if pivot_row is None:
            return FieldScalar(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        pivot = m[k][k]
        det = det * pivot
        inv = pivot.inverse()
        for i in range(k + 1, n):
            factor = m[i][k] * inv
            if factor.is_zero:
                continue
            for j in range(k + 1, n):
                m[i][j] = m[i][j] - factor * m[k][j]
    return det


def numeric_sylvester(pa: list[FieldScalar], pc: list[FieldScalar]) -> list[list[FieldScalar]]:
    """Sylvester matrix of two numeric coefficient lists (low to high).

    Same layout as the program's: deg(pa) rows of pc's coefficients first,
    then deg(pc) rows of pa's, each highest coefficient first.
    """
    deg_a, deg_c = len(pa) - 1, len(pc) - 1
    size = deg_a + deg_c
    zero = FieldScalar(0)
    rows = []
    for shift in range(deg_a):
        rows.append([zero] * shift + pc[::-1] + [zero] * (size - shift - deg_c - 1))
    for shift in range(deg_c):
        rows.append([zero] * shift + pa[::-1] + [zero] * (size - shift - deg_a - 1))
    return rows


def check_certificate(cert: dict, a_coeffs, c_coeffs) -> list[str]:
    """Conclusion, degree 27(d-1), and every exact sample against the reference."""
    problems = []
    expected = 27 * (cert["d"] - 1)
    if cert["conclusion"] != "nonexistence-certified":
        problems.append(f"conclusion is {cert['conclusion']!r}")
    if cert["resultant_degree"] != expected:
        problems.append(f"resultant degree {cert['resultant_degree']} != 27(d-1) = {expected}")
    if expected > 0 and not cert["exact_samples"]:
        problems.append("no exact samples to recheck")
    trimmed = cert["trimmed_leading_pairs"]
    for sample in cert["exact_samples"]:
        px = FieldScalar(parse_rational(sample["x"]))
        py = FieldScalar(parse_rational(sample["y"]))
        pa = [p.eval_exact(px, py) for p in a_coeffs]
        pc = [p.eval_exact(px, py) for p in c_coeffs]
        for _ in range(trimmed):
            if not (pa[-1].is_zero and pc[-1].is_zero):
                problems.append("a trimmed leading pair is nonzero")
            pa.pop()
            pc.pop()
        value = field_determinant(numeric_sylvester(pa, pc))
        recorded = FieldScalar.from_text(sample["value"])
        if value != recorded:
            problems.append(f"resultant at ({sample['x']}, {sample['y']}): certificate "
                            f"{sample['value']} but the numeric determinant is {value.to_text()}")
        if value.is_zero:
            problems.append(f"sample ({sample['x']}, {sample['y']}) does not witness nonvanishing")
    return problems


def check_bundle_doc(doc: dict) -> list[str]:
    """Degree table, and qd and volume_sq against products of the walls at a point."""
    problems = []
    d = doc["d"]
    degrees = doc["degrees"]
    if degrees["qd"] != d:
        problems.append(f"qd degree {degrees['qd']} != d = {d}")
    for key, want in (("a", 3 * (d - 1)), ("c", 4 * (d - 1))):
        wrong = [deg for deg in degrees[key] if deg not in (want, "zero")]
        if wrong:
            problems.append(f"{key} degrees {degrees[key]} != {want}")
    px, py = FieldScalar(3), FieldScalar(2)
    walls = [SpatialPoly.from_json(w).eval_exact(px, py) for w in doc["walls"]]
    qd = FieldScalar(1)
    volume_sq = FieldScalar(1)
    for w, m in zip(walls, doc["multiplicities"]):
        qd = qd * w
        volume_sq = volume_sq * w ** (2 * m)
    if SpatialPoly.from_json(doc["qd"]).eval_exact(px, py) != qd:
        problems.append("qd(3, 2) is not the product of the walls")
    if SpatialPoly.from_json(doc["volume_sq"]).eval_exact(px, py) != volume_sq:
        problems.append("volume_sq(3, 2) is not the product of the walls^(2m)")
    return problems


# Bounds for the float laboratory.  Runs of the seed code stay at least 50
# times below each of them, so only a real change in the numerics trips one.
SPEED_DRIFT_MAX = 1e-9
RESIDUAL_REL_MAX = 1e-4
NORMAL_RESIDUAL_REL_MAX = 1e-3
MINIMAL_F_REL_MAX = 1e-5
LAPLACIAN_REL_MAX = 1e-3


def check_trajectory(trajectory, steps: int, minimal: bool, dof: int) -> list[str]:
    """No wall stop, unit speed, f = 0 on minimal curves, and on candidate
    curves the cubic form agreeing with the finite-difference normal equation.

    `dof` is n - 1, the number of principal curvatures with multiplicity;
    sqrt(dof * |A|^2) bounds |f| and sets the scale of the f test.
    """
    problems = []
    if trajectory.stop_reason != "max_steps" or len(trajectory.states) != steps + 1:
        problems.append(f"stopped early: {trajectory.stop_reason} after "
                        f"{len(trajectory.states) - 1} steps")
    if not trajectory.speed_drift < SPEED_DRIFT_MAX:
        problems.append(f"speed drift {trajectory.speed_drift:.3e}")
    if minimal:
        scale = max(math.sqrt(dof * row[6]) for row in trajectory.rows)
        if not trajectory.max_abs_f <= MINIMAL_F_REL_MAX * scale:
            problems.append(f"minimal curve has max|f| {trajectory.max_abs_f:.3e} "
                            f"at scale {scale:.3e}")
    else:
        pairs = trajectory.residual_pairs
        sup = max(max(abs(a), abs(b)) for a, b in pairs)
        diff = max(abs(a - b) for a, b in pairs)
        if not diff <= RESIDUAL_REL_MAX * sup:
            problems.append(f"res_poly/res_ode disagree: {diff:.3e} of {sup:.3e}")
    return problems


def check_state(residual: tuple[float, float], scalars: tuple[float, float, float],
                minimal: bool, dof: int) -> list[str]:
    """normal_residual's two routes agree; geometric_scalars obey |f|^2 <= dof*|A|^2,
    and on a minimal curve the laplacian of f = 0 vanishes."""
    problems = []
    poly_value, ode_value = residual
    if not abs(poly_value - ode_value) <= NORMAL_RESIDUAL_REL_MAX * max(abs(poly_value),
                                                                        abs(ode_value)):
        problems.append(f"normal_residual routes disagree: {poly_value!r} vs {ode_value!r}")
    f, a2, laplacian = scalars
    if not f * f <= dof * a2 * (1 + 1e-12):
        problems.append(f"f^2 = {f * f!r} exceeds (n-1)|A|^2 = {dof * a2!r}")
    if minimal and not abs(laplacian) <= LAPLACIAN_REL_MAX * max(a2, 1.0):
        problems.append(f"laplacian of f = {laplacian!r} on a minimal curve")
    return problems
