"""One benchmark worker: a fresh interpreter that sets up, runs a workload's
batch, and checks what the batch produced.

perfbench/run.py starts it from the checkout root as

    python3 perfbench/worker.py REQUEST

with src/ on PYTHONPATH.  REQUEST is a JSON object with the keys workload,
seed, role ("setup" or "batch"), untraced, traced, budget_s, spawn_t, tmp
and trace.
The worker prints one JSON line with its measurements as its last output.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibration
from checks import check_bundle_doc, check_certificate, check_state, check_trajectory
from tracing import Tracer

# One registry row per chamber type d.  The full `certify --case all` sweep
# takes about 90 s on a 2-vCPU VM, more than one run may spend; G2 keeps the
# largest resultant in the batch and the three parametric rows take seeded
# parameters.
SWEEP_ROWS = ("SOn-1", "SOpxSOq", "SU3", "Sp2xSpm", "G2")
# d = 2, 3, 4, 6; SOpxSOq takes seeded parameters.
LAB_ROWS = ("SOpxSOq", "SU3", "SO5", "G2")
PARAM_MAX = 40
# Curves start at radius >= 3 and polar angle within 0.3..0.7 of the chamber,
# at least 0.47 from every wall, and run 0.25 in arclength: none reaches a wall.
CURVE_STEPS = 2500
CURVE_STEP = 1e-4
SAMPLED_STATES = (0.2, 0.4, 0.6, 0.8)
# A case outside every seeded draw, so the probe never finds it cached.
PROBE_CASE = ("SOpxSOq", {"p": PARAM_MAX + 1, "q": PARAM_MAX + 1})
PROBE_STEPS = 1000
MICRO_MIN_S = 0.05
# Set-up is probed throughout, as a batch is, and for this long after it.
SETUP_PROBE_S = 0.1


class Context:
    """Inputs built in set-up plus the modules the batch calls through."""

    def __init__(self, request: dict, tracer: Tracer):
        from chamberlab import cases, certify, numerics, reduction

        self.cases, self.certify, self.numerics, self.reduction = cases, certify, numerics, reduction
        self.tracer = tracer
        self.registry = tracer.call("cases.load_registry", cases.load_registry)
        names = {"sweep": SWEEP_ROWS, "derive": None, "lab": LAB_ROWS}[request["workload"]]
        rng = random.Random(request["seed"])
        self.instances = []
        for template in self.registry:
            if names is not None and template.name not in names:
                continue
            params = {} if request["seed"] == 0 else {
                name: rng.randint(low, PARAM_MAX) for name, low, _ in template.param_specs}
            self.instances.append(tracer.call("cases.instantiate", cases.instantiate_case,
                                              template, params))
        self.curves = []
        if request["workload"] == "lab":
            for case in self.instances:
                tracer.call("reduction.build_bundle", reduction.build_bundle, case)
                tracer.call("numerics.lab_setup", numerics.get_lab, case)
                for mode in numerics.MODES:
                    sigma = rng.uniform(0.3, 0.7) * math.pi / case.d
                    radius = rng.uniform(3.0, 4.0)
                    init = numerics.state_from_angle(radius * math.cos(sigma),
                                                     radius * math.sin(sigma),
                                                     rng.uniform(0.0, 2 * math.pi))
                    self.curves.append((case, mode, init))

    def template(self, name):
        return next(t for t in self.registry if t.name == name)


class Rep:
    """One timed pass over the batch and what its checks found."""

    def __init__(self):
        self.op_s: list[float] = []
        self.probe_s: list[float] = []
        self.wall_s = 0.0
        self.units = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.failed_ops: set[str] = set()
        self.digests: dict[str, str] = {}

    def fail(self, op: str, problems: list[str]) -> None:
        if problems:
            self.failed_ops.add(op)
            self.problems.extend(f"{op}: {p}" for p in problems)

    def to_json(self) -> dict:
        return {"wall_s": self.wall_s, "op_s": self.op_s, "probe_s": self.probe_s,
                "units": self.units,
                "attempted": self.attempted, "failed": len(self.failed_ops),
                "problems": self.problems, "digests": self.digests}


def _timed_ops(rep: Rep, tracer: Tracer, ops):
    """Run (label, fn) pairs inside the workload span; each fn is one operation.

    An operation that raises is a failed operation; the batch goes on.  An
    untraced batch probes the host's speed throughout; the probes' time is
    taken out of every operation's.
    """
    outputs = {}
    with tracer.span("workload"), calibration.Sampler(not tracer.enabled) as sampler:
        for label, fn in ops:
            t0, probed = time.perf_counter(), sampler.spent
            try:
                with tracer.span("op", op=label):
                    outputs[label] = fn()
            except Exception:  # one broken case must not hide the others' numbers
                traceback.print_exc(file=sys.stderr)
                rep.fail(label, ["raised " + traceback.format_exc(limit=1).splitlines()[-1]])
            rep.op_s.append(time.perf_counter() - t0 - (sampler.spent - probed))
    rep.probe_s = sampler.times
    rep.wall_s = sum(rep.op_s)
    rep.attempted = len(ops)
    return outputs


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- workloads -----------------------------------------------------------------


def sweep(ctx: Context, tmp: Path) -> Rep:
    """certify_case and write_certificate per row, as `certify --case all` does."""
    rep, tracer, certify = Rep(), ctx.tracer, ctx.certify

    def certify_one(case):
        certificate = certify.certify_case(case)
        return tracer.call("certify.write", certify.write_certificate, certificate, tmp)

    ops = [(case.label, lambda case=case: certify_one(case)) for case in ctx.instances]
    paths = _timed_ops(rep, tracer, ops)
    rep.units = len(ops)
    for case in ctx.instances:
        if case.label not in paths:
            continue
        cert = json.loads(paths[case.label].read_text(encoding="utf-8"))
        bundle = ctx.reduction.build_bundle(case)
        rep.fail(case.label, check_certificate(cert, bundle.a_coeffs, bundle.c_coeffs))
        for volatile in ("duration_ms", "created_utc"):
            cert.pop(volatile)
        rep.digests[case.label] = hashlib.sha256(
            json.dumps(cert, sort_keys=True).encode()).hexdigest()
    return rep


def derive(ctx: Context, tmp: Path) -> Rep:
    """build_bundle, bundle_to_json and the JSON file per instance, as `derive` does,
    then verify_reference_example once."""
    rep, tracer, reduction = Rep(), ctx.tracer, ctx.reduction

    def derive_one(case):
        bundle = tracer.call("reduction.build_bundle", reduction.build_bundle, case)
        doc = tracer.call("reduction.bundle_to_json", reduction.bundle_to_json, bundle)
        path = tmp / f"{case.label}.bundle.json"
        with tracer.span("io.write_bundle"), path.open("w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path

    ops = [(case.label, lambda case=case: derive_one(case)) for case in ctx.instances]
    ops.append(("verify_reference", lambda: tracer.call(
        "reduction.verify_reference", reduction.verify_reference_example)))
    outputs = _timed_ops(rep, tracer, ops)
    rep.units = len(ctx.instances)
    for case in ctx.instances:
        path = outputs.get(case.label)
        if path is not None:
            rep.fail(case.label, check_bundle_doc(json.loads(path.read_text(encoding="utf-8"))))
            rep.digests[case.label] = _sha256(path)
    report = outputs.get("verify_reference")
    if report is not None and not report["passed"]:
        rep.fail("verify_reference", report["diffs"] or ["reference check failed"])
    return rep


def lab(ctx: Context, tmp: Path) -> Rep:
    """integrate_curve and write_csv per curve, plus the pointwise oracles at a
    few states of it."""
    rep, tracer, numerics = Rep(), ctx.tracer, ctx.numerics

    def run_curve(index, case, mode, init):
        cfg = numerics.IntegratorConfig(step=CURVE_STEP, max_steps=CURVE_STEPS, mode=mode)
        trajectory = tracer.call("numerics.integrate", numerics.integrate_curve, init, cfg, case)
        path = tmp / f"curve{index}.csv"
        tracer.call("numerics.write_csv", trajectory.write_csv, str(path))
        samples = [_sample_state(tracer, numerics, case, mode,
                                 trajectory.states[int(frac * CURVE_STEPS)])
                   for frac in SAMPLED_STATES]
        return trajectory, path, samples

    ops = [(f"{case.label}/{mode}", lambda i=i, c=case, m=mode, s=init: run_curve(i, c, m, s))
           for i, (case, mode, init) in enumerate(ctx.curves)]
    outputs = _timed_ops(rep, tracer, ops)
    rep.units = CURVE_STEPS * len(ops)
    for (label, _), (case, mode, _) in zip(ops, ctx.curves):
        if label not in outputs:
            continue
        trajectory, path, samples = outputs[label]
        minimal = mode == numerics.MODE_MINIMAL
        problems = check_trajectory(trajectory, CURVE_STEPS, minimal, case.n - 1)
        for residual, scalars in samples:
            problems += check_state(residual, scalars, minimal, case.n - 1)
        rep.fail(label, problems)
        rep.digests[label] = (f"{_sha256(path)} {trajectory.stop_reason} "
                              f"{len(trajectory.states) - 1}")
    return rep


def _sample_state(tracer, numerics, case, mode, state):
    """normal_residual and geometric_scalars at one state, with the mode's kd.

    Both difference at the integrator's step: at radius 3 to 4 the default
    1e-5 leaves rounding errors near 1e-3 in the second difference.
    """
    residual = tracer.call("numerics.normal_residual", numerics.normal_residual,
                           state, case, CURVE_STEP)
    walls = tracer.call("numerics.principal_curvatures", numerics.principal_curvatures,
                        state, case, 0.0)[:-1]
    r_value = sum(m * k for m, k in zip(case.multiplicities, walls))
    kd = -r_value if mode == numerics.MODE_MINIMAL else -r_value / 3.0
    scalars = tracer.call("numerics.geometric_scalars", numerics.geometric_scalars,
                          state, case, kd, mode, CURVE_STEP)
    return residual, scalars


WORKLOADS = {"sweep": sweep, "derive": derive, "lab": lab}


# -- traced run: the probe and the per-layer metrics ---------------------------------


def probe(ctx: Context, tmp: Path) -> None:
    """Call every layer once on fixed small inputs, so that each layer reads
    nonzero on every workload."""
    tracer, cases, certify, numerics, reduction = (
        ctx.tracer, ctx.cases, ctx.certify, ctx.numerics, ctx.reduction)
    with tracer.span("probe", op="probe"):
        for _ in range(10):
            tracer.call("cases.load_registry", cases.load_registry)
        for template in ctx.registry:
            tracer.call("cases.instantiate", cases.instantiate_case, template)
        case, init = _probe_start(ctx)
        certificate = certify.certify_case(case)
        tracer.call("certify.write", certify.write_certificate, certificate, tmp)
        bundle = reduction.build_bundle(case)
        tracer.call("reduction.bundle_to_json", reduction.bundle_to_json, bundle)
        tracer.call("reduction.verify_reference", reduction.verify_reference_example)
        tracer.call("numerics.lab_setup", numerics.get_lab, case)
        cfg = numerics.IntegratorConfig(step=CURVE_STEP, max_steps=PROBE_STEPS,
                                        mode=numerics.MODE_CANDIDATE)
        trajectory = tracer.call("numerics.integrate", numerics.integrate_curve, init, cfg, case)
        tracer.call("numerics.write_csv", trajectory.write_csv, str(tmp / "probe.csv"))
        _sample_state(tracer, numerics, case, numerics.MODE_CANDIDATE, trajectory.states[-1])


def _probe_start(ctx: Context):
    """The probe case and a start state in the middle of its chamber."""
    name, params = PROBE_CASE
    case = ctx.tracer.call("cases.instantiate", ctx.cases.instantiate_case,
                           ctx.template(name), params)
    sigma = 0.5 * math.pi / case.d
    return case, ctx.numerics.state_from_angle(3 * math.cos(sigma), 3 * math.sin(sigma), 0.7)


def primitives(ctx: Context) -> dict:
    """Time the field and polynomial primitives on operands from the G2 and
    SO5 bundles, and raw RK4 steps on the probe case."""
    cases, numerics, reduction = ctx.cases, ctx.numerics, ctx.reduction
    g2 = reduction.build_bundle(cases.instantiate_case(ctx.template("G2")))
    so5 = reduction.build_bundle(cases.instantiate_case(ctx.template("SO5")))
    scalars = [c for b in (g2, so5) for p in _bundle_polys(b) for c in p.terms.values()]
    rational = [c for c in scalars if c.is_rational][:256]
    irrational = [c for c in scalars if not c.is_rational][:16]
    rational_pairs = list(zip(rational, rational[::-1]))
    irrational_pairs = [(a, b) for a in irrational for b in irrational]
    products = [(a * c, c) for a, c in zip(g2.a_coeffs, g2.c_coeffs)]
    case, state = _probe_start(ctx)
    start = time.perf_counter()
    for _ in range(PROBE_STEPS // 2):
        state = numerics.step_minimal(state, case, CURVE_STEP)
    for _ in range(PROBE_STEPS // 2):
        state = numerics.step_candidate(state, case, CURVE_STEP)
    step_s = (time.perf_counter() - start) / PROBE_STEPS
    return {
        "field.mul_rational_ns": 1e9 * _per_call(operator.mul, rational_pairs),
        "field.mul_irrational_ns": 1e9 * _per_call(operator.mul, irrational_pairs),
        "field.add_ns": 1e9 * _per_call(operator.add, rational_pairs),
        "poly.mul_us": 1e6 * _per_call(operator.mul, list(zip(g2.a_coeffs, g2.c_coeffs))),
        "poly.divide_exact_us": 1e6 * _per_call(lambda p, c: p.divide_exact(c), products),
        "numerics.step_per_s": 1.0 / step_s,
    }


def _per_call(fn, pairs) -> float:
    """Seconds per fn(a, b) over the pairs, repeated for at least MICRO_MIN_S."""
    calls = 0
    start = time.perf_counter()
    while True:
        for a, b in pairs:
            fn(a, b)
        calls += len(pairs)
        elapsed = time.perf_counter() - start
        if elapsed >= MICRO_MIN_S:
            return elapsed / calls


def _bundle_polys(bundle):
    return [*bundle.walls, bundle.qd, bundle.volume_sq, bundle.t1, bundle.t2, bundle.t3,
            bundle.t4, bundle.t5, *bundle.a_coeffs, *bundle.c_coeffs]


def layer_metrics(tracer: Tracer, batch: dict, micro: dict, tmp_dirs: list[Path]) -> dict:
    """Per-layer metrics over every span of the traced worker: set-up, the
    traced batch and the probe.  `_s` metrics are total self time; `_ms`,
    `_us` and `_ns` ones are the mean inclusive time of one call.  `batch` is
    the stage table of the traced batch alone."""
    table = tracer.stage_table()
    wall = next(s[2] - s[1] for s in tracer.spans if s[0] == "workload")
    covered = sum(row["self_s"] for name, row in batch.items() if name != "op")

    def self_s(name):
        return table[name]["self_s"]

    def per_call(name, scale):
        return scale * table[name]["total_s"] / table[name]["calls"]

    bundles = {id(b): b for b in tracer.results["reduction.build_bundle"]}.values()
    resultants = [r.poly for r in tracer.results["resultant.compute"]]
    coeffs = [c for poly in resultants for c in poly.terms.values()]
    certificates = tracer.results["certify.emit"]
    return {
        "cases.load_registry_ms": per_call("cases.load_registry", 1e3),
        "cases.instantiate_ms": per_call("cases.instantiate", 1e3),
        "reduction.build_bundle_s": self_s("reduction.build_bundle"),
        "reduction.bundle_to_json_ms": per_call("reduction.bundle_to_json", 1e3),
        "reduction.verify_reference_ms": per_call("reduction.verify_reference", 1e3),
        "reduction.bundle_terms": sum(len(p.terms) for b in bundles for p in _bundle_polys(b)),
        "field.mul_rational_ns": micro["field.mul_rational_ns"],
        "field.mul_irrational_ns": micro["field.mul_irrational_ns"],
        "field.add_ns": micro["field.add_ns"],
        "poly.mul_us": micro["poly.mul_us"],
        "poly.divide_exact_us": micro["poly.divide_exact_us"],
        "poly.arc_derivative_ms": per_call("poly.arc_derivative", 1e3),
        "resultant.compute_s": self_s("resultant.compute"),
        "resultant.max_case_s": table["resultant.compute"]["max_s"],
        "resultant.terms": sum(len(poly.terms) for poly in resultants),
        "resultant.max_coeff_bits": max(
            max(abs(q.numerator).bit_length(), q.denominator.bit_length())
            for c in coeffs for q in (c.a, c.b, c.c, c.e)),
        "certify.root_scan_s": self_s("certify.root_scan"),
        "certify.root_scan_grid_points": sum(
            scan.grid_size for scan in tracer.results["certify.root_scan"]),
        "certify.roots": sum(len(c["roots"]) for c in certificates),
        "certify.minimal_lines": sum(
            r["line_is_minimal"] for c in certificates for r in c["roots"]),
        "certify.emit_ms": per_call("certify.emit", 1e3),
        "certify.write_ms": per_call("certify.write", 1e3),
        "certify.certificate_bytes": sum(
            p.stat().st_size for d in tmp_dirs for p in d.glob("*.certificate.json")),
        "numerics.step_per_s": micro["numerics.step_per_s"],
        "numerics.integrate_s": self_s("numerics.integrate"),
        "numerics.normal_residual_us": per_call("numerics.normal_residual", 1e6),
        "numerics.geometric_scalars_us": per_call("numerics.geometric_scalars", 1e6),
        "numerics.write_csv_s": self_s("numerics.write_csv"),
        "numerics.csv_bytes": sum(p.stat().st_size for d in tmp_dirs for p in d.glob("*.csv")),
        "numerics.lab_setup_s": self_s("numerics.lab_setup"),
        "trace.wall_s": wall,
        "trace.slowest_op_s": batch["op"]["max_s"],
        "trace.stage_coverage": covered / wall,
        "trace.spans": len(tracer.spans),
    }


# -- entry point ---------------------------------------------------------------------


def environment() -> dict:
    import mpmath
    from chamberlab.certify import DEFAULT_PRECISION_BITS
    from chamberlab.field import Rat

    return {"python": sys.version.split()[0],
            "rat_backend": f"{Rat.__module__}.{Rat.__name__}",
            "mpmath_backend": mpmath.libmp.BACKEND,
            "precision_bits": DEFAULT_PRECISION_BITS}


def main() -> int:
    request = json.loads(sys.argv[1])
    traced = request["traced"]
    tracer = Tracer(traced)
    with calibration.Sampler(not traced) as sampler:
        with tracer.span("setup", op="setup"):
            ctx = Context(request, tracer)
        setup_s = time.monotonic() - request["spawn_t"] - sampler.spent
    result = {"setup_s": setup_s,
              "setup_probe_s": sampler.times + calibration.probe_for(SETUP_PROBE_S),
              "environment": environment(), "reps": []}
    if request["role"] == "batch":
        workload = WORKLOADS[request["workload"]]
        if request["workload"] != "lab" and ctx.reduction.build_bundle.cache_info().currsize:
            raise RuntimeError("bundle cache is warm before timing; the batch must start cold")
        tmp_root = Path(request["tmp"])
        if request["untraced"]:
            tracer.enabled = False
            deadline = time.monotonic() + request["budget_s"]
            took = []
            while not took or time.monotonic() + statistics.median(took) <= deadline:
                start = time.monotonic()
                rep = workload(ctx, Path(tempfile.mkdtemp(dir=tmp_root)))
                result["reps"].append(rep.to_json())
                took.append(time.monotonic() - start)
            result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            tracer.enabled = True
            dirs = [Path(tempfile.mkdtemp(dir=tmp_root)) for _ in range(2)]
            with tracer.patched():
                result["traced_rep"] = workload(ctx, dirs[0]).to_json()
                probe(ctx, dirs[1])
            tracer.enabled = False
            result["stages"] = tracer.stage_table("workload")
            result["layers"] = layer_metrics(tracer, result["stages"], primitives(ctx), dirs)
            tracer.write(request["trace"], {"workload": request["workload"],
                                            "seed": request["seed"],
                                            "stages": result["stages"]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
