"""Benchmark for chamberlab: certify sweep, bundle derivation and the curve lab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep|derive|lab --seed N --seconds S --trace 0|1

Each repetition of the batch runs in worker processes started from the
checkout's src/ (perfbench/worker.py), so the lru caches start cold as they do
for a user's command.  With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics of BENCHMARK.json; with --trace 1 it
holds the per-layer metrics, from one traced repetition plus a fixed probe of
every layer, and the spans are written to .perfbench_out/.  End-to-end times
are scaled to a reference host speed by the probes of perfbench/calibration.py
that the workers run throughout every timed batch.  The line before the result
records the environment and the times as measured.  A table of every metric,
with the layer map's predictions, goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "derive", "lab")
# A run ends within this many seconds, or fails.
RUN_LIMIT_S = 170.0
# Set-up is sampled at least this often per run; the median is reported.
SETUP_SAMPLES = 5
OUT_DIR = ".perfbench_out"


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


class Runner:
    """Starts worker processes for one run and keeps what they report."""

    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.started = time.monotonic()
        self.out = root / OUT_DIR
        self.out.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=self.out))
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.results: list[dict] = []

    def trace_path(self) -> Path:
        return self.out / f"trace-{self.args.workload}-seed{self.args.seed}.json"

    def spawn(self, role: str, untraced: bool = False, traced: bool = False,
              budget_s: float = 0.0) -> dict:
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the next worker")
        request = {"workload": self.args.workload, "seed": self.args.seed, "role": role,
                   "untraced": untraced, "traced": traced, "budget_s": budget_s,
                   "tmp": str(self.tmp), "trace": str(self.trace_path()),
                   "spawn_t": time.monotonic()}
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(request)],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker passed the {RUN_LIMIT_S:.0f} s run limit") from exc
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["role"] = role
        self.results.append(result)
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def run_workload(runner: Runner, seconds: float, traced: bool) -> None:
    """Batch workers until `seconds` are spent, then a traced one if asked.

    Every sweep and derive repetition runs in a fresh worker, so every one
    pays bundle derivation as a user's command does.  lab has no cache in its
    timed part and repeats its batch inside each worker for a third of the
    budget.  A set-up sample is taken before each batch worker, so that the
    samples spread over the run instead of sharing one stretch of host speed.
    """
    lab = runner.args.workload == "lab"
    took = []
    while True:
        runner.spawn("setup")
        start = time.monotonic()
        budget = min(seconds / 3, max(0.0, seconds - runner.elapsed())) if lab else 0.0
        runner.spawn("batch", untraced=True, budget_s=budget)
        took.append(time.monotonic() - start)
        if runner.elapsed() + (0.0 if lab else statistics.median(took)) > seconds:
            break
    if traced:
        runner.spawn("batch", traced=True)
    while not traced and len(runner.results) < SETUP_SAMPLES:
        runner.spawn("setup")


def summarize(runner: Runner, spec: dict, traced: bool) -> tuple[dict, dict]:
    """The result object for the last line, and the environment record."""
    untraced = [r for r in runner.results if r["role"] == "batch" and r["reps"]]
    reps = [rep for r in untraced for rep in r["reps"]]
    traced_reps = [r["traced_rep"] for r in runner.results if r.get("traced_rep")]
    all_reps = reps + traced_reps
    problems = [p for rep in all_reps for p in rep["problems"]]
    failed = sum(rep["failed"] for rep in all_reps)
    # Every repetition of a seed must produce the same outputs.
    for op in sorted({op for rep in all_reps for op in rep["digests"]}):
        seen = {rep["digests"][op] for rep in all_reps if op in rep["digests"]}
        if len(seen) > 1:
            failed += 1
            problems.append(f"{op}: output differs between repetitions")
    raw_wall = statistics.median(rep["wall_s"] for rep in reps)
    raw_setup = statistics.median(r["setup_s"] for r in runner.results)
    probes = ([t for r in runner.results for t in r["setup_probe_s"]]
              + [t for rep in reps for t in rep["probe_s"]])
    # Reference seconds: each batch scaled by the probes run during it, each
    # set-up by those run during and just after it.
    wall = statistics.median(rep["wall_s"] * calibration.scale(rep["probe_s"]) for rep in reps)
    setup = statistics.median(r["setup_s"] * calibration.scale(r["setup_probe_s"])
                              for r in runner.results)
    if traced:
        worker = next(r for r in runner.results if r.get("layers"))
        values = dict(worker["layers"])
        values["trace.overhead_s"] = traced_reps[0]["wall_s"] - raw_wall
    else:
        values = {
            "setup_s": setup,
            "wall_s": wall,
            "throughput_per_s": reps[0]["units"] / wall,
            "peak_rss_mb": max(r["rss_mb"] for r in untraced),
        }
    declared = spec["per_layer" if traced else "end_to_end"]
    mismatch = {m["name"] for m in declared} ^ set(values)
    if mismatch:
        raise BenchError(f"metrics do not match BENCHMARK.json: {sorted(mismatch)}")
    attempted = sum(rep["attempted"] for rep in all_reps)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    environment = dict(runner.results[0]["environment"])
    environment.update({
        "workload": runner.args.workload, "seed": runner.args.seed,
        "seconds": runner.args.seconds, "traced": traced,
        "nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
        "repetitions": len(reps), "workers": len(runner.results),
        "measured_setup_s": raw_setup, "measured_wall_s": raw_wall,
        "rep_wall_s": [rep["wall_s"] for rep in reps],
        "probe_median_s": statistics.median(probes),
        "fail_ratio": failed / attempted, "problems": problems[:50],
    })
    if traced:
        environment["stage_self_s"] = dict(sorted(
            ((name, row["self_s"]) for name, row in worker["stages"].items()),
            key=lambda item: -item[1]))
    return result, environment


def print_table(result: dict, environment: dict, layer_map: dict) -> None:
    """Every metric with its unit, for per-layer ones what they should move,
    and the traced batch's self time per stage."""
    for name, metric in result["metrics"].items():
        line = f"{name:<32} {metric['value']:>16.6g} {metric['unit']:<6}"
        if name in layer_map:
            line += "  moves: " + "; ".join(layer_map[name]["moves"])
        print(line, file=sys.stderr)
    for name, self_s in environment.get("stage_self_s", {}).items():
        print(f"self time {name:<30} {self_s:>12.4f} s", file=sys.stderr)
    print(f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if not (root / "src" / "chamberlab" / "__init__.py").is_file():
            raise BenchError("run from the root of a chamberlab checkout: src/chamberlab is missing")
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        layer_map = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))["metrics"]
        runner = Runner(root, args)
        try:
            run_workload(runner, args.seconds, bool(args.trace))
            result, environment = summarize(runner, spec, bool(args.trace))
        finally:
            shutil.rmtree(runner.tmp, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        environment["trace_file"] = str(runner.trace_path().relative_to(root))
    print(json.dumps({"environment": environment}))
    print_table(result, environment, layer_map)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
