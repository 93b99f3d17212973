#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload celebrity-ingest --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
harness (perfbench/CMakeLists.txt, which compiles src/ from source) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset. The harness takes the workload's shape from workloads.json,
prints progress to standard error, and ends its standard output with a JSON
report. This script checks the report and prints every metric by name with
its unit, then, as the last line, the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The exit code is 0 only for a complete, correct run.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# A percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
# The traced run's layer self-times must sum to within 10% of the detector's
# own OnEdge time.
COVERAGE_RANGE = (0.9, 1.1)


class BenchError(Exception):
    pass


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def workload_config(benchmark, workloads, name):
    """The --set pairs for `name`; fails unless every workload BENCHMARK.json
    lists has a shape in workloads.json and `name` is one of them."""
    listed = [w["name"] for w in benchmark.get("workloads", [])]
    for w in listed:
        if w not in workloads:
            raise BenchError(f"workload {w} has no shape in workloads.json")
    if name not in listed:
        raise BenchError(f"unknown workload {name}; known: {', '.join(listed)}")
    pairs = []
    for key, value in workloads[name].items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        pairs += ["--set", f"{key}={value}"]
    return pairs


def build(build_dir):
    """Configures and builds the harness; returns the binary's path."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(source):
        raise BenchError(f"no program sources at {source}")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def is_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def validate(report, declared, traced):
    """Every reason the harness report cannot be trusted, as strings.

    `declared` is the BENCHMARK.json metric list for the run's mode."""
    errors = []
    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        return ["report has no metrics"]
    for spec in declared:
        name = spec["name"]
        m = metrics.get(name)
        if m is None:
            errors.append(f"metric {name} is missing")
        elif m.get("unit") != spec["unit"]:
            errors.append(f"metric {name} has unit {m.get('unit')}, "
                          f"expected {spec['unit']}")
    for name, m in metrics.items():
        if not is_number(m.get("value")):
            errors.append(f"metric {name} is not a finite number: "
                          f"{m.get('value')}")
            continue
        if "quantile" not in m and ("p50" in name or "p99" in name):
            errors.append(f"percentile {name} carries no sample count")
        elif "quantile" in m:
            q = m["quantile"]
            samples = m.get("samples", 0)
            if not is_number(q) or not 0 <= q < 1:
                errors.append(f"metric {name} has bad quantile {q}")
            elif samples * (1 - q) < MIN_TAIL_SAMPLES:
                errors.append(
                    f"metric {name} rests on {samples} samples, fewer than "
                    f"{MIN_TAIL_SAMPLES} beyond its percentile")
    for name, m in metrics.items():
        if "p50" not in name:
            continue
        upper = metrics.get(name.replace("p50", "p99"))
        if (upper and is_number(m.get("value"))
                and is_number(upper.get("value"))
                and m["value"] > upper["value"]):
            errors.append(f"{name} = {m['value']} exceeds "
                          f"{name.replace('p50', 'p99')} = {upper['value']}")
    checks = report.get("checks")
    if not isinstance(checks, dict) or not checks:
        errors.append("report has no correctness checks")
    else:
        for name, ok in sorted(checks.items()):
            if ok is not True:
                errors.append(f"check {name} failed")
    if traced:
        cov = metrics.get("core.mirror_coverage", {}).get("value")
        lo, hi = COVERAGE_RANGE
        if not is_number(cov) or not lo <= cov <= hi:
            errors.append(f"core.mirror_coverage {cov} outside [{lo}, {hi}]")
    for key in ("attempted", "failed"):
        if not isinstance(report.get(key), int) or report[key] < 0:
            errors.append(f"report field {key} is not a count")
    if isinstance(report.get("attempted"), int) and report["attempted"] < 1:
        errors.append("report attempted nothing")
    return errors


def run(args):
    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = load_json(os.path.join(HERE, "workloads.json"))
    pairs = workload_config(benchmark, workloads, args.workload)
    declared = benchmark["per_layer" if args.trace else "end_to_end"]

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(build_root, "perfbench"))
    workdir = os.path.join(build_root, "work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    # The one environment variable src/ reads: measure the default loop.
    env = {k: v for k, v in os.environ.items() if k != "MAGICRECS_SERVER_LOOP"}
    try:
        done = subprocess.run(cmd + pairs, stdout=subprocess.PIPE,
                              stderr=sys.stderr, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise BenchError(f"harness exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("harness printed no report")
    try:
        report = json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"harness report is not JSON: {e}")

    errors = validate(report, declared, args.trace == 1)
    structural = [e for e in errors if not e.startswith("check ")]
    if structural:
        raise BenchError("; ".join(structural))

    gated = {spec["name"] for spec in declared}
    for name, m in report["metrics"].items():
        samples = f" ({m['samples']} samples)" if "samples" in m else ""
        note = "" if name in gated else " [reported, not in BENCHMARK.json]"
        print(f"{name} {m['value']:.6g} {m['unit']}{samples}{note}")
    metrics = {}
    for spec in declared:
        m = report["metrics"][spec["name"]]
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    attempted, failed = report["attempted"], report["failed"]
    print(f"server_loop {report.get('server_loop')}")
    print(f"failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} calls)")
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
