#!/usr/bin/env python3
"""Compare a fresh BENCH_net.json against the committed baseline.

Every bench row is a flat JSON object tagged with a "section". A row's
identity is the tuple of its descriptive fields (section, transport, loop,
stage, batch, connections, ...); its measurements are the throughput and
latency fields. The check fails when, for any row present in both files,

  * a throughput measurement (events_per_sec, requests_per_sec) dropped by
    more than --threshold (default 30%), or
  * tail latency (p99_us) grew by more than --threshold.

It also fails when a baseline row (in a checked section) is missing from
the run: a gate must not vanish silently. Retiring a row means deleting it
from the baseline in the same change. Rows present only in the current run
are new coverage and pass silently. Refresh the baseline deliberately:

    ./build/bench_net && ./build/bench_health
    cp BENCH_net.json bench/baseline/BENCH_net.json

Usage:
    tools/check_bench_regression.py [--baseline PATH] [--current PATH]
        [--threshold FRAC] [--sections a,b,...]
"""

import argparse
import json
import sys

# Fields that are measurements, not identity. Everything else in a row
# (strings and discrete parameters alike) identifies which experiment the
# row belongs to.
MEASUREMENTS = {
    "events_per_sec",
    "requests_per_sec",
    "p50_us",
    "p90_us",
    "p99_us",
    "max_us",
    "recs",
    "count",
    "server_threads",
    "melems_per_sec",
    "speedup",
}

# measurement -> direction: +1 means higher is better (throughput), -1
# means lower is better (latency). Only these gate the check; the rest are
# informational. "speedup" (bench_intersection's intersect section) is
# time(scalar reference)/time(kernel) on the same shape — machine-
# independent, so it catches kernel regressions that absolute rates would
# hide behind hardware variance.
GATED = {
    "events_per_sec": +1,
    "requests_per_sec": +1,
    "p99_us": -1,
    "speedup": +1,
}


def identity(row):
    return tuple(sorted((k, v) for k, v in row.items()
                        if k not in MEASUREMENTS))


def load_rows(path):
    try:
        with open(path) as f:
            rows = json.load(f)
    except OSError as e:
        sys.exit(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"{path} is not valid JSON: {e}")
    if not isinstance(rows, list):
        sys.exit(f"{path}: expected a JSON array of rows")
    return rows


def describe(row):
    return ", ".join(f"{k}={v}" for k, v in sorted(row.items())
                     if k not in MEASUREMENTS)


def main():
    parser = argparse.ArgumentParser(
        description="fail on >threshold bench regressions vs the baseline")
    parser.add_argument("--baseline",
                        default="bench/baseline/BENCH_net.json")
    parser.add_argument("--current", default="BENCH_net.json")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional change (default 0.30)")
    parser.add_argument("--sections", default="",
                        help="comma-separated sections to check "
                             "(default: every section in the baseline)")
    args = parser.parse_args()

    baseline = {identity(r): r for r in load_rows(args.baseline)}
    current = {identity(r): r for r in load_rows(args.current)}
    sections = {s for s in args.sections.split(",") if s}

    failures = []
    missing = []
    compared = 0
    for key, base_row in sorted(baseline.items()):
        if sections and base_row.get("section") not in sections:
            continue
        cur_row = current.get(key)
        if cur_row is None:
            print(f"FAIL: baseline row missing from the run: "
                  f"{describe(base_row)}")
            missing.append(base_row)
            continue
        for field, direction in GATED.items():
            if field not in base_row or field not in cur_row:
                continue
            base, cur = float(base_row[field]), float(cur_row[field])
            if base <= 0:
                continue  # a zero baseline cannot anchor a ratio
            compared += 1
            change = (cur - base) / base
            # direction +1: fail when cur fell below (1-t)*base;
            # direction -1: fail when cur rose above (1+t)*base.
            bad = (change < -args.threshold if direction > 0
                   else change > args.threshold)
            marker = "FAIL" if bad else "ok"
            print(f"{marker}: {describe(base_row)} :: {field} "
                  f"{base:.1f} -> {cur:.1f} ({change:+.1%})")
            if bad:
                failures.append((base_row, field, base, cur))

    if compared == 0 and not missing:
        sys.exit("no comparable measurements between "
                 f"{args.baseline} and {args.current}")
    if missing:
        print(f"\n{len(missing)} baseline row(s) missing from "
              f"{args.current} (retire a row by deleting it from "
              f"{args.baseline}):", file=sys.stderr)
        for row in missing:
            print(f"  {describe(row)}", file=sys.stderr)
    if failures:
        print(f"\n{len(failures)} regression(s) beyond "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for row, field, base, cur in failures:
            print(f"  {describe(row)} :: {field} {base:.1f} -> {cur:.1f}",
                  file=sys.stderr)
    if missing or failures:
        sys.exit(1)
    print(f"\nbench check passed: {compared} measurements within "
          f"{args.threshold:.0%} of baseline")


if __name__ == "__main__":
    main()
