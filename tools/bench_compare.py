#!/usr/bin/env python3
"""Compares two combined bench.sh JSON documents benchmark-by-benchmark.

Usage:
  tools/bench_compare.py BASELINE.json CURRENT.json [--fail-over PCT]
                         [--gate REGEX]

Both inputs are bench.sh's combined format: a top-level object mapping each
bench binary name to Google Benchmark's native JSON (plus a "host" entry,
which is skipped). Every benchmark in
CURRENT is matched to the same (binary, benchmark-name) pair in BASELINE
and its real_time delta printed; benchmarks with no baseline counterpart
are reported as "new" and never gate.

--fail-over PCT exits non-zero when any GATED benchmark regressed by more
than PCT percent. The gate (--gate, default 'Scan|Filter|Predict') selects
the microbenchmarks whose regressions should fail CI; everything else is
reported but informational — figure benches covering optimizer rules have
their own acceptance criteria.
"""

import argparse
import json
import re
import sys

# Everything is normalized to nanoseconds before comparison.
_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_benchmarks(path):
    """{(binary, name): real_time_ns} for one combined document."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for binary, report in doc.items():
        if binary == "host":  # bench.sh's nproc/build-type record
            continue
        for bench in report.get("benchmarks", []):
            # Skip aggregate rows (mean/median/stddev) if repetitions were
            # used; the raw runs carry run_type "iteration".
            if bench.get("run_type", "iteration") == "aggregate":
                continue
            scale = _UNIT_NS.get(bench.get("time_unit", "ns"), 1.0)
            out[(binary, bench["name"])] = bench["real_time"] * scale
    return out


def format_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return "%.3f%s" % (ns / scale, unit)
    return "%.0fns" % ns


def main():
    parser = argparse.ArgumentParser(
        description="diff two bench.sh combined JSON documents")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--fail-over", type=float, metavar="PCT",
                        help="exit 1 when a gated benchmark regressed by "
                             "more than PCT percent")
    parser.add_argument("--gate", default="Scan|Filter|Predict",
                        help="regex selecting the benchmarks --fail-over "
                             "applies to (default: %(default)s)")
    args = parser.parse_args()

    baseline = load_benchmarks(args.baseline)
    current = load_benchmarks(args.current)
    gate = re.compile(args.gate)

    offenders = []
    width = max((len(name) for _, name in current), default=4)
    print("%-*s  %12s  %12s  %9s" %
          (width, "benchmark", "baseline", "current", "delta"))
    for (binary, name), now_ns in sorted(current.items()):
        base_ns = baseline.get((binary, name))
        if base_ns is None:
            print("%-*s  %12s  %12s  %9s" %
                  (width, name, "-", format_ns(now_ns), "new"))
            continue
        delta_pct = (now_ns - base_ns) / base_ns * 100.0
        gated = bool(gate.search(name))
        marker = ""
        if (args.fail_over is not None and gated
                and delta_pct > args.fail_over):
            offenders.append((name, delta_pct))
            marker = "  REGRESSED"
        print("%-*s  %12s  %12s  %+8.1f%%%s" %
              (width, name, format_ns(base_ns), format_ns(now_ns),
               delta_pct, marker))

    missing = sorted(set(baseline) - set(current))
    for binary, name in missing:
        print("%-*s  %12s  %12s  %9s" %
              (width, name, format_ns(baseline[(binary, name)]), "-",
               "absent"))

    if offenders:
        print("\nbench_compare: %d gated benchmark(s) regressed more than "
              "%.1f%%:" % (len(offenders), args.fail_over), file=sys.stderr)
        for name, delta in offenders:
            print("  %s: +%.1f%%" % (name, delta), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
