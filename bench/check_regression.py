#!/usr/bin/env python3
"""Perf-regression gate over Google Benchmark JSON output.

Merges one or more --benchmark_format=json result files into a single
BENCH_ci.json (the CI artifact) and compares every benchmark present in both
the merged results and a checked-in baseline, failing on regressions beyond a
threshold.

CI runners and developer machines differ in absolute speed, so by default the
comparison is *shape-based*: each per-row ratio (current/baseline) is divided
by the geometric mean of all common rows' ratios, cancelling any uniform
machine-speed factor. A single row regressing R% while the rest hold still
shows ~R% after normalization (damped by R^(1/N) through the geomean — with
the ~10 gated rows a 25%% single-row regression still reads as ~22%%).
Pass --no-normalize for raw time comparison on a pinned machine.

Rows are matched by run_name; with --benchmark_repetitions the median
aggregate is used, otherwise the mean of the repeated entries. cpu_time is
compared (process CPU for the threaded rows — stabler than wall clock on
shared runners); times are unit-converted before comparison.

Usage:
  check_regression.py --baseline bench/baseline.json --output BENCH_ci.json \
      [--max-regression-pct 25] [--no-normalize] result.json [result2.json ...]
  check_regression.py --write-baseline bench/baseline.json result.json [...]
"""

import argparse
import json
import math
import sys

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_benchmarks(path):
    with open(path) as f:
        data = json.load(f)
    return data


def merge(results):
    merged = {"context": results[0].get("context", {}), "benchmarks": []}
    for data in results:
        merged["benchmarks"].extend(data.get("benchmarks", []))
    return merged


def sanitize(obj):
    """NaN/Inf → null: Google Benchmark emits NaN cv aggregates for
    zero-variance counters, and bare NaN is not valid JSON (RFC 8259) — a
    strict consumer of the artifact would reject the whole file."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: sanitize(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [sanitize(v) for v in obj]
    return obj


def metric_ns(entry):
    """cpu_time in ns (fallback real_time), unit-converted."""
    scale = TIME_UNIT_NS.get(entry.get("time_unit", "ns"), 1.0)
    value = entry.get("cpu_time", entry.get("real_time"))
    return None if value is None else value * scale


def representative_times(data):
    """run_name -> representative time in ns.

    Median aggregates win when present (repetitions mode); otherwise repeated
    iteration entries for one run_name are averaged.
    """
    medians = {}
    sums = {}
    counts = {}
    for entry in data.get("benchmarks", []):
        if entry.get("error_occurred"):
            continue
        name = entry.get("run_name", entry.get("name"))
        value = metric_ns(entry)
        if name is None or value is None:
            continue
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == "median":
                medians[name] = value
            continue
        sums[name] = sums.get(name, 0.0) + value
        counts[name] = counts.get(name, 0) + 1
    times = {name: sums[name] / counts[name] for name in sums}
    times.update(medians)
    return times


def fmt_ns(ns):
    for unit, div in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= div:
            return f"{ns / div:.2f}{unit}"
    return f"{ns:.0f}ns"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("results", nargs="+", help="benchmark JSON result files")
    parser.add_argument("--baseline", help="checked-in baseline JSON to gate against")
    parser.add_argument("--output", help="write merged results here (the CI artifact)")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="seed/refresh the baseline from these results and exit")
    parser.add_argument("--max-regression-pct", type=float, default=25.0)
    parser.add_argument("--no-normalize", action="store_true",
                        help="compare raw times (pinned-machine mode)")
    args = parser.parse_args()

    results = [load_benchmarks(path) for path in args.results]
    merged = merge(results)

    if args.write_baseline:
        with open(args.write_baseline, "w") as f:
            json.dump(sanitize(merged), f, indent=1, sort_keys=True, allow_nan=False)
            f.write("\n")
        print(f"baseline written: {args.write_baseline} "
              f"({len(representative_times(merged))} rows)")
        return 0

    if args.output:
        with open(args.output, "w") as f:
            json.dump(sanitize(merged), f, indent=1, sort_keys=True, allow_nan=False)
            f.write("\n")

    if not args.baseline:
        parser.error("--baseline (or --write-baseline) is required")
    baseline = representative_times(load_benchmarks(args.baseline))
    current = representative_times(merged)
    common = sorted(set(baseline) & set(current))
    if not common:
        print("error: no benchmarks in common with the baseline — "
              "filters and baseline are out of sync", file=sys.stderr)
        return 2
    # A gated row that errored (e.g. a SkipWithError parity violation — Google
    # Benchmark still exits 0) or silently fell out of the run must fail the
    # gate, not shrink it: a missing row is indistinguishable from an infinite
    # regression.
    errored = sorted({e.get("run_name", e.get("name")) for e in merged["benchmarks"]
                      if e.get("error_occurred")})
    if errored:
        print(f"error: {len(errored)} benchmark rows reported errors: "
              f"{', '.join(errored)}", file=sys.stderr)
        return 2
    missing = sorted(set(baseline) - set(current))
    if missing:
        print(f"error: {len(missing)} baseline rows absent from this run "
              f"(filters and baseline out of sync?): {', '.join(missing)}",
              file=sys.stderr)
        return 2
    ungated = sorted(set(current) - set(baseline))
    if ungated:
        print(f"error: {len(ungated)} rows in this run have no baseline and "
              f"would be silently ungated — reseed (run_perf_smoke.sh --seed): "
              f"{', '.join(ungated)}", file=sys.stderr)
        return 2

    ratios = {name: current[name] / baseline[name] for name in common}
    factor = 1.0
    if not args.no_normalize:
        factor = math.exp(sum(math.log(r) for r in ratios.values()) / len(ratios))
        print(f"machine-speed normalization factor (geomean current/baseline): "
              f"{factor:.3f}")
        if not 0.5 <= factor <= 1.5:
            # Normalization deliberately cancels uniform shifts (machine speed
            # — but also a regression that slows every gated row alike, e.g.
            # in the shared PageStore publish path). A big factor deserves a
            # loud line so a human can tell the two apart.
            print(f"warning: uniform shift of {factor:.2f}x vs baseline — "
                  "machine-speed difference or an across-the-board "
                  "regression/improvement; inspect the raw ratio column",
                  file=sys.stderr)

    limit = 1.0 + args.max_regression_pct / 100.0
    failures = []
    width = max(len(name) for name in common)
    print(f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}  "
          f"{'ratio':>6}  {'norm':>6}")
    for name in common:
        norm = ratios[name] / factor
        verdict = ""
        if norm > limit:
            verdict = f"  REGRESSION >{args.max_regression_pct:.0f}%"
            failures.append(name)
        print(f"{name:<{width}}  {fmt_ns(baseline[name]):>10}  "
              f"{fmt_ns(current[name]):>10}  {ratios[name]:>6.3f}  {norm:>6.3f}"
              f"{verdict}")

    if failures:
        print(f"\nFAIL: {len(failures)} of {len(common)} gated rows regressed "
              f"beyond {args.max_regression_pct:.0f}%: {', '.join(failures)}",
              file=sys.stderr)
        print("If intentional (algorithmic trade-off), refresh the baseline: "
              "bench/run_perf_smoke.sh <build-dir> --seed", file=sys.stderr)
        return 1
    print(f"\nOK: {len(common)} gated rows within {args.max_regression_pct:.0f}% "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
