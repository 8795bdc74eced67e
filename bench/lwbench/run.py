#!/usr/bin/env python3
"""lwbench: build, self-test, run and check the end-to-end benchmark.

One command does the whole job:

    python3 bench/lwbench/run.py                    # all workloads, untraced
    python3 bench/lwbench/run.py --trace 1          # all workloads, traced (per-layer)
    python3 bench/lwbench/run.py --workload fabric_small --seed 3 --seconds 10 --trace 0

It builds the `lwbench` target through bench/lwbench/CMakeLists.txt into
.bench_build/lwbench, runs `lwbench selftest`, runs each workload in a fresh
process, checks the outputs, prints one `workload metric value unit` line per
metric and, as the last line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"} (for all workloads at once, the
metrics are keyed "<workload>/<metric>"). The full results also go to --out.

--runs N repeats every workload with seeds seed..seed+N-1 and reports the
median and quartiles of each metric; with --point FILE it also writes a
trajectory point (medians, quartiles, the traced per-layer numbers, host and
commit metadata).

Everything it writes stays under .bench_build/ in the repository root, except
the --point file. Exit status is 0 only when every check passed.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "lwbench"
BINARY = BUILD / "lwbench"
WORKLOADS = ["fabric_small", "fabric_large", "search_queens", "search_spill"]
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", str(BUILD), "--target", "lwbench", "-j", jobs]
    if subprocess.run(compile_cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    if subprocess.run([str(BINARY), "selftest"], cwd=ROOT).returncode != 0:
        raise BenchError("lwbench selftest failed")


def run_lwbench(args):
    """Runs lwbench in its own process group; kills the group on timeout."""
    proc = subprocess.Popen([str(BINARY)] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("lwbench %s timed out" % " ".join(args))
    lines = out.decode(errors="replace").strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("lwbench %s printed no result (exit %d)" % (" ".join(args), proc.returncode))


def expected_metrics(trace):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        raise BenchError("cannot read BENCHMARK.json: %s" % error)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload, seed, seconds, trace):
    tmp = BUILD / "tmp"
    traces = BUILD / "traces"
    tmp.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    args = ["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0",
            # Relative, so the daemon's socket path stays short.
            "--tmpdir", os.path.relpath(tmp, ROOT),
            "--trace-out", os.path.relpath(traces / ("%s-seed%d" % (workload, seed)), ROOT)]
    try:
        code, result = run_lwbench(args)
    finally:
        # lwbench removes its own scratch directories unless it was killed.
        shutil.rmtree(tmp, ignore_errors=True)
    if code != 0 or not result.get("correct"):
        raise BenchError("%s: check failed: %s" % (workload, result.get("failure", "exit %d" % code)))
    if result.get("failed", 1) != 0 or result.get("attempted", 0) < 1:
        raise BenchError("%s: %s of %s operations failed" %
                         (workload, result.get("failed"), result.get("attempted")))
    metrics = result["metrics"]
    want = expected_metrics(trace)
    if [(name, metrics.get(name, {}).get("unit")) for name, _ in want] != want or \
            len(metrics) != len(want):
        raise BenchError("%s: metrics do not match BENCHMARK.json" % workload)
    for name, _ in want:
        value = metrics[name]["value"]
        if not isinstance(value, (int, float)) or value != value:
            raise BenchError("%s: %s is not a number" % (workload, name))
    return {"correct": True, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs):
    """Median and quartiles of each metric over repeated runs of one workload."""
    out = {}
    for name, entry in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = quartiles(values)
        out[name] = {"median": median, "q1": q1, "q3": q3, "unit": entry["unit"],
                     "values": values}
    return out


def git_commit():
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10, help="measured window per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload (seeds seed..)")
    parser.add_argument("--out", default=str(BUILD / "results.json"))
    parser.add_argument("--point", help="also write a trajectory point to this file")
    args = parser.parse_args()
    os.chdir(ROOT)

    try:
        build()
        workloads = [args.workload] if args.workload else WORKLOADS
        results = {}
        for workload in workloads:
            runs = []
            for i in range(args.runs):
                started = time.time()
                runs.append(run_workload(workload, args.seed + i, args.seconds, args.trace))
                log("%s seed %d: ok in %.1f s" % (workload, args.seed + i, time.time() - started))
            results[workload] = runs
        traced = {}
        if args.point:
            for workload in workloads:
                traced[workload] = run_workload(workload, args.seed, args.seconds, True)["metrics"]
    except BenchError as error:
        log("lwbench: %s" % error)
        return 1

    for workload, runs in results.items():
        if args.runs == 1:
            for name, entry in runs[0]["metrics"].items():
                print("%s %s %.6g %s" % (workload, name, entry["value"], entry["unit"]))
        else:
            for name, entry in summarize(runs).items():
                print("%s %s %.6g %s (q1 %.6g, q3 %.6g)" % (workload, name, entry["median"],
                                                            entry["unit"], entry["q1"], entry["q3"]))
    out = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "runs": results}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    if args.point:
        point = {
            "benchmark": "bench/lwbench",
            "commit": git_commit(),
            "host": {"nproc": os.cpu_count(), "kernel": platform.release(),
                     "machine": platform.machine()},
            "seconds": args.seconds,
            "seeds": [args.seed + i for i in range(args.runs)],
            "end_to_end": {w: summarize(r) for w, r in results.items()},
            "per_layer": traced,
        }
        Path(args.point).write_text(json.dumps(point, indent=1) + "\n")

    if args.workload and args.runs == 1:
        final = results[args.workload][0]
    else:
        all_runs = [r for runs in results.values() for r in runs]
        final = {"correct": True, "attempted": sum(r["attempted"] for r in all_runs),
                 "failed": sum(r["failed"] for r in all_runs),
                 "metrics": {"%s/%s" % (w, name): entry for w, runs in results.items()
                             for name, entry in runs[-1]["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
