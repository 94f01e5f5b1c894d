#!/usr/bin/env python3
"""SPATE benchmark runner.

Builds the benchmark (spatebench/, which compiles ../src) into
$CARGO_TARGET_DIR/spatebench (default .bench_build/spatebench) and runs one
workload:

    python3 spatebench/run.py --workload explore_cold --seed 1 --seconds 10 --trace 0

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it is the run's provenance. With --trace 1 the spans are written
to the build directory as spans-<workload>-<seed>.jsonl.

Other modes:

    python3 spatebench/run.py --report [--runs 10] [--workloads a,b] [--seconds S]
        Steadiness report: runs each workload --runs times with seeds
        1..runs and prints, per end-to-end metric, the median, quartiles,
        (q3-q1)/median and (max-min)/median against the bound in
        BENCHMARK.json, flagging spreads above the bound.

    python3 spatebench/run.py --selftest
        Builds and runs the benchmark's own arithmetic tests.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "explore_cold", "serve_hot")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "spatebench")


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures and builds once per checkout; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no SPATE sources next to spatebench/ (src/ missing)")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return out


def git_sha():
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else "unknown"


def run_workload(out, workload, seed, seconds, trace):
    """Runs the benchmark binary; returns (exit code, stdout text). Traced
    runs write their spans to spans-<workload>-<seed>.jsonl in `out`."""
    cmd = [os.path.join(out, "spatebench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--git-sha", git_sha()]
    if trace:
        cmd += ["--trace-out",
                os.path.join(out, f"spans-{workload}-{seed}.jsonl")]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return result.returncode, result.stdout


def load_bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def spread(values):
    """Median, quartiles and relative spreads of one metric's run values."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    scale = abs(median) if median else 1.0
    return {
        "median": median, "q1": q1, "q3": q3,
        "iqr_share": (q3 - q1) / scale,
        "range_share": (max(values) - min(values)) / scale,
    }


def report(args):
    out = build()
    spec, bounds = load_bounds()
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    summary = {}
    flagged = 0
    for workload in workloads:
        runs = []
        provenance = []
        for seed in range(1, args.runs + 1):
            started = time.monotonic()
            code, text = run_workload(out, workload, seed, seconds, 0)
            lines = text.strip().splitlines()
            if code != 0 or not lines:
                log(f"{workload} seed {seed}: exit {code}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                log(f"{workload} seed {seed}: incorrect answers")
            runs.append(result["metrics"])
            if len(lines) > 1:
                provenance.append(json.loads(lines[-2]).get("provenance"))
            log(f"{workload} seed {seed}: done in "
                f"{time.monotonic() - started:.1f} s")
        print(f"\n{workload}: {len(runs)} runs, seeds 1..{len(runs)}, "
              f"{seconds} s each")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
        summary[workload] = {"provenance": provenance}
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            s = spread(values)
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and s["range_share"] > bound:
                flag = "  SPREAD > BOUND"
                flagged += 1
            elif bound is not None and s["iqr_share"] > bound / 3:
                flag = "  iqr > bound/3"
            print(f"  {name:28} {s['median']:12.5g} {s['q1']:12.5g} "
                  f"{s['q3']:12.5g} {s['iqr_share']:8.4f} "
                  f"{s['range_share']:8.4f} "
                  f"{bound if bound is not None else '-':>6}{flag}")
            summary[workload][name] = dict(s, values=values, bound=bound)
    with open(os.path.join(out, "report.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print(f"\n{flagged} metric(s) with (max-min)/median above the bound")
    return 0


def selftest():
    out = build()
    tests = os.path.join(out, "spatebench_tests")
    codes = []
    if os.path.isfile(tests):
        codes.append(subprocess.run([tests]).returncode)
    else:
        log("gtest not found at configure time; C++ tests not built")
    env = dict(os.environ, SPATEBENCH_BIN=os.path.join(out, "spatebench"))
    codes.append(subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(HERE, "tests"), "-p", "test_*.py"], env=env).returncode)
    return 0 if all(c == 0 for c in codes) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.report:
            return report(args)
        if (args.workload is None or args.seed is None or args.seconds is None
                or args.trace is None):
            parser.error("--workload, --seed, --seconds and --trace are required")
        out = build()
        code, text = run_workload(out, args.workload, args.seed, args.seconds,
                                  args.trace)
        sys.stdout.write(text)
        sys.stdout.flush()
        return code
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log(f"error: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
