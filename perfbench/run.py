#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark program is compiled from the
sources in this checkout into $CARGO_TARGET_DIR (default .bench_build);
nothing is written outside that directory.  The last stdout line is the
JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["explore-table1", "blame-matrix", "gen-sharded", "serve-tenants"]
# Set-up is timed in this many processes (the measured run is one of them)
# and the median is reported.
SETUP_RUNS = 5
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def launch(cmd):
    """Runs the benchmark program, passing the time it was started at."""
    cmd = cmd + ["--spawn-ns", str(time.monotonic_ns())]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "work", str(os.getpid()))
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--trace-file", os.path.join(
               trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        setups = []
        if args.trace == 0:
            for _ in range(SETUP_RUNS - 1):
                p = launch(cmd + ["--setup-only", "1"])
                if p.returncode != 0:
                    return p.returncode
                setups.append(float(p.stdout.split()[-1]))
        p = launch(cmd)
    except subprocess.TimeoutExpired as e:
        print("perfbench: timed out: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = p.stdout.splitlines()
    if p.returncode != 0 and not (lines and lines[-1].startswith("{")):
        sys.stdout.write(p.stdout)
        return p.returncode or 1
    result = json.loads(lines[-1])
    if args.trace == 0:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        print("# setup_s samples: %s" % " ".join("%.6f" % s for s in setups))
        setup["value"] = statistics.median(setups)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return p.returncode


if __name__ == "__main__":
    sys.exit(main())
