#!/usr/bin/env python3
"""Builds and runs the certification benchmark (perfbench/bench.cpp).

Run from the root of a source checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --table [--seed N] [--seconds S]

The first form builds the benchmark from source into .bench_build (or
$CARGO_TARGET_DIR when set), runs one workload and passes its output
through: the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1). The second form runs
every workload untraced and prints every end-to-end metric with its name
and unit, one row per workload.

Exit codes: 0 success, 2 not a source checkout or bad flags, 3 build
failure, 4 benchmark failure or timeout.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["fast_m12_serial", "precise_m3_parallel", "batch_fast_m6_audit"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_root():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures once, then brings the benchmark binary up to date."""
    for need in ("CMakeLists.txt", "src", "perfbench/CMakeLists.txt",
                 "perfbench/bench.cpp"):
        if not os.path.exists(need):
            fail(2, "%s not found: run from the root of a source checkout"
                 % need)
    root = build_root()
    out = os.path.join(root, "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(root, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j",
                  str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(3, "build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_bench(binary, workload, seed, seconds, trace, capture):
    """Runs one workload; returns its stdout when capture is set."""
    work = os.path.join(build_root(), "perfbench-work", str(os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work", work]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(4, "%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(4, "%s exited with %d" % (workload, proc.returncode))
    return proc.stdout


def table(binary, seed, seconds):
    rows = []
    for w in WORKLOADS:
        lines = run_bench(binary, w, seed, seconds, 0, True).splitlines()
        detail = json.loads(lines[-2])["perfbench"]
        result = json.loads(lines[-1])
        rows.append((w, detail, result))
    names = [(n, m["unit"]) for n, m in rows[0][2]["metrics"].items()]
    head = ["workload"] + ["%s [%s]" % nu for nu in names] + \
        ["failed_share", "tail_pct", "isa", "threads", "nproc", "seed"]
    body = []
    for w, d, r in rows:
        body.append([w] + ["%.6g" % r["metrics"][n]["value"] for n, _ in names]
                    + ["%.6g" % d["failed_share"],
                       "%.1f" % d["tail_percentile"], d["isa"],
                       str(d["threads"]), str(d["nproc"]), str(d["seed"])])
    widths = [max(len(x[i]) for x in [head] + body) for i in range(len(head))]
    for line in [head] + body:
        print("  ".join(c.ljust(widths[i]) for i, c in enumerate(line)))
    for w, d, _ in rows:
        print("%s: %s" % (w, d["why"]))


def main():
    # A SIGTERM becomes an exception, so subprocess.run kills and reaps the
    # running build step or benchmark before this script exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--table", action="store_true",
                    help="run every workload and print one row each")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail(2, "--seed must be >= 0 and --seconds > 0")
    if not args.table and not args.workload:
        fail(2, "give --workload NAME or --table")
    binary = build()
    if args.table:
        table(binary, args.seed, args.seconds)
    else:
        sys.stdout.flush()
        run_bench(binary, args.workload, args.seed, args.seconds, args.trace,
                  False)


if __name__ == "__main__":
    main()
