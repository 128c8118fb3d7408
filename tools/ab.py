#!/usr/bin/env python3
"""Interleaved A/B run of the certification benchmark on two git revisions.

Run from inside a git checkout:

  python3 tools/ab.py PARENT CHANGE [--workload NAME]... [--trace 0|1]

Each revision is exported with `git archive` into a temporary directory,
and that tree's own perfbench/run.py runs there (it builds into the
tree's .bench_build). One untimed run per tree builds it before any pair
runs, so no build overlaps a measured run. Per workload there are 10
pairs. The side that runs first alternates from pair to pair, every run
uses the same seed, and every run is BENCHMARK.json's run_seconds long.
The workloads are BENCHMARK.json's, or those named with --workload.
--trace 0 compares the end-to-end metrics, --trace 1 the per-layer ones.

For each metric the report gives both medians, the median delta, the
change's wins out of the pairs (ties count for neither side), the
parent's interquartile range (IQR) and one verdict:

  worse       the change loses >= 9/10 pairs, and its median is worse by
              more than the parent's IQR and, end to end, by more than
              the metric's BENCHMARK.json bound;
  better      the change wins >= 9/10 pairs, and its median is better by
              more than the parent's IQR;
  unresolved  end to end only: the parent's IQR is wider than the bound
              and not every change run beats every parent run, or the
              median is worse by more than the bound without the pairs
              confirming it;
  same        otherwise.

Per workload it also says whether the radius digests of each pair agree.
A digest covers the queries a run certified in its radius window; a traced
run stops at its time budget, so two runs that certified different numbers
of queries are reported as not comparable rather than as different.
Both sides run on this host, one after the other, so nothing is pinned.
The temporary trees, builds included, are removed on exit.

Exit codes: 0 no metric is worse, 1 some metric is worse, 2 bad arguments
or a failed export, build or run.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

PAIRS = 10
SIDES = ("parent", "change")
# One seed for every run: the parent's IQR then measures the spread of
# repeated runs, not the spread between the query sets of different seeds.
SEED = 1


def fail(msg):
    print("ab: " + msg, file=sys.stderr)
    sys.exit(2)


def git(top, *args):
    proc = subprocess.run(["git", "-C", top] + list(args), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        fail("git %s: %s" % (" ".join(args), proc.stderr.strip()))
    return proc.stdout.strip()


def export(top, rev, dest):
    """Writes the files of commit rev into dest; no worktree, no branch."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", top, "archive", "--format=tar",
                                rev], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail("cannot export %s" % rev)


def run(tree, workload, seconds, trace):
    """One perfbench run in tree; returns (detail, result) objects."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", str(trace)]
    # Each tree builds into its own .bench_build.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=tree, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-4000:])
        fail("%s in %s exited with %d" % (workload, tree, proc.returncode))
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive")


def verdict(parent, change, lower_is_better, bound):
    """Compares paired samples of one metric.

    parent[i] and change[i] come from pair i. bound is the relative
    end-to-end bound from BENCHMARK.json, or None for a per-layer metric.
    Returns (verdict, wins, losses).
    """
    sign = -1.0 if lower_is_better else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    need = math.ceil(0.9 * len(parent))
    q1, _, q3 = quartiles(parent)
    iqr = q3 - q1
    gain = sign * (statistics.median(change) - statistics.median(parent))
    limit = 0.0 if bound is None else bound * abs(statistics.median(parent))
    if losses >= need and -gain > max(iqr, limit):
        return "worse", wins, losses
    if wins >= need and gain > iqr:
        return "better", wins, losses
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if bound is not None and ((iqr > limit and not dominates) or
                              -gain > limit):
        return "unresolved", wins, losses
    return "same", wins, losses


def digest_line(parent, change):
    """Says whether the radius digests of each pair agree.

    parent[i] and change[i] are the (radius_window, radius_digest) of the
    runs of pair i.
    """
    differ, apart = [], []
    for i, (p, c) in enumerate(zip(parent, change)):
        if p[0] != c[0]:
            apart.append(str(i + 1))
        elif p[1] != c[1]:
            differ.append(str(i + 1))
    line = "radius digests equal in %d/%d pairs" % (
        len(parent) - len(differ) - len(apart), len(parent))
    if differ:
        line += "; DIFFER in pair(s) %s" % ", ".join(differ)
    if apart:
        line += "; not comparable (different query counts) in pair(s) %s" \
            % ", ".join(apart)
    return line


def fmt(x):
    return "%.6g" % x


def report(workload, trace, runs, specs):
    """Prints one workload's table; returns True when a metric is worse."""
    print("== %s, trace %d, %d pairs" % (workload, trace, PAIRS))
    print(digest_line(*([(d["radius_window"], d["radius_digest"])
                         for d, _ in runs[s]] for s in SIDES)))
    for side in SIDES:
        bad = sum(not r["correct"] for _, r in runs[side])
        if bad:
            print("%s: %d of %d runs not correct" % (side, bad, PAIRS))
    head = ["metric", "parent_med", "change_med", "delta", "delta%", "wins",
            "parent_iqr", "verdict"]
    rows, worse = [], False
    for name, spec in specs:
        got = [[r["metrics"].get(name) for _, r in runs[s]] for s in SIDES]
        if any(m is None for side in got for m in side):
            rows.append([name] + ["-"] * 6 + ["absent"])
            continue
        p, c = ([m["value"] for m in side] for side in got)
        v, wins, _ = verdict(p, c, spec["better"] == "lower",
                             spec.get("bound"))
        worse |= v == "worse"
        mp, mc = statistics.median(p), statistics.median(c)
        q1, _, q3 = quartiles(p)
        rel = "%+.1f%%" % (100 * (mc - mp) / abs(mp)) if mp else "-"
        rows.append([name, fmt(mp), fmt(mc), fmt(mc - mp), rel,
                     "%d/%d" % (wins, PAIRS), fmt(q3 - q1), v])
    widths = [max(len(r[i]) for r in [head] + rows) for i in range(len(head))]
    for r in [head] + rows:
        print("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)).rstrip())
    print()
    sys.stdout.flush()
    return worse


def main():
    # A SIGTERM becomes an exception, so the running benchmark is reaped
    # and the temporary trees are removed before this script exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    top = subprocess.run(["git", "rev-parse", "--show-toplevel"], text=True,
                         stdout=subprocess.PIPE).stdout.strip()
    if not top:
        fail("run from inside a git checkout")
    with open(os.path.join(top, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    specs = [(m["name"], m) for m in
             bench["per_layer" if args.trace else "end_to_end"]]
    revs = [git(top, "rev-parse", "--verify", r + "^{commit}")
            for r in (args.parent, args.change)]
    workloads = args.workload or names
    seconds = bench["run_seconds"]
    print("ab: parent %s, change %s, %g s per run" %
          (revs[0][:12], revs[1][:12], seconds))
    worse = False
    with tempfile.TemporaryDirectory(prefix="deept-ab-") as tmp:
        trees = dict(zip(SIDES, (os.path.join(tmp, s) for s in SIDES)))
        for side, rev in zip(SIDES, revs):
            export(top, rev, trees[side])
            run(trees[side], workloads[0], seconds, args.trace)
        for w in workloads:
            runs = {s: [] for s in SIDES}
            for i in range(PAIRS):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    t0 = time.monotonic()
                    runs[side].append(run(trees[side], w, seconds,
                                          args.trace))
                    print("ab: %s pair %d/%d %s: %.0f s" %
                          (w, i + 1, PAIRS, side, time.monotonic() - t0),
                          file=sys.stderr)
            worse |= report(w, args.trace, runs, specs)
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
