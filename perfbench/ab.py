#!/usr/bin/env python3
"""Paired A/B comparison of two checkouts on the benchmark.

    python3 perfbench/ab.py BASE_DIR HEAD_DIR

BASE_DIR and HEAD_DIR are two checkouts (for example the parent commit
and a change) whose perfbench/ directories are identical. Every workload
of BENCHMARK.json runs for its run_seconds on both sides, in ten pairs:
pair i runs both sides on seed i+1, alternating which side goes first,
through each checkout's own perfbench/run.py. The comparison uses the
unscaled figures run.py prints on its "raw" line, not the scaled ones of
its result: pairing already protects them from host drift, and the
scaling loop could move with a compiler change (see calib/calib.ml). For
each workload and end-to-end metric it prints each side's median and
quartiles, the number of pairs the head won (ties count for neither) and
a verdict:

  gain        head won at least 9/10 of the pairs and the medians differ
              by more than the base's own quartile spread
  regression  the same rule with the sides swapped
  within      head's median is no worse than base's by more than the
              metric's bound from BENCHMARK.json
  worse       head's median is worse than base's by more than the bound
  unresolved  base's own spread is wider than the bound, and head did not
              beat base on every run
"""

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10


def same_tree(a, b):
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files or cmp.funny_files:
        return False
    return all(same_tree(os.path.join(a, d), os.path.join(b, d))
               for d in cmp.common_dirs)


def run(side, workload, seed, seconds):
    r = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=side, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit("ab: %s failed on %s seed %d" % (side, workload, seed))
    lines = r.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("ab: %s: %d of %d cell runs failed on %s seed %d"
              % (side, result["failed"], result["attempted"], workload, seed))
    raw = [l for l in lines if l.startswith("raw ")]
    if not raw:
        sys.exit("ab: %s printed no raw figures on %s" % (side, workload))
    return json.loads(raw[-1][len("raw "):])


def quartiles(v):
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return q[0], statistics.median(v), q[2]


def verdict(base, head, higher, bound):
    b1, bm, b3 = quartiles(base)
    _, hm, _ = quartiles(head)
    sign = 1 if higher else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    n = len(base)
    if wins >= 0.9 * n and abs(hm - bm) > b3 - b1:
        return wins, "gain"
    if losses >= 0.9 * n and abs(hm - bm) > b3 - b1:
        return wins, "regression"
    if (b3 - b1) / bm > bound and not all(
            sign * (h - b) > 0 for h in head for b in base):
        return wins, "unresolved"
    worse = sign * (bm - hm) / bm
    return wins, "within" if worse <= bound else "worse"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("base")
    ap.add_argument("head")
    a = ap.parse_args()
    for side in (a.base, a.head):
        if not os.path.isfile(os.path.join(side, "perfbench", "run.py")):
            sys.exit("ab: %s holds no perfbench/run.py" % side)
    if not same_tree(os.path.join(a.base, "perfbench"),
                     os.path.join(a.head, "perfbench")):
        sys.exit("ab: the two perfbench/ directories differ; compare with "
                 "identical benchmark code")
    with open(os.path.join(a.head, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    runs = {(w, s): [] for w in workloads for s in ("base", "head")}
    for i in range(PAIRS):
        order = [("base", a.base), ("head", a.head)]
        if i % 2:
            order.reverse()
        for w in workloads:
            for name, side in order:
                runs[(w, name)].append(run(side, w, i + 1, seconds))
        print("pair %d/%d done" % (i + 1, PAIRS), flush=True)
    print("%-18s %-16s %32s %32s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]",
        "wins", "verdict"))
    for w in workloads:
        for m in metrics:
            base = [r[m["name"]] for r in runs[(w, "base")]]
            head = [r[m["name"]] for r in runs[(w, "head")]]
            wins, v = verdict(base, head, m["better"] == "higher", m["bound"])
            fmt = "%.4g [%.4g, %.4g]"
            b1, bm, b3 = quartiles(base)
            h1, hm, h3 = quartiles(head)
            print("%-18s %-16s %32s %32s %3d/%-2d  %s" % (
                w, m["name"], fmt % (bm, b1, b3), fmt % (hm, h1, h3), wins,
                len(base), v))


if __name__ == "__main__":
    main()
