#!/usr/bin/env python3
"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds perfbench/perfbench.exe with dune
(inside the checkout's _build), times the program's set-up over several
launches, runs the workload and prints, as the last line of stdout, one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. Exits non-zero, printing no result, if the
build or the run fails. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SETUP_LAUNCHES = 90
TIMED_LAUNCHES = 9
RUN_BUDGET_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout)
        die("build failed")


def launch(args, deadline):
    """One run of the program: seconds from launch until it is ready to
    run its first cell, its printed lines, and its result (with
    --setup-only, the host-speed scale it printed)."""
    start = time.perf_counter()
    p = subprocess.Popen([EXE] + args,
                         stdout=subprocess.PIPE, text=True)
    ready = p.stdout.readline()
    setup = time.perf_counter() - start
    try:
        out, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        die("run timed out")
    if p.returncode != 0 or ready.strip() != "ready":
        die("run exited with code %d" % p.returncode)
    if "--setup-only" in args:
        return setup, [], float(out.split()[1])
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        die("run printed no result")
    return setup, lines[:-1], result


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    build()
    if a.self_test:
        sys.exit(subprocess.run([EXE, "--self-test"]).returncode)
    if not a.workload:
        die("--workload is required")
    args = ["--workload", a.workload, "--seed", str(a.seed), "--trace",
            str(a.trace)]
    attempted = failed = 0
    deadline = time.monotonic() + RUN_BUDGET_S
    if a.trace:
        _, lines, result = launch(args + ["--seconds", str(a.seconds)], deadline)
        for line in lines:
            print(line)
        metrics = result["metrics"]
        attempted, failed = result["attempted"], result["failed"]
    else:
        # The timed phase is split over several launches, and the figures
        # are medians over launches, so no single process's luck in where
        # its memory lands or which core it shares decides them. Before
        # each, a share of the set-up launches: they stop before their
        # first cell, each scaled by the host-speed factor it prints next
        # (see calib/calib.ml), and spread so over the run they sample
        # the host as the timed launches do.
        per = "%.3f" % (a.seconds / TIMED_LAUNCHES)
        setups = []
        runs = []
        for _ in range(TIMED_LAUNCHES):
            for _ in range(SETUP_LAUNCHES // TIMED_LAUNCHES):
                setup, _, scale = launch(args + ["--setup-only"], deadline)
                setups.append((setup, scale))
            _, lines, result = launch(args + ["--seconds", per], deadline)
            runs.append(result["metrics"])
            attempted += result["attempted"]
            failed += result["failed"]
            for line in lines:
                print(line)
        metrics = {}
        for name in ("sim_steps_per_s", "peak_rss_mb", "raw.sim_steps_per_s"):
            values = [r[name]["value"] for r in runs]
            metrics[name] = {"value": statistics.median(values),
                             "unit": runs[0][name]["unit"]}
            print("%-20s %.6g %s (median of %d launches: %s)" % (
                name, metrics[name]["value"], metrics[name]["unit"],
                len(values), ", ".join("%.4g" % v for v in values)))
        metrics["setup_s"] = {
            "value": statistics.median([s * k for s, k in setups]), "unit": "s"}
        raw_setup = statistics.median([s for s, _ in setups])
        print("setup_s              %.5f s (scaled; raw %.5f s; median of %d "
              "launches)" % (metrics["setup_s"]["value"], raw_setup,
                             len(setups)))
        # The unscaled figures, which ab.py compares (see calib/calib.ml).
        raw = {n: metrics.pop("raw." + n)["value"]
               for n in ("sim_steps_per_s",)}
        raw["setup_s"] = raw_setup
        raw["peak_rss_mb"] = metrics["peak_rss_mb"]["value"]
        print("raw " + json.dumps(raw))
        print("failed_cell_frac %.4f (%d of %d cell runs)"
              % (failed / max(1, attempted), failed, attempted))
    declared = declared_metrics(a.trace)
    measured = {n: m["unit"] for n, m in metrics.items()}
    if measured != declared:
        die("metrics %s differ from BENCHMARK.json %s" % (measured, declared))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: metrics[n] for n in declared},
    }))


if __name__ == "__main__":
    main()
