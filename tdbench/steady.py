#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload (or those given with --workloads) --runs times, in an
order that rotates each round so no workload always runs first, each run
with its own seed. For every end-to-end metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)), min and max, and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.
It also checks that the share of failed operations is the same in every
run of a workload.

Run from the repository root:

    python3 tdbench/steady.py --runs 10
    python3 tdbench/steady.py --runs 5 --workloads search

Run i (from 0) uses seed 1 + i. Exit code 1 when some spread exceeds its
bound, or the failed share differs between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    return result, wall


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(names))
    opts = ap.parse_args()
    # Workloads outside BENCHMARK.json (the diagnostic serve workloads)
    # may be named too; the benchmark itself rejects unknown names.
    workloads = opts.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for i in range(opts.runs):
        k = i % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            seed = 1 + i
            res, wall = run_once(bench["command"], w, seed, opts.seconds)
            results[w].append(res)
            brief = " ".join(f"{n}={m['value']:.4g}" for n, m in res["metrics"].items())
            print(f"[{i + 1}/{opts.runs}] {w:<7} seed={seed} wall={wall:.1f}s "
                  f"correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} {brief}", flush=True)
    ok = True
    print()
    print(f"{'workload':<8} {'metric':<34} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'min':>11} {'max':>11} {'spread':>7} {'bound':>6}")
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) > 1 or not all(r["correct"] for r in runs):
            ok = False
            print(f"{w}: failed shares {sorted(shares)}, correct "
                  f"{[r['correct'] for r in runs]}")
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "  OVER"
                    ok = False
                elif spread > bound / 3:
                    flag = "  >1/3"
            print(f"{w:<8} {metric:<34} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{min(vals):>11.5g} {max(vals):>11.5g} {spread:>7.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
