#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload --runs times on the default seeds (1, 2, ...) and as
many times on held-out seeds (1001, 1002, ...), alternating the workload
order from one repetition to the next, and prints for each end-to-end
metric of BENCHMARK.json the median, quartiles and spread (interquartile
range over median) of each set next to the metric's bound, plus the
shift between the two sets' medians. Run from the repository root:

    python3 e2ebench/steady.py --runs 10

Exits non-zero when a run fails, a spread or a median shift exceeds its
bound, or the share of failed operations differs between the sets.
"""
import argparse
import json
import statistics
import subprocess
import sys

SETS = {"default": 1, "held_out": 1001}


def run_once(bench, workload, seed):
    cmd = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d):\n%s" %
                           (workload, seed, out.returncode, out.stdout[-2000:]))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    results = {(s, w): [] for s in SETS for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            for s in SETS:
                r = run_once(bench, w, SETS[s] + i)
                if not r["correct"]:
                    raise SystemExit("%s seed %d: outputs incorrect" %
                                     (w, SETS[s] + i))
                results[(s, w)].append(r)
                print("run %d %-9s %-8s seed %4d  %s" % (
                    i, w, s, SETS[s] + i,
                    "  ".join("%s=%.4g" % (m["name"],
                                           r["metrics"][m["name"]]["value"])
                              for m in metrics)), flush=True)

    ok = True
    print()
    print("%-9s %-16s %-8s %12s %12s %12s %8s %8s %8s" % (
        "workload", "metric", "set", "q1", "median", "q3", "spread",
        "bound", "shift"))
    for w in workloads:
        shares = set()
        for s in SETS:
            rs = results[(s, w)]
            shares.add(sum(r["failed"] for r in rs) /
                       max(1, sum(r["attempted"] for r in rs)))
        if len(shares) > 1:
            ok = False
            print("%s: failed share differs between sets: %s" % (w, shares))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = {}
            for s in SETS:
                vals = [r["metrics"][name]["value"] for r in results[(s, w)]]
                q1, med, q3 = (statistics.quantiles(vals, n=4)
                               if len(vals) > 1 else (vals[0],) * 3)
                spread = (q3 - q1) / med if med else float("inf")
                medians[s] = med
                shift = ""
                if len(medians) == 2:
                    a, b = medians.values()
                    worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                    shift = "%+.3f" % worse
                    if worse > bound:
                        ok = False
                flag = ""
                if spread > bound:
                    ok = False
                    flag = " !"
                elif spread > bound / 3:
                    flag = " ~"
                print("%-9s %-16s %-8s %12.4g %12.4g %12.4g %8.3f %8.3f %8s%s" % (
                    w, name, s, q1, med, q3, spread, bound, shift, flag))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
