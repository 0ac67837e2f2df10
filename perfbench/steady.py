#!/usr/bin/env python3
"""Repeats benchmark runs and reports how steady each end-to-end metric is.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds N] [--compare PARENT_CHECKOUT]

Runs every workload --runs times, each with its own --seed, from the
checkout this script lives in, and prints for each end-to-end metric of
BENCHMARK.json its median, quartiles and spread: the distance between the
first and third quartile as a share of the median
(statistics.quantiles(values, n=4)). A spread below a third of the metric's
bound is "steady"; within the bound is "ok"; above it is "WIDE".

With --compare, the same seeds also run in PARENT_CHECKOUT (another
checkout of the repository with its own build), alternating which side runs
first, and each metric's change of median is printed against its bound,
with how many seeds the change side won.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (done.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(share, bound):
    if share < bound / 3:
        return "steady"
    return "ok" if share <= bound else "WIDE"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--compare", default=None,
                   help="parent checkout to compare against")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    seconds = args.seconds or declared["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in declared["workloads"]])
    metrics = declared["end_to_end"]

    for workload in workloads:
        change, parent = [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            sides = [(ROOT, change)]
            if args.compare:
                sides.append((args.compare, parent))
                if i % 2:
                    sides.reverse()
            for checkout, out in sides:
                out.append(run_once(checkout, workload, seed, seconds))
            print("  %s seed %d: %s" % (workload, seed, "  ".join(
                "%s=%.6g" % (m["name"], change[-1][m["name"]])
                for m in metrics)), file=sys.stderr)

        print("\n%s: %d runs of %g s" % (workload, args.runs, seconds))
        print("%-16s %14s %14s %14s %8s %6s  %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for m in metrics:
            vals = [r[m["name"]] for r in change]
            med, q1, q3, share = spread(vals)
            print("%-16s %14.6g %14.6g %14.6g %7.3f %6.2f  %s" %
                  (m["name"], med, q1, q3, share, m["bound"],
                   verdict(share, m["bound"])))
        if not args.compare:
            continue
        print("vs parent       %14s %14s %8s %6s  %s" %
              ("parent median", "change median", "worse by", "bound",
               "change wins"))
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            a = [r[name] for r in parent]
            b = [r[name] for r in change]
            pm, cm = statistics.median(a), statistics.median(b)
            worse = (pm - cm) / pm if higher else (cm - pm) / pm
            wins = sum(1 for x, y in zip(a, b)
                       if (y > x if higher else y < x))
            print("%-16s %14.6g %14.6g %7.3f %6.2f  %d/%d" %
                  (name, pm, cm, worse, m["bound"], wins, len(a)))


if __name__ == "__main__":
    main()
