#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [--seconds 2] [--workloads a,b]

Checks, from the checkout this script lives in:
  1. every metric and workload name in BENCHMARK.json matches
     [A-Za-z0-9_.-]+ and every unit [A-Za-z0-9_/%.-]+;
  2. a run of each workload with a second seed (2) prints every end_to_end
     metric with its declared unit and completes with correct = true and
     fail_ratio (failed / attempted) 0;
  3. a traced run of each workload prints every per_layer metric with its
     declared unit;
  4. the correctness gate rejects a deliberately perturbed output
     (--inject-mismatch): the run exits non-zero with correct = false and
     at least one failed operation.
Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(ok, what):
    print("%s: %s" % ("ok" if ok else "FAIL", what))
    if not ok:
        sys.exit(1)


def run(workload, seed, seconds, trace, inject=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if inject:
        cmd.append("--inject-mismatch")
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=2)
    p.add_argument("--workloads", default="")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)

    metrics = declared["end_to_end"] + declared["per_layer"]
    names = [w["name"] for w in declared["workloads"]] + \
        [m["name"] for m in metrics]
    check(all(NAME.match(n) for n in names), "names match [A-Za-z0-9_.-]+")
    check(len(set(names)) == len(names), "names are unique")
    check(all(UNIT.match(m["unit"]) for m in metrics), "units are valid")

    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in declared["workloads"]])
    for w in workloads:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(w, 2, args.seconds, trace)
            check(code == 0 and result is not None and result["correct"],
                  "%s --trace %d runs correctly with seed 2" % (w, trace))
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  "%s --trace %d: fail_ratio 0 over %d operations" %
                  (w, trace, result["attempted"]))
            got = result["metrics"]
            missing = [m["name"] for m in declared[kind]
                       if got.get(m["name"], {}).get("unit") != m["unit"]]
            check(not missing and len(got) == len(declared[kind]),
                  "%s prints every %s metric with its unit%s" %
                  (w, kind, " (missing %s)" % missing if missing else ""))
        code, result = run(w, 2, args.seconds, 0, inject=True)
        check(code != 0 and result is not None and not result["correct"] and
              result["failed"] >= 1,
              "%s: the correctness gate rejects a perturbed output" % w)


if __name__ == "__main__":
    main()
