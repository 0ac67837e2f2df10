#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload lsh_kdd --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds perfbench/ (and the
library sources under src/) into .bench_build/. With --trace 0 the result
holds every end_to_end metric of BENCHMARK.json, with --trace 1 every
per_layer metric plus the folded span table. The last line of standard
output is the JSON result; the exit code is 0 only if every output was
correct.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import trace_fold  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD_DIR, "ddp_perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/; run from a full checkout")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4",
                  "--target", "ddp_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def run_binary(args, work_dir):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    env = dict(os.environ, TMPDIR=os.path.join(work_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    # A session of its own, so a timeout can stop fork workers too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray workers, if any
        except ProcessLookupError:
            pass
    return proc.returncode, out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="self-test: corrupt one output; must fail")
    args = parser.parse_args()

    declared = load_declared()
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    build()

    work_dir = os.path.join(ROOT, ".bench_build", "work",
                            "%s-%d-%d" % (args.workload, args.seed,
                                          os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        code, lines = run_binary(args, work_dir)
        if not lines:
            fail("workload printed nothing (exit %d)" % code)
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        if args.trace:
            table, folded = trace_fold.fold(
                os.path.join(work_dir, "spans.json"))
            print(table)
            metrics.update(folded)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    selected = {}
    complete = True
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print("run.py: metric %s missing or not in %s" %
                  (m["name"], m["unit"]), file=sys.stderr)
            complete = False
        else:
            selected[m["name"]] = got
    if not complete and result["correct"]:
        fail("a correct run must print every declared metric")
    correct = bool(result["correct"]) and code == 0 and complete
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": selected}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
