#!/usr/bin/env python3
"""Folds a traced benchmark run's spans into a per-layer self-time table.

    python3 perfbench/trace_fold.py spans.json

The spans come only from the benchmark's own code (see common.h), one span
around each call into a module under src/, so no trace viewer is needed to
see where a workload's time went. A span's self time is its duration minus
the part of it that its child spans cover. Spans are grouped by the root
span they descend from:

  ops        the workload's timed operations ("pipeline" or "job" roots)
  reference  in-process reference pipelines run to check the server
  probes     the per-layer probes
  setup      everything else (data generation, server start, warm-up)

Also reports obs.trace_overhead: the median traced operation time over the
median untraced one, measured in the same run.
"""

import json
import statistics
import sys

# Layers reported as selftime.<layer> metrics: the op section's self time
# per operation.
OP_LAYERS = ("bench", "core", "ddp", "server")
OP_ROOTS = ("pipeline", "job")


def section_of(root_name):
    if root_name in OP_ROOTS:
        return "ops"
    if root_name == "reference_pipeline":
        return "reference"
    if root_name == "probes":
        return "probes"
    return "setup"


def covered(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def fold(path):
    """Returns (printable table, {metric name: {"value", "unit"}})."""
    with open(path) as f:
        doc = json.load(f)
    spans = {s["id"]: s for s in doc["spans"]}
    children = {}
    for s in spans.values():
        children.setdefault(s["parent"], []).append(s)

    def root_of(s):
        while s["parent"] != 0:
            s = spans[s["parent"]]
        return s

    self_ns = {}  # (section, layer) -> ns
    section_ns = {}
    for s in spans.values():
        kids = [(k["start_ns"], k["end_ns"]) for k in children.get(s["id"], [])]
        own = (s["end_ns"] - s["start_ns"]) - covered(kids, s["start_ns"],
                                                      s["end_ns"])
        root = root_of(s)
        sec = section_of(root["name"])
        self_ns[(sec, s["layer"])] = self_ns.get((sec, s["layer"]), 0) + own
        if s is root:
            section_ns[sec] = section_ns.get(sec, 0) + (s["end_ns"] -
                                                        s["start_ns"])

    lines = ["", "self time by layer (spans from the benchmark's own code)",
             "%-10s %-10s %12s %8s" % ("section", "layer", "self_s", "share")]
    for sec in ("ops", "reference", "probes", "setup"):
        total = section_ns.get(sec, 0)
        for (s2, layer), ns in sorted(self_ns.items()):
            if s2 != sec:
                continue
            share = ns / total if total else 0.0
            lines.append("%-10s %-10s %12.4f %7.1f%%" % (sec, layer, ns / 1e9,
                                                         100 * share))

    ops = [s for s in spans.values()
           if s["parent"] == 0 and s["name"] in OP_ROOTS]
    metrics = {}
    for layer in OP_LAYERS:
        per_op = self_ns.get(("ops", layer), 0) / 1e6 / max(len(ops), 1)
        metrics["selftime." + layer] = {"value": per_op, "unit": "ms/op"}
    traced = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in ops]
    untraced = doc["untraced_op_s"]
    overhead = 0.0
    if traced and untraced:
        overhead = statistics.median(traced) / statistics.median(untraced)
    metrics["obs.trace_overhead"] = {"value": overhead, "unit": "ratio"}
    lines.append("trace overhead: median of %d traced ops / median of %d "
                 "untraced = %.4f" % (len(traced), len(untraced), overhead))
    return "\n".join(lines), metrics


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    table, metrics = fold(sys.argv[1])
    print(table)
    for name, m in sorted(metrics.items()):
        print("%-24s %12.6g %s" % (name, m["value"], m["unit"]))


if __name__ == "__main__":
    main()
