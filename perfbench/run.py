#!/usr/bin/env python3
"""qpwm end-to-end benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. Builds the qpwm CLI, the benchmark helper and
the speed reference under .bench_build/ (first run only), generates the
workload's inputs from --seed, then runs the workload as one closed-loop
client for --seconds and checks every output. The program runs with one
library thread (QPWM_THREADS=1): on a shared host, a run that needs every
core at once measures the neighbours as much as the program. The last line
of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"} — end-to-end metrics with --trace 0, the per-layer breakdown of
a traced in-process replica with --trace 1. Exits 1 when any check fails or
the build is impossible.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "pylib"))

import metrics  # noqa: E402
import native  # noqa: E402
import workloads  # noqa: E402

# Set-up runs at least SETUP_REPEATS times and for SETUP_SECONDS; setup_s is
# the median.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
THREADS = 1

# Every reported time is scaled to a host on which one run of the speed
# reference (native/reference.cc: fixed work that shares no code with qpwm)
# takes REFERENCE_MS: measured x REFERENCE_MS / the reference's median in the
# same run. The reference runs between set-ups and operations, for about
# REFERENCE_SHARE of their time and in the same kind of process as the
# operations, so a shared host that is slower for a while moves the program
# and the reference alike and the scaled times not.
REFERENCE_MS = 100.0
REFERENCE_SHARE = 0.25
REFERENCE_OUTPUT = "f30959ab1d8dd5c4"

END_TO_END = [
    ("setup_s", "s"), ("mark_p50_ms", "ms"), ("detect_p50_ms", "ms"), ("peak_rss_mb", "MB"),
]


def run_workload(name, bins, root, seed, seconds, trace):
    work = os.path.join(root, ".bench_work", "%s-%d-%d" % (name, seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    wl = workloads.make(name, bins, work, seed, THREADS, trace)
    timed, untimed, notes = [], [], []  # untimed: warm-up and replica ops, checked too
    setups, refs = [], []
    spent = {"mark": 0.0, "detect": 0.0}

    def run_references():
        """Runs the reference until it has had REFERENCE_SHARE of the time
        measured so far (untraced runs only)."""
        while not trace and sum(refs) < REFERENCE_SHARE * (1000 * sum(setups) + sum(spent.values())):
            wall_ms, output = wl.reference()
            if output != REFERENCE_OUTPUT:
                raise RuntimeError("the speed reference returned %r" % output)
            refs.append(wall_ms)

    try:
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
            run_references()
        # Warm-up: one mark (the CLI workloads' detects read a leaked copy of
        # it), checked but not timed.
        warm, warm_replayed = wl.op("mark")
        untimed += [warm] + warm_replayed
        # Each op is of the kind that has had less time so far, so a fast op
        # gets as much of the run as a slow one; each kind runs at least once.
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or min(spent.values()) == 0:
            op, replica_ops = wl.op(min(spent, key=spent.get))
            spent[op["kind"]] += op["wall_ms"]
            timed.append(op)
            untimed += replica_ops
            run_references()
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)

    checked = timed + untimed
    failed = [op for op in checked if not op["ok"]]
    for op in failed[:5]:
        notes.append("FAILED %s: %s" % (op["kind"], op["detail"]))
    if trace:
        values = metrics.per_layer(wl.traced_ops, wl.paired)
        units = {k: metrics.unit_of(k) for k in metrics.PER_LAYER}
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "spans-%s-%d.json" % (name, seed)), "w") as f:
            json.dump([op["spans"] for op in wl.traced_ops], f)
    else:
        values, units = {}, dict(END_TO_END)
        ref = metrics.p50(refs)
        scale = REFERENCE_MS / ref
        notes.append("reference: %d runs, p50 %.1f ms; times below are scaled by %.4f"
                     % (len(refs), ref, scale))
        values["setup_s"] = statistics.median(setups) * scale
        notes.append("set-up: %d runs, p50 %.4f s unscaled" % (len(setups), statistics.median(setups)))
        for kind in ("mark", "detect"):
            walls = [op["wall_ms"] for op in timed if op["kind"] == kind]
            values[kind + "_p50_ms"] = metrics.p50(walls) * scale
            value, pct, n = metrics.tail(walls)
            notes.append("%s: %d samples, unscaled p50 %.1f ms, tail p%.1f %.1f ms"
                         % (kind, n, metrics.p50(walls), pct, value))
        values["peak_rss_mb"] = wl.maxrss_kb / 1024.0
    result = {
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=workloads.NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    try:
        bins = native.build(root)
    except (OSError, RuntimeError) as e:
        sys.stderr.write("perfbench: cannot build the benchmark: %s\n" % e)
        return 1

    names = workloads.NAMES if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, notes = run_workload(name, bins, root, args.seed, args.seconds, args.trace == 1)
        results[name] = result
        print("== %s (seed %d, %s)" % (name, args.seed, "traced" if args.trace else "untraced"))
        for note in notes:
            print("   " + note)
        for metric, m in result["metrics"].items():
            print("   %-32s %14.4f %s" % (metric, m["value"], m["unit"]))
        print("   checks: %d attempted, %d failed" % (result["attempted"], result["failed"]))
        if len(names) > 1:
            print(json.dumps(result))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (n, k): v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
