#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py        (from the repository root)

Checks that
  * every generator and suspect attack writes identical bytes for one seed;
  * the in-process replica marks the same bytes as the qpwm CLI (CSV, XML);
  * qpwm mark-* writes identical bytes at 1 thread and at nproc threads;
  * the correctness checks fire: a suspect that carries no mark, a marked
    file drifting past the bound, and a mark that changes between runs each
    count as failed operations; in the answers-only workloads, a marked copy
    damaged after embedding fails the repeat and drift checks, and a
    suspect traced against another copy's leakers fails the trace check.
Exits 1 on the first failure.
"""

import hashlib
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "pylib"))

import inputs  # noqa: E402
import native  # noqa: E402
import workloads  # noqa: E402


def sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        sys.exit(1)


def generators_are_deterministic(bins, work):
    env = native.child_env(1)
    cs = [os.path.join(work, "ledger%d.csv" % i) for i in range(3)]
    for path, seed in zip(cs, (7, 7, 8)):
        native.run_child([bins.helper, "gen-csv", "--rows", "20000", "--customers", "5000",
                          "--seed", str(seed), "--out", path], env, work)
    expect(sha(cs[0]) == sha(cs[1]) and sha(cs[0]) != sha(cs[2]),
           "ledger CSV: same seed, same bytes")
    inputs.csv_suspect(cs[0], cs[1], 3, 0.03, 0.02, 0.03)
    inputs.csv_suspect(cs[0], cs[2], 3, 0.03, 0.02, 0.03)
    expect(sha(cs[1]) == sha(cs[2]), "ledger CSV suspect: same seed, same bytes")
    xs = [os.path.join(work, "school%d.xml" % i) for i in range(3)]
    for path, seed in zip(xs, (7, 7, 8)):
        native.run_child([bins.helper, "gen-xml", "--students", "300", "--names", "2",
                          "--seed", str(seed), "--out", path], env, work)
    expect(sha(xs[0]) == sha(xs[1]) and sha(xs[0]) != sha(xs[2]),
           "school XML: same seed, same bytes")
    inputs.xml_suspect(xs[0], xs[1], 3, 0.03)
    inputs.xml_suspect(xs[0], xs[2], 3, 0.03)
    expect(sha(xs[1]) == sha(xs[2]), "school XML suspect: same seed, same bytes")


def small_workload(name, bins, work, threads, trace=False):
    """A workload of the benchmark's shape over a smaller input."""
    model, spec = workloads.SPECS[name]
    if name == "csv-ledger":
        spec = dict(spec, gen={"rows": 20000, "customers": 5000})
    return workloads.CliWorkload(model, spec, bins, work, 5, threads, trace)


def replica_matches_cli(bins, work):
    for name in ("csv-ledger", "xml-school"):
        wl = small_workload(name, bins, work, os.cpu_count() or 1, trace=True)
        try:
            wl.setup()
            timed, replayed = workloads.cycle(wl)
        finally:
            wl.close()
        ok = all(op["ok"] for op in timed + replayed)
        expect(ok and len(replayed) == 4,
               name + ": replica marks the CLI's bytes and detects the same payload")


def threads_do_not_change_marks(bins, work):
    marks = []
    for threads in (1, os.cpu_count() or 1):
        wl = small_workload("csv-ledger", bins, work, threads)
        try:
            wl.setup()
            timed, _ = workloads.cycle(wl)
        finally:
            wl.close()
        expect(all(op["ok"] for op in timed), "csv-ledger at %d thread(s): checks pass" % threads)
        marks.append(wl.first_mark_sha)
    expect(marks[0] == marks[1], "csv-ledger mark: identical bytes at 1 and nproc threads")


def checks_fire(bins, work):
    wl = small_workload("csv-ledger", bins, work, os.cpu_count() or 1)
    try:
        wl.setup()
        workloads.cycle(wl)
        shutil.copyfile(wl.original, wl.suspect)  # a suspect without the mark
        detect = [op for op in workloads.cycle(wl)[0] if op["kind"] == "detect"][0]
        expect(not detect["ok"], "a suspect without the mark fails the detect check")
        wl.first_mark_sha = "0" * 64  # as if the first mark had written other bytes
        op = workloads.cycle(wl)[0][0]
        expect(not op["ok"], "a mark that differs from the first fails the repeat check")
        with open(wl.marked) as f:  # push one order's revenue past the bound
            lines = f.read().splitlines()
        cells = lines[1].split(",")
        lines[1] = ",".join(cells[:2] + [str(int(cells[2]) + 50)])
        with open(wl.marked, "w") as f:
            f.write("\n".join(lines) + "\n")
        problems = []
        wl._first_mark("capacity: 1 bits, bound <= 2 per query", problems)
        expect(any("drift" in p for p in problems), "drift past the bound fails the drift check")
    finally:
        wl.close()


def leak_checks_fire(bins):
    wl = workloads.LeakWorkload(bins, 5, os.cpu_count() or 1, False)
    try:
        wl.setup()
        timed, _ = workloads.cycle(wl)
        expect(all(op["ok"] for op in timed), "leak-trace: checks pass")
        ans = wl.helper.request("leak 0 mark-corrupt")
        expect(not ans["ok"] and "differs" in ans["detail"] and "drift" in ans["detail"],
               "leak-trace: a damaged copy fails the repeat and drift checks")
        ans = wl.helper.request("leak 0 read-wrong-copy")
        expect(not ans["ok"], "leak-trace: a suspect traced against another copy fails: %s"
               % ans["detail"])
    finally:
        wl.close()


def main():
    root = os.getcwd()
    bins = native.build(root)
    work = os.path.join(root, ".bench_work", "selftest-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    try:
        generators_are_deterministic(bins, work)
        replica_matches_cli(bins, work)
        threads_do_not_change_marks(bins, work)
        checks_fire(bins, work)
        leak_checks_fire(bins)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
