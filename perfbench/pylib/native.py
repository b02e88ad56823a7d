"""Building the benchmark package and running its programs.

Every program the benchmark times is a child process: the qpwm CLI for the
CSV/XML workloads, the qpwm_perfbench helper for the in-process replica and
the answers-only workloads. Children are reaped with wait4 so each one's peak
resident set size is known.
"""

import collections
import json
import os
import shutil
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"

Bins = collections.namedtuple("Bins", "cli helper reference")


def build(root):
    """Configures (once) and builds qpwm, qpwm_perfbench and qpwm_reference
    under root/.bench_build. Returns their paths as Bins; raises on failure."""
    build_dir = os.path.join(root, BUILD_DIR)
    source_dir = os.path.join(root, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=" + source_dir + "\n") not in f.read():
                shutil.rmtree(build_dir)  # configured from another checkout
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "qpwm", "qpwm_perfbench", "qpwm_reference"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return Bins(*(os.path.join(build_dir, name)
                  for name in ("qpwm", "qpwm_perfbench", "qpwm_reference")))


def remove(path):
    """Deletes `path` if it is there. Every output goes to a fresh file: on
    ext4, closing a rewritten (truncated) file allocates its blocks and
    starts writing it back, so an overwrite would time the disk."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def child_env(threads):
    env = dict(os.environ)
    env["QPWM_THREADS"] = str(threads)
    return env


class ChildResult:
    def __init__(self, code, stdout, wall_ms, maxrss_kb):
        self.code = code
        self.stdout = stdout
        self.wall_ms = wall_ms
        self.maxrss_kb = maxrss_kb


def run_child(argv, env, scratch):
    """Runs argv to completion. Returns its exit code, stdout, wall time
    (fork to reap) and peak RSS. stdout/stderr go through files in `scratch`
    so that the child can be reaped with wait4."""
    out_path = os.path.join(scratch, "child.out")
    remove(out_path)
    with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    return ChildResult(proc.returncode, stdout, wall_ms, usage.ru_maxrss)


class Helper:
    """A long-lived `qpwm_perfbench serve` process: one request line in,
    one JSON answer line out."""

    def __init__(self, exe, env):
        self.proc = subprocess.Popen([exe, "serve"], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=env)
        self.maxrss_kb = 0

    def request(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("helper exited during: " + line)
        reply = json.loads(answer)
        if "error" in reply and "wall_ms" not in reply:
            raise RuntimeError("helper: " + reply["error"])
        return reply

    def close(self):
        """Stops the helper, waits for it, and records its peak RSS."""
        if self.proc.returncode is not None:
            return
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        except OSError:
            self.proc.kill()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.maxrss_kb = usage.ru_maxrss
