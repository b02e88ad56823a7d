"""The workloads. Each one sets up its inputs, then runs mark and detect
operations as a single closed-loop client (one operation at a time) and
checks every output.

An op record is a dict: kind (mark / detect), wall_ms, ok, detail.
In a traced run each op is also replayed in-process by the helper, once
untraced and once traced; those answers feed the per-layer breakdown.
"""

import hashlib
import os
import random
import re

import inputs
import native

SUSPECT_DELETE = 0.03
SUSPECT_INSERT = 0.02
SUSPECT_NOISE = 0.03
PAYLOAD_BITS = 32


def _sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _op(kind, wall_ms, problems):
    return {"kind": kind, "wall_ms": wall_ms, "ok": not problems, "detail": "; ".join(problems)}


class CliWorkload:
    """csv-ledger and xml-school: qpwm mark-* and detect-* invocations over
    generated files. Detect reads a leaked copy of the first mark's output
    and must recover the embedded payload."""

    def __init__(self, model, spec, bins, work, seed, threads, trace):
        self.model, self.spec = model, spec
        self.cli, self.helper_exe, self.reference_exe = bins
        self.work, self.seed, self.trace = work, seed, trace
        self.env = native.child_env(threads)
        self.original = os.path.join(work, "original." + model)
        self.marked = os.path.join(work, "marked." + model)
        self.replica_marked = os.path.join(work, "marked.replica." + model)
        self.suspect = os.path.join(work, "suspect." + model)
        rng = random.Random(seed)
        self.payload = "".join(rng.choice("01") for _ in range(PAYLOAD_BITS))
        key = "%x:%x" % (rng.getrandbits(48), rng.getrandbits(48))
        if model == "csv":
            param = spec["param"]
            self.flags = ["--schema", "order:key,%s:key,revenue:weight:order" % param,
                          "--table", "Sales", "--query", "Sales(v1,u1)",
                          "--param-column", param]
        else:
            self.flags = ["--weight-tags", "exam", "--xpath", "school/student[firstname=$1]/exam"]
        self.flags += ["--key", key, "--codec", "hamming", "--redundancy", "3",
                       "--mark", self.payload]
        self.first_mark_sha = None
        self.have_suspect = False
        self.maxrss_kb = 0
        self.helper = native.Helper(self.helper_exe, self.env) if trace else None
        self.traced_ops, self.paired = [], []

    # --- set-up ---------------------------------------------------------------

    def setup(self):
        """Writes the original input file (one set-up repetition) with the
        helper's generator, in a fresh process as the program runs."""
        native.remove(self.original)
        argv = [self.helper_exe, "gen-" + self.model, "--seed", str(self.seed), "--out", self.original]
        for flag, value in self.spec["gen"].items():
            argv += ["--" + flag, str(value)]
        if native.run_child(argv, self.env, self.work).code != 0:
            raise RuntimeError("input generation failed: " + " ".join(argv))

    def _argv(self, kind, out=None):
        """The op's subcommand and arguments. A mark's output file is removed
        first, so that the mark writes a fresh file."""
        if kind == "mark":
            native.remove(out or self.marked)
            return "mark-" + self.model, ["--in", self.original, "--out", out or self.marked] + self.flags
        if not self.have_suspect:
            raise RuntimeError("no usable first mark to derive the suspect from")
        return "detect-" + self.model, ["--original", self.original, "--suspect", self.suspect] + self.flags

    def _first_mark(self, stdout, problems):
        """After the first mark: the independent drift check, then the leaked
        suspect every detect reads."""
        bound = re.search(r"bound <= (\d+) per query|per-query distortion <= (\d+)", stdout)
        if not bound:
            problems.append("mark output lacks the distortion bound")
            return
        bound = int(bound.group(1) or bound.group(2))
        if self.model == "csv":
            drift = inputs.max_drift(inputs.csv_param_sums(self.original, 1),
                                     inputs.csv_param_sums(self.marked, 1))
            inputs.csv_suspect(self.marked, self.suspect, self.seed + 2, SUSPECT_DELETE,
                               SUSPECT_INSERT, SUSPECT_NOISE)
        else:
            drift = inputs.max_drift(inputs.xml_param_sums(self.original),
                                     inputs.xml_param_sums(self.marked))
            inputs.xml_suspect(self.marked, self.suspect, self.seed + 2, SUSPECT_DELETE)
        if drift > bound:
            problems.append("per-parameter drift %s exceeds the bound %d" % (drift, bound))
        self.have_suspect = True

    # --- checks ---------------------------------------------------------------

    def _check(self, kind, code, payload, marked_path, problems):
        if code != 0:
            problems.append("%s exited %d" % (kind, code))
        if kind == "mark":
            if self.first_mark_sha is not None and _sha(marked_path) != self.first_mark_sha:
                problems.append("marked bytes differ from the first mark")
        elif payload is None or payload != self.payload.ljust(len(payload), "0"):
            problems.append("decoded payload %s is not the embedded %s" % (payload, self.payload))

    def _run_cli(self, kind):
        cmd, args = self._argv(kind)
        res = native.run_child([self.cli, cmd] + args, self.env, self.work)
        self.maxrss_kb = max(self.maxrss_kb, res.maxrss_kb)
        problems = []
        decoded = re.search(r"decoded ([01?]+) ", res.stdout)
        self._check(kind, res.code, decoded.group(1) if decoded else None, self.marked, problems)
        if kind == "mark" and self.first_mark_sha is None and res.code == 0:
            self.first_mark_sha = _sha(self.marked)
            self._first_mark(res.stdout, problems)
        return _op(kind, res.wall_ms, problems)

    def _run_replica(self, kind, cli_ms):
        """The same op in-process, untraced and traced (the order alternates
        between ops); both are checked (a replica mark must write the
        CLI's bytes)."""
        pair = {"cli_ms": cli_ms}
        ops = []
        for traced in ((0, 1) if len(self.paired) % 2 == 0 else (1, 0)):
            cmd, args = self._argv(kind, out=self.replica_marked)
            ans = self.helper.request("replica %d %s %s" % (traced, cmd, " ".join(args)))
            problems = [ans["error"]] if ans["error"] else []
            self._check(kind, ans["exit"], ans["payload"], self.replica_marked, problems)
            pair["traced_ms" if traced else "replica_ms"] = ans["wall_ms"]
            if traced:
                self.traced_ops.append(ans)
            ops.append(_op(kind, ans["wall_ms"], problems))
        self.paired.append(pair)
        return ops

    def op(self, kind):
        """One mark or detect. Returns (timed op, replica ops)."""
        op = self._run_cli(kind)
        return op, self._run_replica(kind, op["wall_ms"]) if self.trace else []

    def reference(self):
        """One run of the speed reference, in a fresh process as the CLI
        runs. Returns (wall_ms, output)."""
        res = native.run_child([self.reference_exe], self.env, self.work)
        return res.wall_ms, res.stdout.strip() if res.code == 0 else "exit %d" % res.code

    def close(self):
        if self.helper:
            self.helper.close()


class LeakWorkload:
    """leak-trace: the answers-only interface, in-process in the helper.
    Set-up plans the owner once and builds four leaked suspects. mark hands
    out all four copies fingerprinted for their recipients; detect traces
    one suspect through its answers only (Observe + TraceMany over the
    candidate pool)."""

    def __init__(self, bins, seed, threads, trace):
        self.seed, self.trace = seed, trace
        self.helper = native.Helper(bins.helper, native.child_env(threads))
        self.traced_ops, self.paired = [], []
        self.maxrss_kb = 0

    def setup(self):
        ans = self.helper.request("leak-setup %d %d" % (self.trace, self.seed))
        if self.trace:
            self.traced_ops = [ans]  # the latest set-up; every op runs after it

    def op(self, kind):
        """One mark or detect; in a traced run it is repeated traced (the
        order alternates between ops). Returns (timed op, replayed ops)."""
        verb = "mark" if kind == "mark" else "read"
        answers = {}
        for traced in ((0, 1) if len(self.paired) % 2 == 0 else (1, 0))[:1 + self.trace]:
            answers[traced] = self.helper.request("leak %d %s" % (traced, verb))
        ops = {traced: _op(kind, ans["wall_ms"], [] if ans["ok"] else [ans["detail"]])
               for traced, ans in answers.items()}
        if self.trace:
            self.traced_ops.append(answers[1])
            self.paired.append({"replica_ms": answers[0]["wall_ms"],
                                "traced_ms": answers[1]["wall_ms"]})
        return ops[0], [ops[1]] if self.trace else []

    def reference(self):
        """One run of the speed reference in the helper, where the ops run
        (the helper keeps its memory out of the peak RSS). Returns (wall_ms,
        output)."""
        ans = self.helper.request("reference")
        return ans["wall_ms"], ans["output"]

    def close(self):
        try:
            self.maxrss_kb = self.helper.request("peak")["peak_kb"]
        finally:
            self.helper.close()


def cycle(wl):
    """One mark, then one detect. Returns (timed ops, replayed ops)."""
    timed, replayed = [], []
    for kind in ("mark", "detect"):
        op, replica_ops = wl.op(kind)
        timed.append(op)
        replayed += replica_ops
    return timed, replayed


SPECS = {
    "csv-ledger": ("csv", {"gen": {"rows": 50000, "customers": 12500}, "param": "customer"}),
    "xml-school": ("xml", {"gen": {"students": 1000, "names": 2}}),
}

NAMES = ["csv-ledger", "xml-school", "leak-trace"]


def make(name, bins, work, seed, threads, trace):
    if name == "leak-trace":
        return LeakWorkload(bins, seed, threads, trace)
    model, spec = SPECS[name]
    return CliWorkload(model, spec, bins, work, seed, threads, trace)
