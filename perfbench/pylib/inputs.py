"""Seeded suspect attacks and the benchmark's own distortion check (the
original inputs come from the helper's gen-csv / gen-xml).

Every attack is a pure function of its seed: the same seed writes the same
bytes. The drift check parses the original and marked files itself, so
it is independent of the planner's QueryIndex.
"""

import random
import re
import xml.etree.ElementTree as ET


def csv_suspect(marked_path, out_path, seed, delete, insert, noise):
    """A leaked copy of a marked CSV: a `delete` share of rows removed,
    `insert` x rows fake rows (fresh order keys, existing parameter keys)
    spliced in, and a `noise` share of the kept rows' weights moved by +-1."""
    rng = random.Random(seed)
    with open(marked_path) as f:
        header = f.readline()
        rows = [line.rstrip("\n").split(",") for line in f if line.strip()]
    keys = sorted({r[1] for r in rows})
    lo = min(int(r[2]) for r in rows)
    hi = max(int(r[2]) for r in rows)
    kept = []
    for r in rows:
        if rng.random() < delete:
            continue
        if rng.random() < noise:
            r = [r[0], r[1], str(max(0, int(r[2]) + rng.choice((-1, 1))))]
        kept.append(r)
    for i in range(int(len(rows) * insert)):
        fake = ["F%d" % i, rng.choice(keys), str(rng.randint(lo, hi))]
        kept.insert(rng.randrange(len(kept) + 1), fake)
    with open(out_path, "w", newline="\n") as f:
        f.write(header)
        f.writelines(",".join(r) + "\n" for r in kept)


_STUDENT = re.compile(r"  <student>\n.*?  </student>\n", re.S)


def xml_suspect(marked_path, out_path, seed, drop):
    """A leaked copy of a marked school document with a `drop` share of
    student subtrees removed."""
    rng = random.Random(seed)
    with open(marked_path) as f:
        text = f.read()
    kept = []
    last = 0
    for m in _STUDENT.finditer(text):
        kept.append(text[last:m.start()])
        if rng.random() >= drop:
            kept.append(m.group(0))
        last = m.end()
    kept.append(text[last:])
    with open(out_path, "w", newline="\n") as f:
        f.write("".join(kept))


def csv_param_sums(path, param_col):
    """Per parameter value: the sum of the weight column over its rows —
    the answer of Sales(v1, u1) summed, read straight from the file."""
    sums = {}
    with open(path) as f:
        f.readline()
        for line in f:
            cells = line.rstrip("\n").split(",")
            sums[cells[param_col]] = sums.get(cells[param_col], 0) + int(cells[2])
    return sums


def xml_param_sums(path):
    """Per first name: the sum of its students' exam grades — the answer of
    school/student[firstname=$1]/exam summed."""
    sums = {}
    for student in ET.parse(path).getroot().iter("student"):
        name = student.find("firstname").text.strip()
        sums[name] = sums.get(name, 0) + int(student.find("exam").text.strip())
    return sums


def max_drift(original, marked):
    """Largest |marked - original| per-parameter sum; a parameter present
    in only one of the two counts as unbounded drift."""
    if original.keys() != marked.keys():
        return float("inf")
    return max((abs(marked[k] - original[k]) for k in original), default=0)

