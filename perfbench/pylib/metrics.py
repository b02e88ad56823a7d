"""Latency summaries and the per-layer breakdown of a traced run."""

import statistics

# Library layer spans recorded around public calls (see native/replica.cc and
# native/leak.cc), reported as `<span>_ms`.
LAYER_SPANS = [
    "relational.csv_parse", "relational.to_structure", "relational.align",
    "relational.write", "cli.param_domain", "logic.query_parse",
    "core.query_index", "core.local_plan", "xml.parse", "xml.encode",
    "xml.xpath_compile", "core.tree_plan", "xml.align", "xml.write",
    "core.embed", "core.server_build", "core.detect", "coding.observe",
    "coding.trace_many", "io.file", "teardown",
]

# Counters reported as the mean over the ops that record them.
MEAN_COUNTS = [
    "core.active_weights", "core.params", "core.pairs", "core.channel_bits",
    "core.pairs_erased", "coding.corrected", "coding.filled", "coding.accused",
    "structure.canon_hits", "structure.canon_misses", "tree.dta_states",
]

PER_LAYER = ([s + "_ms" for s in LAYER_SPANS] + MEAN_COUNTS + [
    "core.bit_recovery_ratio", "structure.canon_hit_rate", "coding.prune_ratio",
    "coding.candidates_per_s", "coding.innocents_accused", "cli.glue_ms",
    "trace.overhead_ms", "trace.unattributed_ms", "trace.unattributed_pct",
])

UNITS = {"_ms": "ms", "_pct": "%", "_per_s": "1/s", "_ratio": "ratio", "_rate": "ratio"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def p50(values):
    return statistics.median(values)


def tail(values):
    """The highest nearest-rank percentile with at least ten samples above
    it, as (value, percentile, samples). A tail is never taken below the
    median: with fewer than 21 samples no percentile >= p50 qualifies and
    the maximum (percentile 100) stands in."""
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0, n
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n


def _span_name(name):
    return "io.file" if name in ("io.read", "io.write") else name


def per_layer(traced_ops, paired):
    """traced_ops: helper answers of traced ops (spans + counts).
    paired: dicts with the untraced `replica_ms`, traced `traced_ms` and,
    for CLI workloads, `cli_ms` wall times of the same op."""
    layer_total = {s: 0.0 for s in LAYER_SPANS}
    layer_ops = {s: 0 for s in LAYER_SPANS}
    count_sum = {}
    count_ops = {}
    unattributed = []
    op_ms = []
    for op in traced_ops:
        spans = op["spans"]
        roots = [s for s in spans if s[2] == 0]
        seen = set()
        for s in spans:
            name = _span_name(s[0])
            if name in layer_total and s[2] != 0:
                layer_total[name] += s[5] - s[4]
                seen.add(name)
        for name in seen:
            layer_ops[name] += 1
        for root in roots:
            children = sum(s[5] - s[4] for s in spans if s[2] == root[1])
            unattributed.append((root[5] - root[4]) - children)
            op_ms.append(root[5] - root[4])
        for name, value in op["counts"].items():
            count_sum[name] = count_sum.get(name, 0.0) + value
            count_ops[name] = count_ops.get(name, 0) + 1

    def total(name):
        return count_sum.get(name, 0.0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    out = {}
    for s in LAYER_SPANS:
        out[s + "_ms"] = ratio(layer_total[s], layer_ops[s])
    for name in MEAN_COUNTS:
        out[name] = ratio(total(name), count_ops.get(name, 0))
    out["core.bit_recovery_ratio"] = ratio(total("core.bits_recovered"), total("core.bits_read"))
    hits, misses = total("structure.canon_hits"), total("structure.canon_misses")
    out["structure.canon_hit_rate"] = ratio(hits, hits + misses)
    out["coding.prune_ratio"] = ratio(total("coding.pruned"), total("coding.candidates"))
    trace_s = layer_total["coding.trace_many"] / 1000.0
    out["coding.candidates_per_s"] = ratio(total("coding.candidates"), trace_s)
    out["coding.innocents_accused"] = total("coding.innocents_accused")
    cli = [p["cli_ms"] - p["replica_ms"] for p in paired if "cli_ms" in p]
    out["cli.glue_ms"] = statistics.mean(cli) if cli else 0.0
    over = [p["traced_ms"] - p["replica_ms"] for p in paired]
    out["trace.overhead_ms"] = statistics.mean(over) if over else 0.0
    out["trace.unattributed_ms"] = statistics.mean(unattributed) if unattributed else 0.0
    out["trace.unattributed_pct"] = 100.0 * ratio(sum(unattributed), sum(op_ms))
    return out
