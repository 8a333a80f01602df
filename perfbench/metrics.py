"""Metric arithmetic for the repo benchmark.

The perfbench driver writes raw per-op records (see driver.cpp); every
number the benchmark reports is computed here, from those records, so the
arithmetic is unit-tested (test_metrics.py) without building anything.

Record shapes (JSON):
  span   [name, parent_index, start_us, end_us]; parent -1 is the root
  op     {"kind", "client", "seq", "traced", "wall_ms", "returned", "error",
          "in_band_frac", "eps", "alive_ok", "nodes", "rounds", "messages",
          "digest", "counters": {name: value}, "spans": [span, ...]}
         `seq` is the op's batch number, `client` its slot in the batch;
         ops are stored in batch order
  setup  {"wall_s", "counters", "spans"}
  batch  {"wall_ms", "jobs", "traced", "ops"}: `ops` consecutive ops that
         shared `wall_ms` on `jobs` workers
"""

import hashlib
import statistics

# name -> unit; the order is the order of BENCHMARK.json.
END_TO_END = {
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rounds_per_op": "rounds",
    "msgs_per_node": "msgs",
    "in_band_frac": "frac",
    "pass_frac": "frac",
}

PER_LAYER = {
    "graph.h_sample_ms": "ms",
    "graph.g_pass_ms": "ms",
    "graph.overlay_mb": "MB",
    "protocols.setup_ms": "ms",
    "protocols.liars": "count",
    "protocols.crashes": "count",
    "protocols.setup_msgs": "msgs",
    "protocols.verifier_ms": "ms",
    "dynamics.verifier_refreshes": "count",
    "protocols.run_ms": "ms",
    "protocols.phases_ms": "ms",
    "protocols.subphases": "count",
    "protocols.token_msgs": "msgs",
    "protocols.verify_msgs": "msgs",
    "protocols.injections_caught": "count",
    "protocols.brc_run_ms": "ms",
    "protocols.refine_ms": "ms",
    "protocols.smooth_ms": "ms",
    "incremental.snapshot_ms": "ms",
    "incremental.balls_recomputed": "count",
    "incremental.balls_reused": "count",
    "dynamics.midrun_ms": "ms",
    "dynamics.events_applied": "count",
    "dynamics.events_flushed": "count",
    "dynamics.admitted": "count",
    "bench_core.busy_frac": "frac",
    "unattributed_ms": "ms",
    "unattributed_frac": "frac",
    "trace_overhead_ms": "ms",
}

# Per-layer time metric -> the span that measures it.
LAYER_SPANS = {
    "graph.h_sample_ms": "graph.h_sample",
    "graph.g_pass_ms": "graph.g_pass",
    "protocols.setup_ms": "protocols.setup",
    "protocols.verifier_ms": "protocols.verifier",
    "protocols.brc_run_ms": "protocols.brc_run",
    "protocols.refine_ms": "protocols.refine",
    "protocols.smooth_ms": "protocols.smooth",
    "incremental.snapshot_ms": "incremental.snapshot",
    "dynamics.midrun_ms": "dynamics.midrun",
}

# Spans of calls that only traced ops make (they re-run part of the op).
PROBE_SPANS = ("protocols.setup", "protocols.verifier")

# ROADMAP aim 4: an op's layer spans must cover at least 90% of it.
UNATTRIBUTED_LIMIT = 0.10


def quartiles(values):
    """(q1, median, q3), the quartiles as statistics.quantiles(n=4) cuts
    them. One value is its own quartiles."""
    vals = sorted(values)
    if not vals:
        raise ValueError("quartiles of no values")
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def covered_us(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time_us(spans, index):
    """A span's duration minus the part of it its child spans cover."""
    _, _, start, end = spans[index]
    children = [(s[2], s[3]) for s in spans if s[1] == index]
    return (end - start) - covered_us(children, start, end)


def layer_ms(spans):
    """Milliseconds per span name over one op's non-root spans."""
    out = {}
    for name, parent, start, end in spans:
        if parent != -1:
            out[name] = out.get(name, 0.0) + (end - start) / 1000.0
    return out


def unattributed_ms(spans):
    """Self time of the root span: op time no layer span explains."""
    roots = [i for i, s in enumerate(spans) if s[1] == -1]
    return sum(self_time_us(spans, i) for i in roots) / 1000.0


def run_ms(layers):
    """The op's protocol run: Estimator::run (algo2), or the mid-run feed's
    run_counting_midrun, which runs algo2 inside it."""
    if "protocols.run" in layers:
        return layers["protocols.run"]
    return layers.get("dynamics.midrun")


def phases_ms(layers):
    """Residual of the run after the setup stage and the Verifier: the
    phase loop (flood kernel + decide sweep) has no public entry point."""
    run = run_ms(layers)
    if run is None:
        return None
    return (run - layers.get("protocols.setup", 0.0)
            - layers.get("protocols.verifier", 0.0))


def probe_ms(layers):
    return sum(layers.get(name, 0.0) for name in PROBE_SPANS)


def op_passed(op):
    """The per-op output check: the op returned, at least 1 - eps of the
    honest nodes landed in the backend's declared bound, and (churn) the
    alive count matches the trace."""
    return (op["returned"] and op["alive_ok"]
            and op["in_band_frac"] >= 1.0 - op["eps"])


def fail_count(ops):
    return sum(1 for op in ops if not op_passed(op))


def pass_frac(ops):
    """Share of attempted ops that passed (1 - fail_frac)."""
    return (len(ops) - fail_count(ops)) / len(ops) if ops else 0.0


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def digest(ops):
    """One hex digest over the per-op status/estimate folds."""
    h = hashlib.sha256()
    for op in ops:
        h.update(("%s:%s;" % (op["kind"], op["digest"])).encode())
    return h.hexdigest()[:16]


def deterministic_ops(records):
    """The leading ops the deterministic metrics average over: their inputs
    depend on the seed alone, not on how many ops the budget allowed."""
    return [op for op in records["ops"][:records["prefix_ops"]]
            if op["returned"]]


def end_to_end(records):
    """The untraced run's metrics (every key of END_TO_END)."""
    ops = records["ops"]
    done = [op for op in ops if op["returned"]]
    det = deterministic_ops(records)
    return {
        "op_ms_p50": median_or_zero(op["wall_ms"] for op in done),
        "ops_per_s": len(done) / records["loop_wall_s"],
        "setup_s": statistics.median(s["wall_s"] for s in records["setups"]),
        "peak_rss_mb": records["peak_rss_kb"] / 1024.0,
        "rounds_per_op": mean(op["rounds"] for op in det),
        "msgs_per_node": mean(op["messages"] / op["nodes"] for op in det),
        "in_band_frac": mean(op["in_band_frac"] for op in det),
        "pass_frac": pass_frac(ops),
    }


def per_layer(records):
    """The traced run's metrics (every key of PER_LAYER). A layer's figure
    comes from the traced ops; a layer that only runs in set-up (the
    overlay build of oneshot-attack) reports its set-up calls; a layer the
    workload never calls reads 0. Times are medians, counts means."""
    traced = [op for op in records["ops"] if op["traced"] and op["returned"]]
    # The first batch (seq 0) is a warm-up: each client's first op, in
    # churn-midrun the epoch that reuses the set-up snapshot. The overhead
    # comparison leaves it out.
    untraced = [op for op in records["ops"]
                if not op["traced"] and op["returned"] and op["seq"] > 0]
    op_layers = [layer_ms(op["spans"]) for op in traced]
    setup_layers = [layer_ms(s["spans"]) for s in records["setups"]]

    def span_metric(name):
        vals = [l[name] for l in op_layers if name in l]
        if not vals:
            vals = [l[name] for l in setup_layers if name in l]
        return median_or_zero(vals)

    def counter_metric(name):
        vals = [op["counters"][name] for op in traced
                if name in op["counters"]]
        if not vals:
            vals = [s["counters"][name] for s in records["setups"]
                    if name in s["counters"]]
        return mean(vals)

    derived = ("protocols.run_ms", "protocols.phases_ms",
               "bench_core.busy_frac", "unattributed_ms", "unattributed_frac",
               "trace_overhead_ms")
    out = {}
    for metric in PER_LAYER:
        if metric in LAYER_SPANS:
            out[metric] = span_metric(LAYER_SPANS[metric])
        elif metric not in derived:
            out[metric] = counter_metric(metric)
    out["protocols.run_ms"] = median_or_zero(
        v for v in map(run_ms, op_layers) if v is not None)
    out["protocols.phases_ms"] = median_or_zero(
        v for v in map(phases_ms, op_layers) if v is not None)

    busy = capacity = 0.0
    first = 0
    for batch in records["batches"]:
        ops = records["ops"][first:first + batch["ops"]]
        first += batch["ops"]
        if batch["traced"]:
            busy += sum(op["wall_ms"] for op in ops)
            capacity += batch["wall_ms"] * batch["jobs"]
    out["bench_core.busy_frac"] = busy / capacity if capacity else 0.0

    out["unattributed_ms"] = median_or_zero(
        unattributed_ms(op["spans"]) for op in traced)
    out["unattributed_frac"] = median_or_zero(
        unattributed_ms(op["spans"]) / op["wall_ms"] for op in traced)
    if traced and untraced:
        out["trace_overhead_ms"] = (
            statistics.median(op["wall_ms"] - probe_ms(l)
                              for op, l in zip(traced, op_layers))
            - statistics.median(op["wall_ms"] for op in untraced))
    else:
        out["trace_overhead_ms"] = 0.0
    return out
