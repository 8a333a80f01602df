#!/usr/bin/env python3
"""Validate and summarize a byzcount Chrome trace-event export.

Usage: trace_summary.py TRACE.json [--json]

Validates the document shape produced by `byzbench --trace-out` /
`size_service --trace-out` (src/obs/trace.hpp), then prints two tables:

  * per-span aggregate — count, total, mean and self wall time per span
    name. A span's self time is its duration minus the part of its
    interval covered by its child spans on the same thread (found by
    interval containment, like the phase attribution below), so the
    column shows where time goes that no nested span explains;
  * per-phase cost — rounds, subphases, and token counts rolled up to the
    protocol phase. Flood kernel spans do not carry a phase themselves
    (the cold path has no populated RoundClock), so attribution is by
    time-interval containment: a flood.round belongs to the count.phase /
    engine.phase span on the same thread whose [ts, ts+dur] encloses it.
    One flood.round span covers one step of every subphase its kernel
    call floods side by side (its `lanes` arg, 1 when absent), so it
    counts as that many rounds; its `tokens` arg is already their sum.

Exits nonzero on malformed input (unreadable file, not a trace-event
document, events missing required keys), on dropped spans — a nonzero
otherData.dropped count means the per-thread buffers saturated and the
per-phase attribution below is missing tails — AND on an uncovered root:
a root span (one no span on its thread encloses) whose self time is more
than ROOT_SELF_LIMIT of its duration, time that no named layer explains.
CI and ctest gate on it. Inner spans are not judged: a phase's own
bookkeeping between its subphases is real work, not a gap.
"""

import argparse
import collections
import json
import sys

# The most self time a root span may keep, as a share of its duration.
ROOT_SELF_LIMIT = 0.10

PHASE_SPANS = ("count.phase", "engine.phase")
ROUND_SPANS = ("flood.round", "engine.round")
SUBPHASE_SPANS = ("count.subphase", "engine.subphase")


class TraceError(Exception):
    pass


def load_events(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        raise TraceError(f"{path}: {err}") from err
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise TraceError(f"{path}: not a Chrome trace-event document "
                         "(no traceEvents key)")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise TraceError(f"{path}: traceEvents is not a list")
    spans = []
    for i, event in enumerate(events):
        if not isinstance(event, dict) or "ph" not in event or \
                "name" not in event:
            raise TraceError(f"{path}: event #{i} lacks ph/name")
        if event["ph"] == "M":
            continue  # process/thread metadata
        if event["ph"] != "X":
            raise TraceError(f"{path}: event #{i} has unexpected "
                             f"ph={event['ph']!r} (exporter only emits X/M)")
        for key in ("ts", "dur", "tid"):
            if not isinstance(event.get(key), (int, float)):
                raise TraceError(f"{path}: event #{i} ({event['name']}) "
                                 f"lacks numeric {key}")
        spans.append(event)
    dropped = doc.get("otherData", {}).get("dropped", 0)
    return spans, dropped


def nesting(spans):
    """The direct children of each span, as a dict of index lists. A child
    is a span on the same thread whose [ts, ts+dur] the parent encloses
    with no enclosing span in between; of two equal intervals the one
    listed first is the parent. A span that is no one's child is a root."""
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i]["tid"], spans[i]["ts"],
                                  -spans[i]["dur"], i))
    children = collections.defaultdict(list)
    stack = []  # open ancestors of the current span, innermost last
    for i in order:
        start = spans[i]["ts"]
        end = start + spans[i]["dur"]
        while stack and (spans[stack[-1]]["tid"] != spans[i]["tid"] or
                         spans[stack[-1]]["ts"] + spans[stack[-1]]["dur"]
                         < end):
            stack.pop()
        if stack:
            children[stack[-1]].append(i)
        stack.append(i)
    return children


def self_times(spans, children=None):
    """Self time of each span, aligned with `spans`: its duration minus the
    union of its direct children's intervals (see nesting), clipped to its
    own."""
    if children is None:
        children = nesting(spans)
    result = []
    for i, span in enumerate(spans):
        start, end = span["ts"], span["ts"] + span["dur"]
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c]["ts"]):
            lo = max(spans[c]["ts"], reach)
            hi = min(spans[c]["ts"] + spans[c]["dur"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span["dur"] - covered)
    return result


def uncovered_roots(spans):
    """(span, self_us) of every root span whose self time is more than
    ROOT_SELF_LIMIT of its duration, in input order."""
    children = nesting(spans)
    nested = {c for kids in children.values() for c in kids}
    return [(span, self_us)
            for i, (span, self_us)
            in enumerate(zip(spans, self_times(spans, children)))
            if i not in nested and self_us > ROOT_SELF_LIMIT * span["dur"]]


def per_name_table(spans):
    agg = collections.defaultdict(lambda: [0, 0.0, 0.0])
    for span, self_us in zip(spans, self_times(spans)):
        entry = agg[span["name"]]
        entry[0] += 1
        entry[1] += span["dur"]
        entry[2] += self_us
    rows = []
    for name in sorted(agg, key=lambda n: -agg[n][1]):
        count, total, self_total = agg[name]
        rows.append({"span": name, "count": count,
                     "total_us": round(total, 1),
                     "mean_us": round(total / count, 2),
                     "self_us": round(self_total, 1)})
    return rows


def enclosing_phase(span, phases_by_tid):
    """The innermost phase span on `span`'s thread that contains it."""
    start, end = span["ts"], span["ts"] + span["dur"]
    best = None
    for phase in phases_by_tid.get(span["tid"], ()):
        if phase["ts"] <= start and end <= phase["ts"] + phase["dur"]:
            if best is None or phase["dur"] <= best["dur"]:
                best = phase
    return best


def per_phase_table(spans):
    phases_by_tid = collections.defaultdict(list)
    for span in spans:
        if span["name"] in PHASE_SPANS:
            phases_by_tid[span["tid"]].append(span)

    stats = collections.defaultdict(
        lambda: {"rounds": 0, "subphases": 0, "tokens": 0, "span_us": 0.0,
                 "runs": 0})
    for span in spans:
        if span["name"] in PHASE_SPANS:
            phase = span.get("args", {}).get("phase")
            if phase is None:
                continue
            entry = stats[int(phase)]
            entry["runs"] += 1
            entry["span_us"] += span["dur"]
        elif span["name"] in ROUND_SPANS or span["name"] in SUBPHASE_SPANS:
            owner = enclosing_phase(span, phases_by_tid)
            if owner is None:
                continue
            phase = owner.get("args", {}).get("phase")
            if phase is None:
                continue
            entry = stats[int(phase)]
            if span["name"] in ROUND_SPANS:
                args = span.get("args", {})
                entry["rounds"] += int(args.get("lanes", 1))
                entry["tokens"] += int(args.get("tokens", 0))
            else:
                entry["subphases"] += 1
    rows = []
    for phase in sorted(stats):
        entry = stats[phase]
        rows.append({"phase": phase, **{k: (round(v, 1) if k == "span_us"
                                            else v)
                                        for k, v in entry.items()}})
    return rows


def print_table(title, rows):
    print(f"== {title} ==")
    if not rows:
        print("  (empty)")
        return
    cols = list(rows[0])
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
    print("  " + "  ".join(c.rjust(widths[c]) for c in cols))
    for row in rows:
        print("  " + "  ".join(str(row[c]).rjust(widths[c]) for c in cols))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--json", action="store_true",
                        help="emit the summary as JSON instead of tables")
    args = parser.parse_args(argv[1:])

    try:
        spans, dropped = load_events(args.trace)
    except TraceError as err:
        print(f"ERROR: {err}", file=sys.stderr)
        return 1

    names = per_name_table(spans)
    phases = per_phase_table(spans)
    if args.json:
        json.dump({"spans": names, "phases": phases, "dropped": dropped},
                  sys.stdout, indent=2)
        print()
    else:
        print(f"{args.trace}: {len(spans)} spans, {dropped} dropped")
        print_table("per-span cost", names)
        print_table("per-phase cost", phases)
    failed = False
    if dropped:
        print(f"ERROR: {args.trace}: {dropped} spans were dropped by the "
              "per-thread buffer caps — the summary above is incomplete "
              "(raise the exporter's buffer cap or trace a smaller run)",
              file=sys.stderr)
        failed = True
    for span, self_us in uncovered_roots(spans):
        print(f"ERROR: {args.trace}: root span {span['name']} (tid "
              f"{span['tid']}, ts {span['ts']}) keeps {self_us:.0f} of its "
              f"{span['dur']:.0f} us as self time, more than "
              f"{ROOT_SELF_LIMIT:.0%} — name the layer that takes it",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
