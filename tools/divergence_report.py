#!/usr/bin/env python3
"""Render a byzobs/forensics/v1 divergence report for humans.

Usage: divergence_report.py FORENSICS.json [FORENSICS.json ...] [--json]

The C++ oracle seams (compare_midrun_tiers, run_churn's engine oracle, the
E24 anchor) write these documents when two
execution tiers that must agree bitwise stop agreeing. The JSON localizes
the FIRST divergent (phase, subphase, round) by binary-searching the
hierarchical digest trails; this tool turns that into a readable
localization: the headline, a side-by-side digest walk down the divergent
branch with the first mismatch marked, and each tier's flight-recorder
tail around the failure.

Exits 0 after rendering (even for divergent reports — the report IS the
product); nonzero only on unreadable/malformed input, so CI can cat every
report an oracle failure produced without masking the original failure.

Stdlib only.
"""

import argparse
import json
import sys


class ReportError(Exception):
    pass


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        raise ReportError(f"{path}: {err}") from err
    if not isinstance(doc, dict) or doc.get("schema") != "byzobs/forensics/v1":
        raise ReportError(f"{path}: not a byzobs/forensics/v1 document")
    if len(doc.get("tiers", [])) != 2:
        raise ReportError(f"{path}: expected exactly 2 tiers")
    return doc


def index_by(entries, key):
    return {e[key]: e.get("digest", "?") for e in entries or []}


def side_by_side(label, key, a_entries, b_entries, names):
    """Rows of (label value, digest_a, digest_b, marker), first mismatch
    marked and the walk cut shortly after it."""
    a, b = index_by(a_entries, key), index_by(b_entries, key)
    rows = []
    mismatched = False
    for k in sorted(set(a) | set(b)):
        da, db = a.get(k, "(missing)"), b.get(k, "(missing)")
        bad = da != db
        rows.append((f"{label} {k}", da, db, "<-- FIRST DIVERGENCE"
                     if bad and not mismatched else ""))
        if bad and not mismatched:
            mismatched = True
        elif bad:
            rows[-1] = (rows[-1][0], da, db, "(also differs)")
    if not rows:
        return
    wa = max(len(r[1]) for r in rows)
    wl = max(len(r[0]) for r in rows)
    print(f"  digest walk ({names[0]} vs {names[1]}):")
    for name, da, db, mark in rows:
        sep = "==" if da == db else "!="
        print(f"    {name.ljust(wl)}  {da.ljust(wa)} {sep} {db}"
              f"{'  ' + mark if mark else ''}")


def flight_tail(tier, limit):
    tail = tier.get("flight_tail")
    if not tail:
        return
    total = tier.get("flight_total", len(tail))
    shown = tail[-limit:] if limit else tail
    print(f"  flight recorder [{tier.get('name', '?')}]: last "
          f"{len(shown)} of {total} events")
    for e in shown:
        print(f"    p{e.get('phase', 0)}/s{e.get('subphase', 0)}"
              f"/r{e.get('round', 0)}  {e.get('kind', '?'):<16}"
              f" a={e.get('a', 0)} b={e.get('b', 0)}")


def render(path, doc, tail_limit):
    div = doc.get("first_divergence", {})
    level = div.get("level", "none")
    a, b = doc["tiers"]
    names = (a.get("name", "tier A"), b.get("name", "tier B"))
    print(f"== {path} ==")
    print(f"  scenario : {doc.get('scenario', '?')}  seed "
          f"{doc.get('seed', '?')}  flags: {doc.get('flags', '') or '-'}")
    print(f"  headline : {doc.get('detail', '?')}")
    if level == "none":
        print("  verdict  : trails agree at every level (outcome-level "
              "divergence only — see the headline)")
    else:
        where = [f"level={level}"]
        for k in ("phase", "subphase", "round"):
            if k in div:
                where.append(f"{k}={div[k]}")
        print(f"  verdict  : first divergence at {', '.join(where)}")
    print(f"  run digests: {names[0]} {a.get('run_digest', '?')}  |  "
          f"{names[1]} {b.get('run_digest', '?')}")
    print(f"  extent   : {names[0]} {a.get('phases_total', 0)} phases / "
          f"{a.get('subphases_total', 0)} subphases / "
          f"{a.get('rounds_total', 0)} rounds; {names[1]} "
          f"{b.get('phases_total', 0)} / {b.get('subphases_total', 0)} / "
          f"{b.get('rounds_total', 0)}")
    side_by_side("phase", "phase", a.get("phases"), b.get("phases"), names)
    if "divergent_phase_subphases" in a or "divergent_phase_subphases" in b:
        side_by_side("subphase", "subphase",
                     a.get("divergent_phase_subphases"),
                     b.get("divergent_phase_subphases"), names)
    if "divergent_subphase_rounds" in a or "divergent_subphase_rounds" in b:
        side_by_side("round", "round", a.get("divergent_subphase_rounds"),
                     b.get("divergent_subphase_rounds"), names)
    for tier in (a, b):
        flight_tail(tier, tail_limit)
    repro = doc.get("repro")
    if repro:
        print(f"  repro    : {repro}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("reports", nargs="+",
                        help="byzobs/forensics/v1 JSON files")
    parser.add_argument("--json", action="store_true",
                        help="re-emit the parsed documents as one JSON "
                             "array instead of rendering")
    parser.add_argument("--tail", type=int, default=12,
                        help="flight-recorder events to show per tier "
                             "(0 = all; default 12)")
    args = parser.parse_args(argv[1:])

    docs = []
    for path in args.reports:
        try:
            docs.append((path, load(path)))
        except ReportError as err:
            print(f"ERROR: {err}", file=sys.stderr)
            return 1
    if args.json:
        json.dump([doc for _, doc in docs], sys.stdout, indent=2)
        print()
        return 0
    for i, (path, doc) in enumerate(docs):
        if i:
            print()
        render(path, doc, args.tail)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
