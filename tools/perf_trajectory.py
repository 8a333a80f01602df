#!/usr/bin/env python3
"""Record one perf-trajectory point from bench guard manifests.

Usage: perf_trajectory.py --out FILE BENCH_xxx.json [BENCH_yyy.json ...]

Reads the `metrics.guard` object of each given byzbench manifest and
writes a single JSON document holding every guard keyed by scenario id,
stamped with the commit/run identity CI exposes (GITHUB_SHA, GITHUB_RUN_ID,
GITHUB_REF_NAME — absent keys are simply omitted, so the script also runs
locally). CI feeds it E28, E31 and E32 from its smoke run and E30 from
its serial wall-clock run, and uploads the file as a per-run artifact:
the sequence of artifacts over the run history IS the perf trajectory —
E28's composed-tier numbers, E30's flood-kernel speedup and the E31/E32
backend ratios per landed commit — so a perf regression is read off the
artifacts instead of rediscovered by hand. The script only records: each
scenario checks its own guard and fails its byzbench run when the guard
does not hold.

Exits nonzero when a manifest is missing or carries no guard metric, so a
scenario silently dropping its guard breaks the CI step that calls this.
"""

import argparse
import json
import os
import sys


def load_guard(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    scenario = doc.get("experiment") or os.path.basename(path)
    guard = doc.get("metrics", {}).get("guard")
    if guard is None:
        raise KeyError(f"{path}: manifest has no metrics.guard object")
    if not guard:
        raise KeyError(f"{path}: metrics.guard is empty — the scenario "
                       "recorded no guard numbers")
    return scenario, guard


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True,
                        help="output path for the trajectory point")
    parser.add_argument("manifests", nargs="+",
                        help="byzbench BENCH_*.json manifests with guards")
    args = parser.parse_args(argv[1:])

    point = {}
    for env_key, out_key in (("GITHUB_SHA", "commit"),
                             ("GITHUB_RUN_ID", "run_id"),
                             ("GITHUB_REF_NAME", "ref")):
        value = os.environ.get(env_key)
        if value:
            point[out_key] = value

    # Check EVERY manifest before failing so one CI run reports the full
    # list of offenders instead of one per attempt.
    guards = {}
    errors = []
    for path in args.manifests:
        try:
            scenario, guard = load_guard(path)
        except (OSError, ValueError, KeyError) as err:
            errors.append(str(err))
            continue
        guards[scenario] = guard
    if errors:
        for err in errors:
            print(f"ERROR: {err}", file=sys.stderr)
        print(f"ERROR: {len(errors)} of {len(args.manifests)} manifest(s) "
              "unusable; no trajectory point written", file=sys.stderr)
        return 1
    point["guards"] = guards

    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"ok: {len(guards)} guard(s) recorded to {args.out}: "
          + ", ".join(sorted(guards)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
