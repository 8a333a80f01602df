#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and summarises every
metric by median, quartiles and spread (interquartile distance as a share
of the median), the statistic the acceptance check uses.

    python3 perfbench/baseline.py --seeds 10            # end-to-end
    python3 perfbench/baseline.py --seeds 3 --trace     # per-layer
    python3 perfbench/baseline.py --seeds 10 --write    # + baseline.json

Seeds are 1..N. --write merges the summary into perfbench/baseline.json,
the committed baseline later changes are compared against. Run it from the
root of a checkout, one process at a time.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

ROOT = HERE.parent
RUNS = ROOT / ".bench_build" / "perfbench" / "runs"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("run failed: %s\n%s" % (" ".join(cmd), proc.stderr))
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("incorrect result: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarise(samples, bounds):
    out = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        q1, med, q3 = metrics.quartiles(values)
        row = {"median": med, "q1": q1, "q3": q3, "runs": len(values)}
        if med:
            row["spread"] = metrics.spread(values)
        if name in bounds:
            row["bound"] = bounds[name]
        out[name] = row
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    trace = 1 if args.trace else 0
    section = "per_layer" if trace else "end_to_end"

    summary = {}
    meta = {}
    for workload in workloads:
        samples = []
        for seed in range(1, args.seeds + 1):
            samples.append(run_once(workload, seed, seconds, trace))
            rec = json.loads((RUNS / ("%s-s%d-t%d.json" % (
                workload, seed, trace))).read_text())
            meta = {k: rec[k] for k in ("nproc", "compiler", "build_type")}
        summary[workload] = summarise(samples, bounds)
        print("%s (%d seeds, %d s each)" % (workload, args.seeds, seconds))
        for name, row in summary[workload].items():
            flag = ""
            if "bound" in row:
                flag = "  ok" if row.get("spread", 0) < row["bound"] / 3 \
                    else "  SPREAD ABOVE BOUND/3"
            print("  %-30s median %-14.6g q1 %-14.6g q3 %-14.6g spread %s%s"
                  % (name, row["median"], row["q1"], row["q3"],
                     "%.4f" % row["spread"] if "spread" in row else "-",
                     flag))

    if args.write:
        path = HERE / "baseline.json"
        base = json.loads(path.read_text()) if path.exists() else {}
        base.update(meta)
        base["run_seconds"] = seconds
        for workload, rows in summary.items():
            base.setdefault("workloads", {}).setdefault(workload, {})[
                section] = rows
        path.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
