#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its metrics.

    python3 perfbench/run.py --workload oneshot-attack --seed 1 \
        --seconds 20 --trace 0

Run it from the root of a checkout. The first call builds the driver (and
the byzcount library, through the repo's own CMakeLists.txt) into
.bench_build/perfbench; later calls only re-check the build. The driver
measures for --seconds and writes its raw records to
.bench_build/perfbench/runs/; this script checks every op's output, prints
a digest of the run's statuses and estimates, and prints the metrics as the
last line of standard output:

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("oneshot-attack", "batch-large", "churn-midrun")
# A run must end within 180 s of its start; the build is allowed longer.
RUN_LIMIT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail("no byzcount source tree (src/, CMakeLists.txt) at " + str(ROOT),
             2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.close()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return BUILD / "perfbench"


def run_driver(binary, args, out_path):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_LIMIT_S)
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode)
    with open(out_path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    binary = build()
    runs = BUILD / "runs"
    runs.mkdir(exist_ok=True)
    out_path = runs / ("%s-s%d-t%d.json" % (args.workload, args.seed,
                                            args.trace))
    started = time.monotonic()
    records = run_driver(binary, args, out_path)

    ops = records["ops"]
    failed = metrics.fail_count(ops)
    for op in ops:
        if not metrics.op_passed(op):
            print("perfbench: FAILED %s op: returned=%s in_band=%.4f eps=%.2f "
                  "alive_ok=%s %s" % (op["kind"], op["returned"],
                                      op["in_band_frac"], op["eps"],
                                      op["alive_ok"], op["error"]),
                  file=sys.stderr)
    det = metrics.deterministic_ops(records)
    print("perfbench: %s seed=%d digest(statuses+estimates, first %d ops)=%s "
          "in_band=%s" % (args.workload, args.seed, len(det),
                          metrics.digest(det),
                          ",".join("%.4f" % op["in_band_frac"] for op in det)))

    if args.trace:
        values = metrics.per_layer(records)
        units = metrics.PER_LAYER
        if values["unattributed_frac"] > metrics.UNATTRIBUTED_LIMIT:
            print("perfbench: WARNING %s: unattributed time is %.1f%% of an "
                  "op (limit %.0f%%)" % (args.workload,
                                         100 * values["unattributed_frac"],
                                         100 * metrics.UNATTRIBUTED_LIMIT),
                  file=sys.stderr)
    else:
        values = metrics.end_to_end(records)
        units = metrics.END_TO_END
    print("perfbench: %d ops in %.1f s, driver wall %.1f s, trace -> %s" % (
        len(ops), records["loop_wall_s"], time.monotonic() - started,
        out_path.relative_to(ROOT)))
    print(json.dumps({
        "correct": failed == 0 and len(ops) > 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
