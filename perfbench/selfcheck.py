#!/usr/bin/env python3
"""Self-checks of the perfbench benchmark.

Run from the repository root (takes a few minutes):

    python3 perfbench/selfcheck.py [--seconds 3]

For every workload it checks that
  1. an untraced run prints exactly the end_to_end metrics of BENCHMARK.json,
     each with its unit, and is correct;
  2. a traced run prints exactly the per_layer metrics, each with its unit;
  3. a run with one planted flipped output byte is counted as a failure;
  4. two runs at one seed give identical simulated-clock and size figures.
Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ("sim_kcycles_geomean", "binary_kb_geomean",
                 "serve_sim_p50_us", "serve_sim_p99_us", "serve_sim_knee_rps")


def run(workload, seed, seconds, trace, plant_flip=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", trace]
    if plant_flip:
        cmd.append("--plant-flip")
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, check=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def same_metrics(result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    return got == want


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for workload in (w["name"] for w in bench["workloads"]):
        first = run(workload, args.seed, args.seconds, "0")
        expect(first["correct"] and first["failed"] == 0,
               f"{workload}: untraced run is correct")
        expect(same_metrics(first, bench["end_to_end"]),
               f"{workload}: every end_to_end metric printed with its unit")
        traced = run(workload, args.seed, args.seconds, "1")
        expect(traced["correct"], f"{workload}: traced run is correct")
        expect(same_metrics(traced, bench["per_layer"]),
               f"{workload}: every per_layer metric printed with its unit")
        planted = run(workload, args.seed, args.seconds, "0", plant_flip=True)
        expect(not planted["correct"] and planted["failed"] >= 1,
               f"{workload}: a flipped output byte is counted as a failure")
        second = run(workload, args.seed, args.seconds, "0")
        for name in DETERMINISTIC:
            expect(first["metrics"][name]["value"] ==
                   second["metrics"][name]["value"],
                   f"{workload}: {name} repeats exactly at one seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
