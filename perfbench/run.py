#!/usr/bin/env python3
"""Build and run the perfbench benchmark program.

Usage (from the repository root):

    python3 perfbench/run.py --workload infer-cnn --seed 1 --seconds 30 --trace 0

Configures and builds perfbench/CMakeLists.txt (the repository's libraries
from src/ plus perfbench/src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload. Build output goes to
stderr; the program's last stdout line is the JSON result. Exits non-zero,
without a result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("infer-cnn", "serve-small", "compile-search")
RUN_TIMEOUT_S = 170


def build(bench_dir, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--plant-flip", action="store_true",
                        help="self-check: corrupt one output byte")
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target_dir, "perfbench")
    work_dir = os.path.join(build_dir, "work")
    try:
        binary = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--bench-dir", bench_dir, "--work-dir", work_dir]
    if args.plant_flip:
        cmd.append("--plant-flip")
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if result.returncode != 0:
        print(f"perfbench: program exited {result.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
