#!/usr/bin/env python3
"""Builds and runs the C-Explorer end-to-end benchmark.

    python3 e2ebench/run.py --workload browse_zipf --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. The first call configures and builds the
harness (the library sources under src/ plus e2ebench/e2e.cc, Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the harness's JSON result. Snapshot files and traces are written
under <build dir>/e2e-work. See e2ebench/README.md for the workloads and
metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("browse_zipf", "search_uniform", "mutate_mixed")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "cexplorer_e2e",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "cexplorer_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print(f"no library sources under {ROOT}/src; run from a full "
              "checkout", file=sys.stderr)
        return 1
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir, "e2e-work")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"harness exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print(f"harness failed with exit code {result.returncode}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
