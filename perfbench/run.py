#!/usr/bin/env python3
"""Build and run the superbnn benchmark.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark binary is built from the
checkout's sources into $CARGO_TARGET_DIR (default .bench_build) on first
use; later runs only re-check the build. The binary prints one JSON
result object as the last line of stdout (see perfbench/README.md) and
exits non-zero when any output fails its correctness check.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve", "eval-cnn", "yield-sweep")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the benchmark; return the binary path."""
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = sys.stderr
    with open(build_root / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release", *generator],
                check=True, stdout=log, timeout=BUILD_TIMEOUT_S)
        subprocess.run(
            ["cmake", "--build", str(build_dir), "--target", "perfbench",
             "--parallel", "4"],
            check=True, stdout=log, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    failures = spread.self_test()
    if failures:
        print("perfbench: statistics self-test failed: "
              + "; ".join(failures), file=sys.stderr)
        return 1
    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
