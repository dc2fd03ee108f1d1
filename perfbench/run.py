#!/usr/bin/env python3
"""Builds the perfbench binary from the repository sources and runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload build|serve \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/CMakeLists.txt (which pulls
in ../src) under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later runs rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits non-zero, without a
result, when the library sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build(build_dir: Path) -> bool:
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"
    if not build(build_dir):
        return 1
    command = [str(build_dir / "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work", str(build_dir / "work")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
