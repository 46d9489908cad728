#!/usr/bin/env python3
"""Build and run the sft end-to-end benchmark (see README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is compiled from source with dune into .bench_build/ (release
profile, dune's shared cache off so nothing is written outside the
checkout), then perfbench/main.exe runs with the same arguments. Its last
line of standard output is the JSON result. A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"
RUN_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet", TARGET],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
