#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it.

Run from the repository root:

    python3 perfbench/run.py --workload slt-geo-64k --seed 1 --seconds 20 --trace 0

The arguments go to the `perfbench` binary unchanged (see
perfbench/README.md). The build lands in $CARGO_TARGET_DIR, or in
.bench_build at the repository root when that is unset. Cargo's output
goes to stderr, so the last stdout line is the benchmark's result.
The exit code is nonzero when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        sys.exit("perfbench: no crates/ next to perfbench/; run from a full checkout")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, stdin=subprocess.DEVNULL)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
