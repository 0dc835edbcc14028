#!/usr/bin/env python3
"""Build and run the dspp end-to-end benchmark.

usage: python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds this directory's Cargo package (a
workspace of its own with path dependencies on ../crates) in release mode
into $CARGO_TARGET_DIR (default .bench_build), then runs the benchmark
with the same arguments and exits with its exit code. The last line of
standard output is the result JSON; build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print(
            "e2ebench: the repository's crates/ directory is missing; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    binary = os.path.join(target, "release", "dspp-e2ebench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
