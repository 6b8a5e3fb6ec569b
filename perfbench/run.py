#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload service_table2 --seed 1 --seconds 30 --trace 0

Every argument is passed to the benchmark binary (see src/main.rs). The
build goes to $CARGO_TARGET_DIR, or `.bench_build` when that is unset;
its output goes to standard error, so the last line of standard output is
the benchmark's JSON result. The exit status is the benchmark's, or 1
when the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
