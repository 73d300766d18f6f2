#!/usr/bin/env python3
"""Build the benchmark and the `bfhrf` release binary from source, then run
one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Both binaries are built with cargo into
`$CARGO_TARGET_DIR` (default `.bench_build`); the run's scratch files go to
`<target>/perfbench-work` and are removed when the run ends. All arguments
are passed through to the benchmark binary (see `perfbench/src/main.rs`).
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if "PERFBENCH_COMMIT" not in env:
        # Provenance only; a checkout without git history reports "unknown".
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True)
            if head.returncode == 0:
                env["PERFBENCH_COMMIT"] = head.stdout.strip()
        except OSError:
            pass
    builds = [
        # The daemon is the repository's own release binary, built the way
        # a user builds it.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "bfhrf-cli", "--bin", "bfhrf"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: the last stdout line is the result.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(target, "release", "perfbench"), *sys.argv[1:],
           "--bfhrf", os.path.join(target, "release", "bfhrf"), "--work", work]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
