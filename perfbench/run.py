#!/usr/bin/env python3
"""Service benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload box_addrcheck --seed 1 \
        --seconds 15 --trace 0

Builds bfly_serve and the bfly_bench generator from the repository
sources (Release, into $CARGO_TARGET_DIR or .bench_build), then runs the
generator, which spawns bfly_serve, drives it and prints the result as
the last line of standard output. Build output goes to standard error.
Exits non-zero, printing no result, when the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Generous bound for one run; the generator itself needs well under it.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure and build the two binaries; False on failure."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "bfly_serve", "bfly_bench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(out_dir, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # Relative, so the Unix socket path in it stays short.
    run_dir = os.path.relpath(os.path.join(out_dir, "run"))
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "bfly_bench"),
           "--serve", os.path.join(build_dir, "bfly_serve"),
           "--run-dir", run_dir,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd)
    # A stopped benchmark stops its generator; bfly_serve follows it.
    signal.signal(signal.SIGTERM, lambda *_: (proc.kill(), sys.exit(143)))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # bfly_serve dies with its parent (PR_SET_PDEATHSIG).
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
