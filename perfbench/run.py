#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 10 --trace 0

Workloads: sim-paper, sim-service, live-service.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; build output goes to standard error.  Each
run also writes its full record, host included, under perfbench/results/.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("sim-paper", "sim-service", "live-service")


def commit(root):
    """The checked-out commit, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(root):
            return "unknown"
        return subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        print("perfbench: no repository sources next to the benchmark", file=sys.stderr)
        return 2

    # Keep the build inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    run = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--commit", commit(root)],
        cwd=root)
    return run.returncode if run.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
