#!/usr/bin/env python3
"""Build and run the SCIFinder benchmark.

    python3 perfbench/run.py --workload pipeline|identify-store|serve-replay
                             --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds the
benchmark package in perfbench/ (a Release build of the repository's
libraries plus scif_perfbench) under .bench_build/perfbench/, then runs
one measurement. Build output goes to stderr; stdout ends with the JSON
result line. Traced runs write their Chrome trace and per-layer table
to .bench_build/perfbench/out/. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD = os.path.join(STATE, "build")
BINARY = os.path.join(BUILD, "scif_perfbench")
WORKLOADS = ("pipeline", "identify-store", "serve-replay")
RUN_TIMEOUT_S = 170


def commit_id():
    """The checkout's git commit, read from .git without running git;
    outside a git checkout, a digest of the sources instead."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256-" + digest.hexdigest()[:16]


def build():
    """Configure (once) and build scif_perfbench; build output to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "scif_perfbench", "-j", "4"],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(STATE, "out"),
           "--work", os.path.join(STATE, "work"),
           "--commit", commit_id()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s and was killed",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
