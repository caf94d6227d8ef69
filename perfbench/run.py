#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload offline_batch|serve_fleet|serve_hot \
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/CMakeLists.txt (the
library from src/ plus the benchmark program) under .bench_build/; later
calls only re-run the incremental build. Build output goes to standard
error. The program's standard output is passed through unchanged, so its
last line is the JSON result. The exit status is the program's: 0 when
every output check passed.

Without the library sources next to it (a directory holding only
BENCHMARK.json and perfbench/), the script exits with status 2 and prints
no result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("offline_batch", "serve_fleet", "serve_hot")
# Each phase must end well inside the per-run limit; the first build of a
# fresh checkout is allowed longer.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_build_step(argv):
    proc = subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"build step failed: {' '.join(argv)}")


def build():
    """Configures once, then builds incrementally; returns the binary."""
    for required in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail(f"{required} not found next to perfbench/; run from a "
                 "full checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        argv = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            argv += ["-G", "Ninja"]
        run_build_step(argv)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", BUILD_DIR, "-j", jobs])
    binary = os.path.join(BUILD_DIR, "perfbench")
    if not os.path.exists(binary):
        fail(f"build produced no {binary}")
    return binary


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the measured sources, for checkouts without git."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", HERE):
        for dirpath, dirnames, names in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, n) for n in sorted(names)
                      if n.endswith((".cc", ".h", ".txt"))]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="prove every output check fires, then exit")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None or
                               args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    binary = build()
    work_dir = os.path.join(BUILD_ROOT, "perfbench-work",
                            f"{args.workload or 'self-test'}-{os.getpid()}")
    if args.self_test:
        argv = [binary, "--self-test", "--work-dir", work_dir]
    else:
        with open(os.path.join(HERE, "floors.json")) as f:
            floors = json.load(f)[args.workload]
        trace_dir = os.path.join(BUILD_ROOT, "perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        argv = [binary, "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--work-dir", work_dir,
                "--trace-out", os.path.join(
                    trace_dir, f"{args.workload}-seed{args.seed}.json"),
                "--tweet-acc-floor", str(floors["tweet_acc"]),
                "--user-acc-floor", str(floors["user_acc"]),
                "--commit", git_commit(),
                "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        proc = subprocess.run(argv, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
