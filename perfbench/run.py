#!/usr/bin/env python3
"""Builds and runs the SafeGen benchmark.

    python3 perfbench/run.py --workload {paper,batch,service} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. Builds perfbench/ (and the repository's
libraries from src/) into $CARGO_TARGET_DIR or .bench_build, runs the
harness self-tests, then the workload. The workload's stdout passes
through; its last line is the result JSON. Build output goes to stderr.
Exits nonzero, without a result line, when the build or the self-tests
fail.
"""

import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("paper", "batch", "service")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; returns the exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return -1


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no src/CMakeLists.txt here: run from the root of a SafeGen checkout")
        return False
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            if run_quiet(["cmake", "-S", source, "-B", build_dir,
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], 300) != 0:
                log("cmake configure failed")
                return False
        if run_quiet(["cmake", "--build", build_dir, "-j4", "--target",
                      "perfbench", "perfbench_selftest"], 880) != 0:
            log("build failed")
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, base, "perfbench")
    # Compilers (the build's and the paper workload's host g++) put their
    # temporary files here, inside the checkout.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if not build(root, build_dir):
        return 1

    if run_quiet([os.path.join(build_dir, "perfbench_selftest")], 60) != 0:
        log("harness self-tests failed")
        return 1

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", root]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
