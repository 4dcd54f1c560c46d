#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload train_publish --seed 7 \
        --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
library and the benchmark into .bench_build (or $CARGO_TARGET_DIR); later
calls rebuild incrementally. The benchmark's standard output is passed
through; its last line is the JSON result. The exit status is non-zero when
the build fails, a correctness check fails, or no result was printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_publish", "serve_steady", "serve_overload")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def git_sha():
    """The checked-out commit, read from .git without leaving the tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not shutil.which("cmake"):
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = ["cmake", "--build", build_dir, "-j", jobs, "--target",
            "plp_perfbench"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = os.path.join(build_dir, "plp_perfbench")
    if not os.path.isfile(binary):
        fail("benchmark binary missing after build")
    return binary


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    command = [binary, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%s" % args.seconds,
               "--trace=%d" % args.trace, "--git_sha=" + git_sha(),
               "--work_dir=.bench_work"]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S, 1)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            raise ValueError("unexpected keys")
    except ValueError:
        print(lines[-1])
        fail("benchmark printed no result (exit %d)" % run.returncode, 1)
    print(lines[-1])
    if run.returncode != 0 or not result["correct"]:
        sys.exit(run.returncode or 1)


if __name__ == "__main__":
    main()
