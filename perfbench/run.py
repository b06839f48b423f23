#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds the benchmark driver and the udwnd daemon from source into
.bench_build/ (perfbench/CMakeLists.txt); later calls only re-check the
build. The driver then runs the workload for S seconds, checks its outputs
and prints one JSON result as the last line of standard output (see
perfbench/README.md). Build logs go to standard error.

Exit status: the driver's (0 = every check passed, 1 = a check failed),
or 2 when the checkout cannot be built or the arguments are wrong; no
result line is printed in that case.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("lbcast-static-8k", "bcast-dynamic-8k", "far-field-64k",
             "svc-closed-loop")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def git_revision(root):
    """HEAD of the checkout's own .git, or "unknown" (no git process, so
    nothing outside the checkout is read)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def build(root):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no library sources under src/: run from a full checkout")
    build_dir = os.path.join(root, BUILD_DIR)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "perfbench_udwnd"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step failed: %s" % error)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:] + proc.stderr[-8000:])
            fail("build step failed: " + " ".join(cmd))
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = build(root)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", BUILD_DIR, "--revision", git_revision(root)]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        valid = False
    if proc.returncode not in (0, 1) or not valid:
        sys.stderr.write(proc.stdout[-4000:])
        fail("driver exited %d without a result" % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
