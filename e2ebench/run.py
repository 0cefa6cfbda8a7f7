#!/usr/bin/env python3
"""Builds and runs the ModelarDB++ end-to-end benchmark (see README.md).

Run from the root of the repository:

  python3 e2ebench/run.py --workload ep_hot --seed 1 --seconds 24 --trace 0

The engine and the benchmark are compiled from source (Release) into
$CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench when the variable is
unset; the first run builds, later runs only check the build is current.
The benchmark's self-tests run before every measurement. The last line of
standard output is the result object; build and progress output go to
standard error. Exits non-zero, without a result, when anything fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def run_checked(cmd, **kwargs):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            **kwargs)
    if result.returncode != 0:
        sys.exit("failed (%d): %s" % (result.returncode, " ".join(cmd)))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", build_dir, "--target", "e2ebench",
                 "e2ebench_selftest", "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(out_root, "e2ebench")
    build(build_dir)
    run_checked([os.path.join(build_dir, "e2ebench_selftest")])

    work_dir = os.path.join(out_root, "e2ebench-run-%d" % os.getpid())
    cmd = [os.path.join(build_dir, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        spans_dir = os.path.join(out_root, "e2ebench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        # On timeout the child is killed and waited for before this raises.
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.exit("benchmark failed with exit code %d" % result.returncode)
    summary = json.loads(lines[-1])
    if sorted(summary) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("malformed result line")
    print("\n".join(lines))
    if not summary["correct"]:
        print("e2ebench: correctness gate failed: %d of %d operations"
              % (summary["failed"], summary["attempted"]), file=sys.stderr)


if __name__ == "__main__":
    main()
