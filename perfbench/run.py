#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the simulator library and the perfbench binary (Release, from the
sources of this checkout) and runs one workload:

    python3 perfbench/run.py --workload table1_serial --seed 1 \
        --seconds 5 --trace 0

Run it from the root of the checkout.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); spans of a
traced run go to <build dir>/traces/.  The last line of standard output
is the JSON result; see perfbench/README.md for the workloads and
metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                     "perfbench"))


def build(out_dir, env):
    """Configures (once) and builds the binary; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return None
    return os.path.join(out_dir, "perfbench")


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=("0", "1"), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="shrunken populations and budgets (self-test)")
    return p.parse_args(argv)


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict))


def main(argv):
    args = parse_args(argv)
    out_dir = build_dir()
    # Keep compiler and benchmark scratch files inside the build directory.
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    binary = build(out_dir, env)
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-commit", git_commit()]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace == "1":
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if not valid_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: no result line (exit code %d)\n"
                         % proc.returncode)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
