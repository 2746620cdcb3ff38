#!/usr/bin/env python3
"""Build and run the SHMT end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload suite-cold --seed 1 \\
        --seconds 10 --trace 0

Builds perfbench/ (and with it the SHMT libraries from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
the shmt_perfbench binary. Build output goes to stderr; the binary's
report goes to stdout, and its last line is the JSON result. With
--trace 1 the spans of the traced run are written next to the build as
spans-<workload>-<seed>.json (Chrome trace format).

Exits non-zero, without a result line, when the sources are missing,
the build fails or the run times out; exits non-zero with a result line
when an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite-cold", "sweep-timing", "serve-mixed")
# A run must end within 180 s; leave room for the build's no-op check.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs,
                    "--target", "shmt_perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "shmt_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("SHMT sources (src/) not found next to perfbench/")

    started = time.monotonic()
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            out_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    budget = max(1.0, RUN_TIMEOUT_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=budget,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %.0f s" % budget)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        keys_ok = sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"]
    except ValueError:
        keys_ok = False
    if not keys_ok:
        sys.stdout.write(proc.stdout)
        fail("the benchmark printed no result line (exit %d)"
             % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
