#!/usr/bin/env python3
"""Build and run the simulator benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which compiles the simulator from ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later runs only check the build is current. Build output goes to
stderr, so the last line of stdout is ifp_perfbench's JSON result. Traced
runs also write their spans as Chrome-trace JSON next to the build.

Exit status is non-zero, with no JSON printed, when the build fails,
ifp_perfbench fails or its result line is malformed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run must end within 180 s of starting; the first build is exempt.
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 850.0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_step(cmd, timeout):
    """Run one build step with its output on stderr."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"exit {done.returncode}: {' '.join(cmd)}")


def build(build_dir):
    """Configure once, then bring ifp_perfbench up to date."""
    if not (build_dir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_step(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                  "-DCMAKE_BUILD_TYPE=Release", *gen], BUILD_LIMIT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", str(build_dir), "-j", jobs],
             BUILD_LIMIT_S)
    return build_dir / "ifp_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target)
    binary = build(build_dir / "perfbench")

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        spans = build_dir / "perfbench" / (
            f"spans-{args.workload}-seed{args.seed}.json")
        cmd += ["--spans-out", str(spans)]

    start = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"ifp_perfbench exceeded {RUN_LIMIT_S:.0f} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"ifp_perfbench exited {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("\n".join(lines), file=sys.stderr)
        fail("ifp_perfbench printed no result line")
    print("\n".join(lines[:-1]))
    print(f"ifp_perfbench took {time.monotonic() - start:.2f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
