#!/usr/bin/env python3
"""TunIO job benchmark entry point.

    python3 jobbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark (Release) on first use
into $CARGO_TARGET_DIR (default `.bench_build`), runs one workload, and
prints the result line last on stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the spans of the traced half-window are written next to
the build as spans-<workload>-<seed>.csv. Build logs and the run's
summary go to stderr. Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir() -> Path:
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (root if root.is_absolute() else Path.cwd() / root) / "jobbench"


def cached_source(bdir: Path):
    cache = bdir / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
            return line.split("=", 1)[1]
    return None


def build(bdir: Path) -> bool:
    env = dict(os.environ)
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # keep compiler temporaries in the checkout
    source = cached_source(bdir)
    if source is not None and Path(source).resolve() != PACKAGE:
        shutil.rmtree(bdir)  # a build of another checkout
        tmp.mkdir(parents=True)
    steps = []
    if cached_source(bdir) is None:
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "jobbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("jobbench: build timed out", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("jobbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def valid_result(line: str) -> bool:
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return isinstance(result, dict) and set(result) == RESULT_KEYS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    bdir = build_dir()
    if not build(bdir):
        return 1
    command = [str(bdir / "jobbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        spans = bdir / f"spans-{args.workload}-{args.seed}.csv"
        command += ["--spans", str(spans)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("jobbench: run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not valid_result(lines[-1]):
        print(f"jobbench: run failed (exit {done.returncode})", file=sys.stderr)
        return done.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
