#!/usr/bin/env python3
"""Builds and runs the refinement-session benchmark.

Run from the root of an iFlex source tree:

    python3 sessionbench/run.py --workload join_sessions --seed 1 \
        --seconds 10 --trace 0
    python3 sessionbench/run.py --workload all --seed 1 --seconds 10
    python3 sessionbench/run.py --selftest

The driver (sessionbench.cc) is built from the tree's sources into
.bench_build/sessionbench on first use; later runs only re-check the build.
Build output goes to stderr. The driver's stdout is passed through, and its
last line is the JSON result. `--workload all` runs the driver once for
each workload listed in BENCHMARK.json, one after another, so that each
workload's peak RSS and heap state are its own. See README.md in this
directory.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sessionbench")
# A run must end within 180 s; keep a margin for start-up.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("sessionbench: no iFlex sources at %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(BUILD, "sessionbench")


def driver_runs(args):
    """The driver's argument lists, one per process to start."""
    for i in range(len(args) - 1):
        if args[i] == "--workload" and args[i + 1] == "all":
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                names = [w["name"] for w in json.load(f)["workloads"]]
            return [args[:i + 1] + [name] + args[i + 2:] for name in names]
    return [args]


def main():
    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("sessionbench: build failed: %s" % e)
    code = 0
    for args in driver_runs(sys.argv[1:]):
        try:
            run = subprocess.run([driver] + args, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.exit("sessionbench: run exceeded %d s" % RUN_TIMEOUT_S)
        code = code or run.returncode
    sys.exit(code)


if __name__ == "__main__":
    main()
