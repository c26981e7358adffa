#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 servebench/run.py --workload ingest|retail-scan \
        --seed N --seconds S --trace 0|1

The build (CMake, Release) goes to .bench_build/ at the repository root
and is reused by later runs; its output goes to stderr. The driver's
standard output is passed through: a JSON line describing the run, then
the result line. Traced runs also write their spans to .bench_out/.
The exit code is the driver's (nonzero on a mismatch or a failed run).
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "servebench")
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
OUT = os.path.join(ROOT, ".bench_out")
# Generous for one run of at most 60 measured seconds (a traced ingest
# run at --seconds 40 takes about 90 s); one run must end within 180 s.
RUN_TIMEOUT_S = 170


def build():
    configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "Makefile")):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "servebench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("servebench: build failed: %s" % err, file=sys.stderr)
        return 3
    os.makedirs(OUT, exist_ok=True)
    command = [os.path.join(BUILD, "servebench")] + sys.argv[1:]
    command += ["--out-dir", OUT]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 4
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
