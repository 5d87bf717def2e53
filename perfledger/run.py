#!/usr/bin/env python3
"""Build and run the perf ledger benchmark.

    python3 perfledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. The first run configures and
builds the benchmark and the cbma libraries it links (Release) under
.bench_build/perfledger; later runs only re-check the build. Build output
goes to stderr, so stdout carries only the benchmark's own lines, the last of
which is its JSON result. The exit status is the benchmark's.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfledger")


def build():
    """Configure (once) and build; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfledger: no cbma sources at %s\n" % os.path.join(ROOT, "src"))
        sys.exit(1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BUILD_DIR


def main():
    try:
        build_dir = build()
    except subprocess.CalledProcessError as err:
        sys.stderr.write("perfledger: build failed: %s\n" % err)
        return 1
    binary = os.path.join(build_dir, "perfledger")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
