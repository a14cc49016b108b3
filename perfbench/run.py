#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

The build (Release) goes to .bench_build/perfbench; the span trace of a
--trace 1 run goes to .bench_build/perfbench-traces.  The arguments are
handed to the benchmark binary, which validates them strictly.  Build
output goes to standard error, so the last line of standard output is the
binary's JSON result.  The exit code is the binary's, or 2 when the build
fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")


def configured_source():
    """Source directory recorded in an existing CMake cache, or None."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    source = configured_source()
    if source is not None and os.path.realpath(source) != os.path.realpath(HERE):
        shutil.rmtree(BUILD)  # a cache from another checkout cannot be reused
        source = None
    if source is None:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    os.makedirs(TRACES, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    command = [binary, *sys.argv[1:], "--trace-dir", TRACES,
               "--git-sha", git_sha()]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
