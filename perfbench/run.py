#!/usr/bin/env python3
"""Entry point of the repo benchmark.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload <edit-cli|storm-daemon>
                           --seed N --seconds S --trace 0|1

Builds the `perfbench` binary (perfbench/CMakeLists.txt, Release) from
the checkout's sources into the build directory, then runs it with the
same arguments. The binary prints human-readable lines and, as its last
line of standard output, one JSON result object; see perfbench/README.md.

The build directory is $CARGO_TARGET_DIR when set (relative paths are
taken from the checkout root), else `.bench_build`. Build output goes to
standard error so the result line stays last on standard output.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170  # The binary itself ends well before this.


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def main():
    out = build_dir()
    try:
        exe = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    try:
        # A relative build directory keeps the daemon's socket path short.
        rel = os.path.relpath(out, ROOT)
        proc = subprocess.run([exe] + sys.argv[1:] + ["--build-dir", rel],
                              cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
