#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload design-sweep --seed 1 --seconds 30 --trace 0

The first run configures and builds e2ebench/ (a CMake package that
compiles the simulator from src/) in Release mode under
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); later runs
rebuild only what changed.  Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.  With --trace 1 the span
file is written next to the build.

    python3 e2ebench/run.py --selftest

builds and runs the benchmark's own tests instead.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=2):
    print(f"e2ebench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/CMakeLists.txt) not found next to e2ebench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", "2"],
        stdout=sys.stderr, check=True)


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    build_dir = os.path.join(target_dir, "e2ebench")
    args = sys.argv[1:]

    try:
        if args == ["--selftest"]:
            build(build_dir, "e2ebench_tests")
            sys.exit(subprocess.run(
                [os.path.join(build_dir, "e2ebench_tests")]).returncode)
        build(build_dir, "e2ebench")
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}", 1)

    opts = dict(zip(args[0::2], args[1::2]))
    if opts.get("--trace", "0") != "0" and "--spans-out" not in opts:
        spans = os.path.join(target_dir, "e2ebench-spans",
                             f"{opts.get('--workload', 'none')}-seed"
                             f"{opts.get('--seed', '1')}.jsonl")
        args += ["--spans-out", spans]
    sys.exit(subprocess.run([os.path.join(build_dir, "e2ebench")] + args).returncode)


if __name__ == "__main__":
    main()
