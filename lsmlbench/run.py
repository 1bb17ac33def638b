#!/usr/bin/env python3
"""Build the lsml benchmark program from this checkout and run one workload.

    python3 lsmlbench/run.py --workload contest|synth_cec|serve \\
        --seed N --seconds S --trace 0|1

Configures and builds lsmlbench/ (which compiles the repository's own
`lsml` library) into $CARGO_TARGET_DIR/lsmlbench, default
.bench_build/lsmlbench, then runs it. Build output goes to stderr, so
the last stdout line is the program's JSON result. Scratch files live in
<build root>/work and are removed when the program returns.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    generator = []
    if (not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt"))
            and shutil.which("ninja")):
        generator = ["-G", "Ninja"]
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
         *generator],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "lsmlbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "aig", "aig.hpp")):
        print("lsmlbench: no lsml sources next to the benchmark",
              file=sys.stderr)
        return 2
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                              ".bench_build")
    build_dir = os.path.join(build_root, "lsmlbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"lsmlbench: build failed: {err}", file=sys.stderr)
        return 2
    work = os.path.join(build_root, "work")
    try:
        proc = subprocess.run(
            [os.path.join(build_dir, "lsmlbench"), *sys.argv[1:],
             "--work-dir", work])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
