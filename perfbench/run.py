#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build tree is .bench_build/ (a
Release build of the fastmatch libraries plus the perfbench binary);
build output goes to stderr, so the last line of stdout is the
binary's JSON result. Exits non-zero without a result when the sources
are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def build():
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "perfbench/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} not found under {ROOT}; "
                  "run from a full checkout", file=sys.stderr)
            return False
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    proc = subprocess.run([str(BUILD / "perfbench")] + sys.argv[1:],
                          cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
