#!/usr/bin/env python3
"""Build qnn_bench from this checkout's sources and run one workload.

    python3 qnn_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
the package in qnn_bench/ (Release, into .bench_build/qnn_bench); later
calls only let the build system check that nothing changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON
result. Every argument is passed on to the qnn_bench binary.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "qnn_bench"
BUILD = ROOT / ".bench_build" / "qnn_bench"


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("qnn_bench: no library sources (src/) in this checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "qnn_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return BUILD / "qnn_bench"


def main() -> int:
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        print(f"qnn_bench: build failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run([str(binary), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
