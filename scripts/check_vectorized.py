#!/usr/bin/env python3
"""Fails when a loop marked for vectorization is not vectorized.

    python3 scripts/check_vectorized.py [--cxx g++] [FILE ...]

Compiles each source file (default: src/tensor/autograd.cpp,
src/nn/adam.cpp and src/tensor/matrix.cpp) at -O3 with GCC's
-fopt-info-vec-optimized report and checks that every loop tagged with a
`// vectorize: <name>` comment is reported as vectorized. The tag sits on
the line directly above the loop's `for`, which is the line GCC reports.
The flags are the library's Release flags with no -march, plus the
per-file options CMakeLists.txt sets (-ffp-contract=off for matrix.cpp and
adam.cpp), so the check holds for the baseline ISA every build gets. The
kernels written in explicit AVX2 intrinsics (the 8x8 transposed copy in
matrix.cpp, the Adam update in adam.cpp) are not loops GCC vectorizes and
carry no tag: the ISA bit-identity tests (batch_test, nn_test) and
bench_micro's in-bench asserts guard them instead. A file with tagged
loops must also have no loop nest unroll-and-jammed: jamming fuses outer
iterations into a loop the vectorizer may leave scalar while it still
reports the remainder loop as vectorized, so the tag alone would pass.
Exits 1 when a tagged loop is missing from the report, when such a file
has a jammed nest, when a tag is not followed by a `for`, or when a compile
fails.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_FILES = ["src/tensor/autograd.cpp", "src/nn/adam.cpp",
                 "src/tensor/matrix.cpp"]
# Per-file compile options, as CMakeLists.txt sets them on the library.
FILE_FLAGS = {"src/tensor/matrix.cpp": ["-ffp-contract=off"],
              "src/nn/adam.cpp": ["-ffp-contract=off"]}
MARKER = re.compile(r"//\s*vectorize:\s*(.+?)\s*$")
REPORT = re.compile(r"^(.+?):(\d+):\d+: optimized: "
                    r"(loop vectorized|applying unroll and jam)")


def tagged_loops(path):
    """Returns [(loop line number, tag name)]; raises on a dangling tag."""
    lines = path.read_text().splitlines()
    loops = []
    for i, line in enumerate(lines):
        match = MARKER.search(line)
        if not match:
            continue
        if i + 1 >= len(lines) or not lines[i + 1].lstrip().startswith("for"):
            raise ValueError(f"{path}:{i + 1}: tag '{match.group(1)}' "
                             "is not directly above a for loop")
        loops.append((i + 2, match.group(1)))
    return loops


def optimized_lines(cxx, path, flags):
    """Compiles `path`; returns (lines GCC vectorized, lines it jammed)."""
    cmd = [cxx, "-std=c++17", "-O3", "-DNDEBUG", *flags, "-I",
           str(ROOT / "src"), "-fopt-info-vec-optimized",
           "-fopt-info-loop-optimized", "-c", str(path), "-o", os.devnull]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"compile failed: {' '.join(cmd)}")
    vectorized, jammed = set(), set()
    for line in proc.stderr.splitlines():
        match = REPORT.match(line)
        if match and Path(match.group(1)).resolve() == path.resolve():
            jam = match.group(3) != "loop vectorized"
            (jammed if jam else vectorized).add(int(match.group(2)))
    return vectorized, jammed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cxx", default=os.environ.get("CXX", "g++"),
                        help="GCC-compatible compiler (default: $CXX or g++)")
    parser.add_argument("files", nargs="*", default=DEFAULT_FILES,
                        help="sources relative to the repository root")
    args = parser.parse_args()

    failures = 0
    for name in args.files:
        path = ROOT / name
        try:
            loops = tagged_loops(path)
            found, jammed = optimized_lines(args.cxx, path,
                                            FILE_FLAGS.get(name, []))
        except (ValueError, RuntimeError) as err:
            print(f"FAIL {err}")
            failures += 1
            continue
        for line, tag in loops:
            ok = line in found
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}:{line} {tag}"
                  f"{'' if ok else ' (not vectorized)'}")
        if not loops:
            print(f"--   {name}: no tagged loops")
        for line in sorted(jammed) if loops else []:
            failures += 1
            print(f"FAIL {name}:{line} loop nest unroll-and-jammed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
