#!/usr/bin/env python3
"""Line coverage of src/ after ctest, checked against a floor that only rises.

Configure a build with --coverage, run ctest in it, then:

    python3 tests/coverage.py <build dir>

The script runs one `gcov --json-format --stdout` over every .gcno file in
the build (standard library only: lcov and gcovr are not assumed), so an
object that never ran counts with all its lines unexecuted. The gcov is the
one that belongs to the compiler recorded in the build's CMakeCache.txt
(g++-12 -> gcov-12), because the notes format follows the compiler version.
It keeps the lines of files under src/ and counts a line as covered when any
object file executed it. It prints the covered and instrumented line counts,
the WORST_FILES least covered files, and exits 1 when the percentage is below
FLOOR_PCT.

FLOOR_PCT is the lowest of repeated measurements when it was last raised,
rounded down to 0.1%: repeated ctest runs of one tree still differ by a few
covered lines, and which lines differ changes from run to run, so a floor at
one run's figure could fail the next. Raise it when coverage rises; never
lower it.
"""

import argparse
import json
import os
import subprocess
import sys

# 91.11%, 91.08% and 91.14% of 7,100 lines in three runs (GCC 12.2, Debug).
FLOOR_PCT = 91.0
WORST_FILES = 10


def gcno_files(build_dir):
    for root, _, names in os.walk(build_dir):
        for name in names:
            if name.endswith(".gcno"):
                yield os.path.abspath(os.path.join(root, name))


def matching_gcov(build_dir):
    """The gcov beside the build's C++ compiler, with g++ in its name swapped
    for gcov (/usr/bin/c++ -> x86_64-linux-gnu-g++-12 -> ...-gcov-12)."""
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        compiler = next((line.split("=", 1)[1].strip() for line in cache
                         if line.startswith("CMAKE_CXX_COMPILER:")), "")
    real = os.path.realpath(compiler)
    head, found, tail = os.path.basename(real).rpartition("g++")
    gcov = os.path.join(os.path.dirname(real), head + "gcov" + tail)
    if not found or not os.path.isfile(gcov):
        print(f"coverage: no gcov for the compiler {compiler!r} of {build_dir}", file=sys.stderr)
        sys.exit(2)
    return gcov


def json_documents(text):
    """gcov prints one JSON document per input file."""
    decoder = json.JSONDecoder()
    at = 0
    while True:
        while at < len(text) and text[at].isspace():
            at += 1
        if at == len(text):
            return
        doc, at = decoder.raw_decode(text, at)
        yield doc


def merge_line_counts(documents, src_dir):
    """{source path: {line number: highest execution count}} under src_dir,
    over gcov JSON documents: a header compiled into several objects counts a
    line as run when any of them ran it."""
    lines = {}
    for doc in documents:
        cwd = doc.get("current_working_directory", "")
        for entry in doc["files"]:
            path = os.path.normpath(os.path.join(cwd, entry["file"]))
            if not path.startswith(src_dir) or not entry["lines"]:
                continue
            counts = lines.setdefault(path, {})
            for line in entry["lines"]:
                number = line["line_number"]
                counts[number] = max(counts.get(number, 0), line["count"])
    return lines


def src_line_counts(build_dir, src_dir):
    """merge_line_counts over one gcov run on every .gcno in build_dir."""
    notes = sorted(gcno_files(build_dir))
    if not notes:
        return {}
    # A .gcno without a .gcda beside it makes gcov note "assuming not
    # executed" on stderr and report zero counts.
    out = subprocess.run([matching_gcov(build_dir), "--json-format", "--stdout"] + notes,
                         check=True, capture_output=True, text=True).stdout
    return merge_line_counts(json_documents(out), src_dir)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("build_dir", help="a --coverage build after ctest has run in it")
    args = parser.parse_args()

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src_dir = os.path.join(repo, "src") + os.sep
    lines = src_line_counts(args.build_dir, src_dir)
    if not lines:
        print(f"coverage: no gcov data for {src_dir} under {args.build_dir}", file=sys.stderr)
        return 2

    per_file = []
    for path, counts in lines.items():
        covered = sum(1 for count in counts.values() if count > 0)
        per_file.append((covered / len(counts), covered, len(counts),
                         os.path.relpath(path, repo)))
    covered = sum(row[1] for row in per_file)
    instrumented = sum(row[2] for row in per_file)
    pct = 100.0 * covered / instrumented

    print(f"{'file':<44} {'covered':>8} {'lines':>6} {'pct':>7}")
    for frac, hit, total, name in sorted(per_file)[:WORST_FILES]:
        print(f"{name:<44} {hit:>8} {total:>6} {100.0 * frac:>6.1f}%")
    print(f"coverage: {covered} of {instrumented} instrumented src/ lines "
          f"({pct:.2f}%) in {len(per_file)} files; floor {FLOOR_PCT:.1f}%")
    if pct < FLOOR_PCT:
        print(f"coverage: {pct:.2f}% is below the floor of {FLOOR_PCT:.1f}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
