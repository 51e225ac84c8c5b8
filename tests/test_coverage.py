#!/usr/bin/env python3
"""Tests for tests/coverage.py, the CI line-coverage gate, on canned gcov JSON.

    python3 tests/test_coverage.py

Standard library only, like the script. The merge rules are checked on
gcov JSON documents directly; the floor is checked by running the script on
a build directory whose "gcov" prints a canned document.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "coverage.py")
REPO = os.path.dirname(HERE)
SRC_DIR = os.path.join(REPO, "src") + os.sep

sys.dont_write_bytecode = True
_spec = importlib.util.spec_from_file_location("coverage_gate", SCRIPT)
coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coverage)


def gcov_document(files):
    """One gcov JSON document, as for one object file: {path: {line: count}},
    paths relative to the repository."""
    return {
        "current_working_directory": REPO,
        "files": [{"file": path,
                   "lines": [{"line_number": n, "count": c} for n, c in sorted(lines.items())]}
                  for path, lines in files.items()],
    }


def src(path):
    return os.path.join(REPO, path)


class MergeLineCounts(unittest.TestCase):
    def test_objects_sharing_a_header_merge_counts_by_max(self):
        first = gcov_document({"src/engine/core.hpp": {10: 0, 11: 5, 12: 0}})
        second = gcov_document({"src/engine/core.hpp": {10: 3, 11: 1, 12: 0}})
        self.assertEqual(coverage.merge_line_counts([first, second], SRC_DIR),
                         {src("src/engine/core.hpp"): {10: 3, 11: 5, 12: 0}})

    def test_a_file_outside_src_is_ignored(self):
        document = gcov_document({"src/a.cpp": {1: 1},
                                  "tests/test_a.cpp": {1: 0},
                                  "/usr/include/c++/12/vector": {7: 0}})
        self.assertEqual(coverage.merge_line_counts([document], SRC_DIR),
                         {src("src/a.cpp"): {1: 1}})

    def test_an_entry_with_no_lines_is_ignored(self):
        document = gcov_document({"src/a.cpp": {1: 1}, "src/empty.hpp": {}})
        self.assertEqual(coverage.merge_line_counts([document], SRC_DIR),
                         {src("src/a.cpp"): {1: 1}})


class Floor(unittest.TestCase):
    LINES = 1000

    def run_script(self, covered):
        """The script on a build dir whose compiler is "g++" and whose "gcov"
        prints one document: `covered` of LINES lines of src/a.cpp run."""
        with tempfile.TemporaryDirectory() as build:
            compiler = os.path.join(build, "g++")
            open(compiler, "w").close()
            with open(os.path.join(build, "CMakeCache.txt"), "w") as cache:
                cache.write(f"CMAKE_CXX_COMPILER:FILEPATH={compiler}\n")
            open(os.path.join(build, "a.gcno"), "w").close()
            lines = {n: int(n <= covered) for n in range(1, self.LINES + 1)}
            gcov = os.path.join(build, "gcov")
            with open(gcov, "w") as script:
                script.write("#!/bin/sh\ncat <<'EOF'\n" +
                             json.dumps(gcov_document({"src/a.cpp": lines})) + "\nEOF\n")
            os.chmod(gcov, 0o755)
            return subprocess.run([sys.executable, SCRIPT, build],
                                  capture_output=True, text=True)

    def test_exits_1_below_the_floor(self):
        at_floor = math.ceil(coverage.FLOOR_PCT * self.LINES / 100)
        result = self.run_script(at_floor - 1)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("below the floor", result.stderr)

    def test_exits_0_at_the_floor(self):
        at_floor = math.ceil(coverage.FLOOR_PCT * self.LINES / 100)
        result = self.run_script(at_floor)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)


if __name__ == "__main__":
    unittest.main()
