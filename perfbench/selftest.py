#!/usr/bin/env python3
"""Self-test of the benchmark harness (not of Raven itself).

    python3 perfbench/selftest.py        # from the repository root, ~1 min

Checks that the build guard refuses unoptimized and sanitizer builds, that a
clean short run of every workload verifies all of its results, that a
corrupted reference is caught (the run fails with correct=false), and that
run.py refuses to run without the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the module under test sits next to this file)

SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")


def run_workload(workload, *extra):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", "7", "--seconds", "1", "--trace", "0",
            "--setup-reps", "1"] + list(extra)
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return done.returncode, result, done.stderr


class GuardTest(unittest.TestCase):
    def test_accepts_optimized_builds(self):
        for build_type in ("Release", "RelWithDebInfo"):
            self.assertIsNone(run.check_build({"CMAKE_BUILD_TYPE": build_type}))

    def test_rejects_unoptimized_builds(self):
        for build_type in ("Debug", "MinSizeRel", ""):
            self.assertIsNotNone(
                run.check_build({"CMAKE_BUILD_TYPE": build_type}))

    def test_rejects_sanitizer_builds(self):
        self.assertIsNotNone(run.check_build(
            {"CMAKE_BUILD_TYPE": "Release", "RAVEN_SANITIZE": "address"}))
        self.assertIsNotNone(run.check_build(
            {"CMAKE_BUILD_TYPE": "Release",
             "CMAKE_CXX_FLAGS": "-O2 -fsanitize=thread"}))

    def test_reads_cmake_cache(self):
        cache_dir = os.path.join(SCRATCH, "cache")
        os.makedirs(cache_dir, exist_ok=True)
        with open(os.path.join(cache_dir, "CMakeCache.txt"), "w") as cache:
            cache.write("# comment\n//help text\n"
                        "CMAKE_BUILD_TYPE:STRING=Debug\n"
                        "RAVEN_SANITIZE:STRING=\n")
        entries = run.read_cmake_cache(cache_dir)
        self.assertEqual(entries["CMAKE_BUILD_TYPE"], "Debug")
        self.assertIsNotNone(run.check_build(entries))


class VerificationTest(unittest.TestCase):
    def test_clean_runs_verify(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, result, stderr = run_workload(workload)
                self.assertEqual(code, 0, stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_corrupted_reference_is_caught(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, result, _ = run_workload(workload,
                                               "--corrupt-reference")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


class StandaloneTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/.
        lone = os.path.join(SCRATCH, "lone")
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper_batch",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=lone, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
