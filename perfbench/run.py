#!/usr/bin/env python3
"""Builds the Raven benchmark driver from this checkout and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 10 --trace 0

Workloads: paper_batch, serve_point, serve_adhoc (see perfbench/README.md).
The first call configures and builds a Release tree under
.bench_build/perfbench (about a minute on 4 cores); later calls rebuild only
what changed. The driver's standard output is passed through; its last line
is the result JSON. Extra flags (--setup-reps, --corrupt-reference) are
forwarded to the driver.

Exit codes: 0 all results verified; 1 a result was wrong or an operation
failed; 2 build, guard or usage error (no result printed); 3 timeout.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_batch", "serve_point", "serve_adhoc")
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def read_cmake_cache(build_dir):
    """Returns {NAME: value} from build_dir/CMakeCache.txt ({} if absent)."""
    entries = {}
    path = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(path):
        return entries
    with open(path, encoding="utf-8", errors="replace") as cache:
        for line in cache:
            line = line.strip()
            if not line or line.startswith(("#", "//")) or "=" not in line:
                continue
            key, value = line.split("=", 1)
            entries[key.split(":", 1)[0]] = value
    return entries


def check_build(cache):
    """The build guard: None when `cache` describes a build fit to measure,
    else the reason it is not (unoptimized, or built with a sanitizer)."""
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type not in OPTIMIZED_BUILD_TYPES:
        return "build type is '%s'; only %s builds are measured" % (
            build_type, " or ".join(OPTIMIZED_BUILD_TYPES))
    if cache.get("RAVEN_SANITIZE", ""):
        return "build has RAVEN_SANITIZE=%s" % cache["RAVEN_SANITIZE"]
    for key, value in cache.items():
        if key.startswith(("CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER_FLAGS")) and \
                "-fsanitize" in value:
            return "build has sanitizer flags in %s" % key
    return None


def build(build_dir, jobs):
    """Configures (first time) and builds the driver; returns its path."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w", encoding="utf-8") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail("configure failed; see " + log_path)
        steps = ["cmake", "--build", build_dir, "--target", "raven_perfbench",
                 "-j", str(jobs)]
        if subprocess.run(steps, stdout=log, stderr=subprocess.STDOUT,
                          cwd=ROOT).returncode != 0:
            with open(log_path, encoding="utf-8", errors="replace") as f:
                sys.stderr.write("".join(f.readlines()[-30:]))
            fail("build failed; see " + log_path)
    return os.path.join(build_dir, "raven_perfbench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, ".bench_build", "perfbench"),
                        help="CMake tree to build in and measure")
    args, forwarded = parser.parse_known_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Raven sources next to perfbench/ (expected %s); run from a "
             "full checkout" % os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")

    jobs = max(1, min(4, os.cpu_count() or 1))
    driver = build(args.build_dir, jobs)
    problem = check_build(read_cmake_cache(args.build_dir))
    if problem is not None:
        fail("refusing to measure: " + problem)

    work_dir = os.path.join(".bench_build", "work")
    os.makedirs(os.path.join(ROOT, work_dir), exist_ok=True)
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--git-sha", git_sha()] + forwarded
    try:
        # The driver uses relative paths (unix socket, .rvc files) under the
        # repository root; its stdout, result line last, passes through.
        done = subprocess.run(command, cwd=ROOT, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S,
              file=sys.stderr)
        sys.exit(3)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
