// Raven end-to-end benchmark driver. One process runs one workload against
// the public API and prints its metrics as the last stdout line:
//
//   raven_perfbench --workload paper_batch|serve_point|serve_adhoc
//                   --seed N --seconds S --trace 0|1
//                   [--setup-reps N] [--work-dir DIR] [--git-sha SHA]
//                   [--corrupt-reference]
//
// Normally launched through run.py, which builds this binary first and
// refuses non-optimized or sanitizer builds. README.md documents the
// workloads and every metric.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr, "raven_perfbench: %s\n", message);
  std::exit(2);
}

long ParseInt(const char* value, const char* flag) {
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "raven_perfbench: %s expects an integer, got '%s'\n",
                 flag, value);
    std::exit(2);
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    Usage(("refusing to measure a '" + build_type +
           "' build; configure with CMAKE_BUILD_TYPE=Release")
              .c_str());
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  Usage("refusing to measure a sanitizer build");
#endif

  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      options.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(ParseInt(value, "--seed"));
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(ParseInt(value, "--seconds"));
    } else if (flag == "--trace") {
      options.trace = ParseInt(value, "--trace") != 0;
    } else if (flag == "--setup-reps") {
      options.setup_reps = static_cast<int>(ParseInt(value, flag.c_str()));
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0 || options.setup_reps < 1) {
    Usage("--seconds and --setup-reps must be positive");
  }

  // Oversubscription guard: 4 load threads and dop 4, each capped at the
  // core count. The host line reports when the cap applied.
  options.nproc = static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  options.clients = std::min(perfbench::kLoadThreads, options.nproc);
  options.dop = options.clients;

  if (options.workload == "paper_batch") {
    return perfbench::RunPaperBatch(options);
  }
  if (options.workload == "serve_point") {
    return perfbench::RunServePoint(options);
  }
  if (options.workload == "serve_adhoc") {
    return perfbench::RunServeAdhoc(options);
  }
  Usage("--workload must be paper_batch, serve_point or serve_adhoc");
}
