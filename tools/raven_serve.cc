// raven_serve: the standalone query-server daemon. Boots a RavenContext
// with the demo hospital + flight datasets and their stored models, then
// serves the frame protocol of src/server until SIGINT/SIGTERM.
//
// Usage:
//   raven_serve --socket=/tmp/raven.sock               # unix listener
//   raven_serve --port=0                               # TCP on 127.0.0.1
// Knobs:
//   --rows=N                  dataset size per table (default 5000)
//   --parallelism=N           default session dop (default 4)
//   --max-concurrent=N        admission execution slots (default 4)
//   --max-queue=N             admission queue depth (default 16)
//   --queue-timeout-ms=N      queue wait bound (default 30000)
//   --max-result-rows=N       per-query result cap (default 0 = unlimited)
//   --plan-cache=N            plan cache capacity (default 128)
//   --batch-window-us=N       cross-query PREDICT micro-batch window in
//                             microseconds (default 0 = off)
//   --max-batch-rows=N        rows per coalesced NNRT call (default 256)
//   --artifact-dir=PATH       persist compiled NNRT graphs here; a restart
//                             (or raven_worker child) warm-starts from them
//   --session-cache=N         NNRT session cache capacity (default 32)
//   --nn-backend=NAME         default NNRT backend: simd|reference|fp16
//                             (default simd; reference is the scalar
//                             oracle, bit-identical, for debugging)
//   --attach=NAME=PATH        register the `.rvc` columnar file at PATH as
//                             on-disk table NAME (repeatable; scans read it
//                             block-by-block with zone-map skipping)
//   --metrics-port=N          serve Prometheus text metrics over plaintext
//                             HTTP on 127.0.0.1:N (0 = pick a free port;
//                             scrape GET /metrics)
//   --slow-query-log=PATH     append one JSON span-tree line per statement
//                             at or over a session's SET slow_query_millis
//                             threshold
//
// Try it:
//   raven_client --socket=/tmp/raven.sock
//     --query "SELECT airline, COUNT(*) AS n FROM flights GROUP BY airline"

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "data/flight.h"
#include "data/hospital.h"
#include "raven/raven.h"
#include "server/query_server.h"
#include "storage/columnar.h"
#include "tool_flags.h"

namespace {

using raven::tools::ParseFlag;

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

long FlagInt(const std::string& value, const char* name) {
  return raven::tools::FlagInt(value, name, "raven_serve");
}

}  // namespace

int main(int argc, char** argv) {
  raven::server::QueryServerOptions options;
  raven::RavenOptions raven_options;
  long rows = 5000;
  long parallelism = 4;
  std::vector<std::pair<std::string, std::string>> attachments;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--socket=", &value)) {
      options.unix_socket_path = value;
    } else if (ParseFlag(argv[i], "--port=", &value)) {
      options.tcp_port = static_cast<int>(FlagInt(value, "--port"));
    } else if (ParseFlag(argv[i], "--rows=", &value)) {
      rows = FlagInt(value, "--rows");
    } else if (ParseFlag(argv[i], "--parallelism=", &value)) {
      parallelism = FlagInt(value, "--parallelism");
    } else if (ParseFlag(argv[i], "--max-concurrent=", &value)) {
      options.admission.max_concurrent = FlagInt(value, "--max-concurrent");
    } else if (ParseFlag(argv[i], "--max-queue=", &value)) {
      options.admission.max_queue = FlagInt(value, "--max-queue");
    } else if (ParseFlag(argv[i], "--queue-timeout-ms=", &value)) {
      options.admission.queue_timeout_millis =
          FlagInt(value, "--queue-timeout-ms");
    } else if (ParseFlag(argv[i], "--max-result-rows=", &value)) {
      options.admission.max_result_rows = FlagInt(value, "--max-result-rows");
    } else if (ParseFlag(argv[i], "--plan-cache=", &value)) {
      options.plan_cache_capacity =
          static_cast<std::size_t>(FlagInt(value, "--plan-cache"));
    } else if (ParseFlag(argv[i], "--batch-window-us=", &value)) {
      options.default_execution.predict_batch_window_micros =
          FlagInt(value, "--batch-window-us");
    } else if (ParseFlag(argv[i], "--max-batch-rows=", &value)) {
      options.default_execution.predict_max_batch_rows =
          FlagInt(value, "--max-batch-rows");
    } else if (ParseFlag(argv[i], "--artifact-dir=", &value)) {
      raven_options.artifact_dir = value;
    } else if (ParseFlag(argv[i], "--session-cache=", &value)) {
      raven_options.session_cache_capacity =
          static_cast<std::size_t>(FlagInt(value, "--session-cache"));
    } else if (ParseFlag(argv[i], "--nn-backend=", &value)) {
      auto kind = raven::nnrt::ParseBackendKind(value);
      if (!kind.ok()) {
        std::fprintf(stderr, "raven_serve: %s\n",
                     kind.status().ToString().c_str());
        return 2;
      }
      options.default_execution.nn_backend = kind.value();
    } else if (ParseFlag(argv[i], "--metrics-port=", &value)) {
      options.metrics_port = static_cast<int>(FlagInt(value, "--metrics-port"));
    } else if (ParseFlag(argv[i], "--slow-query-log=", &value)) {
      options.slow_query_log_path = value;
    } else if (ParseFlag(argv[i], "--attach=", &value)) {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == value.size()) {
        std::fprintf(stderr,
                     "raven_serve: --attach expects NAME=PATH, got '%s'\n",
                     value.c_str());
        return 2;
      }
      attachments.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else {
      std::fprintf(stderr, "raven_serve: unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  if (options.unix_socket_path.empty() && options.tcp_port < 0) {
    std::fprintf(stderr,
                 "raven_serve: pass --socket=PATH or --port=N (0 = pick)\n");
    return 2;
  }
  options.default_execution.parallelism = parallelism;

  raven::RavenContext ctx(raven_options);
  {
    auto hospital = raven::data::MakeHospitalDataset(rows, 11);
    if (!ctx.RegisterTable("patient_info", hospital.patient_info).ok() ||
        !ctx.RegisterTable("blood_tests", hospital.blood_tests).ok() ||
        !ctx.RegisterTable("prenatal_tests", hospital.prenatal_tests).ok() ||
        !ctx.RegisterTable("patients", hospital.joined).ok()) {
      std::fprintf(stderr, "raven_serve: failed to register hospital data\n");
      return 1;
    }
    auto tree = raven::data::TrainHospitalTree(hospital, 5);
    if (!tree.ok() ||
        !ctx.InsertModel("los", raven::data::HospitalTreeScript(),
                         tree.value())
             .ok()) {
      std::fprintf(stderr, "raven_serve: failed to store model 'los'\n");
      return 1;
    }
    auto flight = raven::data::MakeFlightDataset(rows, 7);
    if (!ctx.RegisterTable("flights", flight.flights).ok()) {
      std::fprintf(stderr, "raven_serve: failed to register flight data\n");
      return 1;
    }
    auto logreg = raven::data::TrainFlightLogreg(flight, 0.01);
    if (!logreg.ok() ||
        !ctx.InsertModel("delay", raven::data::FlightLogregScript(),
                         logreg.value())
             .ok()) {
      std::fprintf(stderr, "raven_serve: failed to store model 'delay'\n");
      return 1;
    }
  }
  for (const auto& [name, path] : attachments) {
    auto disk = raven::storage::DiskTable::Open(path);
    if (!disk.ok()) {
      std::fprintf(stderr, "raven_serve: --attach %s: %s\n", name.c_str(),
                   disk.status().ToString().c_str());
      return 1;
    }
    raven::Status attached = ctx.RegisterDiskTable(name, disk.value());
    if (!attached.ok()) {
      std::fprintf(stderr, "raven_serve: --attach %s: %s\n", name.c_str(),
                   attached.ToString().c_str());
      return 1;
    }
    std::printf("raven_serve: attached %s -> %s\n", name.c_str(),
                disk.value()->Describe().c_str());
  }

  raven::server::QueryServer server(&ctx, options);
  raven::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "raven_serve: %s\n", started.ToString().c_str());
    return 1;
  }
  if (!options.unix_socket_path.empty()) {
    std::printf("raven_serve: listening on %s\n",
                options.unix_socket_path.c_str());
  } else {
    std::printf("raven_serve: listening on 127.0.0.1:%d\n",
                server.tcp_port());
  }
  if (server.metrics_tcp_port() >= 0) {
    std::printf("raven_serve: metrics on http://127.0.0.1:%d/metrics\n",
                server.metrics_tcp_port());
  }
  std::printf("raven_serve: tables patients/patient_info/blood_tests/"
              "prenatal_tests/flights, models los/delay (%ld rows)\n",
              rows);
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    ::usleep(100 * 1000);
  }
  std::printf("raven_serve: shutting down\n");
  server.Stop();
  return 0;
}
