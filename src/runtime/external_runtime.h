#ifndef RAVEN_RUNTIME_EXTERNAL_RUNTIME_H_
#define RAVEN_RUNTIME_EXTERNAL_RUNTIME_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/worker_protocol.h"
#include "tensor/tensor.h"

namespace raven::runtime {

/// Configuration for out-of-process / containerized execution.
struct ExternalRuntimeOptions {
  /// Path to the raven_worker binary; empty = auto-discover relative to the
  /// current executable (build/<dir>/x -> build/tools/raven_worker) or via
  /// $RAVEN_WORKER_PATH.
  std::string worker_path;
  /// Simulated interpreter start-up cost the worker sleeps at boot. The
  /// paper measures ~0.5 s for sp_execute_external_script to start the
  /// Python runtime; the real fork/exec cost is a few ms, so this models
  /// the rest (documented substitution, DESIGN.md §1).
  std::int64_t boot_millis = 0;
  /// Extra argv entries appended after --boot-ms (e.g. the protocol
  /// fault-injection flags raven_worker exposes for tests).
  std::vector<std::string> worker_args;
};

/// Resolves the worker binary path (options, $RAVEN_WORKER_PATH, or
/// relative to /proc/self/exe).
Result<std::string> ResolveWorkerPath(const std::string& configured);

/// A handle to one spawned scoring worker process connected over pipes.
/// This is Raven Ext (paper §5): real process isolation, real
/// serialization, real start-up cost.
class WorkerClient {
 public:
  WorkerClient() = default;
  ~WorkerClient();

  WorkerClient(const WorkerClient&) = delete;
  WorkerClient& operator=(const WorkerClient&) = delete;

  /// Spawns the worker via fork/exec. Blocks until the worker answers a
  /// ping (i.e. the simulated runtime boot completed). Also installs a
  /// process-wide SIGPIPE ignore (once), so writing to a worker that died
  /// surfaces as an EPIPE IoError instead of killing the engine.
  Status Start(const ExternalRuntimeOptions& options);

  bool running() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }

  /// Ships model bytes + input tensor, returns predictions.
  Result<Tensor> Score(WorkerCommand kind, const std::string& model_bytes,
                       const Tensor& input);

  /// Raw frame I/O for multi-frame exchanges (the plan-fragment streaming
  /// protocol). The caller owns request/response pairing; a failed exchange
  /// leaves the pipe in an unknown state, so treat any error as fatal for
  /// this worker and restart it.
  Status SendFrame(const std::string& payload);
  Result<std::string> ReceiveFrame(int timeout_millis = -1);

  /// Graceful shutdown: sends kShutdown, waits for the worker's ack frame
  /// (making the join deterministic), then reaps the child — escalating to
  /// SIGKILL only if the worker ignores the request.
  void Stop();

 private:
  pid_t pid_ = -1;
  int to_worker_ = -1;
  int from_worker_ = -1;
};

}  // namespace raven::runtime

#endif  // RAVEN_RUNTIME_EXTERNAL_RUNTIME_H_
