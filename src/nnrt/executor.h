#ifndef RAVEN_NNRT_EXECUTOR_H_
#define RAVEN_NNRT_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "nnrt/graph.h"
#include "tensor/tensor.h"

namespace raven::nnrt {

class Backend;

/// Per-op-type execution aggregate (the backend profiling hook, mirroring
/// ONNX Runtime's per-kernel profiler / QNN's ProfilingLevel).
struct OpProfile {
  std::string op_type;
  std::int64_t calls = 0;
  double wall_micros = 0.0;
  double flops = 0.0;
};

/// Execution statistics for one graph run. `simulated_micros` is the
/// device-model time used for the accelerator backend (launch overhead +
/// flops / throughput); for the CPU device it equals measured wall time.
struct RunStats {
  double wall_micros = 0.0;
  double simulated_micros = 0.0;
  double flops = 0.0;
  std::size_t nodes_executed = 0;
  /// Per-op-type breakdown of this run, sorted by op_type. Filled only when
  /// the caller requested profiling (ExecuteGraph's profile_ops /
  /// SessionOptions::profiler) — per-node timing isn't free.
  std::vector<OpProfile> per_op;
};

/// Cumulative, thread-safe per-op-type profile across many runs. The serving
/// path hangs one off SessionCache so every session sharing the cache feeds
/// the same SHOW STATS / EXPLAIN rows.
class OpProfiler {
 public:
  void Merge(const std::vector<OpProfile>& per_op);

  /// All op aggregates, most expensive (by wall_micros) first.
  std::vector<OpProfile> Snapshot() const;

  std::int64_t total_calls() const;
  double total_micros() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, OpProfile> ops_;
  std::int64_t total_calls_ = 0;
  double total_micros_ = 0.0;
};

using TensorMap = std::unordered_map<std::string, Tensor>;

/// Executes `graph` over the given named inputs, returning the map of graph
/// outputs. Initializers and inputs are bound by reference (never copied);
/// nodes run in topological order on the calling thread. `backend` selects
/// the kernel implementation set (nullptr = reference); with `profile_ops`
/// each node is timed and `stats->per_op` is populated.
Result<TensorMap> ExecuteGraph(const Graph& graph, const TensorMap& inputs,
                               RunStats* stats = nullptr,
                               const Backend* backend = nullptr,
                               bool profile_ops = false);

}  // namespace raven::nnrt

#endif  // RAVEN_NNRT_EXECUTOR_H_
