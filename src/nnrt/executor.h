#ifndef RAVEN_NNRT_EXECUTOR_H_
#define RAVEN_NNRT_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "nnrt/graph.h"
#include "nnrt/kernels.h"
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
  /// Plan steps run (a fused step counts once).
  std::size_t nodes_executed = 0;
  /// Per-op-type breakdown of this run, sorted by op_type. Filled only when
  /// the caller requested profiling (ExecuteGraph's profile_ops /
  /// SessionOptions::profiler) — per-step timing isn't free.
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

class ExecutionPlan;

/// One caller's buffers for running plans: a tensor per value slot, reused
/// run after run so a steady batch size neither allocates nor zero-fills.
/// Sessions are shared across threads, so each caller brings its own: one
/// per scorer / worker tree, one per batcher flush, one per server call.
/// Not thread-safe. One arena may serve several plans in turn.
class RunArena {
 public:
  RunArena() = default;
  RunArena(const RunArena&) = delete;
  RunArena& operator=(const RunArena&) = delete;

 private:
  friend class ExecutionPlan;

  /// Per-op-name tally of one profiled run.
  struct Tally {
    std::int64_t calls = 0;
    double micros = 0.0;
    double flops = 0.0;
  };

  /// Node outputs, by value slot.
  std::vector<Tensor> buffers_;
  /// Every value's tensor for the current run, by value slot.
  std::vector<const Tensor*> values_;
  /// The current step's input and output pointers.
  std::vector<const Tensor*> step_inputs_;
  std::vector<Tensor*> step_outputs_;
  std::vector<Tally> tallies_;
};

/// A graph compiled for one backend: the topological order resolved into a
/// flat list of steps, each a prepared kernel (attributes read and checked
/// once) over integer value slots. Initializers are bound by pointer when
/// the plan is built, inputs when it runs; outputs land in the caller's
/// RunArena. When the backend offers FeaturizeGemm, a Featurize whose only
/// reader is a Gemm (and which is not a graph output) runs fused into that
/// Gemm as one step. With an fp16 backend every step's outputs are rounded
/// to half precision. Immutable once built: concurrent Run() calls with
/// distinct arenas are safe. The graph must outlive the plan, unmoved.
class ExecutionPlan {
 public:
  /// An empty plan: no inputs, no steps.
  ExecutionPlan() = default;

  static Result<ExecutionPlan> Build(const Graph& graph, const Backend* backend);

  /// Runs the steps over `inputs` (`num_inputs` graph inputs, in
  /// input_names() order). Outputs stay in `arena` until its next run: see Output().
  /// With `profile_ops`, each step is timed and stats->per_op is filled,
  /// one row per op name (a fused step reports as FeaturizeGemm).
  Status Run(const Tensor* const* inputs, std::size_t num_inputs,
             RunArena* arena, RunStats* stats = nullptr,
             bool profile_ops = false) const;

  /// Graph output `i` of the last run over `arena`.
  const Tensor& Output(const RunArena& arena, std::size_t i) const;
  /// Graph output `i` of the last run, moved out of `arena` (an input or
  /// initializer that is a graph output is copied).
  Tensor TakeOutput(RunArena* arena, std::size_t i) const;
  /// Every graph output, by name, as TakeOutput.
  TensorMap TakeOutputs(RunArena* arena) const;

  const std::vector<std::string>& input_names() const { return input_names_; }
  /// Op name of each step, in run order.
  std::vector<std::string> StepOps() const;

 private:
  struct Step {
    const Node* node;
    Kernel kernel;
    std::vector<int> inputs;
    std::vector<int> outputs;
    /// Index into op_names_.
    int op;
  };

  std::vector<Step> steps_;
  /// Fused nodes the plan made (the graph has no node for them).
  std::vector<std::unique_ptr<Node>> fused_nodes_;
  /// Per slot: the initializer bound there, else null.
  std::vector<const Tensor*> bound_;
  std::vector<std::string> input_names_;
  std::vector<int> input_slots_;
  std::vector<std::string> output_names_;
  std::vector<int> output_slots_;
  /// Per slot: true when a step writes it (its tensor is in the arena).
  std::vector<bool> produced_;
  /// Distinct op names of the steps, sorted.
  std::vector<std::string> op_names_;
  std::size_t max_step_inputs_ = 0;
  std::size_t max_step_outputs_ = 0;
  bool fp16_ = false;
};

/// Executes `graph` over the given named inputs, returning the map of graph
/// outputs: builds an ExecutionPlan for `backend` (nullptr = reference) and
/// runs it once over a fresh arena. Initializers and inputs are bound by
/// reference (never copied); with `profile_ops` each step is timed and
/// `stats->per_op` is populated.
Result<TensorMap> ExecuteGraph(const Graph& graph, const TensorMap& inputs,
                               RunStats* stats = nullptr,
                               const Backend* backend = nullptr,
                               bool profile_ops = false);

}  // namespace raven::nnrt

#endif  // RAVEN_NNRT_EXECUTOR_H_
