#include "nnrt/executor.h"

#include <algorithm>

#include "common/timer.h"
#include "nnrt/backend.h"
#include "nnrt/kernels.h"

namespace raven::nnrt {

void OpProfiler::Merge(const std::vector<OpProfile>& per_op) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const OpProfile& p : per_op) {
    OpProfile& agg = ops_[p.op_type];
    agg.op_type = p.op_type;
    agg.calls += p.calls;
    agg.wall_micros += p.wall_micros;
    agg.flops += p.flops;
    total_calls_ += p.calls;
    total_micros_ += p.wall_micros;
  }
}

std::vector<OpProfile> OpProfiler::Snapshot() const {
  std::vector<OpProfile> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(ops_.size());
    for (const auto& [op, profile] : ops_) out.push_back(profile);
  }
  std::sort(out.begin(), out.end(), [](const OpProfile& a, const OpProfile& b) {
    if (a.wall_micros != b.wall_micros) return a.wall_micros > b.wall_micros;
    return a.op_type < b.op_type;
  });
  return out;
}

std::int64_t OpProfiler::total_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_calls_;
}

double OpProfiler::total_micros() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_micros_;
}

Result<TensorMap> ExecuteGraph(const Graph& graph, const TensorMap& inputs,
                               RunStats* stats, const Backend* backend,
                               bool profile_ops) {
  if (backend == nullptr) backend = GetBackend(BackendKind::kReference);
  Timer timer;
  // Initializers and inputs are bound in place, never copied (a translated
  // forest's weights are ~0.5 MB); only node outputs are owned here. Kernels
  // read inputs through const pointers, so sessions shared across threads
  // never write them. unordered_map keeps element addresses stable.
  std::unordered_map<std::string, const Tensor*> env;
  TensorMap owned;
  for (const auto& [name, tensor] : graph.initializers()) {
    env[name] = &tensor;
  }
  for (const auto& name : graph.inputs()) {
    auto it = inputs.find(name);
    if (it == inputs.end()) {
      return Status::InvalidArgument("missing graph input '" + name + "'");
    }
    env[name] = &it->second;
  }

  RAVEN_ASSIGN_OR_RETURN(auto order, graph.TopologicalOrder());
  double total_flops = 0.0;
  std::size_t executed = 0;
  std::map<std::string, OpProfile> per_op;
  for (std::size_t idx : order) {
    const Node& node = graph.nodes()[idx];
    const Kernel* kernel = backend->FindKernel(node.op_type);
    if (kernel == nullptr) {
      return Status::Unimplemented("no NNRT kernel for op '" + node.op_type +
                                   "' (node '" + node.name + "')");
    }
    KernelContext ctx;
    ctx.node = &node;
    ctx.inputs.reserve(node.inputs.size());
    for (const auto& in : node.inputs) {
      auto it = env.find(in);
      if (it == env.end()) {
        return Status::ExecutionError("value '" + in +
                                      "' not materialized before node '" +
                                      node.name + "'");
      }
      ctx.inputs.push_back(it->second);
    }
    ctx.outputs.resize(node.outputs.size());
    if (profile_ops) {
      Timer node_timer;
      RAVEN_RETURN_IF_ERROR((*kernel)(&ctx));
      OpProfile& p = per_op[node.op_type];
      p.op_type = node.op_type;
      ++p.calls;
      p.wall_micros += node_timer.ElapsedMicros();
      p.flops += ctx.flops;
    } else {
      RAVEN_RETURN_IF_ERROR((*kernel)(&ctx));
    }
    for (std::size_t o = 0; o < node.outputs.size(); ++o) {
      Tensor& slot = owned[node.outputs[o]];
      slot = std::move(ctx.outputs[o]);
      env[node.outputs[o]] = &slot;
    }
    total_flops += ctx.flops;
    ++executed;
  }

  TensorMap out;
  for (const auto& name : graph.outputs()) {
    auto it = env.find(name);
    if (it == env.end()) {
      return Status::ExecutionError("graph output '" + name +
                                    "' was not produced");
    }
    // A node output moves out; an input or initializer (a folded constant)
    // is copied — it belongs to the caller or the graph.
    auto own = owned.find(name);
    if (own != owned.end()) {
      out[name] = std::move(own->second);
    } else {
      out[name] = *it->second;
    }
  }
  if (stats != nullptr) {
    stats->wall_micros = timer.ElapsedMicros();
    stats->simulated_micros = stats->wall_micros;
    stats->flops = total_flops;
    stats->nodes_executed = executed;
    stats->per_op.clear();
    stats->per_op.reserve(per_op.size());
    for (auto& [op, profile] : per_op) stats->per_op.push_back(profile);
  }
  return out;
}

}  // namespace raven::nnrt
