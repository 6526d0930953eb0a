#include "nnrt/executor.h"

#include <algorithm>
#include <set>

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

Result<ExecutionPlan> ExecutionPlan::Build(const Graph& graph,
                                           const Backend* backend) {
  if (backend == nullptr) backend = GetBackend(BackendKind::kReference);
  ExecutionPlan plan;
  plan.fp16_ = backend->fp16();
  const std::vector<Node>& nodes = graph.nodes();
  RAVEN_ASSIGN_OR_RETURN(auto order, graph.TopologicalOrder());

  std::unordered_map<std::string, int> slots;
  const auto new_slot = [&plan, &slots](const std::string& name) {
    auto [it, inserted] =
        slots.emplace(name, static_cast<int>(plan.bound_.size()));
    if (inserted) {
      plan.bound_.push_back(nullptr);
      plan.produced_.push_back(false);
    }
    return it->second;
  };
  // A value a step reads: bound already (graph input, initializer, earlier
  // step's output), or an initializer bound now; -1 when nothing makes it.
  const auto read_slot = [&](const std::string& name) {
    auto it = slots.find(name);
    if (it != slots.end()) return it->second;
    auto init = graph.initializers().find(name);
    if (init == graph.initializers().end()) return -1;
    const int slot = new_slot(name);
    plan.bound_[static_cast<std::size_t>(slot)] = &init->second;
    return slot;
  };
  plan.input_names_ = graph.inputs();
  for (const auto& name : graph.inputs()) {
    plan.input_slots_.push_back(new_slot(name));
  }

  // Featurize -> Gemm pairs to run as one FeaturizeGemm step: the Gemm's A
  // is the Featurize output, read by nothing else and not a graph output.
  std::unordered_map<std::size_t, std::size_t> fuse_into;  // gemm -> featurize
  std::vector<bool> absorbed(nodes.size(), false);
  const KernelFactory* fused_factory = backend->FindKernel("FeaturizeGemm");
  if (fused_factory != nullptr) {
    std::unordered_map<std::string, int> readers;
    std::unordered_map<std::string, std::size_t> producer;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (const auto& in : nodes[i].inputs) readers[in]++;
      for (const auto& out : nodes[i].outputs) producer[out] = i;
    }
    const std::set<std::string> graph_outputs(graph.outputs().begin(),
                                              graph.outputs().end());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const Node& gemm = nodes[i];
      if (gemm.op_type != "Gemm" || gemm.inputs.size() < 2) continue;
      const std::string& a = gemm.inputs[0];
      auto p = producer.find(a);
      if (p == producer.end() || readers[a] != 1 ||
          graph_outputs.count(a) > 0) {
        continue;
      }
      const Node& featurize = nodes[p->second];
      if (featurize.op_type != "Featurize" || featurize.inputs.size() != 1 ||
          featurize.outputs.size() != 1) {
        continue;
      }
      fuse_into[i] = p->second;
      absorbed[p->second] = true;
    }
  }

  for (std::size_t idx : order) {
    if (absorbed[idx]) continue;
    const Node* node = &nodes[idx];
    const KernelFactory* factory = nullptr;
    auto fused = fuse_into.find(idx);
    if (fused != fuse_into.end()) {
      const Node& featurize = nodes[fused->second];
      auto merged = std::make_unique<Node>();
      merged->op_type = "FeaturizeGemm";
      merged->name = node->name;
      merged->inputs = node->inputs;
      merged->inputs[0] = featurize.inputs[0];
      merged->outputs = node->outputs;
      merged->attrs = featurize.attrs;
      auto act = node->attrs.find(kGemmActivationAttr);
      if (act != node->attrs.end()) merged->attrs.insert(*act);
      node = merged.get();
      plan.fused_nodes_.push_back(std::move(merged));
      factory = fused_factory;
    } else {
      factory = backend->FindKernel(node->op_type);
      if (factory == nullptr) {
        return Status::Unimplemented("no NNRT kernel for op '" +
                                     node->op_type + "' (node '" +
                                     node->name + "')");
      }
    }
    Step step{node, nullptr, {}, {}, 0};
    for (const auto& in : node->inputs) {
      const int slot = read_slot(in);
      if (slot < 0) {
        return Status::ExecutionError("value '" + in +
                                      "' not materialized before node '" +
                                      node->name + "'");
      }
      step.inputs.push_back(slot);
    }
    RAVEN_ASSIGN_OR_RETURN(step.kernel, (*factory)(*node));
    for (const auto& out : node->outputs) {
      const int slot = new_slot(out);
      plan.produced_[static_cast<std::size_t>(slot)] = true;
      step.outputs.push_back(slot);
    }
    plan.max_step_inputs_ = std::max(plan.max_step_inputs_, step.inputs.size());
    plan.max_step_outputs_ =
        std::max(plan.max_step_outputs_, step.outputs.size());
    plan.steps_.push_back(std::move(step));
  }

  plan.output_names_ = graph.outputs();
  for (const auto& name : graph.outputs()) {
    const int slot = read_slot(name);
    if (slot < 0) {
      return Status::ExecutionError("graph output '" + name +
                                    "' was not produced");
    }
    plan.output_slots_.push_back(slot);
  }

  for (const Step& step : plan.steps_) {
    plan.op_names_.push_back(step.node->op_type);
  }
  std::sort(plan.op_names_.begin(), plan.op_names_.end());
  plan.op_names_.erase(
      std::unique(plan.op_names_.begin(), plan.op_names_.end()),
      plan.op_names_.end());
  for (Step& step : plan.steps_) {
    step.op = static_cast<int>(
        std::lower_bound(plan.op_names_.begin(), plan.op_names_.end(),
                         step.node->op_type) -
        plan.op_names_.begin());
  }
  return plan;
}

Status ExecutionPlan::Run(const Tensor* const* inputs,
                          std::size_t num_inputs, RunArena* arena,
                          RunStats* stats, bool profile_ops) const {
  Timer timer;
  if (num_inputs != input_slots_.size()) {
    return Status::InvalidArgument(
        "plan expects " + std::to_string(input_slots_.size()) +
        " inputs, got " + std::to_string(num_inputs));
  }
  std::vector<const Tensor*>& values = arena->values_;
  values.assign(bound_.begin(), bound_.end());
  if (arena->buffers_.size() < bound_.size()) {
    arena->buffers_.resize(bound_.size());
  }
  for (std::size_t i = 0; i < num_inputs; ++i) {
    values[static_cast<std::size_t>(input_slots_[i])] = inputs[i];
  }
  arena->step_inputs_.resize(max_step_inputs_);
  arena->step_outputs_.resize(max_step_outputs_);
  if (profile_ops) arena->tallies_.assign(op_names_.size(), RunArena::Tally());

  double total_flops = 0.0;
  for (const Step& step : steps_) {
    for (std::size_t q = 0; q < step.inputs.size(); ++q) {
      arena->step_inputs_[q] = values[static_cast<std::size_t>(step.inputs[q])];
    }
    for (std::size_t q = 0; q < step.outputs.size(); ++q) {
      const auto slot = static_cast<std::size_t>(step.outputs[q]);
      arena->step_outputs_[q] = &arena->buffers_[slot];
      values[slot] = &arena->buffers_[slot];
    }
    KernelContext ctx;
    ctx.node = step.node;
    ctx.inputs = arena->step_inputs_.data();
    ctx.input_count = step.inputs.size();
    ctx.outputs = arena->step_outputs_.data();
    ctx.output_count = step.outputs.size();
    if (profile_ops) {
      Timer step_timer;
      RAVEN_RETURN_IF_ERROR(step.kernel(&ctx));
      RunArena::Tally& tally =
          arena->tallies_[static_cast<std::size_t>(step.op)];
      ++tally.calls;
      tally.micros += step_timer.ElapsedMicros();
      tally.flops += ctx.flops;
    } else {
      RAVEN_RETURN_IF_ERROR(step.kernel(&ctx));
    }
    if (fp16_) {
      for (std::size_t q = 0; q < ctx.num_outputs(); ++q) {
        float* p = ctx.output(q)->raw();
        const std::int64_t n = ctx.output(q)->num_elements();
        for (std::int64_t i = 0; i < n; ++i) p[i] = RoundToFp16(p[i]);
      }
    }
    total_flops += ctx.flops;
  }

  if (stats != nullptr) {
    stats->wall_micros = timer.ElapsedMicros();
    stats->simulated_micros = stats->wall_micros;
    stats->flops = total_flops;
    stats->nodes_executed = steps_.size();
    stats->per_op.clear();
    if (profile_ops) {
      stats->per_op.reserve(op_names_.size());
      for (std::size_t op = 0; op < op_names_.size(); ++op) {
        const RunArena::Tally& tally = arena->tallies_[op];
        stats->per_op.push_back(
            OpProfile{op_names_[op], tally.calls, tally.micros, tally.flops});
      }
    }
  }
  return Status::OK();
}

const Tensor& ExecutionPlan::Output(const RunArena& arena,
                                    std::size_t i) const {
  return *arena.values_[static_cast<std::size_t>(output_slots_[i])];
}

Tensor ExecutionPlan::TakeOutput(RunArena* arena, std::size_t i) const {
  const auto slot = static_cast<std::size_t>(output_slots_[i]);
  // A step's output moves out; an input or initializer (a folded constant)
  // is copied — it belongs to the caller or the graph.
  if (produced_[slot]) return std::move(arena->buffers_[slot]);
  return *arena->values_[slot];
}

TensorMap ExecutionPlan::TakeOutputs(RunArena* arena) const {
  TensorMap out;
  for (std::size_t i = 0; i < output_slots_.size(); ++i) {
    if (out.count(output_names_[i]) == 0) {
      out[output_names_[i]] = TakeOutput(arena, i);
    }
  }
  return out;
}

std::vector<std::string> ExecutionPlan::StepOps() const {
  std::vector<std::string> ops;
  for (const Step& step : steps_) ops.push_back(step.node->op_type);
  return ops;
}

Result<TensorMap> ExecuteGraph(const Graph& graph, const TensorMap& inputs,
                               RunStats* stats, const Backend* backend,
                               bool profile_ops) {
  RAVEN_ASSIGN_OR_RETURN(ExecutionPlan plan,
                         ExecutionPlan::Build(graph, backend));
  std::vector<const Tensor*> bound;
  for (const auto& name : plan.input_names()) {
    auto it = inputs.find(name);
    if (it == inputs.end()) {
      return Status::InvalidArgument("missing graph input '" + name + "'");
    }
    bound.push_back(&it->second);
  }
  RunArena arena;
  RAVEN_RETURN_IF_ERROR(
      plan.Run(bound.data(), bound.size(), &arena, stats, profile_ops));
  return plan.TakeOutputs(&arena);
}

}  // namespace raven::nnrt
