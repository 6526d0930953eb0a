#include "nnrt/graph_optimizer.h"

#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "nnrt/kernels.h"

namespace raven::nnrt {
namespace {

/// Consumer count per value, the graph-output set and the producing node
/// of each value: what the fusion rules check before rewriting.
struct UseInfo {
  std::unordered_map<std::string, int> uses;
  std::set<std::string> graph_outputs;
  std::unordered_map<std::string, std::size_t> producer;

  explicit UseInfo(const Graph& graph)
      : graph_outputs(graph.outputs().begin(), graph.outputs().end()) {
    for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
      for (const auto& in : graph.nodes()[i].inputs) uses[in]++;
      for (const auto& out : graph.nodes()[i].outputs) producer[out] = i;
    }
  }

  /// True when `value` is read by exactly one node and is not a graph
  /// output, so the node producing it may be fused into that reader.
  bool SingleUse(const std::string& value) const {
    auto it = uses.find(value);
    return it != uses.end() && it->second == 1 &&
           graph_outputs.count(value) == 0;
  }
};

/// Drops the nodes flagged in `remove`.
void RemoveNodes(Graph* graph, const std::vector<bool>& remove) {
  std::vector<Node> kept;
  for (std::size_t i = 0; i < graph->nodes().size(); ++i) {
    if (!remove[i]) kept.push_back(std::move(graph->mutable_nodes()[i]));
  }
  graph->mutable_nodes() = std::move(kept);
}

/// Evaluates nodes whose inputs are all initializers; their outputs become
/// initializers and the node is dropped.
Result<std::size_t> FoldConstants(Graph* graph) {
  std::size_t folded = 0;
  RAVEN_ASSIGN_OR_RETURN(auto order, graph->TopologicalOrder());
  auto& inits = graph->mutable_initializers();
  std::unordered_set<std::string> runtime_inputs(graph->inputs().begin(),
                                                 graph->inputs().end());
  std::vector<bool> remove(graph->nodes().size(), false);
  for (std::size_t idx : order) {
    Node& node = graph->mutable_nodes()[idx];
    if (node.op_type == "Identity") continue;  // Handled separately.
    bool all_const = !node.inputs.empty();
    for (const auto& in : node.inputs) {
      if (runtime_inputs.count(in) > 0 || inits.find(in) == inits.end()) {
        all_const = false;
        break;
      }
    }
    if (!all_const) continue;
    const KernelFactory* factory = FindKernel(node.op_type);
    if (factory == nullptr) continue;
    // A node that fails to prepare or run stays; planning or running the
    // graph reports the error.
    auto kernel = (*factory)(node);
    if (!kernel.ok()) continue;
    std::vector<const Tensor*> inputs;
    for (const auto& in : node.inputs) inputs.push_back(&inits.at(in));
    std::vector<Tensor> results(node.outputs.size());
    std::vector<Tensor*> outputs;
    for (Tensor& t : results) outputs.push_back(&t);
    KernelContext ctx;
    ctx.node = &node;
    ctx.inputs = inputs.data();
    ctx.input_count = inputs.size();
    ctx.outputs = outputs.data();
    ctx.output_count = outputs.size();
    if (!(*kernel)(&ctx).ok()) continue;
    for (std::size_t o = 0; o < node.outputs.size(); ++o) {
      inits[node.outputs[o]] = std::move(results[o]);
    }
    remove[idx] = true;
    ++folded;
  }
  if (folded > 0) RemoveNodes(graph, remove);
  return folded;
}

/// Rewrites consumers of Identity outputs to consume the Identity's input,
/// then drops the Identity nodes (unless they produce a graph output).
std::size_t EliminateIdentities(Graph* graph) {
  std::unordered_map<std::string, std::string> alias;
  std::set<std::string> graph_outputs(graph->outputs().begin(),
                                      graph->outputs().end());
  std::vector<Node> kept;
  std::size_t removed = 0;
  for (auto& node : graph->mutable_nodes()) {
    if (node.op_type == "Identity" && node.inputs.size() == 1 &&
        node.outputs.size() == 1 &&
        graph_outputs.find(node.outputs[0]) == graph_outputs.end()) {
      alias[node.outputs[0]] = node.inputs[0];
      ++removed;
    } else {
      kept.push_back(std::move(node));
    }
  }
  if (removed == 0) {
    // Nodes were moved into `kept`; restore them even when nothing changed.
    graph->mutable_nodes() = std::move(kept);
    return 0;
  }
  auto resolve = [&alias](const std::string& name) {
    std::string cur = name;
    while (true) {
      auto it = alias.find(cur);
      if (it == alias.end()) return cur;
      cur = it->second;
    }
  };
  for (auto& node : kept) {
    for (auto& in : node.inputs) in = resolve(in);
  }
  graph->mutable_nodes() = std::move(kept);
  return removed;
}

/// Fuses MatMul(x, W) followed by Add(y, b) — with b a constant row vector —
/// into a single Gemm(x, W, b).
std::size_t FuseGemm(Graph* graph) {
  const UseInfo info(*graph);
  const auto& inits = graph->initializers();
  std::vector<bool> remove(graph->nodes().size(), false);
  std::size_t fused = 0;
  for (auto& node : graph->mutable_nodes()) {
    if (node.op_type != "Add" || node.inputs.size() != 2) continue;
    // Identify which side is the constant bias.
    int bias_side = -1;
    if (inits.count(node.inputs[1]) > 0) {
      bias_side = 1;
    } else if (inits.count(node.inputs[0]) > 0) {
      bias_side = 0;
    } else {
      continue;
    }
    const std::string& mm_value = node.inputs[bias_side == 1 ? 0 : 1];
    auto pit = info.producer.find(mm_value);
    if (pit == info.producer.end() || !info.SingleUse(mm_value)) continue;
    Node& mm = graph->mutable_nodes()[pit->second];
    if (mm.op_type != "MatMul" || remove[pit->second]) continue;
    // Rewrite the Add node into a Gemm consuming the MatMul's inputs.
    node.op_type = "Gemm";
    node.inputs = {mm.inputs[0], mm.inputs[1],
                   node.inputs[static_cast<std::size_t>(bias_side)]};
    remove[pit->second] = true;
    ++fused;
  }
  if (fused > 0) RemoveNodes(graph, remove);
  return fused;
}

/// Folds Relu(Gemm(...)) into the Gemm's fused activation.
std::size_t FuseGemmRelu(Graph* graph) {
  const UseInfo info(*graph);
  std::vector<bool> remove(graph->nodes().size(), false);
  std::size_t fused = 0;
  for (std::size_t r = 0; r < graph->nodes().size(); ++r) {
    const Node& relu = graph->nodes()[r];
    if (relu.op_type != "Relu" || relu.inputs.size() != 1 ||
        relu.outputs.size() != 1) {
      continue;
    }
    auto pit = info.producer.find(relu.inputs[0]);
    if (pit == info.producer.end() || !info.SingleUse(relu.inputs[0])) {
      continue;
    }
    Node& gemm = graph->mutable_nodes()[pit->second];
    if (gemm.op_type != "Gemm" || gemm.HasAttr(kGemmActivationAttr)) continue;
    gemm.outputs[0] = relu.outputs[0];
    gemm.attrs[kGemmActivationAttr] = std::string("Relu");
    remove[r] = true;
    ++fused;
  }
  if (fused > 0) RemoveNodes(graph, remove);
  return fused;
}

/// The segments of one Featurize node under construction (see
/// FeaturizeKernel for the attribute layout).
struct FeaturizeSpec {
  std::string source;
  std::vector<std::int64_t> kinds, widths, columns, codes;
  std::vector<double> offset, scale;
  /// Nodes the Featurize replaces, the root excluded.
  std::vector<std::size_t> absorbed;

  bool SetSource(const std::string& value) {
    if (source.empty()) source = value;
    return source == value;
  }
  void AddSegment(std::int64_t kind, std::int64_t width) {
    kinds.push_back(kind);
    widths.push_back(width);
  }
};

class FeaturizerFuser {
 public:
  explicit FeaturizerFuser(Graph* graph) : graph_(graph), info_(*graph) {
    inputs_.insert(graph->inputs().begin(), graph->inputs().end());
  }

  /// Fuses every maximal featurizer tree; returns how many were fused.
  Result<std::size_t> Run() {
    RAVEN_ASSIGN_OR_RETURN(auto order, graph_->TopologicalOrder());
    std::vector<bool> remove(graph_->nodes().size(), false);
    std::size_t fused = 0;
    // Consumers first, so a Concat absorbs its parts before a part is
    // tried as a root of its own.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      if (remove[*it]) continue;
      const Node& root = graph_->nodes()[*it];
      if (root.outputs.size() != 1 || !IsRootOp(root)) continue;
      FeaturizeSpec spec;
      if (!AddNode(*it, &spec) || spec.absorbed.empty()) continue;
      for (std::size_t idx : spec.absorbed) remove[idx] = true;
      Node featurize;
      featurize.op_type = "Featurize";
      featurize.name = root.name;
      featurize.inputs = {spec.source};
      featurize.outputs = root.outputs;
      featurize.attrs["kinds"] = std::move(spec.kinds);
      featurize.attrs["widths"] = std::move(spec.widths);
      featurize.attrs["columns"] = std::move(spec.columns);
      featurize.attrs["codes"] = std::move(spec.codes);
      featurize.attrs["offset"] = std::move(spec.offset);
      featurize.attrs["scale"] = std::move(spec.scale);
      graph_->mutable_nodes()[*it] = std::move(featurize);
      ++fused;
    }
    if (fused > 0) RemoveNodes(graph_, remove);
    return fused;
  }

 private:
  static bool IsRootOp(const Node& node) {
    return node.op_type == "Concat" || node.op_type == "Scaler" ||
           node.op_type == "OneHot" || node.op_type == "GatherColumns";
  }

  static const std::vector<std::int64_t>* Indices(const Node& node) {
    auto it = node.attrs.find("indices");
    return it == node.attrs.end()
               ? nullptr
               : std::get_if<std::vector<std::int64_t>>(&it->second);
  }

  /// The single-input node producing `value`, recorded as absorbed, when it
  /// may be fused into its reader (single use, not a graph output).
  std::optional<std::size_t> Absorb(const std::string& value,
                                    FeaturizeSpec* spec) const {
    auto pit = info_.producer.find(value);
    if (pit == info_.producer.end() || !info_.SingleUse(value)) {
      return std::nullopt;
    }
    const Node& node = graph_->nodes()[pit->second];
    if (node.inputs.size() != 1 || node.outputs.size() != 1) {
      return std::nullopt;
    }
    spec->absorbed.push_back(pit->second);
    return pit->second;
  }

  /// GatherColumns(X) over the graph input shared by the whole tree: its
  /// indices, or nullptr.
  const std::vector<std::int64_t>* SourceGather(const Node& node,
                                                FeaturizeSpec* spec) const {
    if (node.op_type != "GatherColumns" || inputs_.count(node.inputs[0]) == 0 ||
        !spec->SetSource(node.inputs[0])) {
      return nullptr;
    }
    return Indices(node);
  }

  /// OneHot(GatherColumns(X, [c])): appends a one-hot segment over `codes`,
  /// or over every code when `codes` is null.
  bool AddOneHot(const Node& onehot, const std::vector<std::int64_t>* codes,
                 FeaturizeSpec* spec) const {
    if (onehot.op_type != "OneHot") return false;
    const std::int64_t depth = onehot.GetIntAttrOr("depth", 0);
    if (depth <= 0) return false;
    const auto gather = Absorb(onehot.inputs[0], spec);
    if (!gather) return false;
    const auto* col = SourceGather(graph_->nodes()[*gather], spec);
    if (col == nullptr || col->size() != 1) return false;
    spec->columns.push_back((*col)[0]);
    if (codes == nullptr) {
      spec->AddSegment(2, depth);
      for (std::int64_t c = 0; c < depth; ++c) spec->codes.push_back(c);
      return true;
    }
    for (std::int64_t c : *codes) {
      if (c < 0 || c >= depth) return false;  // Leave the runtime error.
    }
    spec->AddSegment(2, static_cast<std::int64_t>(codes->size()));
    spec->codes.insert(spec->codes.end(), codes->begin(), codes->end());
    return true;
  }

  /// Appends the segments node `idx` computes; false when it is not a
  /// featurizer part.
  bool AddNode(std::size_t idx, FeaturizeSpec* spec) const {
    const Node& node = graph_->nodes()[idx];
    if (node.op_type == "Concat") {
      for (const auto& in : node.inputs) {
        const auto part = Absorb(in, spec);
        if (!part || !AddNode(*part, spec)) return false;
      }
      return true;
    }
    if (node.inputs.size() != 1) return false;
    if (node.op_type == "OneHot") return AddOneHot(node, nullptr, spec);
    if (node.op_type == "Scaler") {
      const auto gather = Absorb(node.inputs[0], spec);
      if (!gather) return false;
      const auto* cols = SourceGather(graph_->nodes()[*gather], spec);
      auto offset = node.GetFloatsAttr("offset");
      auto scale = node.GetFloatsAttr("scale");
      if (cols == nullptr || !offset.ok() || !scale.ok() ||
          offset->size() != cols->size() || scale->size() != cols->size()) {
        return false;
      }
      spec->AddSegment(1, static_cast<std::int64_t>(cols->size()));
      spec->columns.insert(spec->columns.end(), cols->begin(), cols->end());
      spec->offset.insert(spec->offset.end(), offset->begin(), offset->end());
      spec->scale.insert(spec->scale.end(), scale->begin(), scale->end());
      return true;
    }
    if (node.op_type != "GatherColumns") return false;
    const auto* indices = Indices(node);
    if (indices == nullptr) return false;
    if (inputs_.count(node.inputs[0]) > 0) {
      if (!spec->SetSource(node.inputs[0])) return false;
      spec->AddSegment(0, static_cast<std::int64_t>(indices->size()));
      spec->columns.insert(spec->columns.end(), indices->begin(),
                           indices->end());
      return true;
    }
    // A GatherColumns after a OneHot: the restricted one-hot.
    const auto onehot = Absorb(node.inputs[0], spec);
    return onehot && AddOneHot(graph_->nodes()[*onehot], indices, spec);
  }

  Graph* graph_;
  const UseInfo info_;
  std::unordered_set<std::string> inputs_;
};

/// Removes nodes whose outputs are not (transitively) needed by any graph
/// output, and initializers that no surviving node consumes.
std::size_t EliminateDeadNodes(Graph* graph) {
  std::unordered_map<std::string, std::size_t> producer;
  for (std::size_t i = 0; i < graph->nodes().size(); ++i) {
    for (const auto& out : graph->nodes()[i].outputs) producer[out] = i;
  }
  std::vector<bool> live(graph->nodes().size(), false);
  std::vector<std::string> frontier = graph->outputs();
  while (!frontier.empty()) {
    const std::string value = frontier.back();
    frontier.pop_back();
    auto it = producer.find(value);
    if (it == producer.end() || live[it->second]) continue;
    live[it->second] = true;
    for (const auto& in : graph->nodes()[it->second].inputs) {
      frontier.push_back(in);
    }
  }
  std::size_t removed = 0;
  std::vector<Node> kept;
  for (std::size_t i = 0; i < graph->nodes().size(); ++i) {
    if (live[i]) {
      kept.push_back(std::move(graph->mutable_nodes()[i]));
    } else {
      ++removed;
    }
  }
  graph->mutable_nodes() = std::move(kept);
  // Drop unused initializers (outputs excepted — an output may be a folded
  // constant).
  std::unordered_set<std::string> used(graph->outputs().begin(),
                                       graph->outputs().end());
  for (const auto& node : graph->nodes()) {
    for (const auto& in : node.inputs) used.insert(in);
  }
  auto& inits = graph->mutable_initializers();
  for (auto it = inits.begin(); it != inits.end();) {
    if (used.find(it->first) == used.end()) {
      it = inits.erase(it);
    } else {
      ++it;
    }
  }
  return removed;
}

}  // namespace

Status OptimizeGraph(Graph* graph, GraphOptStats* stats) {
  RAVEN_RETURN_IF_ERROR(graph->Validate());
  GraphOptStats local;
  for (int pass = 0; pass < 8; ++pass) {
    const std::size_t identities = EliminateIdentities(graph);
    RAVEN_ASSIGN_OR_RETURN(const std::size_t folded, FoldConstants(graph));
    const std::size_t fused = FuseGemm(graph);
    const std::size_t relus = FuseGemmRelu(graph);
    RAVEN_ASSIGN_OR_RETURN(const std::size_t featurizers,
                           FeaturizerFuser(graph).Run());
    const std::size_t dead = EliminateDeadNodes(graph);
    local.identities_removed += identities;
    local.constants_folded += folded;
    local.gemms_fused += fused;
    local.relus_fused += relus;
    local.featurizers_fused += featurizers;
    local.dead_nodes_removed += dead;
    if (identities + folded + fused + relus + featurizers + dead == 0) break;
  }
  RAVEN_RETURN_IF_ERROR(graph->Validate());
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace raven::nnrt
