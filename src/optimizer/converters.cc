#include "optimizer/converters.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

namespace raven::optimizer {
namespace {

using ml::FeatureProvenance;
using ml::ModelPipeline;
using ml::PredictorKind;
using ml::TransformKind;
using nnrt::Graph;
using nnrt::Node;

/// Emits the featurization stage; returns the value name holding the
/// [n, F] feature matrix.
std::string EmitFeaturizer(const ModelPipeline& pipeline, Graph* graph) {
  if (pipeline.featurizer.branches().empty()) return "X";
  std::vector<std::string> parts;
  for (const auto& branch : pipeline.featurizer.branches()) {
    switch (branch.kind) {
      case TransformKind::kIdentity: {
        const std::string out = graph->FreshValueName("identity");
        Node node;
        node.op_type = "GatherColumns";
        node.name = graph->FreshValueName("op_gather");
        node.inputs = {"X"};
        node.outputs = {out};
        node.attrs["indices"] = branch.input_columns;
        graph->AddNode(std::move(node));
        parts.push_back(out);
        break;
      }
      case TransformKind::kScaler: {
        const std::string gathered = graph->FreshValueName("scaled_in");
        Node gather;
        gather.op_type = "GatherColumns";
        gather.name = graph->FreshValueName("op_gather");
        gather.inputs = {"X"};
        gather.outputs = {gathered};
        gather.attrs["indices"] = branch.input_columns;
        graph->AddNode(std::move(gather));
        const std::string out = graph->FreshValueName("scaled");
        Node scaler;
        scaler.op_type = "Scaler";
        scaler.name = graph->FreshValueName("op_scaler");
        scaler.inputs = {gathered};
        scaler.outputs = {out};
        scaler.attrs["offset"] = branch.scaler.mean();
        scaler.attrs["scale"] = branch.scaler.scale();
        graph->AddNode(std::move(scaler));
        parts.push_back(out);
        break;
      }
      case TransformKind::kOneHot: {
        // One OneHot op per column; restricted codes add a GatherColumns.
        for (std::size_t c = 0; c < branch.input_columns.size(); ++c) {
          const std::string col_val = graph->FreshValueName("cat");
          Node gather;
          gather.op_type = "GatherColumns";
          gather.name = graph->FreshValueName("op_gather");
          gather.inputs = {"X"};
          gather.outputs = {col_val};
          gather.attrs["indices"] =
              std::vector<std::int64_t>{branch.input_columns[c]};
          graph->AddNode(std::move(gather));
          const std::int64_t card = branch.onehot.cardinalities()[c];
          const std::string onehot_out = graph->FreshValueName("onehot");
          Node onehot;
          onehot.op_type = "OneHot";
          onehot.name = graph->FreshValueName("op_onehot");
          onehot.inputs = {col_val};
          onehot.outputs = {onehot_out};
          onehot.attrs["depth"] = card;
          graph->AddNode(std::move(onehot));
          const auto emitted = branch.onehot.EmittedCodes(c);
          if (static_cast<std::int64_t>(emitted.size()) == card) {
            parts.push_back(onehot_out);
          } else {
            const std::string restricted = graph->FreshValueName("onehot_kept");
            Node restrict_node;
            restrict_node.op_type = "GatherColumns";
            restrict_node.name = graph->FreshValueName("op_gather");
            restrict_node.inputs = {onehot_out};
            restrict_node.outputs = {restricted};
            restrict_node.attrs["indices"] = emitted;
            graph->AddNode(std::move(restrict_node));
            parts.push_back(restricted);
          }
        }
        break;
      }
    }
  }
  if (parts.size() == 1) return parts[0];
  const std::string out = graph->FreshValueName("features");
  Node concat;
  concat.op_type = "Concat";
  concat.name = graph->FreshValueName("op_concat");
  concat.inputs = parts;
  concat.outputs = {out};
  graph->AddNode(std::move(concat));
  return out;
}

void EmitGemm(Graph* graph, const std::string& input, Tensor weights,
              Tensor bias, const std::string& output) {
  const std::string w_name = graph->FreshValueName("W");
  const std::string b_name = graph->FreshValueName("b");
  graph->AddInitializer(w_name, std::move(weights));
  graph->AddInitializer(b_name, std::move(bias));
  Node gemm;
  gemm.op_type = "Gemm";
  gemm.name = graph->FreshValueName("op_gemm");
  gemm.inputs = {input, w_name, b_name};
  gemm.outputs = {output};
  graph->AddNode(std::move(gemm));
}

void EmitUnary(Graph* graph, const char* op, const std::string& input,
               const std::string& output) {
  Node node;
  node.op_type = op;
  node.name = graph->FreshValueName(std::string("op_") + op);
  node.inputs = {input};
  node.outputs = {output};
  graph->AddNode(std::move(node));
}

/// Hummingbird-style GEMM lowering of one decision tree: three dense
/// layers (feature select, path check, leaf map).
Status EmitTreeAsGemm(Graph* graph, const ml::DecisionTree& tree,
                      std::int64_t num_features, const std::string& feats,
                      const std::string& output) {
  // Collect internal nodes and leaves.
  std::vector<std::int32_t> internals;
  std::vector<std::int32_t> leaves;
  for (std::int32_t i = 0; i < tree.num_nodes(); ++i) {
    if (tree.feature()[static_cast<std::size_t>(i)] >= 0) {
      internals.push_back(i);
    } else {
      leaves.push_back(i);
    }
  }
  const std::int64_t num_internal =
      static_cast<std::int64_t>(internals.size());
  const std::int64_t num_leaves = static_cast<std::int64_t>(leaves.size());
  if (num_internal == 0) {
    // Single-leaf tree: constant output via zero Gemm.
    EmitGemm(graph, feats, Tensor::Zeros({num_features, 1}),
             Tensor::FromVector({tree.value()[static_cast<std::size_t>(
                 tree.root())]}),
             output);
    return Status::OK();
  }
  std::vector<std::int64_t> internal_pos(
      static_cast<std::size_t>(tree.num_nodes()), -1);
  for (std::int64_t i = 0; i < num_internal; ++i) {
    internal_pos[static_cast<std::size_t>(internals[static_cast<std::size_t>(i)])] = i;
  }
  std::vector<std::int64_t> leaf_pos(
      static_cast<std::size_t>(tree.num_nodes()), -1);
  for (std::int64_t l = 0; l < num_leaves; ++l) {
    leaf_pos[static_cast<std::size_t>(leaves[static_cast<std::size_t>(l)])] = l;
  }

  // A [F, I]: selects the tested feature per internal node.
  Tensor a = Tensor::Zeros({num_features, num_internal});
  Tensor b = Tensor::Zeros({num_internal});
  for (std::int64_t i = 0; i < num_internal; ++i) {
    const std::size_t node =
        static_cast<std::size_t>(internals[static_cast<std::size_t>(i)]);
    a.raw()[static_cast<std::int64_t>(tree.feature()[node]) * num_internal +
            i] = 1.0f;
    b.raw()[i] = tree.threshold()[node];
  }
  // C [I, L]: +1 if the leaf is in the internal node's left subtree, -1 if
  // right. D [L]: number of left-edge ancestors. A leaf is reached iff its
  // C-score equals D (any deviation strictly decreases the score).
  Tensor c = Tensor::Zeros({num_internal, num_leaves});
  Tensor d = Tensor::Zeros({num_leaves});
  Tensor e = Tensor::Zeros({num_leaves, 1});
  // Walk from root tracking ancestor directions.
  struct Frame {
    std::int32_t node;
    std::vector<std::pair<std::int64_t, bool>> path;  // (internal pos, left?)
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{tree.root(), {}});
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    const std::size_t node = static_cast<std::size_t>(frame.node);
    if (tree.feature()[node] < 0) {
      const std::int64_t l = leaf_pos[node];
      double left_count = 0;
      for (const auto& [pos, left] : frame.path) {
        c.raw()[pos * num_leaves + l] = left ? 1.0f : -1.0f;
        if (left) left_count += 1;
      }
      d.raw()[l] = static_cast<float>(left_count);
      e.raw()[l] = tree.value()[node];
      continue;
    }
    const std::int64_t pos = internal_pos[node];
    Frame left_frame{tree.left()[node], frame.path};
    left_frame.path.emplace_back(pos, true);
    Frame right_frame{tree.right()[node], std::move(frame.path)};
    right_frame.path.emplace_back(pos, false);
    stack.push_back(std::move(left_frame));
    stack.push_back(std::move(right_frame));
  }

  const std::string a_name = graph->FreshValueName("tree_A");
  const std::string b_name = graph->FreshValueName("tree_B");
  const std::string c_name = graph->FreshValueName("tree_C");
  const std::string d_name = graph->FreshValueName("tree_D");
  const std::string e_name = graph->FreshValueName("tree_E");
  graph->AddInitializer(a_name, std::move(a));
  graph->AddInitializer(b_name, std::move(b));
  graph->AddInitializer(c_name, std::move(c));
  graph->AddInitializer(d_name, std::move(d));
  graph->AddInitializer(e_name, std::move(e));

  const std::string t1 = graph->FreshValueName("tree_t1");
  Node mm1;
  mm1.op_type = "MatMul";
  mm1.name = graph->FreshValueName("op_mm");
  mm1.inputs = {feats, a_name};
  mm1.outputs = {t1};
  graph->AddNode(std::move(mm1));

  const std::string t2 = graph->FreshValueName("tree_t2");
  Node le;
  le.op_type = "LessOrEqual";
  le.name = graph->FreshValueName("op_le");
  le.inputs = {t1, b_name};
  le.outputs = {t2};
  graph->AddNode(std::move(le));

  const std::string t3 = graph->FreshValueName("tree_t3");
  Node mm2;
  mm2.op_type = "MatMul";
  mm2.name = graph->FreshValueName("op_mm");
  mm2.inputs = {t2, c_name};
  mm2.outputs = {t3};
  graph->AddNode(std::move(mm2));

  const std::string t4 = graph->FreshValueName("tree_t4");
  Node eq;
  eq.op_type = "Equal";
  eq.name = graph->FreshValueName("op_eq");
  eq.inputs = {t3, d_name};
  eq.outputs = {t4};
  graph->AddNode(std::move(eq));

  Node mm3;
  mm3.op_type = "MatMul";
  mm3.name = graph->FreshValueName("op_mm");
  mm3.inputs = {t4, e_name};
  mm3.outputs = {output};
  graph->AddNode(std::move(mm3));
  return Status::OK();
}

/// Encodes trees as a single TreeEnsemble op (the ONNX-ML level).
void EmitTreeEnsemble(Graph* graph, const std::vector<const ml::DecisionTree*>& trees,
                      bool average, const std::string& feats,
                      const std::string& output) {
  std::vector<float> roots;
  std::vector<float> feature;
  std::vector<float> threshold;
  std::vector<float> left;
  std::vector<float> right;
  std::vector<float> value;
  for (const auto* tree : trees) {
    const float base = static_cast<float>(feature.size());
    roots.push_back(base + static_cast<float>(tree->root()));
    for (std::int64_t i = 0; i < tree->num_nodes(); ++i) {
      const std::size_t s = static_cast<std::size_t>(i);
      feature.push_back(static_cast<float>(tree->feature()[s]));
      threshold.push_back(tree->threshold()[s]);
      left.push_back(tree->feature()[s] >= 0
                         ? base + static_cast<float>(tree->left()[s])
                         : -1.0f);
      right.push_back(tree->feature()[s] >= 0
                          ? base + static_cast<float>(tree->right()[s])
                          : -1.0f);
      value.push_back(tree->value()[s]);
    }
  }
  Node node;
  node.op_type = "TreeEnsemble";
  node.name = graph->FreshValueName("op_trees");
  node.inputs = {feats};
  node.outputs = {output};
  node.attrs["roots"] = Tensor::FromVector(std::move(roots));
  node.attrs["feature"] = Tensor::FromVector(std::move(feature));
  node.attrs["threshold"] = Tensor::FromVector(std::move(threshold));
  node.attrs["left"] = Tensor::FromVector(std::move(left));
  node.attrs["right"] = Tensor::FromVector(std::move(right));
  node.attrs["value"] = Tensor::FromVector(std::move(value));
  node.attrs["aggregate"] = static_cast<std::int64_t>(average ? 1 : 0);
  node.attrs["post"] = static_cast<std::int64_t>(0);
  graph->AddNode(std::move(node));
}

}  // namespace

Result<Graph> PipelineToNnGraph(const ModelPipeline& pipeline,
                                const NnTranslationOptions& options) {
  Graph graph;
  graph.AddInput("X");
  const std::string feats = EmitFeaturizer(pipeline, &graph);
  const std::int64_t num_features = pipeline.NumFeatures();

  switch (ml::KindOf(pipeline.predictor)) {
    case PredictorKind::kLinearModel: {
      const auto& linear = std::get<ml::LinearModel>(pipeline.predictor);
      Tensor w = Tensor::Zeros({num_features, 1});
      for (std::int64_t f = 0; f < num_features; ++f) {
        w.raw()[f] = static_cast<float>(
            linear.weights()[static_cast<std::size_t>(f)]);
      }
      const bool logistic = linear.kind() == ml::LinearKind::kLogistic;
      const std::string margin = logistic ? graph.FreshValueName("margin") : "Y";
      EmitGemm(&graph, feats, std::move(w),
               Tensor::FromVector({static_cast<float>(linear.bias())}),
               margin);
      if (logistic) EmitUnary(&graph, "Sigmoid", margin, "Y");
      break;
    }
    case PredictorKind::kMlp: {
      const auto& mlp = std::get<ml::Mlp>(pipeline.predictor);
      std::string cur = feats;
      for (std::size_t l = 0; l < mlp.layers().size(); ++l) {
        const auto& layer = mlp.layers()[l];
        RAVEN_ASSIGN_OR_RETURN(
            Tensor w, Tensor::FromData({layer.in, layer.out}, layer.weights));
        Tensor b = Tensor::FromVector(layer.bias);
        const bool last = l + 1 == mlp.layers().size();
        const bool has_act = layer.activation != ml::Activation::kNone;
        const std::string gemm_out =
            (last && !has_act) ? "Y" : graph.FreshValueName("dense");
        EmitGemm(&graph, cur, std::move(w), std::move(b), gemm_out);
        cur = gemm_out;
        if (has_act) {
          const char* act = layer.activation == ml::Activation::kRelu
                                ? "Relu"
                                : (layer.activation == ml::Activation::kSigmoid
                                       ? "Sigmoid"
                                       : "Tanh");
          const std::string act_out =
              last ? "Y" : graph.FreshValueName("act");
          EmitUnary(&graph, act, cur, act_out);
          cur = act_out;
        }
      }
      break;
    }
    case PredictorKind::kDecisionTree: {
      const auto& tree = std::get<ml::DecisionTree>(pipeline.predictor);
      if (options.lower_trees_to_gemm) {
        RAVEN_RETURN_IF_ERROR(
            EmitTreeAsGemm(&graph, tree, num_features, feats, "Y"));
      } else {
        EmitTreeEnsemble(&graph, {&tree}, /*average=*/false, feats, "Y");
      }
      break;
    }
    case PredictorKind::kRandomForest: {
      const auto& forest = std::get<ml::RandomForest>(pipeline.predictor);
      if (forest.trees().empty()) {
        return Status::InvalidArgument("cannot translate an empty forest");
      }
      if (options.lower_trees_to_gemm) {
        std::vector<std::string> tree_outputs;
        for (const auto& tree : forest.trees()) {
          const std::string out = graph.FreshValueName("tree_out");
          RAVEN_RETURN_IF_ERROR(
              EmitTreeAsGemm(&graph, tree, num_features, feats, out));
          tree_outputs.push_back(out);
        }
        if (tree_outputs.size() == 1) {
          EmitUnary(&graph, "Identity", tree_outputs[0], "Y");
        } else {
          const std::string all = graph.FreshValueName("all_trees");
          Node concat;
          concat.op_type = "Concat";
          concat.name = graph.FreshValueName("op_concat");
          concat.inputs = tree_outputs;
          concat.outputs = {all};
          graph.AddNode(std::move(concat));
          const std::int64_t t =
              static_cast<std::int64_t>(tree_outputs.size());
          EmitGemm(&graph, all,
                   Tensor::Full({t, 1}, 1.0f / static_cast<float>(t)),
                   Tensor::FromVector({0.0f}), "Y");
        }
      } else {
        std::vector<const ml::DecisionTree*> trees;
        for (const auto& tree : forest.trees()) trees.push_back(&tree);
        EmitTreeEnsemble(&graph, trees, /*average=*/true, feats, "Y");
      }
      break;
    }
  }
  graph.AddOutput("Y");
  RAVEN_RETURN_IF_ERROR(graph.Validate());
  return graph;
}

namespace {

/// Total-order key of a non-NaN float: increasing with the float's value
/// (and -0.0f just below +0.0f), so a binary search can walk floats.
std::int64_t FloatKey(float f) {
  std::int32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits < 0 ? -static_cast<std::int64_t>(bits & 0x7fffffff) - 1
                  : static_cast<std::int64_t>(bits);
}

float FloatFromKey(std::int64_t key) {
  const std::int32_t bits =
      key < 0 ? static_cast<std::int32_t>((-(key + 1)) | 0x80000000LL)
              : static_cast<std::int32_t>(key);
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

}  // namespace

std::optional<double> RawThreshold(float thr, float mean, float scale) {
  const auto goes_left = [&](float x) { return (x - mean) * scale <= thr; };
  const float inf = std::numeric_limits<float>::infinity();
  const float max = std::numeric_limits<float>::max();
  if (!goes_left(-inf)) return std::nullopt;
  if (goes_left(inf)) return std::numeric_limits<double>::infinity();
  // Binary search for the largest float that goes left: `lo` always goes
  // left, `hi` never does. The double-precision estimate is almost always
  // within a few ulps of it, so try to narrow the range around that first.
  std::int64_t lo = FloatKey(-inf);
  std::int64_t hi = FloatKey(inf);
  const float estimate = static_cast<float>(
      static_cast<double>(thr) / static_cast<double>(scale) +
      static_cast<double>(mean));
  if (std::isfinite(estimate)) {
    constexpr std::int64_t kWindow = 8;
    const std::int64_t key = FloatKey(estimate);
    if (key - kWindow > lo && goes_left(FloatFromKey(key - kWindow))) {
      lo = key - kWindow;
    }
    if (key + kWindow < hi && !goes_left(FloatFromKey(key + kWindow))) {
      hi = key + kWindow;
    }
  }
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (goes_left(FloatFromKey(mid)) ? lo : hi) = mid;
  }
  // Doubles below the midpoint between that float and the next round to it
  // or lower; the midpoint itself rounds to whichever has an even mantissa.
  // Infinity sits one ulp (2^104) past the largest float for this purpose.
  const double overflow = static_cast<double>(max) + std::ldexp(1.0, 104);
  const float x = FloatFromKey(lo);
  const double below = x == -inf ? -overflow : static_cast<double>(x);
  const double above =
      x == max ? overflow : static_cast<double>(std::nextafter(x, inf));
  const double midpoint = 0.5 * (below + above);
  return goes_left(static_cast<float>(midpoint))
             ? midpoint
             : std::nextafter(midpoint,
                              -std::numeric_limits<double>::infinity());
}

namespace {

/// `column <= b` for the split's raw-space threshold b, or constant false.
relational::ExprPtr RawSplit(const std::string& column, float thr, float mean,
                             float scale) {
  const std::optional<double> bound = RawThreshold(thr, mean, scale);
  if (!bound.has_value()) return relational::Lit(0.0);
  return relational::Le(relational::Col(column), relational::Lit(*bound));
}

/// Builds the raw-space "goes left" condition for internal node `i`.
Result<relational::ExprPtr> LeftCondition(
    const ModelPipeline& pipeline,
    const std::vector<FeatureProvenance>& prov, const ml::DecisionTree& tree,
    std::int32_t node) {
  const std::size_t s = static_cast<std::size_t>(node);
  const std::int64_t f = tree.feature()[s];
  const float thr = tree.threshold()[s];
  const auto& p = prov[static_cast<std::size_t>(f)];
  const std::string& column =
      pipeline.input_columns[static_cast<std::size_t>(p.input_column)];
  switch (p.kind) {
    case TransformKind::kIdentity:
      return RawSplit(column, thr, 0.0f, 1.0f);
    case TransformKind::kScaler: {
      // (x - m) * s <= t  <=>  x <= b, for s = 1/std > 0.
      double mean = 0.0;
      double scale = 1.0;
      const auto& branch = pipeline.featurizer.branches()
                               [static_cast<std::size_t>(p.branch_index)];
      for (std::size_t c = 0; c < branch.input_columns.size(); ++c) {
        if (branch.input_columns[c] == p.input_column) {
          mean = branch.scaler.mean()[c];
          scale = branch.scaler.scale()[c];
          break;
        }
      }
      const float mean_f = static_cast<float>(mean);
      const float scale_f = static_cast<float>(scale);
      if (!(scale_f > 0.0f) || !std::isfinite(scale_f) ||
          !std::isfinite(mean_f)) {
        return Status::InvalidArgument(
            "scaler needs a finite mean and a finite positive scale");
      }
      return RawSplit(column, thr, mean_f, scale_f);
    }
    case TransformKind::kOneHot: {
      // Indicator(col == code) <= thr.
      if (thr >= 1.0) return relational::Lit(1.0);  // always true
      if (thr < 0.0) return relational::Lit(0.0);   // always false
      return relational::Cmp(relational::CompareOp::kNe,
                             relational::Col(column),
                             relational::Lit(static_cast<double>(p.category)));
    }
  }
  return Status::Internal("unreachable transform kind");
}

Result<relational::ExprPtr> TreeNodeToExpr(
    const ModelPipeline& pipeline,
    const std::vector<FeatureProvenance>& prov, const ml::DecisionTree& tree,
    std::int32_t node) {
  const std::size_t s = static_cast<std::size_t>(node);
  if (tree.feature()[s] < 0) {
    return relational::Lit(static_cast<double>(tree.value()[s]));
  }
  RAVEN_ASSIGN_OR_RETURN(auto cond,
                         LeftCondition(pipeline, prov, tree, node));
  RAVEN_ASSIGN_OR_RETURN(auto left_expr,
                         TreeNodeToExpr(pipeline, prov, tree, tree.left()[s]));
  RAVEN_ASSIGN_OR_RETURN(
      auto right_expr, TreeNodeToExpr(pipeline, prov, tree, tree.right()[s]));
  std::vector<relational::CaseWhenExpr::Arm> arms;
  arms.push_back(relational::CaseWhenExpr::Arm{std::move(cond),
                                               std::move(left_expr)});
  return relational::ExprPtr(std::make_unique<relational::CaseWhenExpr>(
      std::move(arms), std::move(right_expr)));
}

}  // namespace

bool IsInlinable(const ModelPipeline& pipeline,
                 std::int64_t max_tree_nodes) {
  std::vector<const ml::DecisionTree*> trees;
  if (const auto* tree = std::get_if<ml::DecisionTree>(&pipeline.predictor)) {
    trees.push_back(tree);
  } else if (const auto* forest =
                 std::get_if<ml::RandomForest>(&pipeline.predictor)) {
    for (const auto& member : forest->trees()) trees.push_back(&member);
  }
  if (trees.empty()) return false;
  // A depth-d tree's CASE nests d + 1 levels (its deepest compare's
  // operands); a forest's sum chain puts the first tree T - 1 adds and one
  // divide below the root.
  std::int64_t deepest = 0;
  for (const auto* tree : trees) {
    if (tree->num_nodes() > max_tree_nodes) return false;
    deepest = std::max(deepest, tree->depth() + 1);
  }
  const std::int64_t chain =
      ml::KindOf(pipeline.predictor) == PredictorKind::kRandomForest
          ? static_cast<std::int64_t>(trees.size())
          : 0;
  return chain + deepest <= relational::kMaxExprDepth;
}

Result<relational::ExprPtr> TreeToCaseExpr(const ModelPipeline& pipeline) {
  if (!IsInlinable(pipeline)) {
    return Status::InvalidArgument(
        "model inlining supports DecisionTree and non-empty RandomForest "
        "predictors");
  }
  std::vector<FeatureProvenance> prov;
  if (pipeline.featurizer.branches().empty()) {
    for (std::size_t i = 0; i < pipeline.input_columns.size(); ++i) {
      prov.push_back(FeatureProvenance{static_cast<std::int64_t>(i), -1,
                                       TransformKind::kIdentity, -1});
    }
  } else {
    prov = pipeline.featurizer.Provenance();
  }
  if (const auto* tree = std::get_if<ml::DecisionTree>(&pipeline.predictor)) {
    return TreeNodeToExpr(pipeline, prov, *tree, tree->root());
  }
  // (CASE_1 + CASE_2 + ... + CASE_T) / T, summed left to right in tree
  // order: KernelProgram compiles each CASE into its own decision walk.
  const auto& forest = std::get<ml::RandomForest>(pipeline.predictor);
  relational::ExprPtr sum;
  for (const auto& tree : forest.trees()) {
    RAVEN_ASSIGN_OR_RETURN(relational::ExprPtr walk,
                           TreeNodeToExpr(pipeline, prov, tree, tree.root()));
    sum = sum == nullptr ? std::move(walk)
                         : std::make_unique<relational::ArithExpr>(
                               relational::ArithOp::kAdd, std::move(sum),
                               std::move(walk));
  }
  return relational::ExprPtr(std::make_unique<relational::ArithExpr>(
      relational::ArithOp::kDiv, std::move(sum),
      relational::Lit(static_cast<double>(forest.trees().size()))));
}

}  // namespace raven::optimizer
