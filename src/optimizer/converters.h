#ifndef RAVEN_OPTIMIZER_CONVERTERS_H_
#define RAVEN_OPTIMIZER_CONVERTERS_H_

#include <cstdint>
#include <limits>
#include <optional>

#include "common/status.h"
#include "ml/pipeline.h"
#include "nnrt/graph.h"
#include "relational/expression.h"

namespace raven::optimizer {

/// Options for NN translation (paper §4.2, Fig 2(d)).
struct NnTranslationOptions {
  /// When true, trees and forests are lowered all the way to GEMM layers
  /// (the novel MLD -> LA transformation); when false they stay as the
  /// higher-level TreeEnsemble op (the ONNX-ML-style encoding).
  bool lower_trees_to_gemm = true;
};

/// Translates a trained model pipeline into an NNRT dataflow graph with a
/// single input "X" ([n, |input_columns|] raw matrix) and output "Y"
/// ([n, 1] predictions). Featurizer branches become GatherColumns /
/// Scaler / OneHot ops; predictors become Gemm stacks, Sigmoid heads, or
/// tree encodings. The translated graph computes exactly the pipeline's
/// Predict function (float32).
Result<nnrt::Graph> PipelineToNnGraph(
    const ml::ModelPipeline& pipeline,
    const NnTranslationOptions& options = NnTranslationOptions());

/// Model inlining (paper §4.2, Fig 2(c)): compiles a tree-model pipeline
/// into a relational scalar expression over raw columns, the stand-in for
/// SQL Server UDF inlining (Froid). A DecisionTree becomes one nested CASE
/// WHEN; a RandomForest becomes `(CASE_1 + ... + CASE_T) / T`, summed in
/// double left to right in tree order. Identity and scaler splits become
/// `column <= b`, b the raw-space bound at which the pipeline's float32
/// featurization flips the split, so every input takes the model's branch;
/// one-hot splits become equality predicates. KernelProgram runs each CASE
/// as one decision walk. Supported when IsInlinable holds.
Result<relational::ExprPtr> TreeToCaseExpr(const ml::ModelPipeline& pipeline);

/// True if TreeToCaseExpr supports this pipeline: the predictor is a
/// DecisionTree or a non-empty RandomForest, each of whose trees has at most
/// `max_tree_nodes` nodes, and the resulting expression is no deeper than
/// relational::kMaxExprDepth (so it still ships to distributed workers).
bool IsInlinable(const ml::ModelPipeline& pipeline,
                 std::int64_t max_tree_nodes =
                     std::numeric_limits<std::int64_t>::max());

/// The raw-space form of a split the pipeline tests in float32: raw value
/// x goes left iff `(float(x) - mean) * scale <= thr`, every step rounded
/// to float as the featurizer and NNRT's Scaler compute it (identity
/// features are mean 0, scale 1). Returns the largest double b such that
/// exactly the x <= b go left, so the double test `x <= b` decides every
/// input (NaN, infinities, values at the split) as the model does; nullopt
/// when nothing goes left. Requires finite mean and finite scale > 0,
/// which make the float test monotone in x.
std::optional<double> RawThreshold(float thr, float mean, float scale);

}  // namespace raven::optimizer

#endif  // RAVEN_OPTIMIZER_CONVERTERS_H_
