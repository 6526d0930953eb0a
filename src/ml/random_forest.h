#ifndef RAVEN_ML_RANDOM_FOREST_H_
#define RAVEN_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "ml/decision_tree.h"
#include "tensor/tensor.h"

namespace raven::ml {

/// Training options for bagged tree ensembles.
struct ForestTrainOptions {
  std::int64_t num_trees = 10;
  TreeTrainOptions tree;
  /// Fraction of rows bootstrapped per tree.
  double subsample = 0.8;
  std::uint64_t seed = 23;
};

/// Random forest regressor: average of independently bagged CART trees.
/// Like DecisionTree, predictions use the interpreted walk (float32 sum in
/// tree order, then a float32 divide). In queries the optimizer inlines the
/// forest instead — `(CASE_1 + ... + CASE_T) / T` in double, each CASE a
/// KernelProgram decision walk — when every tree fits inline_max_nodes;
/// otherwise, or with model_inlining off, NN translation converts the
/// ensemble to GEMM layers (or a TreeEnsemble op) for batch scoring.
class RandomForest {
 public:
  RandomForest() = default;

  Status Fit(const Tensor& x, const std::vector<float>& y,
             const ForestTrainOptions& options = ForestTrainOptions());

  float PredictRow(const float* row, std::int64_t num_features) const;
  Result<Tensor> Predict(const Tensor& x) const;

  /// Prunes every member tree under the interval constraints.
  RandomForest PruneWithIntervals(
      const std::vector<FeatureInterval>& intervals) const;

  /// Union of features used across member trees.
  std::vector<std::int64_t> UsedFeatures() const;
  Status RemapFeatures(const std::vector<std::int64_t>& old_to_new);

  const std::vector<DecisionTree>& trees() const { return trees_; }
  std::vector<DecisionTree>& mutable_trees() { return trees_; }
  void AddTree(DecisionTree tree) { trees_.push_back(std::move(tree)); }
  std::int64_t num_features() const;
  std::int64_t total_nodes() const;

  void Serialize(BinaryWriter* writer) const;
  static Result<RandomForest> Deserialize(BinaryReader* reader);

 private:
  std::vector<DecisionTree> trees_;
};

}  // namespace raven::ml

#endif  // RAVEN_ML_RANDOM_FOREST_H_
