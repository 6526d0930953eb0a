#ifndef RAVEN_OPTIMIZER_CROSS_OPTIMIZER_H_
#define RAVEN_OPTIMIZER_CROSS_OPTIMIZER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "ir/ir.h"
#include "optimizer/converters.h"
#include "relational/catalog.h"

namespace raven::optimizer {

/// Per-rule toggles; every optimization the paper describes can be switched
/// independently (the benchmark harness uses this for its ablations).
struct OptimizerOptions {
  bool predicate_pushdown = true;
  bool predicate_model_pruning = true;
  bool model_projection_pushdown = true;
  bool projection_pushdown = true;
  bool join_elimination = true;
  bool model_clustering = true;  // applies only when an artifact is registered
  bool model_query_splitting = false;
  /// Derive predicates from base-table statistics (paper §4.1 variant,
  /// "all patients are above 35"). Off by default: it scans table columns
  /// at optimization time.
  bool data_property_pruning = false;
  /// Lossy model-projection pushdown: drop |w| < threshold weights from
  /// linear models (0 disables). Changes results within a bounded error;
  /// never enabled by the semantics property tests.
  double lossy_projection_threshold = 0.0;
  bool model_inlining = true;
  /// Per-tree cap: a tree, or a forest whose every tree, has at most this
  /// many nodes is inlined into CASE expressions; anything bigger falls
  /// through to NN translation.
  std::int64_t inline_max_nodes = 512;
  bool nn_translation = true;
  NnTranslationOptions nn_options;
  /// Degree of parallelism the runtime will execute the plan at. The cost
  /// model divides parallelizable work by it, so plan costing no longer
  /// assumes sequential scans. Read by EXPLAIN's costing, never by the
  /// rules; RavenContext's EXPLAIN derives it from the execution option.
  std::int64_t target_parallelism = 1;
  /// Worker-pool size the plan's distributable fragments would ship to
  /// under ExecutionMode::kDistributed; 0/1 = not distributed. Like
  /// target_parallelism, read only by EXPLAIN's costing: RavenContext's
  /// EXPLAIN derives it from the mode so it reports the fragment-shipping
  /// cost of the mode that will actually run.
  std::int64_t target_distributed_workers = 0;
};

/// How many times each rule fired, in pipeline order. Optimize renders
/// and costs nothing: EXPLAIN renders the plan and estimates its costs
/// itself (RavenContext::Explain).
struct OptimizationReport {
  std::vector<std::pair<std::string, std::size_t>> rule_applications;

  std::size_t TotalApplications() const {
    std::size_t total = 0;
    for (const auto& [rule, count] : rule_applications) {
      (void)rule;
      total += count;
    }
    return total;
  }
};

/// Raven's Cross Optimizer (paper §4.3): a heuristic rule pipeline applying
/// cross-IR optimizations and operator transformations in a fixed order —
/// relational pushdowns first (they feed the model rules), then model
/// specialization (clustering, pruning, projection), then representation
/// choice (inline trees and forests of small trees into SQL vs. translate
/// to the NN runtime), then relational cleanup.
class CrossOptimizer {
 public:
  CrossOptimizer(const relational::Catalog* catalog, OptimizerOptions options)
      : catalog_(catalog), options_(std::move(options)) {}

  /// Registers an offline-built clustering artifact for a stored model.
  void RegisterClusteredModel(const std::string& model_name,
                              std::shared_ptr<ir::ClusteredModel> artifact) {
    clustering_artifacts_[model_name] = std::move(artifact);
  }

  const OptimizerOptions& options() const { return options_; }
  OptimizerOptions& mutable_options() { return options_; }

  /// Optimizes the plan in place under the stored options. Thread-safe
  /// once set up: the optimizer itself is only read.
  Status Optimize(ir::IrPlan* plan, OptimizationReport* report = nullptr) const;

 private:
  const relational::Catalog* catalog_;
  OptimizerOptions options_;
  std::map<std::string, std::shared_ptr<ir::ClusteredModel>>
      clustering_artifacts_;
};

}  // namespace raven::optimizer

#endif  // RAVEN_OPTIMIZER_CROSS_OPTIMIZER_H_
