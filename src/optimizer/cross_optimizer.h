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
  /// assumes sequential scans. Read only when a report is requested;
  /// RavenContext passes a per-call copy carrying the execution option.
  std::int64_t target_parallelism = 1;
  /// Worker-pool size the plan's distributable fragments would ship to
  /// under ExecutionMode::kDistributed; 0/1 = not distributed. Like
  /// target_parallelism, read only for the report: RavenContext's per-call
  /// copy carries it so EXPLAIN reports the fragment-shipping cost of the
  /// mode that will actually run.
  std::int64_t target_distributed_workers = 0;
};

/// One EXPLAIN cost row: an operator of the optimized plan with the cost of
/// its whole subtree run sequentially and at the costed parallelism. The
/// parallel column shows which operators the morsel executor actually
/// speeds up (e.g. a GROUP BY's accumulation divides by dop while an ORDER
/// BY's sort is a sequential tail).
struct OperatorCost {
  std::string op;      ///< operator kind, e.g. "GroupBy"
  int depth = 0;       ///< nesting depth in the plan tree (for indentation)
  double output_rows = 0.0;
  double sequential_cost = 0.0;
  double parallel_cost = 0.0;
  /// The runtime executes this operator fused into its parent (one pass per
  /// chunk over the whole filter/project/PREDICT chain); EXPLAIN marks the
  /// row so the cost tree matches the physical plan.
  bool fused_into_parent = false;
};

/// How many times each rule fired plus the plan snapshots for EXPLAIN.
struct OptimizationReport {
  std::vector<std::pair<std::string, std::size_t>> rule_applications;
  std::string before;
  std::string after;
  /// Cost of the optimized plan (abstract work units) run sequentially and
  /// at options.target_parallelism workers (equal when the target is 1).
  double sequential_cost = 0.0;
  double parallel_cost = 0.0;
  std::int64_t costed_parallelism = 1;
  /// Cost of shipping the plan's distributable fragments to a pool of
  /// costed_distributed_workers (0 when the target mode isn't distributed):
  /// fragment compute divided across the pool plus the serialization /
  /// pipe / frame tax of the kExecuteFragment protocol.
  double distributed_cost = 0.0;
  std::int64_t costed_distributed_workers = 0;
  /// Per-operator subtree costs of the optimized plan, preorder.
  std::vector<OperatorCost> operator_costs;

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

  /// Optimizes the plan in place under the stored options.
  Status Optimize(ir::IrPlan* plan, OptimizationReport* report = nullptr) const;
  /// Optimizes the plan in place under `options`, which the caller owns for
  /// the duration of the call. Thread-safe: the optimizer itself is only
  /// read, so concurrent callers can cost at different targets without
  /// sharing (or locking) one options struct.
  Status Optimize(ir::IrPlan* plan, const OptimizerOptions& options,
                  OptimizationReport* report = nullptr) const;

 private:
  const relational::Catalog* catalog_;
  OptimizerOptions options_;
  std::map<std::string, std::shared_ptr<ir::ClusteredModel>>
      clustering_artifacts_;
};

}  // namespace raven::optimizer

#endif  // RAVEN_OPTIMIZER_CROSS_OPTIMIZER_H_
