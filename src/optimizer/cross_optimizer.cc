#include "optimizer/cross_optimizer.h"

#include <algorithm>

#include "optimizer/cost_model.h"
#include "optimizer/rules.h"

namespace raven::optimizer {

Status CrossOptimizer::Optimize(ir::IrPlan* plan,
                                OptimizationReport* report) const {
  return Optimize(plan, options_, report);
}

Status CrossOptimizer::Optimize(ir::IrPlan* plan,
                                const OptimizerOptions& options,
                                OptimizationReport* report) const {
  if (plan->root() == nullptr) {
    return Status::InvalidArgument("cannot optimize an empty plan");
  }
  // The before/after snapshots are pure output: render them only when a
  // report was requested (plan-cache misses and Prepare pass none).
  OptimizationReport local;
  if (report != nullptr) local.before = plan->ToString();
  auto record = [&local](const char* rule, std::size_t fired) {
    local.rule_applications.emplace_back(rule, fired);
  };

  ir::IrNodePtr* root = &plan->mutable_root();

  // Phase 1: relational predicate pushdown feeds the model-side rules.
  if (options.predicate_pushdown) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyPredicatePushdown(root, *catalog_));
    record("predicate_pushdown", fired);
  }

  // Phase 2: model specialization.
  if (options.model_clustering && !clustering_artifacts_.empty()) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyModelClustering(root, clustering_artifacts_));
    record("model_clustering", fired);
  }
  if (options.predicate_model_pruning) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyPredicateModelPruning(root));
    record("predicate_model_pruning", fired);
  }
  if (options.data_property_pruning) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyDataPropertyPruning(root, *catalog_));
    record("data_property_pruning", fired);
  }
  if (options.lossy_projection_threshold > 0.0) {
    RAVEN_ASSIGN_OR_RETURN(
        std::size_t fired,
        ApplyLossyProjection(root, options.lossy_projection_threshold));
    record("lossy_projection", fired);
  }
  if (options.model_projection_pushdown) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyModelProjectionPushdown(root));
    record("model_projection_pushdown", fired);
  }
  if (options.model_query_splitting) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired, ApplyModelQuerySplitting(root));
    record("model_query_splitting", fired);
    if (fired > 0 && options.predicate_pushdown) {
      // The new per-branch filters can sink further.
      RAVEN_ASSIGN_OR_RETURN(std::size_t pushed,
                             ApplyPredicatePushdown(root, *catalog_));
      record("predicate_pushdown(post-split)", pushed);
    }
  }

  // Phase 3: representation choice — inline trees and forests of small
  // trees into relational expressions; translate everything else to the NN
  // runtime.
  if (options.model_inlining) {
    RAVEN_ASSIGN_OR_RETURN(
        std::size_t fired,
        ApplyModelInlining(root, *catalog_, options.inline_max_nodes));
    record("model_inlining", fired);
  }
  if (options.nn_translation) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyNnTranslation(root, options.nn_options));
    record("nn_translation", fired);
  }

  // Phase 4: relational cleanup — the shrunken models expose projection and
  // join opportunities.
  if (options.join_elimination) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyJoinElimination(root, *catalog_));
    record("join_elimination", fired);
  }
  if (options.projection_pushdown) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyProjectionPushdown(root, *catalog_));
    record("projection_pushdown", fired);
  }
  if (options.predicate_pushdown) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyPredicatePushdown(root, *catalog_));
    record("predicate_pushdown(final)", fired);
  }

  RAVEN_RETURN_IF_ERROR(plan->Validate(*catalog_));
  if (report != nullptr) {
    local.after = plan->ToString();
    // Cost the optimized plan both sequentially and at the runtime's degree
    // of parallelism so EXPLAIN (and future cost-based phases) see what the
    // morsel-driven executor will actually pay — per operator, from one
    // bottom-up pass per dop. Skipped when no report was requested; the
    // walks are pure output.
    local.costed_parallelism =
        std::max<std::int64_t>(1, options.target_parallelism);
    RAVEN_ASSIGN_OR_RETURN(
        auto rows,
        EstimateOperatorCosts(*plan->root(), *catalog_,
                              local.costed_parallelism));
    for (const auto& row : rows) {
      local.operator_costs.push_back(OperatorCost{
          ir::IrOpKindToString(row.node->kind), row.depth, row.output_rows,
          row.sequential_cost, row.parallel_cost, row.fused_into_parent});
    }
    // rows.front() is the plan root: its columns ARE the plan totals.
    local.sequential_cost = rows.front().sequential_cost;
    local.parallel_cost = rows.front().parallel_cost;
    if (options.target_distributed_workers > 1) {
      local.costed_distributed_workers = options.target_distributed_workers;
      RAVEN_ASSIGN_OR_RETURN(
          PlanCost distributed,
          EstimateDistributedCost(*plan->root(), *catalog_,
                                  local.costed_distributed_workers));
      local.distributed_cost = distributed.total_cost;
    }
    *report = std::move(local);
  }
  return Status::OK();
}

}  // namespace raven::optimizer
