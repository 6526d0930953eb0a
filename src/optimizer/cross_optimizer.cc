#include "optimizer/cross_optimizer.h"

#include "optimizer/rules.h"

namespace raven::optimizer {

Status CrossOptimizer::Optimize(ir::IrPlan* plan,
                                OptimizationReport* report) const {
  if (plan->root() == nullptr) {
    return Status::InvalidArgument("cannot optimize an empty plan");
  }
  OptimizationReport local;
  auto record = [&local](const char* rule, std::size_t fired) {
    local.rule_applications.emplace_back(rule, fired);
  };

  ir::IrNodePtr* root = &plan->mutable_root();

  // Phase 1: relational predicate pushdown feeds the model-side rules.
  if (options_.predicate_pushdown) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyPredicatePushdown(root, *catalog_));
    record("predicate_pushdown", fired);
  }

  // Phase 2: model specialization.
  if (options_.model_clustering && !clustering_artifacts_.empty()) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyModelClustering(root, clustering_artifacts_));
    record("model_clustering", fired);
  }
  if (options_.predicate_model_pruning) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyPredicateModelPruning(root));
    record("predicate_model_pruning", fired);
  }
  if (options_.data_property_pruning) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyDataPropertyPruning(root, *catalog_));
    record("data_property_pruning", fired);
  }
  if (options_.lossy_projection_threshold > 0.0) {
    RAVEN_ASSIGN_OR_RETURN(
        std::size_t fired,
        ApplyLossyProjection(root, options_.lossy_projection_threshold));
    record("lossy_projection", fired);
  }
  if (options_.model_projection_pushdown) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyModelProjectionPushdown(root));
    record("model_projection_pushdown", fired);
  }
  if (options_.model_query_splitting) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired, ApplyModelQuerySplitting(root));
    record("model_query_splitting", fired);
    if (fired > 0 && options_.predicate_pushdown) {
      // The new per-branch filters can sink further.
      RAVEN_ASSIGN_OR_RETURN(std::size_t pushed,
                             ApplyPredicatePushdown(root, *catalog_));
      record("predicate_pushdown(post-split)", pushed);
    }
  }

  // Phase 3: representation choice — inline trees and forests of small
  // trees into relational expressions; translate everything else to the NN
  // runtime.
  if (options_.model_inlining) {
    RAVEN_ASSIGN_OR_RETURN(
        std::size_t fired,
        ApplyModelInlining(root, *catalog_, options_.inline_max_nodes));
    record("model_inlining", fired);
  }
  if (options_.nn_translation) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyNnTranslation(root, options_.nn_options));
    record("nn_translation", fired);
  }

  // Phase 4: relational cleanup — the shrunken models expose projection and
  // join opportunities.
  if (options_.join_elimination) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyJoinElimination(root, *catalog_));
    record("join_elimination", fired);
  }
  if (options_.projection_pushdown) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyProjectionPushdown(root, *catalog_));
    record("projection_pushdown", fired);
  }
  if (options_.predicate_pushdown) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired,
                           ApplyPredicatePushdown(root, *catalog_));
    record("predicate_pushdown(final)", fired);
  }

  RAVEN_RETURN_IF_ERROR(plan->Validate(*catalog_));
  if (report != nullptr) *report = std::move(local);
  return Status::OK();
}

}  // namespace raven::optimizer
