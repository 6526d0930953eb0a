#ifndef RAVEN_OPTIMIZER_RULES_H_
#define RAVEN_OPTIMIZER_RULES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "ir/ir.h"
#include "optimizer/converters.h"
#include "relational/catalog.h"

namespace raven::optimizer {

/// Each rule is a plan-tree rewrite returning how many times it fired.
/// All rules preserve query semantics (verified by the property tests in
/// tests/optimizer_semantics_test.cc).

/// Standard relational predicate pushdown, extended across model nodes:
/// predicates not referencing the prediction column move below PREDICT,
/// through projections, and into join sides.
Result<std::size_t> ApplyPredicatePushdown(ir::IrNodePtr* root,
                                           const relational::Catalog& catalog);

/// Predicate-based model pruning (paper §4.1): simple predicates in a model
/// node's subtree specialize the model (tree-branch elimination, categorical
/// one-hot block folding for linear models).
Result<std::size_t> ApplyPredicateModelPruning(ir::IrNodePtr* root);

/// Model-projection pushdown (paper §4.1, Fig 2(a)): drop features the
/// predictor ignores (zero weights, untested features); shrink the model's
/// relational input requirements accordingly.
Result<std::size_t> ApplyModelProjectionPushdown(ir::IrNodePtr* root);

/// Relational projection pushdown: narrows scans/projections to the columns
/// actually required upstream (including model inputs).
Result<std::size_t> ApplyProjectionPushdown(ir::IrNodePtr* root,
                                            const relational::Catalog& catalog);

/// Join elimination: removes a join's build side when no surviving column
/// needs it (enabled by model-projection pushdown; assumes key/FK integrity,
/// which the synthetic datasets satisfy by construction).
Result<std::size_t> ApplyJoinElimination(ir::IrNodePtr* root,
                                         const relational::Catalog& catalog);

/// Model inlining (paper §4.2, Fig 2(c)): decision-tree and random-forest
/// pipelines whose every tree has at most `max_nodes` nodes become
/// relational expressions (a CASE per tree; a forest averages them), the
/// UDF-inlining analogue, unlocking relational optimizations over the
/// model itself.
Result<std::size_t> ApplyModelInlining(ir::IrNodePtr* root,
                                       const relational::Catalog& catalog,
                                       std::int64_t max_nodes);

/// NN translation (paper §4.2, Fig 2(d)): classical pipelines become NNRT
/// linear-algebra graphs for batch/accelerator execution.
Result<std::size_t> ApplyNnTranslation(ir::IrNodePtr* root,
                                       const NnTranslationOptions& options);

/// Model clustering (paper §4.1, Fig 2(b)): swaps a model node for its
/// registered per-cluster precompiled artifact.
Result<std::size_t> ApplyModelClustering(
    ir::IrNodePtr* root,
    const std::map<std::string, std::shared_ptr<ir::ClusteredModel>>&
        artifacts);

/// Model/query splitting (paper §2): partitions a tree model on its root
/// predicate into two simpler (query branch, model) pairs under a UNION ALL.
Result<std::size_t> ApplyModelQuerySplitting(ir::IrNodePtr* root);

/// Data-property-derived predicate pruning (paper §4.1: "This technique can
/// also be applied based on data properties instead of explicit selections
/// ... e.g., all patients are above 35"): derives [min, max] (or constant)
/// predicates from base-table statistics for each model input column and
/// specializes the model with them. Sound because statistics summarize the
/// very rows the query scans, and filters/inner joins only remove rows.
Result<std::size_t> ApplyDataPropertyPruning(ir::IrNodePtr* root,
                                             const relational::Catalog& catalog);

/// Lossy model-projection pushdown (paper §4.1 open question: "what would
/// be the impact ... when applying lossy model-projection pushdown, where
/// small, but non-zero, weights are removed?"): zeroes linear-model weights
/// with |w| < threshold, then projects. Changes predictions by at most
/// threshold * sum(|dropped feature range|); the ablation bench measures
/// the accuracy/latency trade-off.
Result<std::size_t> ApplyLossyProjection(ir::IrNodePtr* root,
                                         double weight_threshold);

}  // namespace raven::optimizer

#endif  // RAVEN_OPTIMIZER_RULES_H_
