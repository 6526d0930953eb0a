#ifndef RAVEN_OPTIMIZER_COST_MODEL_H_
#define RAVEN_OPTIMIZER_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "ir/ir.h"
#include "relational/catalog.h"

namespace raven::optimizer {

/// Cardinality and cost estimate for a plan subtree. Units are abstract
/// "work units" (roughly: one scalar op). This is the seed of the paper's
/// planned cost-based Cascades optimizer (§4.3): the heuristic pipeline
/// uses it today to choose between model inlining and NN translation, and
/// EXPLAIN surfaces it.
struct PlanCost {
  double output_rows = 0.0;
  double total_cost = 0.0;
};

/// Per-row scoring cost of a model pipeline (featurization + predictor).
double PipelineRowCost(const ml::ModelPipeline& pipeline);

/// Static per-row cost of an NNRT graph (sum of kernel flop estimates for a
/// single-row batch).
double NnGraphRowCost(const nnrt::Graph& graph);

/// Estimates cardinality and cost bottom-up. Filters use a fixed 0.4
/// selectivity unless the predicate is a conjunction (0.4 per conjunct);
/// joins assume key-FK matches (|left| rows out).
///
/// `parallelism` > 1 costs the plan as the morsel-driven parallel executor
/// runs it: scans, filters, projections, model scoring, join build/probe
/// and (grouped-)aggregate accumulation divide across workers, while
/// per-worker startup, the ordered result merge, an ORDER BY's stable sort
/// (a sequential gather-and-sort tail), the GROUP BY per-worker table merge,
/// and any subtree under a LIMIT (which executes sequentially) do not.
/// This keeps the optimizer honest about plans that parallelize well
/// versus ones that are merge- or startup-bound.
Result<PlanCost> EstimateCost(const ir::IrNode& node,
                              const relational::Catalog& catalog,
                              std::int64_t parallelism = 1);

/// The dop×workers case: costs the plan as ExecutionMode::kDistributed runs
/// it over a pool of `workers`. Each maximal distributable fragment
/// (row-wise chain over one scan, ir::CollectDistributableFragments) has
/// its compute divided across the pool, plus the fragment-shipping tax the
/// in-process modes never pay: serializing the scan partition out and the
/// result rows back over the worker pipes, and a per-partition frame
/// overhead. The remainder above the fragments stays sequential, exactly
/// like the executor runs it. `workers` <= 1 degenerates to the sequential
/// estimate. EXPLAIN surfaces this as the "distributed(workers=N)" row so
/// plans that are shipping-bound (cheap fragments, wide scans) are visibly
/// worse than their in-process costing.
Result<PlanCost> EstimateDistributedCost(const ir::IrNode& node,
                                         const relational::Catalog& catalog,
                                         std::int64_t workers);

/// One per-operator EXPLAIN cost row: an operator of `root`'s plan with its
/// subtree's cardinality and cost run sequentially and at the requested
/// parallelism *within the enclosing plan* — the worker-startup and final
/// result-merge tail are charged to the root row only, and subtrees under a
/// LIMIT are costed at dop 1, exactly like the executor runs them.
struct OperatorCostRow {
  const ir::IrNode* node = nullptr;
  int depth = 0;  ///< nesting depth under the plan root (for indentation)
  double output_rows = 0.0;
  double sequential_cost = 0.0;
  double parallel_cost = 0.0;
  /// The runtime fuses this operator into its parent (both are part of one
  /// filter/project/PREDICT chain executing as a single pass per chunk, see
  /// ir::IsFusablePipelineKind). Cost numbers are unchanged — fusion saves
  /// operator-boundary copies, not the per-row work this model counts —
  /// but EXPLAIN marks the row so the printed tree matches execution.
  bool fused_into_parent = false;
};

/// Costs every operator of the plan in one bottom-up pass per dop (O(plan
/// size), not one EstimateCost call per node) and returns the rows in
/// preorder; rows.front() is the root and matches EstimateCost(root, ...).
Result<std::vector<OperatorCostRow>> EstimateOperatorCosts(
    const ir::IrNode& root, const relational::Catalog& catalog,
    std::int64_t parallelism);

}  // namespace raven::optimizer

#endif  // RAVEN_OPTIMIZER_COST_MODEL_H_
