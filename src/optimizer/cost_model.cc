#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <vector>

namespace raven::optimizer {
namespace {

constexpr double kFilterSelectivity = 0.4;

/// Fraction of input rows assumed to form distinct group-key tuples when no
/// distinct-count statistics are available.
constexpr double kGroupCardinality = 0.1;

/// Per-row scoring cost in abstract ops. A tree is charged 2 x depth (one
/// compare and one branch per level) and a forest the sum over its trees;
/// inlined models execute exactly that way, as one KernelProgram decision
/// walk per tree per row (a forest adds T - 1 adds and one divide).
double PredictorRowCost(const ml::Predictor& predictor) {
  if (const auto* tree = std::get_if<ml::DecisionTree>(&predictor)) {
    return 2.0 * static_cast<double>(tree->depth());
  }
  if (const auto* forest = std::get_if<ml::RandomForest>(&predictor)) {
    double cost = 0.0;
    for (const auto& tree : forest->trees()) {
      cost += 2.0 * static_cast<double>(tree.depth());
    }
    return cost;
  }
  if (const auto* linear = std::get_if<ml::LinearModel>(&predictor)) {
    return 2.0 * static_cast<double>(linear->num_features()) +
           (linear->kind() == ml::LinearKind::kLogistic ? 4.0 : 0.0);
  }
  const auto& mlp = std::get<ml::Mlp>(predictor);
  double cost = 0.0;
  for (const auto& layer : mlp.layers()) {
    cost += 2.0 * static_cast<double>(layer.in) * static_cast<double>(layer.out);
  }
  return cost;
}

}  // namespace

double PipelineRowCost(const ml::ModelPipeline& pipeline) {
  double featurize = 0.0;
  for (const auto& branch : pipeline.featurizer.branches()) {
    switch (branch.kind) {
      case ml::TransformKind::kIdentity:
        featurize += static_cast<double>(branch.input_columns.size());
        break;
      case ml::TransformKind::kScaler:
        featurize += 2.0 * static_cast<double>(branch.input_columns.size());
        break;
      case ml::TransformKind::kOneHot:
        featurize += static_cast<double>(branch.OutputWidth());
        break;
    }
  }
  return featurize + PredictorRowCost(pipeline.predictor);
}

double NnGraphRowCost(const nnrt::Graph& graph) {
  // Static estimate: Gemm/MatMul dominate; use initializer shapes.
  double cost = 0.0;
  for (const auto& node : graph.nodes()) {
    if (node.op_type == "Gemm" || node.op_type == "MatMul") {
      // Weight is the second input; look it up among initializers.
      if (node.inputs.size() >= 2) {
        auto it = graph.initializers().find(node.inputs[1]);
        if (it != graph.initializers().end() && it->second.rank() == 2) {
          cost += 2.0 * static_cast<double>(it->second.dim(0)) *
                  static_cast<double>(it->second.dim(1));
          continue;
        }
      }
      cost += 16.0;  // unknown operand: nominal
    } else {
      cost += 4.0;  // element-wise ops, per feature (nominal)
    }
  }
  return cost;
}

namespace {

/// Per-worker fixed overhead of a parallel run (operator-tree cloning,
/// morsel scheduling, result collection), in abstract work units.
constexpr double kWorkerStartupCost = 256.0;

/// State threaded through one costing walk: the catalog plus an optional
/// per-node sink, so EstimateOperatorCosts gets every subtree's cost from
/// the same single bottom-up pass that computes the plan total.
struct CostContext {
  const relational::Catalog& catalog;
  std::map<const ir::IrNode*, PlanCost>* sink = nullptr;
};

Result<PlanCost> EstimateCostImpl(const ir::IrNode& node,
                                  const CostContext& ctx, double dop);

/// Recursive body: `dop` is the degree of parallelism the subtree executes
/// at. Self-costs of morsel-parallelizable operators divide by dop;
/// cardinalities never do.
Result<PlanCost> EstimateCostNode(const ir::IrNode& node,
                                  const CostContext& ctx, double dop) {
  using ir::IrOpKind;
  switch (node.kind) {
    case IrOpKind::kTableScan: {
      RAVEN_ASSIGN_OR_RETURN(const auto shape,
                             ctx.catalog.TableShape(node.table_name));
      const double rows = static_cast<double>(shape.first);
      const double cols = static_cast<double>(shape.second);
      return PlanCost{rows, rows * cols / dop};
    }
    case IrOpKind::kFilter: {
      RAVEN_ASSIGN_OR_RETURN(PlanCost child,
                             EstimateCostImpl(*node.children[0], ctx,
                                              dop));
      const std::size_t conjuncts =
          relational::ExtractConjuncts(*node.predicate).size();
      const double selectivity =
          std::pow(kFilterSelectivity, static_cast<double>(conjuncts));
      return PlanCost{child.output_rows * selectivity,
                      child.total_cost +
                          child.output_rows *
                              static_cast<double>(conjuncts) / dop};
    }
    case IrOpKind::kProject: {
      RAVEN_ASSIGN_OR_RETURN(PlanCost child,
                             EstimateCostImpl(*node.children[0], ctx,
                                              dop));
      return PlanCost{child.output_rows,
                      child.total_cost +
                          child.output_rows *
                              static_cast<double>(node.proj_exprs.size()) /
                              dop};
    }
    case IrOpKind::kJoin: {
      RAVEN_ASSIGN_OR_RETURN(PlanCost left,
                             EstimateCostImpl(*node.children[0], ctx,
                                              dop));
      RAVEN_ASSIGN_OR_RETURN(PlanCost right,
                             EstimateCostImpl(*node.children[1], ctx,
                                              dop));
      // Build insertion and probe split across workers; the build-buffer
      // concatenation at the pipeline barrier stays sequential.
      const double parallel_part =
          2.0 * (left.output_rows + right.output_rows) / dop;
      const double merge_part = dop > 1.0 ? right.output_rows : 0.0;
      return PlanCost{left.output_rows, left.total_cost + right.total_cost +
                                            parallel_part + merge_part};
    }
    case IrOpKind::kUnionAll: {
      PlanCost total{0.0, 0.0};
      for (const auto& child : node.children) {
        RAVEN_ASSIGN_OR_RETURN(PlanCost c,
                               EstimateCostImpl(*child, ctx, dop));
        total.output_rows += c.output_rows;
        total.total_cost += c.total_cost;
      }
      return total;
    }
    case IrOpKind::kLimit: {
      // LIMIT pins sequential execution (ordered early-out), so everything
      // below it is costed at dop 1 regardless of the configured target.
      RAVEN_ASSIGN_OR_RETURN(PlanCost child,
                             EstimateCostImpl(*node.children[0], ctx,
                                              1.0));
      return PlanCost{
          std::min(child.output_rows, static_cast<double>(node.limit)),
          child.total_cost};
    }
    case IrOpKind::kAggregate: {
      RAVEN_ASSIGN_OR_RETURN(PlanCost child,
                             EstimateCostImpl(*node.children[0], ctx,
                                              dop));
      const double aggs = static_cast<double>(node.aggregates.size());
      // Accumulation parallelizes; the final partial merge is dop*aggs.
      return PlanCost{1.0, child.total_cost +
                               child.output_rows * aggs / dop + dop * aggs};
    }
    case IrOpKind::kGroupBy: {
      RAVEN_ASSIGN_OR_RETURN(PlanCost child,
                             EstimateCostImpl(*node.children[0], ctx,
                                              dop));
      const double width = static_cast<double>(node.group_keys.size() +
                                               node.aggregates.size());
      // No distinct-count statistics yet: assume kGroupCardinality of the
      // input forms distinct key tuples.
      const double groups =
          std::max(1.0, child.output_rows * kGroupCardinality);
      // Per-worker pre-aggregation parallelizes; each worker's table (up
      // to every group) is then merged once, in worker order, and the
      // final render is sequential.
      return PlanCost{groups, child.total_cost +
                                  child.output_rows * width / dop +
                                  dop * groups * width};
    }
    case IrOpKind::kOrderBy: {
      RAVEN_ASSIGN_OR_RETURN(PlanCost child,
                             EstimateCostImpl(*node.children[0], ctx,
                                              dop));
      const double rows = child.output_rows;
      // The gather-and-sort breaker: the child pipeline parallelizes, the
      // stable sort itself is a sequential tail (deliberately NOT divided
      // by dop), plus a gather of the workers' chunks when parallel.
      const double sort = rows * std::log2(rows + 2.0) *
                          static_cast<double>(node.sort_keys.size());
      const double gather = dop > 1.0 ? rows : 0.0;
      return PlanCost{rows, child.total_cost + sort + gather};
    }
    case IrOpKind::kModelPipeline: {
      RAVEN_ASSIGN_OR_RETURN(PlanCost child,
                             EstimateCostImpl(*node.children[0], ctx,
                                              dop));
      return PlanCost{child.output_rows,
                      child.total_cost +
                          child.output_rows * PipelineRowCost(*node.pipeline) /
                              dop};
    }
    case IrOpKind::kClusteredPredict: {
      RAVEN_ASSIGN_OR_RETURN(PlanCost child,
                             EstimateCostImpl(*node.children[0], ctx,
                                              dop));
      double avg_cost = 0.0;
      if (!node.clustered->cluster_models.empty()) {
        for (const auto& model : node.clustered->cluster_models) {
          avg_cost += PipelineRowCost(model);
        }
        avg_cost /= static_cast<double>(node.clustered->cluster_models.size());
      } else {
        avg_cost = PipelineRowCost(node.clustered->fallback);
      }
      const double routing =
          2.0 * static_cast<double>(node.clustered->routing_columns.size()) *
          static_cast<double>(node.clustered->router.k());
      return PlanCost{child.output_rows,
                      child.total_cost +
                          child.output_rows * (avg_cost + routing) / dop};
    }
    case IrOpKind::kNnGraph: {
      RAVEN_ASSIGN_OR_RETURN(PlanCost child,
                             EstimateCostImpl(*node.children[0], ctx,
                                              dop));
      return PlanCost{child.output_rows,
                      child.total_cost +
                          child.output_rows * NnGraphRowCost(*node.nn_graph) /
                              dop};
    }
    case IrOpKind::kOpaquePipeline: {
      // Opaque pipelines run out of process and the executor keeps such
      // plans sequential; charge a serialization tax at dop 1.
      RAVEN_ASSIGN_OR_RETURN(PlanCost child,
                             EstimateCostImpl(*node.children[0], ctx,
                                              1.0));
      return PlanCost{child.output_rows,
                      child.total_cost + child.output_rows * 64.0};
    }
  }
  return Status::Internal("unreachable IR kind in EstimateCost");
}

Result<PlanCost> EstimateCostImpl(const ir::IrNode& node,
                                  const CostContext& ctx, double dop) {
  RAVEN_ASSIGN_OR_RETURN(PlanCost cost, EstimateCostNode(node, ctx, dop));
  if (ctx.sink != nullptr) (*ctx.sink)[&node] = cost;
  return cost;
}

/// The dop the executor would run this plan at (LIMIT / opaque pipelines
/// anywhere force fully sequential execution).
double EffectiveDop(const ir::IrNode& node, std::int64_t parallelism) {
  bool sequential_only = false;
  ir::VisitIr(&node, [&](const ir::IrNode* n) {
    if (n->kind == ir::IrOpKind::kLimit ||
        n->kind == ir::IrOpKind::kOpaquePipeline) {
      sequential_only = true;
    }
  });
  return sequential_only
             ? 1.0
             : static_cast<double>(std::max<std::int64_t>(1, parallelism));
}

/// Worker startup plus the ordered merge of the final result — the
/// sequential tail that makes tiny inputs cheaper at dop 1. Charged to the
/// plan root only.
void AddParallelTail(double dop, PlanCost* cost) {
  if (dop > 1.0) {
    cost->total_cost += dop * kWorkerStartupCost + cost->output_rows;
  }
}

}  // namespace

Result<PlanCost> EstimateCost(const ir::IrNode& node,
                              const relational::Catalog& catalog,
                              std::int64_t parallelism) {
  // Mirror the executor's gating exactly: costing any part of a
  // sequential-pinned plan at dop > 1 would promise a speedup the runtime
  // never delivers.
  const double dop = EffectiveDop(node, parallelism);
  const CostContext ctx{catalog, nullptr};
  RAVEN_ASSIGN_OR_RETURN(PlanCost cost, EstimateCostImpl(node, ctx, dop));
  AddParallelTail(dop, &cost);
  return cost;
}

namespace {

/// Serialization + pipe + deserialization tax per row crossing the worker
/// boundary, each direction (the scan partition out, the result back).
constexpr double kShipCostPerRow = 32.0;

/// Fixed cost of one kExecuteFragment exchange (frame encode/decode,
/// scheduling, response-stream handling), charged per partition.
constexpr double kFragmentFrameCost = 512.0;

}  // namespace

Result<PlanCost> EstimateDistributedCost(const ir::IrNode& node,
                                         const relational::Catalog& catalog,
                                         std::int64_t workers) {
  RAVEN_ASSIGN_OR_RETURN(PlanCost sequential,
                         EstimateCost(node, catalog, 1));
  if (workers <= 1) return sequential;
  const double w = static_cast<double>(workers);
  std::vector<const ir::IrNode*> fragments;
  ir::CollectDistributableFragments(node, &fragments);
  const CostContext ctx{catalog, nullptr};
  PlanCost total = sequential;
  for (const ir::IrNode* fragment : fragments) {
    RAVEN_ASSIGN_OR_RETURN(PlanCost seq_frag,
                           EstimateCostImpl(*fragment, ctx, 1.0));
    RAVEN_ASSIGN_OR_RETURN(PlanCost par_frag,
                           EstimateCostImpl(*fragment, ctx, w));
    const ir::IrNode* leaf = fragment;
    while (leaf->kind != ir::IrOpKind::kTableScan) {
      leaf = leaf->children[0].get();
    }
    RAVEN_ASSIGN_OR_RETURN(const auto shape,
                           catalog.TableShape(leaf->table_name));
    const double ship =
        kShipCostPerRow * (static_cast<double>(shape.first) +
                           seq_frag.output_rows);
    // Swap the fragment's sequential compute for pool-parallel compute plus
    // the shipping tax; the remainder keeps its sequential costing.
    total.total_cost +=
        par_frag.total_cost + ship + w * kFragmentFrameCost -
        seq_frag.total_cost;
  }
  return total;
}

Result<std::vector<OperatorCostRow>> EstimateOperatorCosts(
    const ir::IrNode& root, const relational::Catalog& catalog,
    std::int64_t parallelism) {
  // One bottom-up pass per dop fills every subtree's cost (O(plan size)).
  std::map<const ir::IrNode*, PlanCost> sequential;
  std::map<const ir::IrNode*, PlanCost> parallel;
  const CostContext seq_ctx{catalog, &sequential};
  RAVEN_ASSIGN_OR_RETURN(PlanCost seq_root,
                         EstimateCostImpl(root, seq_ctx, 1.0));
  sequential[&root] = seq_root;
  const double dop = EffectiveDop(root, parallelism);
  if (dop > 1.0) {
    const CostContext par_ctx{catalog, &parallel};
    RAVEN_ASSIGN_OR_RETURN(PlanCost par_root,
                           EstimateCostImpl(root, par_ctx, dop));
    // The root rows mirror the plan-level EstimateCost (parallel tail
    // included); inner rows stay tail-free, as the executor runs them.
    AddParallelTail(dop, &par_root);
    parallel[&root] = par_root;
  } else {
    parallel = sequential;  // dop 1: both walks would be identical
  }

  std::vector<OperatorCostRow> rows;
  std::function<void(const ir::IrNode&, int, bool)> assemble =
      [&](const ir::IrNode& node, int depth, bool parent_fusable) {
        OperatorCostRow row;
        row.node = &node;
        row.depth = depth;
        row.output_rows = sequential[&node].output_rows;
        row.sequential_cost = sequential[&node].total_cost;
        row.parallel_cost = parallel[&node].total_cost;
        row.fused_into_parent =
            parent_fusable && ir::IsFusablePipelineKind(node.kind);
        rows.push_back(row);
        for (const auto& child : node.children) {
          assemble(*child, depth + 1, ir::IsFusablePipelineKind(node.kind));
        }
      };
  assemble(root, 0, /*parent_fusable=*/false);
  return rows;
}

}  // namespace raven::optimizer
