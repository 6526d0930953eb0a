#include "raven/raven.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/timer.h"
#include "optimizer/cost_model.h"

namespace raven {

RavenContext::RavenContext(RavenOptions options)
    : options_(std::move(options)),
      session_cache_(options_.session_cache_capacity),
      analyzer_(&catalog_),
      optimizer_(&catalog_, options_.optimizer),
      executor_(&catalog_, &session_cache_) {
  // When the caller didn't pin an explicit costing target, the optimizer
  // follows the runtime's parallelism (read per query, so
  // post-construction `execution_options().parallelism = N` is honored).
  optimizer_parallelism_auto_ = options_.optimizer.target_parallelism <= 1;
  if (!options_.artifact_dir.empty()) {
    session_cache_.AttachArtifacts(
        std::make_shared<nnrt::ArtifactCache>(options_.artifact_dir));
    // Distributed/out-of-process children reuse the same artifact directory:
    // a model the coordinator compiled is a warm start for every worker.
    options_.execution.external.worker_args.push_back(
        "--artifact-dir=" + options_.artifact_dir);
  }
}

optimizer::OptimizerOptions RavenContext::CostingOptions(
    const runtime::ExecutionOptions& exec) const {
  optimizer::OptimizerOptions options = optimizer_.options();
  if (optimizer_parallelism_auto_) {
    // Only in-process plans morsel-parallelize; costing worker/container
    // modes at dop > 1 would promise speedups the executor never delivers.
    // Distributed mode runs its in-process remainder sequentially, so its
    // dop is 1 too — its parallelism lives in the worker pool instead.
    options.target_parallelism =
        exec.mode == runtime::ExecutionMode::kInProcess ? exec.parallelism
                                                        : 1;
  }
  options.target_distributed_workers =
      exec.mode == runtime::ExecutionMode::kDistributed
          ? exec.distributed_workers
          : 0;
  return options;
}

Status RavenContext::RegisterTable(const std::string& name,
                                   relational::Table table) {
  return catalog_.RegisterTable(name, std::move(table));
}

Status RavenContext::RegisterDiskTable(
    const std::string& name,
    std::shared_ptr<const relational::BlockTable> table) {
  return catalog_.RegisterDiskTable(name, std::move(table));
}

Status RavenContext::InsertModel(const std::string& name,
                                 const std::string& script,
                                 const ml::ModelPipeline& pipeline) {
  return catalog_.InsertModel(name, script, pipeline.ToBytes());
}

Status RavenContext::UpdateModel(const std::string& name,
                                 const std::string& script,
                                 const ml::ModelPipeline& pipeline) {
  return catalog_.UpdateModel(name, script, pipeline.ToBytes());
}

Status RavenContext::BuildClusteredModel(
    const std::string& model_name, const std::string& sample_table,
    const optimizer::ClusteringOptions& options) {
  RAVEN_ASSIGN_OR_RETURN(relational::StoredModel stored,
                         catalog_.GetModel(model_name));
  RAVEN_ASSIGN_OR_RETURN(ml::ModelPipeline pipeline,
                         ml::ModelPipeline::FromBytes(stored.pipeline_bytes));
  RAVEN_ASSIGN_OR_RETURN(const relational::Table* sample,
                         catalog_.GetTable(sample_table));
  RAVEN_ASSIGN_OR_RETURN(ir::ClusteredModel artifact,
                         optimizer::BuildClusteredModel(pipeline, *sample,
                                                        options));
  optimizer_.RegisterClusteredModel(
      model_name, std::make_shared<ir::ClusteredModel>(std::move(artifact)));
  return Status::OK();
}

Result<ir::IrPlan> RavenContext::Prepare(
    const std::string& sql, optimizer::OptimizationReport* report) {
  RAVEN_ASSIGN_OR_RETURN(ir::IrPlan plan, analyzer_.Analyze(sql));
  RAVEN_RETURN_IF_ERROR(optimizer_.Optimize(&plan, report));
  return plan;
}

Result<relational::Table> RavenContext::ExecutePlan(
    const ir::IrPlan& plan, runtime::ExecutionStats* stats) {
  return executor_.Execute(plan, options_.execution, stats);
}

Result<QueryResult> RavenContext::Query(const std::string& sql) {
  Timer timer;
  QueryResult result;
  RAVEN_ASSIGN_OR_RETURN(ir::IrPlan plan,
                         analyzer_.Analyze(sql, &result.analysis));
  RAVEN_RETURN_IF_ERROR(optimizer_.Optimize(&plan, &result.optimization));
  RAVEN_ASSIGN_OR_RETURN(result.table,
                         executor_.Execute(plan, options_.execution,
                                           &result.execution));
  result.plan = std::move(plan);
  result.total_millis = timer.ElapsedMillis();
  return result;
}

std::string QueryResult::GeneratedSql() const {
  return plan.root() != nullptr ? runtime::GenerateSql(*plan.root()) : "";
}

Result<std::string> RavenContext::Explain(const std::string& sql) {
  return Explain(sql, options_.execution);
}

Result<std::string> RavenContext::Explain(
    const std::string& sql, const runtime::ExecutionOptions& exec) {
  frontend::AnalysisStats analysis;
  RAVEN_ASSIGN_OR_RETURN(ir::IrPlan plan, analyzer_.Analyze(sql, &analysis));
  std::string out = "=== Unified IR (after static analysis) ===\n";
  out += plan.ToString();
  if (analysis.used_udf_fallback) {
    out += "-- UDF fallback: " + analysis.fallback_reason + "\n";
  }
  optimizer::OptimizationReport report;
  RAVEN_RETURN_IF_ERROR(optimizer_.Optimize(&plan, &report));
  out += "=== Optimized IR ===\n";
  out += plan.ToString();
  out += "=== Rules ===\n";
  for (const auto& [rule, fired] : report.rule_applications) {
    out += "  " + rule + ": " + std::to_string(fired) + "\n";
  }
  // Cost the optimized plan sequentially and at the dop it will run at,
  // per operator, from one bottom-up pass; rows.front() is the root, whose
  // columns are the plan totals.
  const optimizer::OptimizerOptions costing = CostingOptions(exec);
  const std::int64_t dop =
      std::max<std::int64_t>(1, costing.target_parallelism);
  RAVEN_ASSIGN_OR_RETURN(
      const std::vector<optimizer::OperatorCostRow> rows,
      optimizer::EstimateOperatorCosts(*plan.root(), catalog_, dop));
  out += "=== Estimated cost ===\n";
  out += "  sequential: " + std::to_string(rows.front().sequential_cost) +
         "\n";
  if (dop > 1) {
    out += "  parallel(dop=" + std::to_string(dop) +
           "): " + std::to_string(rows.front().parallel_cost) + "\n";
  }
  if (costing.target_distributed_workers > 1) {
    RAVEN_ASSIGN_OR_RETURN(
        const optimizer::PlanCost distributed,
        optimizer::EstimateDistributedCost(
            *plan.root(), catalog_, costing.target_distributed_workers));
    out += "  distributed(workers=" +
           std::to_string(costing.target_distributed_workers) +
           "): " + std::to_string(distributed.total_cost) + "\n";
  }
  out += "  operators (subtree totals):\n";
  for (const auto& row : rows) {
    out += "    ";
    for (int i = 0; i < row.depth; ++i) out += "  ";
    out += std::string(ir::IrOpKindToString(row.node->kind)) +
           " rows=" + std::to_string(row.output_rows) +
           " seq=" + std::to_string(row.sequential_cost);
    if (dop > 1) {
      out += " par(dop=" + std::to_string(dop) +
             ")=" + std::to_string(row.parallel_cost);
    }
    if (row.fused_into_parent) out += " [fused into parent]";
    out += "\n";
  }
  const std::string fused = runtime::DescribeFusedChains(*plan.root());
  if (!fused.empty()) {
    // One line per chain the code generator collapses into a single
    // operator (single pass per chunk), components in execution order.
    out += "=== Fusion ===\n";
    std::size_t start = 0;
    while (start < fused.size()) {
      std::size_t end = fused.find('\n', start);
      if (end == std::string::npos) end = fused.size();
      out += "  " + fused.substr(start, end - start) + "\n";
      start = end + 1;
    }
  }
  const std::string batchable =
      runtime::DescribeBatchablePredicts(*plan.root());
  if (!batchable.empty()) {
    // Which PREDICT nodes the cross-query micro-batcher can coalesce: one
    // line per NNRT-translated node. Eligibility is a plan property; the
    // window/row knobs are session state, reported by the server alongside.
    out += "=== Inference batching ===\n";
    std::size_t start = 0;
    while (start < batchable.size()) {
      std::size_t end = batchable.find('\n', start);
      if (end == std::string::npos) end = batchable.size();
      out += "  batch-eligible: " + batchable.substr(start, end - start) +
             "\n";
      start = end + 1;
    }
  }
  const std::string storage =
      runtime::DescribeStorageScans(*plan.root(), catalog_);
  if (!storage.empty()) {
    // One line per on-disk table the plan scans (block layout + encodings),
    // plus the predicate conjuncts the scan checks against block zone maps.
    out += "=== Storage ===\n";
    std::size_t start = 0;
    while (start < storage.size()) {
      std::size_t end = storage.find('\n', start);
      if (end == std::string::npos) end = storage.size();
      out += "  " + storage.substr(start, end - start) + "\n";
      start = end + 1;
    }
  }
  out += "=== Generated SQL ===\n";
  out += runtime::GenerateSql(*plan.root());
  out += "\n";
  return out;
}

namespace {

/// One-line heading for a plan node in the EXPLAIN ANALYZE tree: operator
/// kind plus the payload a reader needs to tell siblings apart.
std::string NodeHeading(const ir::IrNode& node) {
  std::string head = ir::IrOpKindToString(node.kind);
  switch (node.kind) {
    case ir::IrOpKind::kTableScan:
      head += "(" + node.table_name + ")";
      break;
    case ir::IrOpKind::kJoin:
      head += "(" + node.left_key + " = " + node.right_key + ")";
      break;
    case ir::IrOpKind::kLimit:
      head += "(" + std::to_string(node.limit) + ")";
      break;
    case ir::IrOpKind::kModelPipeline:
    case ir::IrOpKind::kClusteredPredict:
    case ir::IrOpKind::kNnGraph:
    case ir::IrOpKind::kOpaquePipeline:
      head += "(" + node.model_name + " -> " + node.output_column + ")";
      break;
    default:
      break;
  }
  return head;
}

std::string Micros(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", value);
  return buf;
}

}  // namespace

Result<RavenContext::ExplainAnalyzeResult> RavenContext::ExplainAnalyze(
    const std::string& sql) {
  RAVEN_ASSIGN_OR_RETURN(ir::IrPlan plan, analyzer_.Analyze(sql));
  RAVEN_RETURN_IF_ERROR(optimizer_.Optimize(&plan, nullptr));
  return ExplainAnalyzePlan(plan, options_.execution);
}

Result<RavenContext::ExplainAnalyzeResult> RavenContext::ExplainAnalyzePlan(
    const ir::IrPlan& plan, const runtime::ExecutionOptions& exec) {
  Timer timer;
  ExplainAnalyzeResult out;
  RAVEN_ASSIGN_OR_RETURN(out.table, executor_.Execute(plan, exec, &out.stats));
  const double total_millis = timer.ElapsedMillis();

  // Group the actual counters by the IR node their slot was registered
  // under. One node can own several physical operators (an aggregate sink
  // plus the rescan of its materialized result), hence a multimap; entries
  // stay in slot-creation order, which is plan-build order.
  std::multimap<const void*, const runtime::OperatorStats*> by_node;
  for (const auto& op : out.stats.operators) by_node.emplace(op.node, &op);

  std::string text = "=== EXPLAIN ANALYZE ===\n";
  struct Renderer {
    const std::multimap<const void*, const runtime::OperatorStats*>& by_node;
    std::string* out;
    void Render(const ir::IrNode& node, int depth,
                const std::string& fused_label) {
      auto [lo, hi] = by_node.equal_range(&node);
      std::string line(static_cast<std::size_t>(depth) * 2, ' ');
      line += NodeHeading(node);
      std::string child_fused = fused_label;
      if (lo == hi) {
        // No slot of its own: a fusable node swallowed by the enclosing
        // chain. Its counters live on the chain head (the fused operator is
        // one pass per chunk; per-stage row counts do not exist).
        if (!fused_label.empty() && ir::IsFusablePipelineKind(node.kind)) {
          line += "  [in " + fused_label + "]";
        }
      } else {
        child_fused.clear();
        for (auto it = lo; it != hi; ++it) {
          const runtime::OperatorStats& op = *it->second;
          line += "  [" + op.op + ": rows=" + std::to_string(op.rows) +
                  " chunks=" + std::to_string(op.chunks) +
                  " open=" + Micros(op.open_micros) +
                  "us work=" + Micros(op.wall_micros) + "us]";
          if (op.op.rfind("Fused[", 0) == 0) child_fused = op.op;
        }
      }
      *out += line + "\n";
      for (const auto& child : node.children) {
        Render(*child, depth + 1, child_fused);
      }
    }
  };
  Renderer renderer{by_node, &text};
  renderer.Render(*plan.root(), 1, "");

  const runtime::ExecutionStats& s = out.stats;
  text += "=== Execution totals ===\n";
  text += "  mode=" +
          std::string(runtime::ExecutionModeToString(exec.mode)) +
          " result_rows=" + std::to_string(out.table.num_rows()) +
          " partitions=" + std::to_string(s.partitions_used) +
          " morsels=" + std::to_string(s.morsels) +
          " fused_chains=" + std::to_string(s.fused_chains) +
          " programs_compiled=" + std::to_string(s.programs_compiled) + "\n";
  if (s.predict_batches > 0) {
    text += "  predict_batches=" + std::to_string(s.predict_batches) +
            " rows_scored=" + std::to_string(s.rows_out) +
            " nn_wall_micros=" + Micros(s.nn_wall_micros) +
            " nn_simulated_micros=" + Micros(s.nn_simulated_micros) + "\n";
  }
  if (s.blocks_scanned > 0 || s.blocks_skipped > 0) {
    text += "  blocks_scanned=" + std::to_string(s.blocks_scanned) +
            " blocks_skipped=" + std::to_string(s.blocks_skipped) + "\n";
  }
  if (s.frames_sent > 0) {
    text += "  frames_sent=" + std::to_string(s.frames_sent) +
            " bytes_shipped=" + std::to_string(s.bytes_shipped) +
            " worker_restarts=" + std::to_string(s.worker_restarts) + "\n";
  }
  char millis[32];
  std::snprintf(millis, sizeof(millis), "%.3f", total_millis);
  text += "  total_millis=" + std::string(millis) + "\n";
  out.text = std::move(text);
  return out;
}

}  // namespace raven
