#include "runtime/codegen.h"

#include <functional>
#include <set>
#include <sstream>

#include "nnrt/executor.h"
#include "relational/block_table.h"

namespace raven::runtime {
namespace {

using ir::IrNode;
using ir::IrOpKind;
using relational::BatchScorer;
using relational::OperatorPtr;

void AtomicAddDouble(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + value,
                                        std::memory_order_relaxed)) {
  }
}

/// Stats destination captured BY VALUE into scorer closures. The collector
/// lives in PlanExecutor::Execute's frame, which strictly outlives every
/// worker; the RuntimeContext itself may not (worker trees are built from
/// per-worker contexts on their own stacks), so closures must never capture
/// it by reference. All accumulation is atomic — no external mutex.
struct StatsSink {
  StatsCollector* collector = nullptr;
};

void AccumulateStats(const StatsSink& sink, std::int64_t rows,
                     const nnrt::RunStats* nn_stats) {
  if (sink.collector == nullptr) return;
  sink.collector->AddPredictBatch(rows, nn_stats);
}

/// Scores via the interpreted classical-ML path (the baseline "framework"
/// path and the execution of non-translated pipelines).
BatchScorer MakeInterpretedScorer(
    std::shared_ptr<const ml::ModelPipeline> pipeline,
    const RuntimeContext& ctx) {
  const StatsSink sink{ctx.stats};
  return [pipeline, sink](const Tensor& input)
             -> Result<std::vector<double>> {
    RAVEN_ASSIGN_OR_RETURN(Tensor preds, pipeline->Predict(input));
    AccumulateStats(sink, preds.dim(0), nullptr);
    std::vector<double> out(preds.data().begin(), preds.data().end());
    return out;
  };
}

BatchScorer MakeClusteredScorer(std::shared_ptr<ir::ClusteredModel> model,
                                const RuntimeContext& ctx) {
  const StatsSink sink{ctx.stats};
  return [model, sink](const Tensor& input) -> Result<std::vector<double>> {
    RAVEN_ASSIGN_OR_RETURN(Tensor preds, model->Predict(input));
    AccumulateStats(sink, preds.dim(0), nullptr);
    std::vector<double> out(preds.data().begin(), preds.data().end());
    return out;
  };
}

/// In-process NNRT scoring through the session cache (model + session
/// caching is what wins the small-batch regime in Fig 3).
Result<BatchScorer> MakeNnScorer(const IrNode& node,
                                 const RuntimeContext& ctx) {
  // Cache key: model identity + the plan's precomputed graph fingerprint.
  // Serializing the model happens only on a cache miss (or for a
  // hand-assembled node with no fingerprint) — a hot prepared statement
  // must not pay a full graph serialization per execution just to look up
  // the session it already built.
  auto serialize = [&node]() {
    BinaryWriter writer;
    node.nn_graph->Serialize(&writer);
    return writer.Release();
  };
  std::uint64_t fingerprint = node.nn_graph_fingerprint;
  if (fingerprint == 0) {
    fingerprint = nnrt::FingerprintGraphBytes(serialize());
  }
  std::string key = node.model_name;
  auto versioned = ctx.catalog->ModelCacheKey(node.model_name);
  if (versioned.ok()) key = versioned.value();
  key += "#" + std::to_string(fingerprint);
  // Backend in the key: sessions are backend-bound at creation, and the
  // PredictBatcher groups by this same key, so batches stay backend-pure.
  key += "@";
  key += nnrt::BackendKindToString(ctx.options.nn_backend);
  nnrt::SessionOptions session_options;
  session_options.device = ctx.options.device;
  session_options.backend = ctx.options.nn_backend;
  session_options.profiler = &ctx.session_cache->profiler();
  RAVEN_ASSIGN_OR_RETURN(
      auto session, ctx.session_cache->GetOrCreate(key, fingerprint, serialize,
                                                   session_options));
  const StatsSink sink{ctx.stats};
  // Cross-query micro-batching: with a batcher attached and a positive
  // window, each morsel's input is submitted to the shared scheduler, which
  // may coalesce it with rows from concurrent queries before running the
  // session (bit-identical per row — kernels are row-independent). A window
  // of 0 keeps the direct per-morsel call below, byte for byte the
  // unbatched path.
  const std::int64_t window = ctx.options.predict_batch_window_micros;
  const std::int64_t max_rows = ctx.options.predict_max_batch_rows;
  const std::shared_ptr<InferenceBatcher> batcher =
      window > 0 ? ctx.options.predict_batcher : nullptr;
  obs::Trace* trace = ctx.options.trace;
  // The scorer's own NNRT buffers: each worker tree builds its own scorer,
  // so the arena is never shared across threads, and its morsels reuse
  // the same buffers instead of allocating per call.
  auto arena = std::make_shared<nnrt::RunArena>();
  return BatchScorer([session, sink, batcher, key, window, max_rows, trace,
                      arena](
                         const Tensor& input) -> Result<std::vector<double>> {
    nnrt::RunStats stats;
    Tensor scored_batch;
    const Tensor* preds = &scored_batch;
    if (batcher != nullptr) {
      InferenceBatcher::Request request;
      request.key = key;
      request.session = session;
      request.input = &input;
      request.window_micros = window;
      request.max_batch_rows = max_rows;
      // One span per morsel submission (bounded by morsel count, not row
      // count): covers the batch window wait plus this submission's share
      // of the shared flush.
      const std::int64_t span_id =
          trace != nullptr ? trace->StartSpan("predict_batcher.wait") : 0;
      auto scored = batcher->Score(request, &stats);
      if (trace != nullptr) {
        trace->EndSpan(
            span_id,
            "rows=" + std::to_string(input.dim(0)) + " share_nn_micros=" +
                std::to_string(static_cast<std::int64_t>(stats.wall_micros)) +
                (scored.ok() ? "" : " error=1"));
      }
      RAVEN_RETURN_IF_ERROR(scored.status());
      scored_batch = std::move(scored).value();
    } else {
      RAVEN_ASSIGN_OR_RETURN(preds,
                             session->RunSingle(input, arena.get(), &stats));
    }
    AccumulateStats(sink, preds->dim(0), &stats);
    std::vector<double> out(preds->data().begin(), preds->data().end());
    return out;
  });
}

/// Out-of-process scoring: one worker process per query execution (the
/// sp_execute_external_script lifecycle). The WorkerClient is shared by the
/// scorer's closures and serialized with a mutex.
Result<BatchScorer> MakeExternalScorer(WorkerCommand kind,
                                       std::string model_bytes,
                                       const RuntimeContext& ctx) {
  ExternalRuntimeOptions ext = ctx.options.external;
  if (ctx.options.mode == ExecutionMode::kContainer) {
    ext.boot_millis += ctx.options.container_extra_boot_millis;
  }
  auto client = std::make_shared<WorkerClient>();
  RAVEN_RETURN_IF_ERROR(client->Start(ext));
  auto mu = std::make_shared<std::mutex>();
  const StatsSink sink{ctx.stats};
  return BatchScorer([client, mu, kind, model_bytes = std::move(model_bytes),
                      sink](const Tensor& input)
                         -> Result<std::vector<double>> {
    std::lock_guard<std::mutex> lock(*mu);
    RAVEN_ASSIGN_OR_RETURN(Tensor preds,
                           client->Score(kind, model_bytes, input));
    AccumulateStats(sink, preds.dim(0), nullptr);
    std::vector<double> out(preds.data().begin(), preds.data().end());
    return out;
  });
}

Result<BatchScorer> ScorerFor(const IrNode& node, const RuntimeContext& ctx) {
  // In distributed mode the model nodes inside shipped fragments score in
  // the pool workers; any model node left in the in-process remainder (e.g.
  // a clustered predict over grouped data) scores locally, never through a
  // one-shot external worker.
  const bool local_scoring = ctx.options.mode == ExecutionMode::kInProcess ||
                             ctx.options.mode == ExecutionMode::kDistributed;
  switch (node.kind) {
    case IrOpKind::kModelPipeline: {
      if (local_scoring) {
        return MakeInterpretedScorer(node.pipeline, ctx);
      }
      return MakeExternalScorer(WorkerCommand::kScorePipeline,
                                node.pipeline->ToBytes(), ctx);
    }
    case IrOpKind::kClusteredPredict:
      // Clustering artifacts live in the optimizer process; always local.
      return MakeClusteredScorer(node.clustered, ctx);
    case IrOpKind::kNnGraph: {
      if (local_scoring) {
        return MakeNnScorer(node, ctx);
      }
      BinaryWriter writer;
      node.nn_graph->Serialize(&writer);
      return MakeExternalScorer(WorkerCommand::kScoreGraph, writer.Release(),
                                ctx);
    }
    case IrOpKind::kOpaquePipeline:
      // Unanalyzable pipelines never run in-process: ship them to the
      // external runtime (container mode adds its boot cost).
      return MakeExternalScorer(WorkerCommand::kScorePipeline,
                                node.opaque_bytes, ctx);
    default:
      return Status::Internal("ScorerFor on a non-model node");
  }
}

}  // namespace

const char* ExecutionModeToString(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kInProcess:
      return "in-process";
    case ExecutionMode::kDistributed:
      return "distributed";
    case ExecutionMode::kOutOfProcess:
      return "out-of-process";
    case ExecutionMode::kContainer:
      return "container";
  }
  return "?";
}

namespace {

/// Wraps `op` with stats instrumentation when a collector is attached. The
/// slot is keyed by IR node, so worker clones of one operator share it and
/// their counters sum.
OperatorPtr Instrument(OperatorPtr op, const IrNode& node,
                       const std::string& label, const RuntimeContext& ctx) {
  if (ctx.stats == nullptr) return op;
  relational::OperatorStatsSlot* slot = ctx.stats->SlotFor(&node, label);
  return std::make_unique<relational::InstrumentedOperator>(std::move(op),
                                                            slot);
}

/// Morsel scan over `table` if the parallel state registered this node as a
/// pipeline source; plain full scan otherwise. It emits `columns` (table
/// order), or every column when that is empty.
OperatorPtr MakeScan(const relational::Table* table, const IrNode& node,
                     const RuntimeContext& ctx,
                     std::vector<std::string> columns = {}) {
  std::unique_ptr<relational::ScanOperator> scan;
  if (ctx.parallel != nullptr) {
    auto it = ctx.parallel->scan_queues.find(&node);
    if (it != ctx.parallel->scan_queues.end()) {
      scan = std::make_unique<relational::ScanOperator>(
          table, it->second.first, it->second.second);
    }
  }
  if (scan == nullptr) scan = std::make_unique<relational::ScanOperator>(table);
  scan->SetColumns(std::move(columns));
  return scan;
}

/// The disk table `node` scans, or nullptr when it scans an in-memory one
/// (or is not a scan at all).
std::shared_ptr<const relational::BlockTable> DiskTableFor(
    const IrNode& node, const RuntimeContext& ctx) {
  if (node.kind != IrOpKind::kTableScan || ctx.catalog == nullptr) {
    return nullptr;
  }
  auto table = ctx.catalog->GetDiskTable(node.table_name);
  return table.ok() ? *table : nullptr;
}

/// Conjuncts of `pred` with the `col <op> const` shape — the only shape a
/// zone map can reason about. Everything else simply isn't pushed down.
std::vector<relational::SimplePredicate> ZoneConjuncts(
    const relational::Expr& pred) {
  std::vector<relational::SimplePredicate> out;
  for (const relational::Expr* conjunct : relational::ExtractConjuncts(pred)) {
    auto simple = relational::MatchSimplePredicate(*conjunct);
    if (simple.has_value()) out.push_back(*simple);
  }
  return out;
}

/// On-disk twin of MakeScan: block-aligned morsel scan when the parallel
/// state registered this node, full block scan otherwise; zone-map
/// predicates and the shared block counters attach when enabled.
OperatorPtr MakeDiskScan(std::shared_ptr<const relational::BlockTable> table,
                         const IrNode& node, const RuntimeContext& ctx,
                         std::vector<relational::SimplePredicate> preds,
                         std::vector<std::string> columns) {
  std::unique_ptr<relational::DiskScanOperator> scan;
  if (ctx.parallel != nullptr) {
    auto it = ctx.parallel->scan_queues.find(&node);
    if (it != ctx.parallel->scan_queues.end()) {
      scan = std::make_unique<relational::DiskScanOperator>(
          table, it->second.first, it->second.second);
    }
  }
  if (scan == nullptr) {
    scan = std::make_unique<relational::DiskScanOperator>(std::move(table));
  }
  if (ctx.options.zone_map_skipping && !preds.empty()) {
    scan->SetZonePredicates(std::move(preds));
  }
  scan->SetColumns(std::move(columns));
  if (ctx.stats != nullptr) {
    scan->SetBlockCounters(&ctx.stats->blocks_scanned,
                           &ctx.stats->blocks_skipped);
  }
  return scan;
}

/// What a table scan feeding a run of filter/project/PREDICT operators
/// must do. `chain` is that run, top-down (empty when the scan feeds any
/// other operator):
/// - The filters at the bottom of the run evaluate directly over scan
///   output, so their conjuncts are sound zone-map inputs. Filters higher
///   up may read computed or renamed columns that shadow scan columns;
///   those never push down.
/// - The lowest projection bounds the columns the scan must emit: the
///   bottom filters' columns plus the ones that projection reads, in table
///   order. A PREDICT below it, or no projection at all, passes every
///   column through, so then the scan emits all of them.
struct ChainScan {
  std::vector<relational::SimplePredicate> zone_preds;
  std::vector<std::string> columns;  // empty = every column
};

ChainScan PlanChainScan(const std::vector<const IrNode*>& chain,
                        const std::vector<std::string>& table_columns) {
  ChainScan out;
  std::set<std::string> read;
  std::size_t i = chain.size();
  for (; i > 0 && chain[i - 1]->kind == IrOpKind::kFilter; --i) {
    const relational::Expr& predicate = *chain[i - 1]->predicate;
    std::vector<relational::SimplePredicate> conjuncts =
        ZoneConjuncts(predicate);
    out.zone_preds.insert(out.zone_preds.end(), conjuncts.begin(),
                          conjuncts.end());
    predicate.CollectColumns(&read);
  }
  if (i == 0 || chain[i - 1]->kind != IrOpKind::kProject) return out;
  for (const auto& e : chain[i - 1]->proj_exprs) e->CollectColumns(&read);
  for (const auto& col : table_columns) {
    if (read.count(col) > 0) out.columns.push_back(col);
  }
  if (out.columns.size() == table_columns.size()) {
    out.columns.clear();
  } else if (out.columns.empty()) {
    // A chunk's row count is its columns' length: keep one column.
    out.columns.push_back(table_columns.front());
  }
  return out;
}

/// Builds the operator `chain` (top-down, see ChainScan; empty for a bare
/// scan) reads from. A table scan emits only the columns the chain needs
/// and, on disk, skips blocks by the chain's bottom filters; anything else
/// is built as usual. Only aggregates and sorts ever materialize, so a
/// table scan is always built here.
Result<OperatorPtr> BuildChainSource(const IrNode& below,
                                     const std::vector<const IrNode*>& chain,
                                     const RuntimeContext& ctx) {
  if (below.kind != IrOpKind::kTableScan) {
    return BuildPhysicalPlan(below, ctx);
  }
  if (auto disk = DiskTableFor(below, ctx); disk != nullptr) {
    ChainScan scan = PlanChainScan(chain, disk->ColumnNames());
    return Instrument(MakeDiskScan(std::move(disk), below, ctx,
                                   std::move(scan.zone_preds),
                                   std::move(scan.columns)),
                      below, "DiskScan(" + below.table_name + ")", ctx);
  }
  RAVEN_ASSIGN_OR_RETURN(const relational::Table* table,
                         ctx.catalog->GetTable(below.table_name));
  ChainScan scan = PlanChainScan(chain, table->ColumnNames());
  return Instrument(MakeScan(table, below, ctx, std::move(scan.columns)),
                    below, "Scan(" + below.table_name + ")", ctx);
}

/// Maximal run of fusable single-child operators headed at `node`, in plan
/// (top-down) order; empty when `node` is not fusable. Kinds alone decide:
/// only aggregates and sorts ever materialize, and neither is fusable, so
/// the runtime, EXPLAIN and the storage description walk the same runs.
std::vector<const IrNode*> CollectFusedChain(const IrNode& node) {
  std::vector<const IrNode*> chain;
  for (const IrNode* cur = &node; ir::IsFusablePipelineKind(cur->kind);
       cur = cur->children[0].get()) {
    chain.push_back(cur);
  }
  return chain;
}

/// Display label for a run: a lone node keeps its operator name ("Filter",
/// "Project", "Predict(los)"); a chain lists its components in execution
/// order (the chain is given top-down, so the last element runs first):
/// "Fused[Filter+Predict(los)+Project]".
std::string ChainLabel(const std::vector<const IrNode*>& chain) {
  std::string label;
  for (std::size_t i = chain.size(); i-- > 0;) {
    const IrNode& n = *chain[i];
    switch (n.kind) {
      case IrOpKind::kFilter:
        label += "Filter";
        break;
      case IrOpKind::kProject:
        label += "Project";
        break;
      default:
        label += "Predict(" + n.model_name + ")";
        break;
    }
    if (i > 0) label += "+";
  }
  return chain.size() > 1 ? "Fused[" + label + "]" : label;
}

/// The statement's shared program for `expr` (see StatementPrograms).
relational::SharedProgramPtr ProgramFor(const relational::Expr& expr,
                                        const RuntimeContext& ctx) {
  return ctx.programs->For(expr);
}

/// Lowers a run of one or more fusable nodes to one FusedOperator over the
/// subtree below it: stages in execution order, each filter marking rows in
/// the selection vector and each projection/PREDICT gathering through it,
/// so the whole run is a single pass per chunk.
Result<OperatorPtr> BuildFusedChain(const std::vector<const IrNode*>& chain,
                                    const RuntimeContext& ctx) {
  RAVEN_ASSIGN_OR_RETURN(
      OperatorPtr child,
      BuildChainSource(*chain.back()->children[0], chain, ctx));
  std::vector<relational::FusedStage> stages;
  stages.reserve(chain.size());
  for (std::size_t i = chain.size(); i-- > 0;) {
    const IrNode& n = *chain[i];
    relational::FusedStage stage;
    switch (n.kind) {
      case IrOpKind::kFilter:
        stage.kind = relational::FusedStage::Kind::kFilter;
        stage.predicate = ProgramFor(*n.predicate, ctx);
        break;
      case IrOpKind::kProject:
        stage.kind = relational::FusedStage::Kind::kProject;
        stage.exprs.reserve(n.proj_exprs.size());
        for (const auto& e : n.proj_exprs) {
          stage.exprs.push_back(ProgramFor(*e, ctx));
        }
        stage.names = n.proj_names;
        break;
      default: {
        stage.kind = relational::FusedStage::Kind::kPredict;
        stage.input_columns = n.model_input_columns;
        stage.output_name = n.output_column;
        RAVEN_ASSIGN_OR_RETURN(stage.scorer, ScorerFor(n, ctx));
        break;
      }
    }
    stages.push_back(std::move(stage));
  }
  const std::string label = ChainLabel(chain);
  if (chain.size() > 1 && ctx.stats != nullptr && ctx.worker_id == 0) {
    // Worker 0 only: the N worker clones of a parallel pipeline share one
    // plan shape, which is one fused chain, not N. A lone node is no chain.
    ctx.stats->fused_chains.fetch_add(1, std::memory_order_relaxed);
  }
  return Instrument(std::make_unique<relational::FusedOperator>(
                        std::move(child), std::move(stages), label),
                    *chain.front(), label, ctx);
}

relational::AggKind ToAggKind(ir::AggFunc func) {
  switch (func) {
    case ir::AggFunc::kCount:
      return relational::AggKind::kCount;
    case ir::AggFunc::kSum:
      return relational::AggKind::kSum;
    case ir::AggFunc::kAvg:
      return relational::AggKind::kAvg;
    case ir::AggFunc::kMin:
      return relational::AggKind::kMin;
    case ir::AggFunc::kMax:
      return relational::AggKind::kMax;
  }
  return relational::AggKind::kCount;
}

}  // namespace

relational::GroupBySpec ToGroupBySpec(const ir::IrNode& node) {
  relational::GroupBySpec spec;
  if (node.kind == IrOpKind::kGroupBy) spec.keys = node.group_keys;
  for (const auto& item : node.aggregates) {
    spec.aggs.push_back(relational::AggregateSpec{ToAggKind(item.func),
                                                  item.column,
                                                  item.output_name});
  }
  return spec;
}

std::vector<relational::SortSpec> ToSortSpecs(
    const std::vector<ir::SortKey>& keys) {
  std::vector<relational::SortSpec> specs;
  specs.reserve(keys.size());
  for (const auto& key : keys) {
    specs.push_back(relational::SortSpec{key.column, key.descending});
  }
  return specs;
}

Result<OperatorPtr> BuildPhysicalPlan(const IrNode& node,
                                      const RuntimeContext& ctx) {
  // Subtrees executed by an earlier pipeline (aggregate results) enter the
  // current pipeline as scans of their materialized table.
  if (ctx.parallel != nullptr) {
    auto it = ctx.parallel->materialized.find(&node);
    if (it != ctx.parallel->materialized.end()) {
      return Instrument(MakeScan(it->second, node, ctx), node,
                        "Materialized(" +
                            std::string(ir::IrOpKindToString(node.kind)) +
                            ")",
                        ctx);
    }
  }
  switch (node.kind) {
    case IrOpKind::kTableScan:
      return BuildChainSource(node, {}, ctx);
    // Every maximal run of filter/project/PREDICT nodes, one node included,
    // lowers to one FusedOperator doing a single pass per chunk. A filter
    // at the bottom of the run pushes its range conjuncts down to a disk
    // scan as zone-map inputs; it still evaluates every surviving block,
    // so pushdown is an I/O optimization, never a semantic change.
    case IrOpKind::kFilter:
    case IrOpKind::kProject:
    case IrOpKind::kModelPipeline:
    case IrOpKind::kClusteredPredict:
    case IrOpKind::kNnGraph:
    case IrOpKind::kOpaquePipeline:
      return BuildFusedChain(CollectFusedChain(node), ctx);
    case IrOpKind::kAggregate:
    case IrOpKind::kGroupBy: {
      // A scalar aggregate is a GROUP BY without keys.
      const char* label =
          node.kind == IrOpKind::kAggregate ? "Aggregate" : "GroupBy";
      RAVEN_ASSIGN_OR_RETURN(auto child,
                             BuildPhysicalPlan(*node.children[0], ctx));
      if (ctx.parallel != nullptr) {
        auto it = ctx.parallel->group_sinks.find(&node);
        if (it != ctx.parallel->group_sinks.end()) {
          // Partial sink: pre-aggregates into this worker's table and
          // emits nothing; the executor renders the merged table.
          return Instrument(std::make_unique<relational::GroupByOperator>(
                                std::move(child), it->second, ctx.worker_id),
                            node, label, ctx);
        }
        if (node.kind == IrOpKind::kGroupBy) {
          return Status::Internal(
              "parallel GroupBy reached without a sink or materialization");
        }
      }
      return Instrument(std::make_unique<relational::GroupByOperator>(
                            std::move(child), ToGroupBySpec(node)),
                        node, label, ctx);
    }
    case IrOpKind::kOrderBy: {
      if (ctx.parallel != nullptr) {
        // The parallel executor materializes every OrderBy subtree before
        // building worker trees; sorting a single worker's partial stream
        // would be wrong.
        return Status::Internal(
            "parallel OrderBy reached without materialization");
      }
      RAVEN_ASSIGN_OR_RETURN(auto child,
                             BuildPhysicalPlan(*node.children[0], ctx));
      return Instrument(std::make_unique<relational::SortOperator>(
                            std::move(child), ToSortSpecs(node.sort_keys)),
                        node, "Sort", ctx);
    }
    case IrOpKind::kJoin: {
      RAVEN_ASSIGN_OR_RETURN(auto left,
                             BuildPhysicalPlan(*node.children[0], ctx));
      if (ctx.parallel != nullptr) {
        auto it = ctx.parallel->join_builds.find(&node);
        if (it != ctx.parallel->join_builds.end()) {
          // Probe-only: the shared build pipeline already ran and finalized.
          return Instrument(std::make_unique<relational::HashJoinOperator>(
                                std::move(left), node.left_key, it->second),
                            node, "HashJoin", ctx);
        }
      }
      RAVEN_ASSIGN_OR_RETURN(auto right,
                             BuildPhysicalPlan(*node.children[1], ctx));
      return Instrument(std::make_unique<relational::HashJoinOperator>(
                            std::move(left), std::move(right), node.left_key,
                            node.right_key),
                        node, "HashJoin", ctx);
    }
    case IrOpKind::kUnionAll: {
      std::vector<OperatorPtr> children;
      for (const auto& child : node.children) {
        RAVEN_ASSIGN_OR_RETURN(auto op, BuildPhysicalPlan(*child, ctx));
        children.push_back(std::move(op));
      }
      return Instrument(std::make_unique<relational::UnionAllOperator>(
                            std::move(children)),
                        node, "UnionAll", ctx);
    }
    case IrOpKind::kLimit: {
      RAVEN_ASSIGN_OR_RETURN(auto child,
                             BuildPhysicalPlan(*node.children[0], ctx));
      return Instrument(std::make_unique<relational::LimitOperator>(
                            std::move(child), node.limit),
                        node, "Limit", ctx);
    }
  }
  return Status::Internal("unreachable IR kind in BuildPhysicalPlan");
}

relational::SharedProgramPtr StatementPrograms::For(
    const relational::Expr& expr) {
  std::lock_guard<std::mutex> lock(mu_);
  relational::SharedProgramPtr& program = programs_[&expr];
  if (program == nullptr) {
    program = std::make_shared<relational::SharedProgram>(&expr, compiles_);
  }
  return program;
}

void StatsCollector::AddPredictBatch(std::int64_t rows,
                                     const nnrt::RunStats* nn_stats) {
  predict_batches_.fetch_add(1, std::memory_order_relaxed);
  rows_out_.fetch_add(rows, std::memory_order_relaxed);
  if (nn_stats != nullptr) {
    AtomicAddDouble(&nn_wall_micros_, nn_stats->wall_micros);
    AtomicAddDouble(&nn_simulated_micros_, nn_stats->simulated_micros);
  }
}

relational::OperatorStatsSlot* StatsCollector::SlotFor(
    const void* node, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto key = std::make_pair(node, name);
  auto it = by_node_.find(key);
  if (it != by_node_.end()) return it->second;
  slots_.emplace_back();
  slots_.back().name = name;
  slots_.back().node = node;
  relational::OperatorStatsSlot* slot = &slots_.back().slot;
  by_node_[key] = slot;
  return slot;
}

void StatsCollector::AddOpenNanos(const void* node, std::int64_t nanos) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : slots_) {
    if (entry.node == node) {
      entry.slot.open_nanos.fetch_add(nanos, std::memory_order_relaxed);
    }
  }
}

void StatsCollector::Finalize(ExecutionStats* out) const {
  out->rows_out = rows_out_.load(std::memory_order_relaxed);
  out->predict_batches = predict_batches_.load(std::memory_order_relaxed);
  out->nn_wall_micros = nn_wall_micros_.load(std::memory_order_relaxed);
  out->nn_simulated_micros =
      nn_simulated_micros_.load(std::memory_order_relaxed);
  out->partitions_used = partitions_used.load(std::memory_order_relaxed);
  out->morsels = morsels.load(std::memory_order_relaxed);
  out->frames_sent = frames_sent.load(std::memory_order_relaxed);
  out->bytes_shipped = bytes_shipped.load(std::memory_order_relaxed);
  out->worker_restarts = worker_restarts.load(std::memory_order_relaxed);
  out->fused_chains = fused_chains.load(std::memory_order_relaxed);
  out->programs_compiled = programs_compiled.load(std::memory_order_relaxed);
  out->blocks_scanned = blocks_scanned.load(std::memory_order_relaxed);
  out->blocks_skipped = blocks_skipped.load(std::memory_order_relaxed);
  out->operators.clear();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : slots_) {
    OperatorStats op;
    op.op = entry.name;
    op.node = entry.node;
    op.rows = entry.slot.rows.load(std::memory_order_relaxed);
    op.chunks = entry.slot.chunks.load(std::memory_order_relaxed);
    op.wall_micros =
        static_cast<double>(
            entry.slot.wall_nanos.load(std::memory_order_relaxed)) /
        1000.0;
    op.open_micros =
        static_cast<double>(
            entry.slot.open_nanos.load(std::memory_order_relaxed)) /
        1000.0;
    out->operators.push_back(std::move(op));
  }
}

namespace {

void GenerateSqlNode(const IrNode& node, std::ostringstream* os) {
  switch (node.kind) {
    case IrOpKind::kTableScan:
      *os << node.table_name;
      return;
    case IrOpKind::kFilter:
      *os << "(SELECT * FROM ";
      GenerateSqlNode(*node.children[0], os);
      *os << " WHERE " << node.predicate->ToString() << ")";
      return;
    case IrOpKind::kProject: {
      *os << "(SELECT ";
      for (std::size_t i = 0; i < node.proj_names.size(); ++i) {
        if (i > 0) *os << ", ";
        const std::string expr = node.proj_exprs[i]->ToString();
        if (expr == node.proj_names[i]) {
          *os << expr;
        } else {
          *os << expr << " AS " << node.proj_names[i];
        }
      }
      *os << " FROM ";
      GenerateSqlNode(*node.children[0], os);
      *os << ")";
      return;
    }
    case IrOpKind::kJoin:
      *os << "(SELECT * FROM ";
      GenerateSqlNode(*node.children[0], os);
      *os << " JOIN ";
      GenerateSqlNode(*node.children[1], os);
      *os << " ON " << node.left_key << " = " << node.right_key << ")";
      return;
    case IrOpKind::kUnionAll: {
      *os << "(";
      for (std::size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) *os << " UNION ALL ";
        *os << "SELECT * FROM ";
        GenerateSqlNode(*node.children[i], os);
      }
      *os << ")";
      return;
    }
    case IrOpKind::kLimit:
      *os << "(SELECT * FROM ";
      GenerateSqlNode(*node.children[0], os);
      *os << " LIMIT " << node.limit << ")";
      return;
    case IrOpKind::kAggregate: {
      *os << "(SELECT ";
      for (std::size_t i = 0; i < node.aggregates.size(); ++i) {
        if (i > 0) *os << ", ";
        const auto& agg = node.aggregates[i];
        *os << ir::AggFuncToString(agg.func) << "("
            << (agg.column.empty() ? "*" : agg.column) << ") AS "
            << agg.output_name;
      }
      *os << " FROM ";
      GenerateSqlNode(*node.children[0], os);
      *os << ")";
      return;
    }
    case IrOpKind::kGroupBy: {
      *os << "(SELECT ";
      for (std::size_t i = 0; i < node.group_keys.size(); ++i) {
        if (i > 0) *os << ", ";
        *os << node.group_keys[i];
      }
      for (const auto& agg : node.aggregates) {
        *os << ", " << ir::AggFuncToString(agg.func) << "("
            << (agg.column.empty() ? "*" : agg.column) << ") AS "
            << agg.output_name;
      }
      *os << " FROM ";
      GenerateSqlNode(*node.children[0], os);
      *os << " GROUP BY ";
      for (std::size_t i = 0; i < node.group_keys.size(); ++i) {
        if (i > 0) *os << ", ";
        *os << node.group_keys[i];
      }
      *os << ")";
      return;
    }
    case IrOpKind::kOrderBy:
      *os << "(SELECT * FROM ";
      GenerateSqlNode(*node.children[0], os);
      *os << " ORDER BY ";
      for (std::size_t i = 0; i < node.sort_keys.size(); ++i) {
        if (i > 0) *os << ", ";
        *os << node.sort_keys[i].column
            << (node.sort_keys[i].descending ? " DESC" : " ASC");
      }
      *os << ")";
      return;
    case IrOpKind::kModelPipeline:
    case IrOpKind::kClusteredPredict:
    case IrOpKind::kNnGraph:
    case IrOpKind::kOpaquePipeline: {
      const char* runtime = node.kind == IrOpKind::kNnGraph
                                ? "NNRT"
                                : (node.kind == IrOpKind::kOpaquePipeline
                                       ? "EXTERNAL"
                                       : "CLASSICAL");
      *os << "(SELECT *, PREDICT(MODEL='" << node.model_name
          << "', RUNTIME='" << runtime << "') AS " << node.output_column
          << " FROM ";
      GenerateSqlNode(*node.children[0], os);
      *os << ")";
      return;
    }
  }
}

}  // namespace

std::string GenerateSql(const IrNode& node) {
  std::ostringstream os;
  os << "SELECT * FROM ";
  GenerateSqlNode(node, &os);
  return os.str();
}

namespace {

void DescribeFusedChainsNode(const IrNode& node, std::ostringstream* os) {
  const std::vector<const IrNode*> chain = CollectFusedChain(node);
  if (!chain.empty()) {
    if (chain.size() > 1) *os << ChainLabel(chain) << "\n";
    DescribeFusedChainsNode(*chain.back()->children[0], os);
    return;
  }
  for (const auto& child : node.children) {
    DescribeFusedChainsNode(*child, os);
  }
}

}  // namespace

std::string DescribeFusedChains(const IrNode& node) {
  std::ostringstream os;
  DescribeFusedChainsNode(node, &os);
  return os.str();
}

namespace {

void DescribeBatchablePredictsNode(const IrNode& node, std::ostringstream* os) {
  if (node.kind == ir::IrOpKind::kNnGraph) {
    *os << "Predict(" << node.model_name << ") -> " << node.output_column
        << " [NNRT graph]\n";
  }
  for (const auto& child : node.children) {
    DescribeBatchablePredictsNode(*child, os);
  }
}

}  // namespace

std::string DescribeBatchablePredicts(const IrNode& node) {
  std::ostringstream os;
  DescribeBatchablePredictsNode(node, &os);
  return os.str();
}

namespace {

const char* CompareOpSql(relational::CompareOp op) {
  switch (op) {
    case relational::CompareOp::kEq: return "=";
    case relational::CompareOp::kNe: return "<>";
    case relational::CompareOp::kLt: return "<";
    case relational::CompareOp::kLe: return "<=";
    case relational::CompareOp::kGt: return ">";
    case relational::CompareOp::kGe: return ">=";
  }
  return "?";
}

/// Mirrors the scans BuildPhysicalPlan builds: for each disk scan, the
/// columns it decodes and the conjuncts it checks against block zone maps,
/// both planned by PlanChainScan from the fusable run directly above it.
void DescribeStorageScansNode(const IrNode& node,
                              const relational::Catalog& catalog,
                              std::ostringstream* os) {
  const std::vector<const IrNode*> chain = CollectFusedChain(node);
  const IrNode* cur = chain.empty() ? &node : chain.back()->children[0].get();
  if (cur->kind == IrOpKind::kTableScan) {
    auto disk = catalog.GetDiskTable(cur->table_name);
    if (!disk.ok()) return;
    *os << "DiskScan(" << cur->table_name << "): " << (*disk)->Describe()
        << "\n";
    const std::vector<std::string> names = (*disk)->ColumnNames();
    const ChainScan scan = PlanChainScan(chain, names);
    const std::vector<std::string>& columns =
        scan.columns.empty() ? names : scan.columns;
    *os << "  columns: " << columns.size() << " of " << names.size() << " (";
    for (std::size_t c = 0; c < columns.size(); ++c) {
      *os << (c > 0 ? ", " : "") << columns[c];
    }
    *os << ")\n";
    const auto& preds = scan.zone_preds;
    if (!preds.empty()) {
      *os << "  zone-map conjuncts:";
      for (const auto& p : preds) {
        std::ostringstream constant;
        constant << p.constant;
        *os << " " << p.column << " " << CompareOpSql(p.op) << " "
            << constant.str() << ";";
      }
      *os << "\n";
    }
    return;
  }
  for (const auto& child : cur->children) {
    DescribeStorageScansNode(*child, catalog, os);
  }
}

}  // namespace

std::string DescribeStorageScans(const IrNode& node,
                                 const relational::Catalog& catalog) {
  std::ostringstream os;
  DescribeStorageScansNode(node, catalog, &os);
  return os.str();
}

}  // namespace raven::runtime
