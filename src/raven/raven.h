#ifndef RAVEN_RAVEN_RAVEN_H_
#define RAVEN_RAVEN_RAVEN_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "frontend/analyzer.h"
#include "ml/pipeline.h"
#include "nnrt/session.h"
#include "optimizer/cross_optimizer.h"
#include "optimizer/specialize.h"
#include "relational/catalog.h"
#include "relational/table.h"
#include "runtime/codegen.h"
#include "runtime/plan_executor.h"

namespace raven {

/// Result of one inference query: the output table plus the artifacts of
/// every stage (analysis, optimization, execution) for inspection. Query
/// renders nothing it does not hand back: the optimized plan is kept as
/// is, and its text forms are rendered only on request.
struct QueryResult {
  relational::Table table;
  frontend::AnalysisStats analysis;
  optimizer::OptimizationReport optimization;
  runtime::ExecutionStats execution;
  /// The optimized plan that was executed (plan.ToString() renders it).
  ir::IrPlan plan;
  double total_millis = 0.0;

  /// The rewritten SQL the Runtime Code Generator emits for `plan`
  /// (runtime::GenerateSql), rendered on each call.
  std::string GeneratedSql() const;
};

/// Top-level configuration.
struct RavenOptions {
  optimizer::OptimizerOptions optimizer;
  runtime::ExecutionOptions execution;
  std::size_t session_cache_capacity = 32;
  /// When non-empty, compiled (optimized) NNRT graphs persist to this
  /// directory keyed by graph fingerprint, so later cold starts — and
  /// raven_worker children, which inherit the directory via worker_args —
  /// skip graph optimization entirely (`--artifact-dir` on raven_serve).
  std::string artifact_dir;
};

/// The Raven system facade: an in-memory RDBMS with models stored in its
/// catalog, a static analyzer for inference queries, the cross optimizer,
/// and the integrated NNRT runtime (paper Fig 1 end-to-end).
///
/// Typical use:
///   RavenContext ctx;
///   ctx.RegisterTable("patients", table);
///   ctx.InsertModel("duration_of_stay", script, pipeline);
///   auto result = ctx.Query(
///       "SELECT id, p FROM PREDICT(MODEL='duration_of_stay', "
///       "DATA=patients) WITH(p float) WHERE p > 7");
class RavenContext {
 public:
  explicit RavenContext(RavenOptions options = RavenOptions());

  // -- Data & model registration -------------------------------------------
  Status RegisterTable(const std::string& name, relational::Table table);
  /// Registers an on-disk columnar table (e.g. a memory-mapped `.rvc` file
  /// opened with storage::DiskTable::Open). Shares the name space with
  /// in-memory tables; scans read it block-by-block with zone-map skipping.
  Status RegisterDiskTable(const std::string& name,
                           std::shared_ptr<const relational::BlockTable> table);
  /// INSERT INTO models(name, script, pipeline): stores the script and the
  /// serialized trained pipeline in the catalog.
  Status InsertModel(const std::string& name, const std::string& script,
                     const ml::ModelPipeline& pipeline);
  /// Transactional model replacement (bumps version; cached inference
  /// sessions for the old version age out of the LRU cache).
  Status UpdateModel(const std::string& name, const std::string& script,
                     const ml::ModelPipeline& pipeline);

  /// Builds and registers a model-clustering artifact from a sample table
  /// (paper §4.1: clustering runs offline on historical data).
  Status BuildClusteredModel(const std::string& model_name,
                             const std::string& sample_table,
                             const optimizer::ClusteringOptions& options);

  // -- Query execution -------------------------------------------------------
  /// Full path: static analysis -> cross optimization -> code generation ->
  /// execution.
  Result<QueryResult> Query(const std::string& sql);

  /// Analyze + optimize only; renders the IR before/after, the rules fired,
  /// the plan's estimated costs at execution_options()' dop and mode, and
  /// the generated SQL.
  Result<std::string> Explain(const std::string& sql);
  /// The same, costed at `exec`'s dop and mode (the server path: EXPLAIN
  /// costs at the server's default execution options).
  Result<std::string> Explain(const std::string& sql,
                              const runtime::ExecutionOptions& exec);

  /// EXPLAIN ANALYZE: executes the statement with a stats collector
  /// attached and renders the optimized plan tree annotated with actual
  /// per-operator counters (rows, chunks, open/work wall time, fused-chain
  /// membership) plus execution totals. `table` is the real result of that
  /// execution — instrumentation is observation-only, so it is
  /// byte-identical to what Query() returns for the same statement.
  struct ExplainAnalyzeResult {
    std::string text;
    relational::Table table;
    runtime::ExecutionStats stats;
  };
  Result<ExplainAnalyzeResult> ExplainAnalyze(const std::string& sql);

  /// EXPLAIN ANALYZE over an already-optimized plan with explicit execution
  /// options (the server path: cached plans, per-session knobs). The
  /// sql-taking overload above analyzes/optimizes under the context's own
  /// options, then delegates here.
  Result<ExplainAnalyzeResult> ExplainAnalyzePlan(
      const ir::IrPlan& plan, const runtime::ExecutionOptions& exec);

  /// Analyze + optimize, returning the plan (benchmark harness hook:
  /// optimize once, execute many times).
  Result<ir::IrPlan> Prepare(const std::string& sql,
                             optimizer::OptimizationReport* report = nullptr);
  /// Executes a prepared plan.
  Result<relational::Table> ExecutePlan(const ir::IrPlan& plan,
                                        runtime::ExecutionStats* stats = nullptr);

  // -- Component access -------------------------------------------------------
  // The server layer (src/server) builds its per-session query pipeline out
  // of these components directly instead of going through Query(): the
  // catalog, session cache, and executor are safe to share across
  // concurrent sessions, the analyzer is stateless, and the optimizer is
  // only read once set up (per-query costing targets travel in a per-call
  // options copy, never in the shared options). The option setters below
  // are not synchronized, so set up first, then serve; route concurrent
  // traffic through a server::QueryServer.
  relational::Catalog& catalog() { return catalog_; }
  const relational::Catalog& catalog() const { return catalog_; }
  frontend::StaticAnalyzer& analyzer() { return analyzer_; }
  optimizer::CrossOptimizer& cross_optimizer() { return optimizer_; }
  nnrt::SessionCache& session_cache() { return session_cache_; }
  runtime::PlanExecutor& executor() { return executor_; }
  runtime::ExecutionOptions& execution_options() { return options_.execution; }
  optimizer::OptimizerOptions& optimizer_options() {
    return optimizer_.mutable_options();
  }

 private:
  /// EXPLAIN's costing targets for `exec`, in a copy of the optimizer's
  /// options: the costing parallelism follows exec.parallelism unless the
  /// caller pinned an explicit optimizer.target_parallelism at
  /// construction, and the distributed pool size follows the mode.
  optimizer::OptimizerOptions CostingOptions(
      const runtime::ExecutionOptions& exec) const;

  RavenOptions options_;
  relational::Catalog catalog_;
  nnrt::SessionCache session_cache_;
  frontend::StaticAnalyzer analyzer_;
  optimizer::CrossOptimizer optimizer_;
  runtime::PlanExecutor executor_;
  bool optimizer_parallelism_auto_ = true;
};

}  // namespace raven

#endif  // RAVEN_RAVEN_RAVEN_H_
