#ifndef RAVEN_RUNTIME_CODEGEN_H_
#define RAVEN_RUNTIME_CODEGEN_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "ir/ir.h"
#include "obs/trace.h"
#include "nnrt/session.h"
#include "relational/catalog.h"
#include "relational/operators.h"
#include "runtime/external_runtime.h"
#include "runtime/inference_batcher.h"

namespace raven::runtime {

/// Where query execution (and model scoring) runs (paper §5, in decreasing
/// integration order).
enum class ExecutionMode {
  kInProcess,     ///< NNRT linked into the engine (PREDICT operator)
  kDistributed,   ///< plan fragments ship to a persistent raven_worker pool
  kOutOfProcess,  ///< one-shot raven_worker per query over pipes (Raven Ext)
  kContainer,     ///< per-query worker with container boot cost (fallback)
};

const char* ExecutionModeToString(ExecutionMode mode);

/// Execution configuration for one query.
struct ExecutionOptions {
  ExecutionMode mode = ExecutionMode::kInProcess;
  /// Number of morsel-parallel workers; >1 enables the engine's automatic
  /// parallelization (paper §5 observation iii) for every in-process plan
  /// shape — scans, joins, aggregates, unions, PREDICT. Plans containing a
  /// LIMIT, and the out-of-process/container modes, run sequentially.
  std::int64_t parallelism = 1;
  /// Rows per scan morsel (0 = kChunkSize). Smaller morsels balance skew
  /// better, larger ones amortize scheduling; tests shrink this to force
  /// many morsels on small tables.
  std::int64_t morsel_rows = 0;
  /// NNRT device for in-process sessions (CPU or simulated accelerator).
  nnrt::DeviceSpec device = nnrt::DeviceSpec::Cpu();
  /// NNRT kernel implementation set for in-process sessions (reference,
  /// simd, fp16 — see nnrt/backend.h). Surfaced as `SET nn_backend`; part
  /// of the session-cache key so sessions never mix backends. simd by
  /// default: bit-identical to reference and never slower; reference is
  /// the scalar oracle for debugging.
  nnrt::BackendKind nn_backend = nnrt::BackendKind::kSimd;
  /// Out-of-process worker configuration (shared by the one-shot Raven Ext
  /// modes and the kDistributed worker pool: binary path, boot cost).
  ExternalRuntimeOptions external;
  /// Containerized execution adds container start-up on top of the worker
  /// boot cost.
  std::int64_t container_extra_boot_millis = 600;
  /// kDistributed: size of the persistent worker pool leaf-scan partitions
  /// spread over. The pool spawns lazily on the first distributed query and
  /// stays warm across queries.
  std::int64_t distributed_workers = 2;
  /// kDistributed: per-frame read timeout guarding against wedged workers
  /// (<= 0 disables). A timed-out partition retries on a fresh worker, then
  /// falls back to in-process execution.
  int distributed_frame_timeout_millis = 30000;
  /// Cross-query PREDICT micro-batching window. 0 (the default) disables
  /// coalescing entirely: NN scorers call their session directly, the exact
  /// per-morsel path. Positive values route in-process kNnGraph scoring
  /// through `predict_batcher`, which may merge rows from concurrent
  /// queries into shared NNRT batches (byte-identical per row — see
  /// runtime/inference_batcher.h). The query server surfaces this as the
  /// `SET batch_window_micros` session knob.
  std::int64_t predict_batch_window_micros = 0;
  /// Pending rows that force an early flush of a shared batch
  /// (`SET max_batch_rows`). Submissions at or over this size score solo —
  /// they are already amortized.
  std::int64_t predict_max_batch_rows = 256;
  /// The shared scheduler scorers submit to when the window is positive.
  /// Set by the query server (one batcher across all sessions); direct API
  /// runs leave it null and never coalesce.
  std::shared_ptr<InferenceBatcher> predict_batcher;
  /// On-disk (.rvc) scans: consult per-block zone maps against pushed-down
  /// filter conjuncts and skip blocks that cannot match (`SET
  /// zone_map_skipping`). Purely an I/O optimization — the filter above the
  /// scan still evaluates — so disabling it changes block counters, never
  /// results.
  bool zone_map_skipping = true;
  /// Optional per-query trace arena (obs/trace.h). Non-null enables span
  /// recording at phase/exchange/operator boundaries — never per row, so
  /// the data hot path takes no locks. Observation only: results are
  /// byte-identical with tracing on or off.
  obs::Trace* trace = nullptr;
};

/// Per-operator execution counters, summed over all workers that ran a
/// clone of the operator.
struct OperatorStats {
  std::string op;           ///< e.g. "Scan(patients)", "HashJoin", "Predict"
  std::int64_t rows = 0;    ///< rows emitted
  std::int64_t chunks = 0;  ///< chunks emitted
  double wall_micros = 0.0; ///< wall time inside Next (summed across workers)
  double open_micros = 0.0; ///< wall time inside Open (summed across workers)
  /// IR node the slot was registered under — lets EXPLAIN ANALYZE match
  /// actual counters back onto the optimized plan tree by node identity
  /// (names alone collide: one node can surface twice, e.g. an aggregate
  /// sink plus the rescan of its materialized result).
  const void* node = nullptr;
};

/// Accumulated execution statistics. Filled from a StatsCollector after the
/// run completes; plain data, no synchronization required by readers.
struct ExecutionStats {
  std::int64_t rows_out = 0;
  std::int64_t predict_batches = 0;
  double nn_wall_micros = 0.0;
  /// Device-model time for accelerator sessions (== wall time on CPU).
  double nn_simulated_micros = 0.0;
  /// Morsel-parallel workers the plan actually executed with (1 when the
  /// plan ran sequentially); pool workers in a distributed run.
  std::int64_t partitions_used = 1;
  /// Scan morsels dispensed across all pipelines (0 in sequential runs).
  std::int64_t morsels = 0;
  /// Distributed execution: kExecuteFragment request frames sent to pool
  /// workers (retries included).
  std::int64_t frames_sent = 0;
  /// Distributed execution: total request payload bytes shipped to workers
  /// plus response payload bytes received back.
  std::int64_t bytes_shipped = 0;
  /// Distributed execution: pool workers replaced after a failed exchange.
  std::int64_t worker_restarts = 0;
  /// Query server: the optimized plan came from the shared plan cache
  /// (parse + optimize were skipped). Always false for direct API runs.
  bool plan_cache_hit = false;
  /// Query server: wall time this query spent queued in the admission
  /// controller before an execution slot freed up (0 when admitted
  /// immediately or run outside the server).
  double queue_wait_micros = 0.0;
  /// Runs of two or more filter/project/PREDICT nodes the code generator
  /// collapsed into one operator (counted once per chain, not per worker
  /// clone; a lone node also runs as a FusedOperator but is no chain).
  std::int64_t fused_chains = 0;
  /// Expression programs (KernelProgram) compiled in this process: one per
  /// filter predicate and projection item the statement opened, at any
  /// dop — worker trees share them. Fragments shipped to distributed
  /// workers compile there and are not counted.
  std::int64_t programs_compiled = 0;
  /// On-disk scans: blocks decoded, and blocks skipped because their zone
  /// map proved no row could match the pushed-down predicates. Each block
  /// counts once per query regardless of worker count.
  std::int64_t blocks_scanned = 0;
  std::int64_t blocks_skipped = 0;
  /// Per-operator counters in plan-build order.
  std::vector<OperatorStats> operators;
};

/// Internal, thread-safe accumulation target shared by all workers of one
/// execution. Scorer closures and instrumented operators update it through
/// atomics — no external stats mutex — and the executor folds it into the
/// caller's ExecutionStats once at the end.
class StatsCollector {
 public:
  void AddPredictBatch(std::int64_t rows, const nnrt::RunStats* nn_stats);

  /// Returns the (stable) stats slot for (`node`, `name`), creating it on
  /// first use. Called at plan-build time, possibly from several workers.
  /// Keyed by node AND label: one IR node can surface as two physical
  /// operators (an aggregate sink and the later scan of its materialized
  /// result), which must not share counters.
  relational::OperatorStatsSlot* SlotFor(const void* node,
                                         const std::string& name);

  /// Adds `nanos` of Open time to every slot registered for `node` (work
  /// done on the operator's behalf before its pipeline's workers opened it,
  /// like a shared join build).
  void AddOpenNanos(const void* node, std::int64_t nanos);

  /// Renders the atomics into `out` (operators in slot-creation order).
  void Finalize(ExecutionStats* out) const;

  std::atomic<std::int64_t> partitions_used{1};
  std::atomic<std::int64_t> morsels{0};
  std::atomic<std::int64_t> frames_sent{0};
  std::atomic<std::int64_t> bytes_shipped{0};
  std::atomic<std::int64_t> worker_restarts{0};
  /// Bumped by BuildPhysicalPlan once per fused chain (worker 0 only, so N
  /// worker clones of the same plan don't count a chain N times).
  std::atomic<std::int64_t> fused_chains{0};
  /// Bumped by SharedProgram::Get once per compile (see StatementPrograms).
  std::atomic<std::int64_t> programs_compiled{0};
  /// Bumped by DiskScanOperator as it decodes/skips blocks. The morsel
  /// queue hands each block to exactly one worker, so sharing the atomics
  /// across worker clones still counts each block once.
  std::atomic<std::int64_t> blocks_scanned{0};
  std::atomic<std::int64_t> blocks_skipped{0};

 private:
  std::atomic<std::int64_t> rows_out_{0};
  std::atomic<std::int64_t> predict_batches_{0};
  std::atomic<double> nn_wall_micros_{0.0};
  std::atomic<double> nn_simulated_micros_{0.0};

  struct SlotEntry {
    std::string name;
    const void* node;
    relational::OperatorStatsSlot slot;
  };

  mutable std::mutex mu_;  // guards the slot registry, not the counters
  std::deque<SlotEntry> slots_;
  std::map<std::pair<const void*, std::string>,
           relational::OperatorStatsSlot*>
      by_node_;
};

/// Shared state of one morsel-parallel execution, built by the PlanExecutor
/// and read by BuildPhysicalPlan when instantiating each worker's operator
/// tree. Maps are keyed by IR node identity.
struct ParallelExecState {
  std::int64_t num_workers = 1;
  std::int64_t morsel_rows = relational::kChunkSize;
  /// Scan sources of the pipeline currently being built: each entry hands
  /// out morsels to every worker; second = source ordinal for order keys.
  std::unordered_map<const ir::IrNode*,
                     std::pair<std::shared_ptr<MorselQueue>, std::int64_t>>
      scan_queues;
  /// Joins whose build side already ran as an earlier pipeline; the worker
  /// trees instantiate probe-only join operators over these.
  std::unordered_map<const ir::IrNode*,
                     std::shared_ptr<relational::JoinBuildState>>
      join_builds;
  /// Aggregations, scalar or grouped, acting as the sink of the pipeline
  /// currently being built (per-worker pre-aggregation, merged in worker
  /// order).
  std::unordered_map<const ir::IrNode*,
                     std::shared_ptr<relational::SharedGroupByState>>
      group_sinks;
  /// Subtrees already executed and materialized (aggregate results); the
  /// worker trees scan these instead of recursing.
  std::unordered_map<const ir::IrNode*, const relational::Table*> materialized;
};

/// The compiled expression programs of one statement: one SharedProgram
/// per IR expression, keyed by the expression's identity, so every worker
/// tree built for the statement — in every pipeline, at any dop — runs the
/// same program, compiled once by the first Open that needs it. Compiling
/// at Open rather than ahead of the workers keeps the compile next to the
/// child schema it resolves against (a join's output is only known once
/// its build finished) and keeps Open-time diagnostics where they were.
/// Lives for one PlanExecutor::Execute call; thread-safe. Keys are
/// expression addresses, so no expression it handed out may be freed while
/// the statement still builds trees (a new one could take its address).
class StatementPrograms {
 public:
  /// `compiles` counts the programs compiled.
  explicit StatementPrograms(std::atomic<std::int64_t>* compiles)
      : compiles_(compiles) {}

  relational::SharedProgramPtr For(const relational::Expr& expr);

 private:
  std::atomic<std::int64_t>* compiles_;
  std::mutex mu_;
  std::unordered_map<const relational::Expr*, relational::SharedProgramPtr>
      programs_;
};

/// Shared state for building physical plans.
struct RuntimeContext {
  const relational::Catalog* catalog = nullptr;
  nnrt::SessionCache* session_cache = nullptr;
  ExecutionOptions options;
  /// Optional stats sink; shared across workers, internally synchronized.
  StatsCollector* stats = nullptr;
  /// The statement's shared expression programs; every build path sets it.
  StatementPrograms* programs = nullptr;
  /// Non-null while building the worker trees of a parallel pipeline.
  const ParallelExecState* parallel = nullptr;
  /// Which worker's tree is being built (feeds JoinBuildState::Append).
  std::int64_t worker_id = 0;
};

/// Lowers a kAggregate or kGroupBy node's payload to the relational
/// GroupBySpec (a scalar aggregate has no keys).
relational::GroupBySpec ToGroupBySpec(const ir::IrNode& node);

/// Lowers kOrderBy sort keys to the relational sort specs.
std::vector<relational::SortSpec> ToSortSpecs(
    const std::vector<ir::SortKey>& keys);

/// Raven's Runtime Code Generator: lowers an optimized IR plan to a
/// physical operator tree over the relational engine, binding each model
/// node to a scorer for the configured execution mode. With ctx.parallel
/// set it emits the parallel-aware operator variants (morsel scans,
/// probe-only joins, aggregate partial sinks) for worker ctx.worker_id.
Result<relational::OperatorPtr> BuildPhysicalPlan(const ir::IrNode& node,
                                                  const RuntimeContext& ctx);

/// Renders the optimized IR back to SQL text (the paper's code generator
/// emits a rewritten SQL query; this is that artifact, used by EXPLAIN).
std::string GenerateSql(const ir::IrNode& node);

/// Describes the fused filter/project/PREDICT chains BuildPhysicalPlan will
/// collapse for this plan, one chain per line in execution order (e.g.
/// "Fused[Filter+Predict(los)+Project]"). A lone node is no chain: empty
/// string when the plan has no run of two or more. Used by EXPLAIN so the
/// printed plan matches what the runtime actually executes.
std::string DescribeFusedChains(const ir::IrNode& node);

/// Describes the PREDICT nodes whose scorers route through the cross-query
/// inference batcher when one is installed (kNnGraph nodes — their NNRT
/// kernels compute each output row from its input row alone, which is what
/// makes coalescing byte-identical), one node per line (e.g.
/// "Predict(los) -> score [NNRT graph]"). Empty when the plan has none.
std::string DescribeBatchablePredicts(const ir::IrNode& node);

/// Describes every on-disk (.rvc) scan in the plan, one per line: the
/// block layout plus the filter conjuncts the scan will test against
/// per-block zone maps (e.g. "DiskScan(patients): ... zone-map conjuncts:
/// age >= 30"). Empty when the plan scans no disk tables. Used by the
/// EXPLAIN storage section.
std::string DescribeStorageScans(const ir::IrNode& node,
                                 const relational::Catalog& catalog);

}  // namespace raven::runtime

#endif  // RAVEN_RUNTIME_CODEGEN_H_
