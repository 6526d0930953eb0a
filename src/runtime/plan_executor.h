#ifndef RAVEN_RUNTIME_PLAN_EXECUTOR_H_
#define RAVEN_RUNTIME_PLAN_EXECUTOR_H_

#include <memory>
#include <mutex>

#include "common/status.h"
#include "ir/ir.h"
#include "nnrt/session.h"
#include "relational/catalog.h"
#include "relational/table.h"
#include "runtime/codegen.h"

namespace raven::runtime {

class WorkerPool;

/// Executes optimized IR plans against the relational engine.
///
/// With options.parallelism > 1 every in-process plan shape executes
/// morsel-driven (paper §5: "SQL Server automatically parallelizes both the
/// scan and PREDICT operators" — here extended to joins, aggregates,
/// grouped aggregates, sorts and unions): the plan is decomposed into
/// pipelines at its breakers (hash join builds, aggregates, GROUP BY,
/// ORDER BY), each pipeline runs as min(dop, morsels) symmetric worker
/// operator trees pulling kChunkSize-row morsels from shared atomic
/// cursors, where `morsels` is the exact count the pipeline's scan queues
/// hand out (a one-morsel pipeline builds and drains its single tree on the
/// calling thread), and the final merge restores sequential row order from
/// morsel provenance. Join builds drain into one shared flat hash table
/// chained once after the drain; aggregates, scalar or grouped,
/// pre-aggregate into one flat table per worker and merge them in worker
/// order; ORDER BY gathers its parallel child pipeline
/// and stable-sorts once; PREDICT workers share cached NNRT sessions. Plans
/// containing LIMIT (an inherently ordered early-out) and the
/// out-of-process/container modes run sequentially, as does anything with
/// an opaque-pipeline UDF (one external worker per query).
///
/// ExecutionMode::kDistributed ships the plan's distributable fragments
/// (row-wise operator chains over a single scan) to a persistent pool of
/// raven_worker processes: each fragment's leaf scan partitions into one
/// contiguous row range per pool worker, workers execute their partition
/// via this same executor and stream chunks back, and the engine merges
/// partition outputs in range order — byte-identical to a sequential run.
/// Everything above the fragments (joins, aggregates, sorts, limits)
/// executes in-process over the materialized fragment tables. A partition
/// whose worker dies (or wedges past the frame timeout) retries once on a
/// freshly spawned worker, then falls back to in-process execution, so a
/// distributed query never fails — or hangs — because of a worker. The
/// pool spawns lazily on the first distributed query and stays warm across
/// queries; if it cannot start at all the whole query falls back
/// in-process.
class PlanExecutor {
 public:
  PlanExecutor(const relational::Catalog* catalog,
               nnrt::SessionCache* session_cache);
  ~PlanExecutor();

  /// Executes an optimized plan. Safe to call concurrently from many
  /// threads on the same executor (the query server does exactly that):
  /// all execution state is per-call, the shared NNRT session cache is
  /// internally synchronized, and the distributed worker pool is handed
  /// out by shared ownership so a concurrent respawn cannot pull it out
  /// from under an in-flight query. The plan must not be mutated while
  /// executions reference it — cached plans are shared as const.
  Result<relational::Table> Execute(const ir::IrPlan& plan,
                                    const ExecutionOptions& options,
                                    ExecutionStats* stats = nullptr);

  /// The lazily spawned distributed worker pool; nullptr until the first
  /// distributed query (or after a failed pool start). Exposed for the
  /// fault-injection tests, which SIGKILL workers through it, and for the
  /// server's SHOW STATS (restart counts).
  std::shared_ptr<WorkerPool> worker_pool();

 private:
  /// Returns the warm pool matching `options`, (re)spawning it when the
  /// spawn configuration changed; nullptr if the pool cannot start. Shared
  /// ownership: a query that raced a respawn keeps the old pool alive (and
  /// its workers running) until its last exchange finishes.
  std::shared_ptr<WorkerPool> EnsurePool(const ExecutionOptions& options);

  const relational::Catalog* catalog_;
  nnrt::SessionCache* session_cache_;
  std::mutex pool_mu_;
  std::shared_ptr<WorkerPool> pool_;
};

}  // namespace raven::runtime

#endif  // RAVEN_RUNTIME_PLAN_EXECUTOR_H_
