#include "runtime/plan_executor.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "relational/block_table.h"
#include "relational/operators.h"
#include "runtime/worker_pool.h"

namespace raven::runtime {
namespace {

using ir::IrNode;
using ir::IrOpKind;
using relational::OperatorPtr;
using relational::OrderedChunk;
using relational::Table;

std::int64_t ElapsedNanos(const Timer& timer) {
  return static_cast<std::int64_t>(timer.ElapsedSeconds() * 1e9);
}

bool PlanContains(const IrNode* root, IrOpKind kind) {
  bool found = false;
  ir::VisitIr(root, [&](const IrNode* node) {
    if (node->kind == kind) found = true;
  });
  return found;
}

/// Orchestrates one morsel-parallel execution: owns the shared state the
/// worker trees read, the materialized intermediates, and the pipeline
/// schedule (aggregates bottom-up, join builds before their probes, root
/// pipeline last).
class MorselExecutor {
 public:
  MorselExecutor(RuntimeContext base_ctx, std::int64_t workers)
      : base_ctx_(std::move(base_ctx)) {
    state_.num_workers = std::max<std::int64_t>(1, workers);
    state_.morsel_rows = base_ctx_.options.morsel_rows > 0
                             ? base_ctx_.options.morsel_rows
                             : relational::kChunkSize;
    base_ctx_.parallel = &state_;
  }

  Result<Table> Execute(const IrNode& root) {
    // Pipeline breakers (scalar aggregates, grouped aggregates, sorts) run
    // each (deepest first) as their own parallel pipeline; the result is
    // spliced in as a materialized source for everything above it.
    std::vector<const IrNode*> breakers;
    CollectBreakersPostOrder(&root, &breakers);
    for (const IrNode* breaker : breakers) {
      switch (breaker->kind) {
        case IrOpKind::kAggregate:
        case IrOpKind::kGroupBy:
          RAVEN_RETURN_IF_ERROR(MaterializeGroupBy(breaker));
          break;
        case IrOpKind::kOrderBy:
          RAVEN_RETURN_IF_ERROR(MaterializeOrderBy(breaker));
          break;
        default:
          return Status::Internal("unexpected breaker kind");
      }
    }
    auto it = state_.materialized.find(&root);
    if (it != state_.materialized.end()) {  // root = breaker
      // Materialized intermediates keep their schema even at zero rows (so
      // parent operators can resolve ordinals at Open time); as a query
      // result, zero rows renders column-less, exactly like a sequential
      // run whose root operator emitted no chunks.
      if (it->second->num_rows() == 0) return Table();
      return *it->second;
    }
    return RunPipeline(root, /*has_sink=*/false);
  }

  std::int64_t morsels_dispensed() const { return morsels_dispensed_; }
  /// The most worker trees any one pipeline of this execution started.
  std::int64_t max_workers_started() const { return max_workers_started_; }

 private:
  static void CollectBreakersPostOrder(const IrNode* node,
                                       std::vector<const IrNode*>* out) {
    for (const auto& child : node->children) {
      CollectBreakersPostOrder(child.get(), out);
    }
    if (node->kind == IrOpKind::kAggregate ||
        node->kind == IrOpKind::kGroupBy ||
        node->kind == IrOpKind::kOrderBy) {
      out->push_back(node);
    }
  }

  Status Materialize(const IrNode* node, Table result) {
    owned_.push_back(std::move(result));
    state_.materialized[node] = &owned_.back();
    return Status::OK();
  }

  /// Morsel-parallel hash aggregation, grouped or scalar: every worker
  /// pre-aggregates its morsels into its own flat group table; the tables
  /// then merge in ascending worker order and the result (ascending key
  /// order; one row for a scalar aggregate) becomes a materialized source.
  Status MaterializeGroupBy(const IrNode* group) {
    auto sink = std::make_shared<relational::SharedGroupByState>(
        ToGroupBySpec(*group), state_.num_workers);
    state_.group_sinks[group] = sink;
    auto drained = RunPipeline(*group, /*has_sink=*/true);
    state_.group_sinks.erase(group);
    RAVEN_RETURN_IF_ERROR(drained.status());
    RAVEN_ASSIGN_OR_RETURN(Table result, sink->FinalTable());
    return Materialize(group, std::move(result));
  }

  /// ORDER BY as a gather-and-sort breaker: the child pipeline runs
  /// morsel-parallel, the provenance merge restores sequential row order,
  /// and one stable sort then yields output identical to a sequential run.
  Status MaterializeOrderBy(const IrNode* order) {
    Table gathered;
    auto mat = state_.materialized.find(order->children[0].get());
    if (mat != state_.materialized.end()) {
      // Child is itself a materialized breaker (e.g. ORDER BY directly over
      // GROUP BY): steal its table instead of spinning up a copy pipeline.
      // The plan is a tree, so once the OrderBy result supersedes it no
      // other pipeline can scan the child's entry — the const_cast moves
      // out of a table this executor owns (it lives in owned_).
      gathered = std::move(*const_cast<Table*>(mat->second));
      state_.materialized.erase(mat);
    } else {
      RAVEN_ASSIGN_OR_RETURN(gathered,
                             RunPipeline(*order->children[0],
                                         /*has_sink=*/false));
    }
    RAVEN_ASSIGN_OR_RETURN(
        Table sorted,
        relational::SortTable(std::move(gathered),
                              ToSortSpecs(order->sort_keys)));
    return Materialize(order, std::move(sorted));
  }

  /// Runs the build side of every join in the pipeline rooted at `node`
  /// (bottom-up) and registers the finalized shared hash tables, so the
  /// pipeline's worker trees probe instead of re-building.
  Status PrepareJoinBuilds(const IrNode* node) {
    if (state_.materialized.count(node) > 0) return Status::OK();
    if (node->kind == IrOpKind::kJoin) {
      RAVEN_RETURN_IF_ERROR(PrepareJoinBuilds(node->children[0].get()));
      // Nested joins inside the build subtree run as part of its pipeline.
      RAVEN_RETURN_IF_ERROR(PrepareJoinBuilds(node->children[1].get()));
      auto build = std::make_shared<relational::JoinBuildState>(
          node->right_key, state_.num_workers);
      std::atomic<std::int64_t> build_nanos{0};
      RAVEN_RETURN_IF_ERROR(
          RunBuildPipeline(*node->children[1], build.get(), &build_nanos));
      ChargeJoinBuilds(node->children[1].get());
      const Timer finalize;
      RAVEN_RETURN_IF_ERROR(build->FinalizeBuild());
      join_build_nanos_[node] = build_nanos + ElapsedNanos(finalize);
      state_.join_builds[node] = std::move(build);
      return Status::OK();
    }
    for (const auto& child : node->children) {
      RAVEN_RETURN_IF_ERROR(PrepareJoinBuilds(child.get()));
    }
    return Status::OK();
  }

  /// Build time of the joins at or below `node` whose builds ran ahead of
  /// the pipeline `node` belongs to (materialized breakers excluded: their
  /// parents read them through a rescan).
  std::int64_t JoinBuildNanosUnder(const IrNode* node) const {
    if (state_.materialized.count(node) > 0) return 0;
    auto it = join_build_nanos_.find(node);
    std::int64_t total = it == join_build_nanos_.end() ? 0 : it->second;
    for (const auto& child : node->children) {
      total += JoinBuildNanosUnder(child.get());
    }
    return total;
  }

  /// Charges the shared join builds to the stats slots of the pipeline
  /// rooted at `node`, after it ran, as Open time: each operator gets the
  /// builds below it — what its Open would have nested in a sequential
  /// run, where an owning join builds inside its own Open. Self-time
  /// accounting (own time minus the children's) thus puts every build on
  /// its join's slot and nowhere else, and EXPLAIN ANALYZE, the trace's
  /// op: spans and the per-layer ledger all see it.
  void ChargeJoinBuilds(const IrNode* node) {
    if (base_ctx_.stats == nullptr) return;
    const std::int64_t nanos = JoinBuildNanosUnder(node);
    if (nanos == 0) return;
    base_ctx_.stats->AddOpenNanos(node, nanos);
    // A built join's right child was its own build pipeline.
    const std::size_t in_pipeline =
        join_build_nanos_.count(node) > 0 ? 1 : node->children.size();
    for (std::size_t c = 0; c < in_pipeline; ++c) {
      ChargeJoinBuilds(node->children[c].get());
    }
  }

  /// Registers a fresh morsel queue for every scan source of the pipeline
  /// rooted at `node` (table scans and materialized intermediates), keyed
  /// by node identity and ordered by visit order so merged output matches
  /// sequential execution.
  Status AssignScanQueues(const IrNode* node, std::int64_t* ordinal) {
    auto add_queue = [&](const IrNode* source,
                         std::int64_t rows) {
      auto queue = std::make_shared<MorselQueue>(rows, state_.morsel_rows);
      morsels_dispensed_ += queue->num_morsels();
      state_.scan_queues[source] = {std::move(queue), (*ordinal)++};
    };
    auto mat = state_.materialized.find(node);
    if (mat != state_.materialized.end()) {
      add_queue(node, mat->second->num_rows());
      return Status::OK();
    }
    if (node->kind == IrOpKind::kTableScan) {
      if (base_ctx_.catalog->HasDiskTable(node->table_name)) {
        // Disk tables use the BLOCK as the morsel unit: a block-aligned
        // queue means each morsel decodes exactly one block, each block is
        // claimed by exactly one worker, and the (source, block) order key
        // reproduces sequential row order byte-identically.
        RAVEN_ASSIGN_OR_RETURN(
            auto disk, base_ctx_.catalog->GetDiskTable(node->table_name));
        auto queue = std::make_shared<MorselQueue>(disk->num_rows(),
                                                   disk->block_rows());
        morsels_dispensed_ += queue->num_morsels();
        state_.scan_queues[node] = {std::move(queue), (*ordinal)++};
        return Status::OK();
      }
      RAVEN_ASSIGN_OR_RETURN(const Table* table,
                             base_ctx_.catalog->GetTable(node->table_name));
      add_queue(node, table->num_rows());
      return Status::OK();
    }
    if (node->kind == IrOpKind::kJoin &&
        state_.join_builds.count(node) > 0) {
      // Build side already ran as its own pipeline; only the probe side
      // feeds this one.
      return AssignScanQueues(node->children[0].get(), ordinal);
    }
    for (const auto& child : node->children) {
      RAVEN_RETURN_IF_ERROR(AssignScanQueues(child.get(), ordinal));
    }
    return Status::OK();
  }

  /// Builds the worker trees for the pipeline rooted at `root` and invokes
  /// `consume(worker, tree)` on each worker's thread to drain it. A worker
  /// with no morsel to claim would only build and open a tree, so the
  /// pipeline gets one worker per morsel of its scan queues, capped at the
  /// dop; a single-morsel pipeline drains on the calling thread.
  Status RunWorkers(
      const IrNode& root,
      const std::function<Status(std::int64_t, relational::PhysicalOperator*)>&
          consume) {
    state_.scan_queues.clear();
    std::int64_t ordinal = 0;
    RAVEN_RETURN_IF_ERROR(AssignScanQueues(&root, &ordinal));
    std::int64_t morsels = 0;
    for (const auto& [source, queue] : state_.scan_queues) {
      morsels += queue.first->num_morsels();
    }
    const std::int64_t workers =
        std::clamp<std::int64_t>(morsels, 1, state_.num_workers);
    max_workers_started_ = std::max(max_workers_started_, workers);
    auto run_worker = [this, &root, &consume](std::int64_t w) -> Status {
      RuntimeContext ctx = base_ctx_;
      ctx.worker_id = w;
      RAVEN_ASSIGN_OR_RETURN(auto tree, BuildPhysicalPlan(root, ctx));
      return consume(w, tree.get());
    };
    if (workers == 1) return run_worker(0);
    std::mutex error_mu;
    Status first_error = Status::OK();
    TaskGroup group;
    for (std::int64_t w = 0; w < workers; ++w) {
      group.Spawn([w, &run_worker, &error_mu, &first_error] {
        const Status status = run_worker(w);
        if (!status.ok()) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.ok()) first_error = status;
        }
      });
    }
    group.Wait();
    return first_error;
  }

  /// Drains `build_root`'s worker trees into the shared join build state,
  /// adding each worker's drain time to `busy_nanos` (summed across
  /// workers, like every operator slot).
  Status RunBuildPipeline(const IrNode& build_root,
                          relational::JoinBuildState* build,
                          std::atomic<std::int64_t>* busy_nanos) {
    return RunWorkers(
        build_root,
        [build, busy_nanos](std::int64_t worker,
                            relational::PhysicalOperator* tree) -> Status {
          const Timer drain;
          const Status status = [&]() -> Status {
            RAVEN_RETURN_IF_ERROR(tree->Open());
            relational::DataChunk chunk;
            while (true) {
              RAVEN_ASSIGN_OR_RETURN(bool more, tree->Next(&chunk));
              if (!more) return Status::OK();
              // Moved-from chunk is fine: every operator's Next overwrites
              // names/cols before use.
              RAVEN_RETURN_IF_ERROR(build->Append(worker, std::move(chunk)));
            }
          }();
          busy_nanos->fetch_add(ElapsedNanos(drain),
                                std::memory_order_relaxed);
          return status;
        });
  }

  /// Runs the pipeline rooted at `root` to completion. With `has_sink` set
  /// the pipeline's worker trees end in partial-aggregate (scalar or
  /// grouped) sinks and emit no rows; otherwise the workers' chunks are
  /// merged in morsel order.
  Result<Table> RunPipeline(const IrNode& root, bool has_sink) {
    RAVEN_RETURN_IF_ERROR(PrepareJoinBuilds(&root));
    std::vector<std::vector<OrderedChunk>> per_worker(
        static_cast<std::size_t>(state_.num_workers));
    RAVEN_RETURN_IF_ERROR(RunWorkers(
        root, [&per_worker](std::int64_t worker,
                            relational::PhysicalOperator* tree) -> Status {
          return relational::DrainOrdered(
              tree, &per_worker[static_cast<std::size_t>(worker)]);
        }));
    ChargeJoinBuilds(&root);
    if (has_sink) return Table();  // result lives in the shared sink
    return relational::MergeOrderedChunks(std::move(per_worker));
  }

  RuntimeContext base_ctx_;
  ParallelExecState state_;
  std::deque<Table> owned_;  // materialized aggregate outputs (stable ptrs)
  std::int64_t morsels_dispensed_ = 0;
  std::int64_t max_workers_started_ = 0;
  /// Per built join: its build pipeline's drain (summed across workers)
  /// plus FinalizeBuild.
  std::unordered_map<const IrNode*, std::int64_t> join_build_nanos_;
};

/// Orchestrates one distributed execution: ships every distributable
/// fragment to the worker pool (one leaf-scan partition per worker, merged
/// back in range order), then executes the in-process remainder over the
/// materialized fragment tables. Owns the retry-then-fallback policy that
/// keeps a query correct through worker deaths.
class DistributedExecutor {
 public:
  DistributedExecutor(RuntimeContext base_ctx, WorkerPool* pool,
                      std::int64_t trace_parent = 0)
      : base_ctx_(std::move(base_ctx)),
        pool_(pool),
        trace_parent_(trace_parent) {}

  Result<Table> Execute(const IrNode& original_root) {
    // Work on a clone: fragment subtrees are spliced out of the tree below,
    // and the caller's plan must stay reusable.
    ir::IrNodePtr root = original_root.Clone();
    std::vector<const IrNode*> fragments;
    ir::CollectDistributableFragments(*root, &fragments);
    std::unordered_map<const IrNode*, std::string> splice_names;
    relational::Catalog overlay;
    for (std::size_t i = 0; i < fragments.size(); ++i) {
      RAVEN_ASSIGN_OR_RETURN(Table result, ExecuteFragment(*fragments[i]));
      if (fragments[i] == root.get()) return result;  // whole plan shipped
      if (result.num_columns() == 0) {
        // Every row died inside the fragment, so the workers sent back
        // column-less tables. The remainder's operators still resolve
        // their column ordinals against this table at Open time: restore
        // the fragment's schema (zero rows) from an in-process build of
        // its operator tree.
        RAVEN_ASSIGN_OR_RETURN(auto tree,
                               BuildPhysicalPlan(*fragments[i], base_ctx_));
        RAVEN_RETURN_IF_ERROR(tree->Open());
        RAVEN_ASSIGN_OR_RETURN(std::vector<std::string> names,
                               tree->OutputColumns());
        for (const auto& col : names) {
          RAVEN_RETURN_IF_ERROR(result.AddNumericColumn(col, {}));
        }
      }
      const std::string name = "__raven_fragment_" + std::to_string(i);
      RAVEN_RETURN_IF_ERROR(overlay.RegisterTable(name, std::move(result)));
      splice_names[fragments[i]] = name;
    }
    // The spliced-out fragments stay alive until the remainder has run:
    // the statement's shared programs are keyed by expression address.
    std::vector<ir::IrNodePtr> spliced;
    SpliceFragments(&root, splice_names, &spliced);
    // The remainder (joins, aggregates, sorts, limits — everything above
    // the fragments) executes sequentially in-process. Every original leaf
    // scan lives inside some fragment, so the overlay catalog is the
    // remainder's complete universe.
    RuntimeContext ctx = base_ctx_;
    ctx.catalog = &overlay;
    RAVEN_ASSIGN_OR_RETURN(auto tree, BuildPhysicalPlan(*root, ctx));
    return relational::MaterializeAll(tree.get());
  }

 private:
  static void SpliceFragments(
      ir::IrNodePtr* node,
      const std::unordered_map<const IrNode*, std::string>& names,
      std::vector<ir::IrNodePtr>* spliced) {
    auto it = names.find(node->get());
    if (it != names.end()) {
      spliced->push_back(std::move(*node));
      *node = IrNode::TableScan(it->second);
      return;
    }
    for (auto& child : (*node)->children) {
      SpliceFragments(&child, names, spliced);
    }
  }

  void CountFrame(const std::string& frame) {
    if (base_ctx_.stats == nullptr) return;
    base_ctx_.stats->frames_sent.fetch_add(1, std::memory_order_relaxed);
    base_ctx_.stats->bytes_shipped.fetch_add(
        static_cast<std::int64_t>(frame.size()), std::memory_order_relaxed);
  }

  void CountReceived(std::int64_t bytes) {
    if (base_ctx_.stats == nullptr) return;
    base_ctx_.stats->bytes_shipped.fetch_add(bytes,
                                             std::memory_order_relaxed);
  }

  /// Executes the fragment in-process over the full scan table (used for
  /// empty scans, where partitioning has nothing to hand out).
  Result<Table> ExecuteFragmentInProcess(const IrNode& fragment) {
    RAVEN_ASSIGN_OR_RETURN(auto tree,
                           BuildPhysicalPlan(fragment, base_ctx_));
    return relational::MaterializeAll(tree.get());
  }

  Result<Table> ExecuteFragment(const IrNode& fragment) {
    const IrNode* leaf = &fragment;
    while (leaf->kind != IrOpKind::kTableScan) {
      leaf = leaf->children[0].get();
    }
    // Disk tables distribute the same way as in-memory ones: the leaf
    // partition materializes (ReadRows) before shipping, so pool workers
    // stay storage-agnostic and partition outputs concatenate in the same
    // range order either way.
    const Table* table = nullptr;
    std::shared_ptr<const relational::BlockTable> disk;
    auto mem = base_ctx_.catalog->GetTable(leaf->table_name);
    if (mem.ok()) {
      table = *mem;
    } else {
      RAVEN_ASSIGN_OR_RETURN(
          disk, base_ctx_.catalog->GetDiskTable(leaf->table_name));
    }
    const std::int64_t rows = table != nullptr ? table->num_rows()
                                               : disk->num_rows();
    const std::int64_t workers = pool_->num_workers();
    if (rows == 0) return ExecuteFragmentInProcess(fragment);
    BinaryWriter plan_writer;
    RAVEN_RETURN_IF_ERROR(ir::SerializeFragment(fragment, &plan_writer));
    const std::string plan_bytes = plan_writer.Release();

    // One contiguous partition per worker (the first `rows % workers`
    // partitions absorb the remainder); concatenating partition outputs in
    // range order reproduces the sequential row order exactly. Only the
    // encoded frame is kept per partition — it already embeds the slice,
    // and the fallback path re-decodes it rather than holding a second
    // copy of the shipped bytes alive for the whole execution.
    struct Partition {
      std::int64_t worker = 0;
      std::int64_t begin = 0;
      std::int64_t end = 0;
      std::int64_t exchange_span = 0;  ///< tracing only; 0 = untraced
      std::string frame;
      Result<Table> result = Status::Internal("not executed");
    };
    std::deque<Partition> partitions;
    const std::int64_t base = rows / workers;
    const std::int64_t extra = rows % workers;
    std::int64_t begin = 0;
    for (std::int64_t w = 0; w < workers && begin < rows; ++w) {
      const std::int64_t size = base + (w < extra ? 1 : 0);
      if (size == 0) continue;
      Partition part;
      part.worker = w;
      part.begin = begin;
      part.end = begin + size;
      FragmentRequest request;
      request.plan_bytes = plan_bytes;
      request.table_name = leaf->table_name;
      request.range_begin = begin;
      request.range_end = begin + size;
      BinaryWriter table_writer;
      if (table != nullptr) {
        table->SliceRows(begin, begin + size).Serialize(&table_writer);
      } else {
        RAVEN_ASSIGN_OR_RETURN(Table slice,
                               disk->ReadRows(begin, begin + size));
        slice.Serialize(&table_writer);
      }
      request.table_bytes = table_writer.Release();
      if (obs::Trace* trace = base_ctx_.options.trace; trace != nullptr) {
        // The exchange span opens before the frame encodes so its id can
        // ride in the frame header — the worker echoes it, which is what
        // lets a retried partition's spans stay attributable.
        part.exchange_span = trace->StartSpan("exchange", trace_parent_);
        request.trace_enabled = true;
        request.trace_id = static_cast<std::uint64_t>(part.exchange_span);
      }
      part.frame = EncodeFragmentRequest(request);
      partitions.push_back(std::move(part));
      begin += size;
    }

    TaskGroup group;
    for (auto& part : partitions) {
      group.Spawn([this, &part, leaf] {
        part.result = RunPartition(part.frame, leaf->table_name, part.begin,
                                   part.end, part.worker,
                                   part.exchange_span);
      });
    }
    group.Wait();

    std::vector<Table> pieces;
    pieces.reserve(partitions.size());
    for (auto& part : partitions) {
      if (!part.result.ok()) return part.result.status();
      pieces.push_back(std::move(part.result).value());
    }
    // Schema divergence across partitions (a worker sent garbage that
    // still decoded) fails here rather than corrupting the merge.
    return relational::ConcatTables(std::move(pieces));
  }

  /// One partition's lifecycle: try the assigned worker; on any failure
  /// replace that worker and retry the identical frame once (frames are
  /// self-contained, so a resend is safe); if the retry also fails, decode
  /// the frame back and execute the partition in-process — the same decode
  /// path a worker uses. The partition therefore always completes — the
  /// failure mode is a diagnosable slowdown, never a wrong answer or a
  /// hang.
  Result<Table> RunPartition(const std::string& frame,
                             const std::string& table_name,
                             std::int64_t range_begin, std::int64_t range_end,
                             std::int64_t worker,
                             std::int64_t exchange_span) {
    obs::Trace* trace = base_ctx_.options.trace;
    const std::string range_detail =
        "worker=" + std::to_string(worker) + " table=" + table_name +
        " range=[" + std::to_string(range_begin) + "," +
        std::to_string(range_end) + ")";
    CountFrame(frame);
    // `active_span` tracks whichever exchange attempt is currently open
    // (the original exchange, then possibly the retry); worker span trees
    // splice under it, and base time re-bases worker-relative times onto
    // the coordinator clock.
    std::int64_t active_span = exchange_span;
    std::int64_t attempt_base = trace != nullptr ? trace->NowMicros() : 0;
    auto attempt = pool_->ExecuteFragment(worker, frame);
    if (!attempt.ok()) {
      if (trace != nullptr) {
        trace->EndSpan(active_span, range_detail + " error=\"" +
                                        attempt.status().ToString() + "\"");
        active_span = 0;
      }
      RAVEN_LOG(Warning) << "distributed partition [" << range_begin << ", "
                         << range_end << ") of " << table_name
                         << " failed on worker " << worker << ": "
                         << attempt.status().ToString()
                         << "; retrying on a fresh worker";
      Status restarted = pool_->RestartWorker(worker);
      if (restarted.ok()) {
        if (base_ctx_.stats != nullptr) {
          base_ctx_.stats->worker_restarts.fetch_add(
              1, std::memory_order_relaxed);
        }
        if (trace != nullptr) {
          active_span = trace->StartSpan("exchange.retry", trace_parent_);
          attempt_base = trace->NowMicros();
        }
        CountFrame(frame);
        attempt = pool_->ExecuteFragment(worker, frame);
      } else {
        attempt = restarted;
      }
    }
    if (attempt.ok()) {
      CountReceived(attempt->bytes_received);
      auto table = attempt->ToTable();
      if (table.ok()) {
        if (trace != nullptr) {
          if (!attempt->trace_spans.empty()) {
            auto worker_spans =
                obs::Trace::DeserializeSpans(attempt->trace_spans);
            if (worker_spans.ok()) {
              trace->Splice(active_span, attempt_base, worker_spans.value());
            }
          }
          trace->EndSpan(active_span,
                         range_detail + " rows=" +
                             std::to_string(attempt->result_rows) +
                             " bytes=" +
                             std::to_string(attempt->bytes_received));
        }
        return table;
      }
      attempt = table.status();
    }
    if (trace != nullptr && active_span != 0) {
      trace->EndSpan(active_span, range_detail + " error=\"" +
                                      attempt.status().ToString() + "\"");
    }
    RAVEN_LOG(Warning) << "distributed partition [" << range_begin << ", "
                       << range_end << ") of " << table_name
                       << " exhausted its retry; executing in-process: "
                       << attempt.status().ToString();
    RAVEN_ASSIGN_OR_RETURN(FragmentRequest request,
                           DecodeFragmentRequest(frame));
    if (trace == nullptr) {
      return ExecuteFragmentLocally(request, base_ctx_.session_cache);
    }
    // The fallback runs through the same decode+execute path a worker
    // would, so it records into its own local arena and splices — exactly
    // like a worker's shipped span tree, minus the pipe.
    const std::int64_t fallback_span =
        trace->StartSpan("local_fallback", trace_parent_);
    const std::int64_t fallback_base = trace->NowMicros();
    obs::Trace local;
    auto result =
        ExecuteFragmentLocally(request, base_ctx_.session_cache, &local);
    trace->Splice(fallback_span, fallback_base, local.Snapshot());
    trace->EndSpan(fallback_span,
                   range_detail +
                       (result.ok() ? "" : " error=\"" +
                                               result.status().ToString() +
                                               "\""));
    return result;
  }

  RuntimeContext base_ctx_;
  WorkerPool* pool_;
  std::int64_t trace_parent_ = 0;
};

}  // namespace

PlanExecutor::PlanExecutor(const relational::Catalog* catalog,
                           nnrt::SessionCache* session_cache)
    : catalog_(catalog), session_cache_(session_cache) {}

PlanExecutor::~PlanExecutor() = default;

std::shared_ptr<WorkerPool> PlanExecutor::worker_pool() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return pool_;
}

std::shared_ptr<WorkerPool> PlanExecutor::EnsurePool(
    const ExecutionOptions& options) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  WorkerPoolOptions want;
  want.num_workers = std::max<std::int64_t>(1, options.distributed_workers);
  want.external = options.external;
  want.frame_timeout_millis = options.distributed_frame_timeout_millis;
  if (pool_ != nullptr && pool_->running() &&
      pool_->options().SameSpawnConfig(want)) {
    // The timeout is a per-query option, not spawn configuration: follow
    // it on the warm pool instead of silently keeping the first query's.
    pool_->set_frame_timeout_millis(want.frame_timeout_millis);
    return pool_;
  }
  // Replacing the member does not stop a pool another session's in-flight
  // query still holds: shared ownership keeps it (and its workers) alive
  // until that query's last exchange completes.
  auto fresh = std::make_shared<WorkerPool>();
  Status started = fresh->Start(want);
  if (!started.ok()) {
    RAVEN_LOG(Warning) << "distributed worker pool unavailable, executing "
                       << "in-process: " << started.ToString();
    pool_.reset();
    return nullptr;
  }
  pool_ = std::move(fresh);
  return pool_;
}

Result<Table> PlanExecutor::Execute(const ir::IrPlan& plan,
                                    const ExecutionOptions& options,
                                    ExecutionStats* stats) {
  if (plan.root() == nullptr) {
    return Status::InvalidArgument("cannot execute an empty plan");
  }
  StatsCollector collector;
  RuntimeContext ctx;
  ctx.catalog = catalog_;
  ctx.session_cache = session_cache_;
  ctx.options = options;
  // A trace needs operator slots even when the caller passes no stats
  // sink: operator spans render from the collector at the end.
  obs::Trace* trace = options.trace;
  ctx.stats = (stats != nullptr || trace != nullptr) ? &collector : nullptr;
  StatementPrograms programs(&collector.programs_compiled);
  ctx.programs = &programs;

  const std::int64_t exec_start =
      trace != nullptr ? trace->NowMicros() : 0;
  const std::int64_t exec_span =
      trace != nullptr ? trace->StartSpan("execute") : 0;
  std::string exec_detail;
  Result<Table> result = Status::Internal("not executed");
  bool executed = false;

  // Distributed execution ships the plan's distributable fragments to the
  // persistent worker pool and runs the remainder in-process. If the pool
  // cannot start (no worker binary), the query degrades to the in-process
  // paths below rather than failing.
  if (options.mode == ExecutionMode::kDistributed) {
    std::shared_ptr<WorkerPool> pool = EnsurePool(options);
    if (pool != nullptr) {
      DistributedExecutor dexec(ctx, pool.get(), exec_span);
      result = dexec.Execute(*plan.root());
      collector.partitions_used.store(pool->num_workers());
      exec_detail = "mode=distributed workers=" +
                    std::to_string(pool->num_workers());
      executed = true;
    }
  }

  if (!executed) {
    // Morsel-parallel execution covers every in-process plan shape except:
    // LIMIT (an ordered early-out — splitting it across workers changes
    // which rows survive) and opaque pipelines (each worker tree would boot
    // its own external process).
    const bool parallel =
        options.parallelism > 1 &&
        (options.mode == ExecutionMode::kInProcess ||
         options.mode == ExecutionMode::kDistributed) &&
        !PlanContains(plan.root(), IrOpKind::kLimit) &&
        !PlanContains(plan.root(), IrOpKind::kOpaquePipeline);

    if (parallel) {
      MorselExecutor executor(ctx, options.parallelism);
      result = executor.Execute(*plan.root());
      collector.partitions_used.store(options.parallelism);
      collector.morsels.store(executor.morsels_dispensed());
      exec_detail = "mode=parallel dop=" +
                    std::to_string(options.parallelism) + " workers=" +
                    std::to_string(executor.max_workers_started());
    } else {
      auto root_op = BuildPhysicalPlan(*plan.root(), ctx);
      result = root_op.ok()
                   ? relational::MaterializeAll(root_op.value().get())
                   : Result<Table>(root_op.status());
      exec_detail = "mode=sequential";
    }
  }
  if (stats != nullptr) collector.Finalize(stats);
  if (trace != nullptr) {
    // Operator spans are AGGREGATES, not timeline intervals: duration is
    // Open+Next wall time summed across worker clones, anchored at the
    // execute span's start (see docs/OBSERVABILITY.md).
    ExecutionStats rendered;
    collector.Finalize(&rendered);
    for (const OperatorStats& op : rendered.operators) {
      trace->AddSpan(
          "op:" + op.op, exec_span, exec_start,
          static_cast<std::int64_t>(op.wall_micros + op.open_micros),
          "rows=" + std::to_string(op.rows) +
              " chunks=" + std::to_string(op.chunks) +
              " open_micros=" + std::to_string(
                  static_cast<std::int64_t>(op.open_micros)) +
              " work_micros=" + std::to_string(
                  static_cast<std::int64_t>(op.wall_micros)));
    }
    if (!result.ok()) {
      exec_detail += " error=\"" + result.status().ToString() + "\"";
    }
    trace->EndSpan(exec_span, exec_detail);
  }
  return result;
}

}  // namespace raven::runtime
