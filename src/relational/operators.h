#ifndef RAVEN_RELATIONAL_OPERATORS_H_
#define RAVEN_RELATIONAL_OPERATORS_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "relational/chunk.h"
#include "relational/expression.h"
#include "relational/kernel.h"
#include "relational/table.h"
#include "tensor/tensor.h"

namespace raven::relational {

/// Pull-based (volcano-style) physical operator producing columnar chunks.
///
/// Parallel execution model (morsel-driven): the executor instantiates one
/// operator tree per worker; trees are thread-confined but share sources
/// (MorselQueue per scan), join build-side state (JoinBuildState),
/// aggregate partial state (SharedGroupByState) and the compiled
/// expression programs (SharedProgram, read-only once
/// compiled; each tree runs them in its own KernelProgram::Scratch). An
/// operator instance is therefore never called from two threads, while the
/// shared state objects are internally synchronized or give each worker a
/// slot of its own.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  /// Prepares state; called once before Next. Expression-bearing operators
  /// fetch their expressions' compiled programs here (SharedProgram::Get:
  /// the first tree of a statement to Open compiles, the rest reuse), so
  /// unknown or ambiguous column references fail at Open time (named, with
  /// the operator) instead of surfacing mid-scan from per-chunk lookups.
  virtual Status Open() { return Status::OK(); }
  /// Produces the next chunk; returns false at end of stream.
  virtual Result<bool> Next(DataChunk* out) = 0;
  virtual std::string Name() const = 0;
  /// The positional column schema of the chunks this operator emits. Valid
  /// after Open() (scans know it earlier); parents call it from their own
  /// Open() to compile kernels and resolve ordinals once per query.
  virtual Result<std::vector<std::string>> OutputColumns() const {
    return Status::Internal("OutputColumns not implemented for " + Name());
  }
};

using OperatorPtr = std::unique_ptr<PhysicalOperator>;

/// Scan over an in-memory table: either every row in kChunkSize-row chunks
/// or morsel-driven, pulling kChunkSize-row morsels from a MorselQueue
/// shared with sibling workers.
class ScanOperator final : public PhysicalOperator {
 public:
  /// Scans every row of `table`, which must outlive the operator.
  explicit ScanOperator(const Table* table) : table_(table) {}

  /// Morsel-driven scan: each Next() claims the next morsel from `morsels`
  /// (shared across workers) and emits it as one chunk tagged with
  /// (`order_source`, morsel index) for deterministic merging.
  ScanOperator(const Table* table, std::shared_ptr<MorselQueue> morsels,
               std::int64_t order_source);

  /// Columns to emit, in table order (set before Open; unknown names fail
  /// Open). Empty, the default, emits every column.
  void SetColumns(std::vector<std::string> columns) {
    columns_ = std::move(columns);
  }

  Status Open() override;
  Result<bool> Next(DataChunk* out) override;
  std::string Name() const override { return "Scan"; }
  Result<std::vector<std::string>> OutputColumns() const override;

 private:
  void EmitRows(std::int64_t begin, std::int64_t n, DataChunk* out) const;

  const Table* table_;
  std::int64_t cursor_ = 0;
  std::shared_ptr<MorselQueue> morsels_;  // nullptr: scan every row
  std::int64_t order_source_ = 0;
  std::vector<std::string> columns_;    // empty = every column
  std::vector<const Column*> emitted_;  // resolved at Open
};

/// Shared build side of a hash join (inner, single equi-key), in the
/// HyPer bucket-chaining layout. Workers drain the build pipeline
/// concurrently, appending chunks to per-worker buffers (lock-free);
/// FinalizeBuild then orders the chunks by their morsel provenance —
/// restoring the exact row order a sequential build would have produced,
/// independent of which worker claimed which morsel — concatenates them
/// into `cols()`, and chains every row into one flat table on the calling
/// thread: a power-of-two `head` array of first row ids per bucket, a
/// per-row `next` array, and the concatenated key column as the key array.
/// Rows are linked last to first, so each chain lists its rows in ascending
/// row id — duplicate-key matches come out in sequential build order with
/// no per-key sort. Keys compare with IEEE `==`: -0.0 and +0.0 hash alike
/// and join, and NaN build rows are never linked (NaN matches nothing).
/// After FinalizeBuild the structure is immutable and probed lock-free from
/// any thread.
class JoinBuildState {
 public:
  /// Build row id. A build side with more rows than kMaxRows fails
  /// FinalizeBuild with a clean error.
  using RowId = std::uint32_t;
  static constexpr RowId kNoRow = std::numeric_limits<RowId>::max();
  static constexpr std::int64_t kMaxRows = kNoRow;

  JoinBuildState(std::string right_key, std::int64_t num_workers);
  // Not copyable: the key pointer aims into cols_.
  JoinBuildState(const JoinBuildState&) = delete;
  JoinBuildState& operator=(const JoinBuildState&) = delete;

  /// Appends a build-side chunk on behalf of `worker` (0-based, < the
  /// num_workers passed at construction); pass by value so callers can
  /// std::move the drained chunk and skip a deep copy. Thread-safe across
  /// distinct workers; a single worker must append serially.
  Status Append(std::int64_t worker, DataChunk chunk);

  /// Orders the buffered chunks, concatenates them (releasing each chunk as
  /// it is copied, so peak memory stays ~one chunk above the build size),
  /// and chains the rows into the bucket table. Must be called exactly
  /// once, after all Append calls completed.
  Status FinalizeBuild();

  // Probe API; valid only after FinalizeBuild.
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<std::vector<double>>& cols() const { return cols_; }
  /// Appends one (probe row, build row) pair per match of `chunk`'s
  /// selected rows against the build keys, with `key_col` the probe key's
  /// ordinal: probe rows in selection order, each row's matches in
  /// ascending build row id. Probe rows are physical indices into `chunk`.
  void Probe(const DataChunk& chunk, std::size_t key_col,
             std::vector<std::uint32_t>* probe_rows,
             std::vector<RowId>* build_rows) const;
  std::int64_t num_rows() const;
  bool finalized() const { return finalized_; }
  const std::string& right_key() const { return right_key_; }

 private:
  std::size_t BucketOf(double key) const;

  std::string right_key_;
  std::vector<std::vector<DataChunk>> buffers_;  // per-worker, morsel-tagged
  std::vector<std::string> names_;
  std::vector<std::vector<double>> cols_;
  const double* keys_ = nullptr;  // cols_[key column]; null when empty
  std::size_t bucket_mask_ = 0;   // head_.size() - 1 (a power of two)
  std::vector<RowId> head_;       // first row per bucket, or kNoRow
  std::vector<RowId> next_;       // next row in the same bucket, or kNoRow
  bool finalized_ = false;
};

/// In-memory hash join (inner, single equi-key). Two modes sharing one
/// probe path:
///  - owning: the right child is drained into a private JoinBuildState at
///    Open (sequential execution);
///  - probe-only: the build side was produced by a parallel build pipeline
///    into a shared, already-finalized JoinBuildState; this operator only
///    probes it with its own left child (morsel workers, distributed
///    fragments).
/// Next probes in two passes per input chunk: JoinBuildState::Probe walks
/// the bucket chains and collects the (probe row, build row) match pairs,
/// then every output column is filled by one gather loop over them.
class HashJoinOperator final : public PhysicalOperator {
 public:
  HashJoinOperator(OperatorPtr left, OperatorPtr right, std::string left_key,
                   std::string right_key);

  /// Probe-only mode over a finalized shared build.
  HashJoinOperator(OperatorPtr left, std::string left_key,
                   std::shared_ptr<JoinBuildState> build);

  Status Open() override;
  Result<bool> Next(DataChunk* out) override;
  std::string Name() const override { return "HashJoin"; }
  Result<std::vector<std::string>> OutputColumns() const override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;  // nullptr in probe-only mode
  std::string left_key_;
  std::shared_ptr<JoinBuildState> build_;
  // Resolved once at Open (after the build side is finalized):
  std::int64_t left_key_idx_ = -1;
  std::vector<std::size_t> build_emit_cols_;  // columns not shadowing left
  std::vector<std::string> output_columns_;
  // Per-Next scratch, reused across chunks:
  DataChunk probe_;
  std::vector<std::uint32_t> probe_rows_;
  std::vector<JoinBuildState::RowId> build_rows_;
};

/// Concatenation of multiple children with identical schemas.
class UnionAllOperator final : public PhysicalOperator {
 public:
  explicit UnionAllOperator(std::vector<OperatorPtr> children)
      : children_(std::move(children)) {}

  Status Open() override;
  Result<bool> Next(DataChunk* out) override;
  std::string Name() const override { return "UnionAll"; }
  Result<std::vector<std::string>> OutputColumns() const override {
    if (children_.empty()) return Status::Internal("UNION ALL of nothing");
    return children_.front()->OutputColumns();
  }

 private:
  std::vector<OperatorPtr> children_;
  std::size_t current_ = 0;
};

/// Emits at most `limit` rows.
class LimitOperator final : public PhysicalOperator {
 public:
  LimitOperator(OperatorPtr child, std::int64_t limit)
      : child_(std::move(child)), limit_(limit) {}

  Status Open() override { return child_->Open(); }
  Result<bool> Next(DataChunk* out) override;
  std::string Name() const override { return "Limit"; }
  Result<std::vector<std::string>> OutputColumns() const override {
    return child_->OutputColumns();
  }

 private:
  OperatorPtr child_;
  std::int64_t limit_;
  std::int64_t emitted_ = 0;
};

/// Batch scoring callback: maps a [n, k] feature tensor to n predictions.
/// The runtime layer binds this to an in-process NNRT session, an
/// interpreted ML model, an out-of-process worker, or a container client.
/// In parallel execution every worker scores through the same underlying
/// session (cached in nnrt::SessionCache), so scorers must be thread-safe.
/// Cross-query micro-batching also lives entirely inside the bound
/// callback (runtime's MakeNnScorer routes through the server's shared
/// PredictBatcher when the session's batch window is on): a FusedOperator's
/// kPredict stage submits one chunk and gets its scores back, never aware
/// whether rows from other in-flight queries shared the physical NNRT call.
using BatchScorer =
    std::function<Result<std::vector<double>>(const Tensor& input)>;

/// One stage of a FusedOperator: a filter predicate, a projection, or a
/// PREDICT input-assembly + scoring step.
struct FusedStage {
  enum class Kind { kFilter, kProject, kPredict };
  Kind kind = Kind::kFilter;
  // kFilter
  SharedProgramPtr predicate;
  // kProject
  std::vector<SharedProgramPtr> exprs;
  std::vector<std::string> names;
  // kPredict
  std::vector<std::string> input_columns;
  std::string output_name;
  BatchScorer scorer;
};

/// The one physical operator for filters, projections and PREDICT (paper
/// §5): runs a filter -> project -> PREDICT chain of any length, one stage
/// included, as a single pass over each chunk, in place on the caller's
/// chunk. Filters refine the selection vector (no copy) and compact sparse
/// survivor sets; a projection gathers the surviving rows once; PREDICT
/// assembles its feature tensor straight through the selection, scores the
/// whole chunk (one morsel under parallel execution) in one batch and
/// appends the prediction as a new column. Its filter and projection
/// programs are shared with the statement's other worker trees and run in
/// this operator's one Scratch.
class FusedOperator final : public PhysicalOperator {
 public:
  /// `stages` in execution order; `label` is the display name: the plain
  /// operator name for one stage ("Filter", "Predict(los)"), else e.g.
  /// "Fused[Filter+Project]".
  FusedOperator(OperatorPtr child, std::vector<FusedStage> stages,
                std::string label)
      : child_(std::move(child)), stages_(std::move(stages)),
        label_(std::move(label)) {}

  Status Open() override;
  Result<bool> Next(DataChunk* out) override;
  std::string Name() const override { return label_; }
  Result<std::vector<std::string>> OutputColumns() const override {
    return output_columns_;
  }

 private:
  /// Per-stage compiled state (parallel to stages_).
  struct CompiledStage {
    const KernelProgram* predicate = nullptr;  // kFilter
    std::vector<const KernelProgram*> exprs;   // kProject
    // kProject made only of references to distinct columns: their ordinals,
    // so a chunk with no selection hands its columns over by swap.
    std::vector<std::int64_t> moved_idx;
    std::vector<std::int64_t> input_idx;  // kPredict
    Tensor input;  // kPredict: model input, its buffer reused across chunks
  };

  OperatorPtr child_;
  std::vector<FusedStage> stages_;
  std::string label_;
  std::vector<CompiledStage> compiled_;
  std::vector<std::string> output_columns_;  // schema after the last stage
  KernelProgram::Scratch scratch_;
  // A projection's output columns, swapped with the chunk's: the buffers
  // trade places every chunk, so neither side allocates once warm.
  std::vector<std::vector<double>> projected_;
};

/// Aggregate functions (COUNT, SUM, AVG, MIN, MAX).
enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

struct AggregateSpec {
  AggKind kind = AggKind::kCount;
  std::string column;  // ignored for kCount
  std::string output_name;
};

/// One aggregate's running state; mergeable across workers. Each kind
/// accumulates only the fields FinalizeAggPartial reads for it: COUNT the
/// count; SUM and AVG an ExactFloatSum plus the count; MIN and MAX the
/// NaN-propagating min and max plus the count. The exact sum rounds the
/// same for every accumulation and merge order, which keeps float
/// aggregates byte-identical across dop and distributed fragmentation;
/// MIN/MAX/COUNT are order-independent by construction. Fields a kind
/// leaves untouched stay at their defaults, so MergeFrom folds them all.
struct AggPartial {
  ExactFloatSum sum;
  double min = 0.0;
  double max = 0.0;
  std::int64_t count = 0;

  void MergeFrom(const AggPartial& other);
};

/// Finalizes one aggregate's partial into its output value.
double FinalizeAggPartial(AggKind kind, const AggPartial& partial);

/// Aggregation spec: group-key columns plus aggregate items. The output
/// schema is the keys (in spec order) followed by the aggregate output
/// names; groups are emitted in ascending key-tuple order, which is what
/// makes parallel and sequential runs byte-identical without an explicit
/// ORDER BY. No keys is a scalar aggregate: one group, one output row even
/// over empty input.
struct GroupBySpec {
  std::vector<std::string> keys;
  std::vector<AggregateSpec> aggs;
};

/// Total order over doubles for sort/group keys: ordinary `<` on numbers,
/// with every NaN equivalent to every other NaN and greater than every
/// number (NaN groups/sorts last, deterministically). Plain `<` is NOT a
/// strict weak ordering once NaN appears, which is undefined behavior for
/// std::stable_sort.
inline bool TotalDoubleLess(double a, double b) {
  if (std::isnan(a)) return false;
  if (std::isnan(b)) return true;
  return a < b;
}

/// One worker's aggregation table in a single flat layout: each group's key
/// tuple stored once (groups × keys doubles), its partials beside it
/// (groups × aggregates), and a power-of-two slot array of group ids,
/// probed linearly from a murmur3-finalized hash of the key bits and kept
/// at most half full. Keys are canonical — every NaN is one quiet NaN and
/// -0.0 is +0.0 — and compare by bits, so all NaN keys are one group, the
/// two zeros are one group, and a group renders the same key whichever row
/// or worker inserted it first. Group ids are dense, in insertion order; a
/// table without keys holds its one group from the start.
class GroupTable {
 public:
  using GroupId = std::uint32_t;

  GroupTable(std::size_t num_keys, std::size_t num_aggs);

  /// Sets `gids` to the group of every selected row of `chunk`, in
  /// selection order, keyed by the columns at `key_idx`; a new key tuple
  /// inserts its group.
  void AssignGroups(const DataChunk& chunk,
                    const std::vector<std::int64_t>& key_idx,
                    std::vector<GroupId>* gids);
  /// Folds every group of `other` (same key and aggregate counts) in.
  void MergeFrom(const GroupTable& other);

  std::size_t num_groups() const { return num_groups_; }
  const double* key(GroupId g) const { return keys_.data() + g * num_keys_; }
  /// The groups × aggregates partials, row-major by group.
  AggPartial* partials() { return partials_.data(); }
  const AggPartial* partials() const { return partials_.data(); }
  /// Every group id, in ascending key-tuple order (lexicographic under
  /// TotalDoubleLess; canonical keys never tie).
  std::vector<GroupId> SortedGroups() const;

 private:
  static constexpr GroupId kNoGroup = std::numeric_limits<GroupId>::max();

  GroupId FindOrInsert(const double* key);
  void Rehash(std::size_t slots);

  std::size_t num_keys_;
  std::size_t num_aggs_;
  std::size_t num_groups_ = 0;
  std::vector<double> keys_;          // groups × keys, canonical
  std::vector<AggPartial> partials_;  // groups × aggregates
  std::vector<GroupId> slots_;        // group id per slot, or kNoGroup
  std::size_t slot_mask_ = 0;         // slots_.size() - 1
  std::vector<double> row_key_;       // AssignGroups' per-row scratch
};

/// Merge point of a morsel-parallel aggregation: one GroupTable per worker,
/// sized at construction, so each worker's GroupByOperator fills its own
/// table with no synchronization. FinalTable, after every worker finished,
/// folds the tables into worker 0's in ascending worker order and renders
/// the groups in ascending key order. Exact sums and order-independent
/// MIN/MAX/COUNT keep the merged bits independent of which worker
/// aggregated which morsel.
class SharedGroupByState {
 public:
  SharedGroupByState(GroupBySpec spec, std::int64_t num_workers);

  const GroupBySpec& spec() const { return spec_; }
  /// Worker `worker`'s table, or nullptr when the id is out of range.
  GroupTable* slot(std::int64_t worker);
  /// Call once, after every worker finished.
  Result<Table> FinalTable();

 private:
  GroupBySpec spec_;
  std::vector<GroupTable> tables_;
};

/// Hash aggregation, grouped or scalar. Each chunk costs one group-id pass
/// over its rows, then one loop per aggregate. Two modes:
///  - terminal: drains the child and emits the groups itself, in ascending
///    key order (sequential execution);
///  - partial sink: pre-aggregates into its worker's table of a shared
///    SharedGroupByState and emits nothing — the parallel executor renders
///    the merged table after all workers finish.
class GroupByOperator final : public PhysicalOperator {
 public:
  GroupByOperator(OperatorPtr child, GroupBySpec spec);
  GroupByOperator(OperatorPtr child,
                  std::shared_ptr<SharedGroupByState> shared,
                  std::int64_t worker_id);

  Status Open() override;
  Result<bool> Next(DataChunk* out) override;
  std::string Name() const override { return "GroupBy"; }
  Result<std::vector<std::string>> OutputColumns() const override;

 private:
  Status DrainChild(GroupTable* table);

  OperatorPtr child_;
  std::shared_ptr<SharedGroupByState> state_;  // a private one when terminal
  std::int64_t worker_id_ = 0;
  bool terminal_ = false;
  std::vector<std::int64_t> key_idx_;  // ordinals resolved at Open
  std::vector<std::int64_t> agg_idx_;  // -1 for COUNT
  bool done_ = false;
};

/// One ORDER BY key: column plus direction.
struct SortSpec {
  std::string column;
  bool descending = false;
};

/// Stable-sorts `table`'s rows by the given keys (later keys break ties of
/// earlier ones; input order breaks remaining ties, so the result is fully
/// deterministic for any input order that is itself deterministic).
Result<Table> SortTable(Table table, const std::vector<SortSpec>& keys);

/// ORDER BY as a gather-and-sort pipeline breaker: drains and materializes
/// the child at Next-time, sorts, and emits the result as one chunk. Under
/// parallel execution the executor instead materializes the child pipeline
/// morsel-parallel, sorts the merged (sequential-order) table once, and
/// splices it in as a scan source — same SortTable, same determinism.
class SortOperator final : public PhysicalOperator {
 public:
  SortOperator(OperatorPtr child, std::vector<SortSpec> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {}

  Status Open() override { return child_->Open(); }
  Result<bool> Next(DataChunk* out) override;
  std::string Name() const override { return "Sort"; }
  Result<std::vector<std::string>> OutputColumns() const override {
    return child_->OutputColumns();
  }

 private:
  OperatorPtr child_;
  std::vector<SortSpec> keys_;
  bool done_ = false;
};

/// Lock-free accumulation target for one instrumented operator, shared by
/// that operator's per-worker clones.
struct OperatorStatsSlot {
  std::atomic<std::int64_t> rows{0};
  std::atomic<std::int64_t> chunks{0};
  std::atomic<std::int64_t> wall_nanos{0};
  /// Time inside Open, separately from the Next work loop (pipeline
  /// breakers like Sort/HashJoin build do real work in Open/first-Next;
  /// the trace surfaces the split as operator open vs. work time).
  std::atomic<std::int64_t> open_nanos{0};
};

/// Transparent wrapper recording rows/chunks/wall-time of the wrapped
/// operator's Open/Next into an OperatorStatsSlot via atomics — no
/// external mutex, safe across parallel workers. Rows are counted by
/// selection (num_selected), so a filter's row count stays "rows that
/// survived".
class InstrumentedOperator final : public PhysicalOperator {
 public:
  InstrumentedOperator(OperatorPtr child, OperatorStatsSlot* slot)
      : child_(std::move(child)), slot_(slot) {}

  Status Open() override;
  Result<bool> Next(DataChunk* out) override;
  std::string Name() const override { return child_->Name(); }
  Result<std::vector<std::string>> OutputColumns() const override {
    return child_->OutputColumns();
  }

 private:
  OperatorPtr child_;
  OperatorStatsSlot* slot_;
};

/// Drains an operator tree into a materialized table.
Result<Table> MaterializeAll(PhysicalOperator* root);

/// A produced chunk plus its merge key for order-restoring parallel merges.
struct OrderedChunk {
  std::int64_t source = 0;
  std::int64_t morsel = 0;
  DataChunk chunk;
};

/// Opens and drains `root`, appending every produced chunk with its
/// provenance key to `out` (worker-side half of a parallel run).
Status DrainOrdered(PhysicalOperator* root, std::vector<OrderedChunk>* out);

/// Concatenates the workers' chunks sorted by (source, morsel) into one
/// table — reproducing sequential row order (joins included: the build side
/// re-orders itself to sequential row ids, see JoinBuildState).
Result<Table> MergeOrderedChunks(std::vector<std::vector<OrderedChunk>> parts);

}  // namespace raven::relational

#endif  // RAVEN_RELATIONAL_OPERATORS_H_
