#ifndef RAVEN_RELATIONAL_BLOCK_TABLE_H_
#define RAVEN_RELATIONAL_BLOCK_TABLE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "relational/chunk.h"
#include "relational/expression.h"
#include "relational/operators.h"
#include "relational/statistics.h"
#include "relational/table.h"

namespace raven::relational {

/// A table whose rows live in fixed-size blocks that are decoded on demand
/// instead of being materialized whole — the abstraction the executor sees
/// for on-disk (.rvc) tables. The relational layer depends only on this
/// interface; the concrete mmap-backed reader lives in src/storage, which
/// depends on relational (never the reverse).
///
/// Contract: every block holds exactly `block_rows()` rows except the last
/// (which holds the remainder), so block k covers rows
/// [k*block_rows(), k*block_rows() + BlockRowCount(k)). This alignment is
/// what lets the morsel executor use a block as the morsel unit and keep
/// parallel scans byte-identical to in-memory execution.
///
/// Implementations must be safe for concurrent ReadBlock/ReadRows calls
/// from multiple workers (the mmap reader is naturally so).
class BlockTable {
 public:
  virtual ~BlockTable() = default;

  virtual std::vector<std::string> ColumnNames() const = 0;
  virtual std::int64_t num_rows() const = 0;
  virtual std::int64_t num_columns() const = 0;
  virtual std::int64_t num_blocks() const = 0;
  /// Rows per block (every block but the last).
  virtual std::int64_t block_rows() const = 0;
  virtual std::int64_t BlockRowCount(std::int64_t block) const = 0;

  /// Zone map for one column of one block, or nullptr when unknown (an
  /// unknown zone map can never justify skipping the block).
  virtual const ColumnStats* BlockStats(std::int64_t block,
                                        const std::string& column) const = 0;

  /// Dictionary for a categorical column, or nullptr for numeric columns.
  /// Needed so SQL string literals resolve against on-disk tables exactly
  /// like in-memory ones.
  virtual const std::vector<std::string>* Dictionary(
      const std::string& column) const = 0;

  /// Decodes one block into `out` (names + cols set, sel cleared): the
  /// columns at the ordinals `columns` (indices into ColumnNames(), emitted
  /// in the order given), or every column when `columns` is empty. However
  /// few columns are requested, every payload of the block is verified
  /// against its checksum, so corruption anywhere in a block fails each
  /// read of it. Order keys are the caller's business.
  virtual Status ReadBlock(
      std::int64_t block, DataChunk* out,
      const std::vector<std::int64_t>& columns = {}) const = 0;

  /// Materializes rows [begin, end) as an in-memory table, dictionaries
  /// included — used by the distributed executor to ship scan partitions
  /// and by tools that need a plain Table.
  virtual Result<Table> ReadRows(std::int64_t begin,
                                 std::int64_t end) const = 0;

  /// One-line human-readable summary (file, blocks, encodings) for EXPLAIN.
  virtual std::string Describe() const = 0;
};

/// True when `block`'s zone map cannot rule out rows matching `pred`.
/// Deliberately conservative: only range/equality shapes consult min/max, a
/// block containing any non-finite value is NEVER skipped (NaN fails every
/// range comparison, so finite min/max says nothing about NaN rows under
/// `<>` or downstream re-evaluation), and an unknown column or stats entry
/// always matches. Skipping is an optimization only — the filter above the
/// scan still evaluates — so the single correctness obligation is to never
/// skip a block holding a matching row.
bool BlockMayMatch(const ColumnStats& stats, const SimplePredicate& pred);
bool BlockMayMatch(const BlockTable& table, std::int64_t block,
                   const std::vector<SimplePredicate>& preds);

/// Table-level stats for the optimizer's data-property pruning, merged from
/// the per-block zone maps (no block reads). Conservative merge: min/max
/// span all blocks, non-finite counts add up, `constant` survives only when
/// every block is constant at the same finite value, and distinct counts
/// degrade to inexact across blocks.
std::map<std::string, ColumnStats> MergedStats(const BlockTable& table);

/// Scan over a BlockTable: the on-disk twin of ScanOperator, emitting
/// exactly one chunk per block so the (order_source, order_morsel) merge
/// key is unique per chunk and parallel merges reproduce sequential row
/// order byte-identically. Pushed-down conjuncts are tested against each
/// block's zone map first; blocks that cannot match are skipped without
/// being decoded (counted in `blocks_skipped`). With SetColumns, only the
/// named columns are decoded.
class DiskScanOperator final : public PhysicalOperator {
 public:
  /// Scans rows [begin, end) (end < 0 means all rows).
  explicit DiskScanOperator(std::shared_ptr<const BlockTable> table,
                            std::int64_t begin = 0, std::int64_t end = -1);

  /// Morsel-driven scan. The queue must be block-aligned:
  /// morsel_rows == table->block_rows() and total == table->num_rows(), so
  /// morsel index == block index.
  DiskScanOperator(std::shared_ptr<const BlockTable> table,
                   std::shared_ptr<MorselQueue> morsels,
                   std::int64_t order_source);

  /// Zone-map inputs, set before Open. Counters may be null; when shared
  /// across workers they are atomics so each block is counted once.
  void SetZonePredicates(std::vector<SimplePredicate> preds) {
    zone_predicates_ = std::move(preds);
  }
  void SetBlockCounters(std::atomic<std::int64_t>* scanned,
                        std::atomic<std::int64_t>* skipped) {
    blocks_scanned_ = scanned;
    blocks_skipped_ = skipped;
  }
  /// Columns to decode and emit, in table order (set before Open; unknown
  /// names fail Open). Empty, the default, emits every column.
  void SetColumns(std::vector<std::string> columns) {
    columns_ = std::move(columns);
  }

  Status Open() override;
  Result<bool> Next(DataChunk* out) override;
  std::string Name() const override { return "DiskScan"; }
  Result<std::vector<std::string>> OutputColumns() const override {
    return columns_.empty() ? table_->ColumnNames() : columns_;
  }

 private:
  /// Claims the next block in range mode, or -1 when exhausted.
  std::int64_t NextRangeBlock();
  Result<bool> EmitBlock(std::int64_t block, DataChunk* out);

  std::shared_ptr<const BlockTable> table_;
  std::int64_t begin_;
  std::int64_t end_;
  std::int64_t next_block_ = 0;
  std::shared_ptr<MorselQueue> morsels_;  // nullptr in range mode
  std::int64_t order_source_ = 0;
  std::vector<SimplePredicate> zone_predicates_;
  std::vector<std::string> columns_;        // empty = every column
  std::vector<std::int64_t> column_index_;  // ordinals of columns_
  std::atomic<std::int64_t>* blocks_scanned_ = nullptr;
  std::atomic<std::int64_t>* blocks_skipped_ = nullptr;
};

}  // namespace raven::relational

#endif  // RAVEN_RELATIONAL_BLOCK_TABLE_H_
