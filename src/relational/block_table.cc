#include "relational/block_table.h"

#include <algorithm>
#include <cmath>

namespace raven::relational {

bool BlockMayMatch(const ColumnStats& stats, const SimplePredicate& pred) {
  // Non-finite rows are invisible to the finite min/max range, so no range
  // argument over it can exclude them (the NaN regression: a block of
  // {1, 2, NaN} must survive `col >= 100` because downstream semantics —
  // e.g. `<>` predicates or later pipeline stages — may keep NaN rows).
  if (stats.has_non_finite) return true;
  if (!stats.has_finite()) return true;  // empty/unknown: never skip
  if (!std::isfinite(pred.constant)) return true;
  switch (pred.op) {
    case CompareOp::kEq:
      return pred.constant >= stats.min && pred.constant <= stats.max;
    case CompareOp::kNe:
      // Skippable only when the whole block is one finite value equal to
      // the constant.
      return !(stats.constant.has_value() && *stats.constant == pred.constant);
    case CompareOp::kLt:
      return stats.min < pred.constant;
    case CompareOp::kLe:
      return stats.min <= pred.constant;
    case CompareOp::kGt:
      return stats.max > pred.constant;
    case CompareOp::kGe:
      return stats.max >= pred.constant;
  }
  return true;
}

bool BlockMayMatch(const BlockTable& table, std::int64_t block,
                   const std::vector<SimplePredicate>& preds) {
  for (const auto& pred : preds) {
    const ColumnStats* stats = table.BlockStats(block, pred.column);
    if (stats == nullptr) continue;  // unknown column: cannot justify a skip
    if (!BlockMayMatch(*stats, pred)) return false;
  }
  return true;
}

std::map<std::string, ColumnStats> MergedStats(const BlockTable& table) {
  std::map<std::string, ColumnStats> out;
  for (const auto& name : table.ColumnNames()) {
    ColumnStats merged;
    bool any = false;
    bool constant_ok = true;
    for (std::int64_t b = 0; b < table.num_blocks(); ++b) {
      const ColumnStats* s = table.BlockStats(b, name);
      if (s == nullptr) {
        constant_ok = false;
        merged.distinct_exact = false;
        continue;
      }
      merged.num_rows += s->num_rows;
      merged.nan_count += s->nan_count;
      merged.non_finite_count += s->non_finite_count;
      merged.has_non_finite = merged.has_non_finite || s->has_non_finite;
      if (s->has_finite()) {
        if (!any || s->min < merged.min) merged.min = s->min;
        if (!any || s->max > merged.max) merged.max = s->max;
        any = true;
      }
      if (!s->constant.has_value() ||
          (merged.constant.has_value() && *merged.constant != *s->constant)) {
        constant_ok = false;
      } else if (!merged.constant.has_value()) {
        merged.constant = s->constant;
      }
      merged.distinct = std::max(merged.distinct, s->distinct);
      merged.distinct_exact = merged.distinct_exact && s->distinct_exact;
    }
    if (constant_ok && merged.constant.has_value() && !merged.has_non_finite) {
      merged.distinct = 1;
    } else {
      merged.constant.reset();
      // Distinct values may differ across blocks; the per-block maximum is
      // only a lower bound, so the count is no longer exact (unless there
      // is a single block).
      if (table.num_blocks() > 1) merged.distinct_exact = false;
    }
    out[name] = merged;
  }
  return out;
}

DiskScanOperator::DiskScanOperator(std::shared_ptr<const BlockTable> table,
                                   std::int64_t begin, std::int64_t end)
    : table_(std::move(table)), begin_(begin),
      end_(end < 0 ? table_->num_rows() : end) {}

DiskScanOperator::DiskScanOperator(std::shared_ptr<const BlockTable> table,
                                   std::shared_ptr<MorselQueue> morsels,
                                   std::int64_t order_source)
    : table_(std::move(table)), begin_(0), end_(table_->num_rows()),
      morsels_(std::move(morsels)), order_source_(order_source) {}

Status DiskScanOperator::Open() {
  if (begin_ < 0 || end_ > table_->num_rows() || begin_ > end_) {
    return Status::OutOfRange("disk scan range invalid");
  }
  if (morsels_ != nullptr) {
    if (morsels_->total_rows() != table_->num_rows()) {
      return Status::InvalidArgument("morsel queue sized for different table");
    }
    if (morsels_->morsel_rows() != table_->block_rows()) {
      return Status::InvalidArgument(
          "disk scan needs a block-aligned morsel queue (morsel " +
          std::to_string(morsels_->morsel_rows()) + " rows, block " +
          std::to_string(table_->block_rows()) + ")");
    }
  }
  column_index_.clear();
  if (!columns_.empty()) {
    const std::vector<std::string> names = table_->ColumnNames();
    for (const auto& column : columns_) {
      const auto it = std::find(names.begin(), names.end(), column);
      if (it == names.end()) {
        return Status::NotFound("disk scan column '" + column +
                                "' not in table");
      }
      column_index_.push_back(it - names.begin());
    }
  }
  next_block_ = begin_ / std::max<std::int64_t>(table_->block_rows(), 1);
  return Status::OK();
}

std::int64_t DiskScanOperator::NextRangeBlock() {
  while (next_block_ < table_->num_blocks()) {
    const std::int64_t block = next_block_++;
    const std::int64_t block_begin = block * table_->block_rows();
    if (block_begin >= end_) return -1;
    if (block_begin + table_->BlockRowCount(block) <= begin_) continue;
    return block;
  }
  return -1;
}

Result<bool> DiskScanOperator::EmitBlock(std::int64_t block, DataChunk* out) {
  if (!zone_predicates_.empty() &&
      !BlockMayMatch(*table_, block, zone_predicates_)) {
    if (blocks_skipped_ != nullptr) {
      blocks_skipped_->fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }
  if (blocks_scanned_ != nullptr) {
    blocks_scanned_->fetch_add(1, std::memory_order_relaxed);
  }
  RAVEN_RETURN_IF_ERROR(table_->ReadBlock(block, out, column_index_));
  // Range mode may cover a block only partially; trim to [begin_, end_).
  const std::int64_t block_begin = block * table_->block_rows();
  const std::int64_t lo = std::max(begin_ - block_begin, std::int64_t{0});
  const std::int64_t hi =
      std::min(end_ - block_begin, table_->BlockRowCount(block));
  if (lo > 0 || hi < table_->BlockRowCount(block)) {
    for (auto& col : out->cols) {
      col.erase(col.begin() + hi, col.end());
      col.erase(col.begin(), col.begin() + lo);
    }
  }
  out->order_source = order_source_;
  out->order_morsel = block;
  return true;
}

Result<bool> DiskScanOperator::Next(DataChunk* out) {
  if (morsels_ != nullptr) {
    Morsel m;
    while (morsels_->Pop(&m)) {
      RAVEN_ASSIGN_OR_RETURN(bool emitted, EmitBlock(m.index, out));
      if (emitted) return true;
    }
    return false;
  }
  for (std::int64_t block = NextRangeBlock(); block >= 0;
       block = NextRangeBlock()) {
    RAVEN_ASSIGN_OR_RETURN(bool emitted, EmitBlock(block, out));
    if (emitted) return true;
  }
  return false;
}

}  // namespace raven::relational
