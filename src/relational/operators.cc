#include "relational/operators.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <numeric>

namespace raven::relational {

namespace {

/// Refines `chunk`'s selection vector to the rows where `mask` (computed
/// over ALL physical rows) is truthy; returns the selected count. When no
/// prior selection exists and every row passes, the selection stays empty
/// (all-rows), avoiding indirection on the common non-selective path.
std::int64_t RefineSelection(const std::vector<double>& mask,
                             DataChunk* chunk) {
  std::vector<std::int32_t> next;
  if (chunk->has_sel()) {
    next.reserve(chunk->sel.size());
    for (std::int32_t i : chunk->sel) {
      if (mask[static_cast<std::size_t>(i)] != 0.0) next.push_back(i);
    }
    chunk->sel = std::move(next);
    return static_cast<std::int64_t>(chunk->sel.size());
  }
  const auto n = static_cast<std::int32_t>(mask.size());
  next.reserve(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) {
    if (mask[static_cast<std::size_t>(i)] != 0.0) next.push_back(i);
  }
  if (static_cast<std::int32_t>(next.size()) == n) return n;  // all selected
  chunk->sel = std::move(next);
  return static_cast<std::int64_t>(chunk->sel.size());
}

}  // namespace

ScanOperator::ScanOperator(const Table* table,
                           std::shared_ptr<MorselQueue> morsels,
                           std::int64_t order_source)
    : table_(table), morsels_(std::move(morsels)),
      order_source_(order_source) {}

Status ScanOperator::Open() {
  cursor_ = 0;
  if (morsels_ != nullptr && morsels_->total_rows() != table_->num_rows()) {
    return Status::InvalidArgument("morsel queue sized for different table");
  }
  emitted_.clear();
  if (columns_.empty()) {
    for (const auto& col : table_->columns()) emitted_.push_back(&col);
    return Status::OK();
  }
  for (const auto& name : columns_) {
    RAVEN_ASSIGN_OR_RETURN(const Column* col, table_->GetColumn(name));
    emitted_.push_back(col);
  }
  return Status::OK();
}

void ScanOperator::EmitRows(std::int64_t begin, std::int64_t n,
                            DataChunk* out) const {
  // Callers reuse one chunk across Next calls; a stale selection from the
  // previous batch must not survive into this one.
  out->sel.clear();
  out->names.resize(emitted_.size());
  out->cols.resize(emitted_.size());
  for (std::size_t i = 0; i < emitted_.size(); ++i) {
    const Column& col = *emitted_[i];
    out->names[i] = col.name;
    out->cols[i].assign(col.data.begin() + begin,
                        col.data.begin() + begin + n);
  }
}

Result<bool> ScanOperator::Next(DataChunk* out) {
  if (morsels_ != nullptr) {
    Morsel m;
    if (!morsels_->Pop(&m)) return false;
    EmitRows(m.begin, m.end - m.begin, out);
    out->order_source = order_source_;
    out->order_morsel = m.index;
    return true;
  }
  if (cursor_ >= table_->num_rows()) return false;
  const std::int64_t n = std::min(kChunkSize, table_->num_rows() - cursor_);
  EmitRows(cursor_, n, out);
  out->order_source = order_source_;
  out->order_morsel = cursor_ / kChunkSize;
  cursor_ += n;
  return true;
}

Result<std::vector<std::string>> ScanOperator::OutputColumns() const {
  if (!columns_.empty()) return columns_;
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(table_->num_columns()));
  for (const auto& col : table_->columns()) names.push_back(col.name);
  return names;
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

namespace {

/// The murmur3 64-bit finalizer: keys that differ only in high mantissa or
/// exponent bits — small integers stored as doubles — spread over the low
/// bits a power-of-two table mask keeps.
std::uint64_t Fmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Bucket hash of a join key: its bit pattern with -0.0 folded onto +0.0
/// (the two are IEEE-equal, so they must share a bucket).
std::uint64_t HashJoinKey(double key) {
  if (key == 0.0) key = 0.0;
  return Fmix64(std::bit_cast<std::uint64_t>(key));
}

/// dst[k] = src[rows[k]] for every k: one tight gather per output column.
void GatherRows(const std::vector<double>& src,
                const std::vector<std::uint32_t>& rows,
                std::vector<double>* dst) {
  dst->resize(rows.size());
  const double* from = src.data();
  double* to = dst->data();
  for (std::size_t k = 0; k < rows.size(); ++k) to[k] = from[rows[k]];
}

}  // namespace

JoinBuildState::JoinBuildState(std::string right_key, std::int64_t num_workers)
    : right_key_(std::move(right_key)),
      buffers_(static_cast<std::size_t>(std::max<std::int64_t>(1,
                                                               num_workers))) {}

Status JoinBuildState::Append(std::int64_t worker, DataChunk chunk) {
  if (worker < 0 || worker >= static_cast<std::int64_t>(buffers_.size())) {
    return Status::InvalidArgument("join build worker id out of range");
  }
  // The build side stores physical rows; compact any pending selection so
  // FinalizeBuild's concatenation and row ids see only surviving rows.
  chunk.FlattenSel();
  buffers_[static_cast<std::size_t>(worker)].push_back(std::move(chunk));
  return Status::OK();
}

Status JoinBuildState::FinalizeBuild() {
  if (finalized_) return Status::Internal("join build finalized twice");
  // Order the chunks by morsel provenance: this is the row order a
  // sequential build would have seen, making build row ids — and therefore
  // duplicate-key probe output — deterministic regardless of which worker
  // claimed which morsel. stable_sort keeps arrival order for equal keys
  // (the sequential owning-join case, where all chunks share source 0).
  std::vector<DataChunk*> chunks;
  std::int64_t total = 0;
  for (auto& buffer : buffers_) {
    for (auto& chunk : buffer) {
      chunks.push_back(&chunk);
      total += chunk.num_rows();
    }
  }
  if (total > kMaxRows) {
    return Status::ExecutionError(
        "join build side has " + std::to_string(total) +
        " rows; a hash join builds at most " + std::to_string(kMaxRows));
  }
  std::stable_sort(chunks.begin(), chunks.end(),
                   [](const DataChunk* a, const DataChunk* b) {
                     return a->order_source != b->order_source
                                ? a->order_source < b->order_source
                                : a->order_morsel < b->order_morsel;
                   });
  if (!chunks.empty()) {
    names_ = chunks.front()->names;
    cols_.assign(names_.size(), {});
    for (std::size_t c = 0; c < names_.size(); ++c) {
      cols_[c].reserve(static_cast<std::size_t>(total));
    }
    for (DataChunk* chunk : chunks) {
      if (chunk->names != names_) {
        return Status::ExecutionError("join build chunk schema mismatch");
      }
      for (std::size_t c = 0; c < names_.size(); ++c) {
        cols_[c].insert(cols_[c].end(), chunk->cols[c].begin(),
                        chunk->cols[c].end());
      }
      // Release as we go: peak memory stays ~one chunk above the build.
      chunk->cols.clear();
      chunk->cols.shrink_to_fit();
    }
  }
  chunks.clear();
  buffers_.clear();
  buffers_.shrink_to_fit();
  if (total > 0) {
    std::int64_t key_idx = -1;
    for (std::size_t c = 0; c < names_.size(); ++c) {
      if (names_[c] == right_key_) key_idx = static_cast<std::int64_t>(c);
    }
    if (key_idx < 0) {
      return Status::ExecutionError("join build key '" + right_key_ +
                                    "' not found");
    }
    keys_ = cols_[static_cast<std::size_t>(key_idx)].data();
  }
  // At least two buckets per row keeps chains short; an empty build keeps
  // one empty bucket so probes need no special case.
  const std::size_t rows = static_cast<std::size_t>(total);
  head_.assign(rows == 0 ? 1 : std::bit_ceil(2 * rows), kNoRow);
  bucket_mask_ = head_.size() - 1;
  next_.assign(rows, kNoRow);
  // Prepending from the last row to the first leaves every chain in
  // ascending row id, i.e. sequential build order.
  for (std::size_t row = rows; row-- > 0;) {
    const double key = keys_[row];
    if (std::isnan(key)) continue;  // NaN equals nothing: never linked
    RowId& head = head_[BucketOf(key)];
    next_[row] = head;
    head = static_cast<RowId>(row);
  }
  finalized_ = true;
  return Status::OK();
}

std::size_t JoinBuildState::BucketOf(double key) const {
  return static_cast<std::size_t>(HashJoinKey(key)) & bucket_mask_;
}

void JoinBuildState::Probe(const DataChunk& chunk, std::size_t key_col,
                           std::vector<std::uint32_t>* probe_rows,
                           std::vector<RowId>* build_rows) const {
  const double* keys = chunk.cols[key_col].data();
  // A NaN probe key walks its bucket but never passes the `==` test.
  const auto probe_one = [&](std::uint32_t i) {
    const double key = keys[i];
    for (RowId row = head_[BucketOf(key)]; row != kNoRow; row = next_[row]) {
      if (keys_[row] == key) {
        probe_rows->push_back(i);
        build_rows->push_back(row);
      }
    }
  };
  if (chunk.has_sel()) {
    for (const std::int32_t i : chunk.sel) {
      probe_one(static_cast<std::uint32_t>(i));
    }
  } else {
    const auto n = static_cast<std::uint32_t>(chunk.num_rows());
    for (std::uint32_t i = 0; i < n; ++i) probe_one(i);
  }
}

std::int64_t JoinBuildState::num_rows() const {
  return cols_.empty() ? 0 : static_cast<std::int64_t>(cols_.front().size());
}

HashJoinOperator::HashJoinOperator(OperatorPtr left, OperatorPtr right,
                                   std::string left_key,
                                   std::string right_key)
    : left_(std::move(left)), right_(std::move(right)),
      left_key_(std::move(left_key)),
      build_(std::make_shared<JoinBuildState>(std::move(right_key), 1)) {}

HashJoinOperator::HashJoinOperator(OperatorPtr left, std::string left_key,
                                   std::shared_ptr<JoinBuildState> build)
    : left_(std::move(left)), left_key_(std::move(left_key)),
      build_(std::move(build)) {}

Status HashJoinOperator::Open() {
  RAVEN_RETURN_IF_ERROR(left_->Open());
  if (right_ == nullptr) {
    // Probe-only mode: the shared build pipeline already ran.
    if (build_ == nullptr || !build_->finalized()) {
      return Status::Internal("probe-only hash join without finalized build");
    }
  } else {
    RAVEN_RETURN_IF_ERROR(right_->Open());
    DataChunk chunk;
    std::int64_t arrival = 0;
    while (true) {
      RAVEN_ASSIGN_OR_RETURN(bool more, right_->Next(&chunk));
      if (!more) break;
      // Re-tag with the arrival index: a multi-source build side (e.g. a
      // union of scans) reuses (source 0, morsel 0..) per branch, and
      // FinalizeBuild's provenance sort must not interleave the branches.
      chunk.order_source = 0;
      chunk.order_morsel = arrival++;
      RAVEN_RETURN_IF_ERROR(build_->Append(0, std::move(chunk)));
    }
    RAVEN_RETURN_IF_ERROR(build_->FinalizeBuild());
  }
  // Resolve the probe key and the output schema once, against the probe
  // child's schema and the finalized build: all probe columns, then build
  // columns whose names do not collide (the equi-key dedupes naturally).
  RAVEN_ASSIGN_OR_RETURN(std::vector<std::string> probe_schema,
                         left_->OutputColumns());
  RAVEN_ASSIGN_OR_RETURN(
      left_key_idx_,
      KernelProgram::ResolveOrdinal(probe_schema, left_key_,
                                    "HashJoin probe key"));
  build_emit_cols_.clear();
  output_columns_ = probe_schema;
  const auto& build_names = build_->names();
  for (std::size_t c = 0; c < build_names.size(); ++c) {
    bool shadowed = false;
    for (const auto& name : probe_schema) {
      if (name == build_names[c]) {
        shadowed = true;
        break;
      }
    }
    if (!shadowed) {
      build_emit_cols_.push_back(c);
      output_columns_.push_back(build_names[c]);
    }
  }
  return Status::OK();
}

Result<std::vector<std::string>> HashJoinOperator::OutputColumns() const {
  return output_columns_;
}

Result<bool> HashJoinOperator::Next(DataChunk* out) {
  const auto& build_cols = build_->cols();
  while (true) {
    RAVEN_ASSIGN_OR_RETURN(bool more, left_->Next(&probe_));
    if (!more) return false;
    probe_rows_.clear();
    build_rows_.clear();
    build_->Probe(probe_, static_cast<std::size_t>(left_key_idx_),
                  &probe_rows_, &build_rows_);
    if (probe_rows_.empty()) continue;  // every probe row missed
    out->names = output_columns_;
    out->order_source = probe_.order_source;
    out->order_morsel = probe_.order_morsel;
    out->sel.clear();
    out->cols.resize(output_columns_.size());
    const std::size_t probe_width = probe_.cols.size();
    for (std::size_t c = 0; c < probe_width; ++c) {
      GatherRows(probe_.cols[c], probe_rows_, &out->cols[c]);
    }
    for (std::size_t e = 0; e < build_emit_cols_.size(); ++e) {
      GatherRows(build_cols[build_emit_cols_[e]], build_rows_,
                 &out->cols[probe_width + e]);
    }
    return true;
  }
}

Status UnionAllOperator::Open() {
  for (auto& child : children_) {
    RAVEN_RETURN_IF_ERROR(child->Open());
  }
  current_ = 0;
  return Status::OK();
}

Result<bool> UnionAllOperator::Next(DataChunk* out) {
  while (current_ < children_.size()) {
    RAVEN_ASSIGN_OR_RETURN(bool more, children_[current_]->Next(out));
    if (more) return true;
    ++current_;
  }
  return false;
}

Result<bool> LimitOperator::Next(DataChunk* out) {
  if (emitted_ >= limit_) return false;
  RAVEN_ASSIGN_OR_RETURN(bool more, child_->Next(out));
  if (!more) return false;
  // Limit counts logical rows; compact first so resize-to-keep trims the
  // right tail.
  out->FlattenSel();
  const std::int64_t n = out->num_rows();
  if (emitted_ + n > limit_) {
    const std::int64_t keep = limit_ - emitted_;
    for (auto& col : out->cols) col.resize(static_cast<std::size_t>(keep));
  }
  emitted_ += out->num_rows();
  return true;
}

namespace {

/// The model input [rows selected, k]: column j of `chunk` at ordinal
/// idx[j], read through the selection, as float. Every element is written,
/// so `input` keeps its buffer from chunk to chunk without a fill.
void GatherModelInput(const DataChunk& chunk,
                      const std::vector<std::int64_t>& idx, Tensor* input) {
  const std::int64_t n = chunk.num_selected();
  const std::int64_t k = static_cast<std::int64_t>(idx.size());
  input->ResizeMatrix(n, k);
  float* dst = input->raw();
  for (std::int64_t j = 0; j < k; ++j) {
    const auto& col =
        chunk.cols[static_cast<std::size_t>(idx[static_cast<std::size_t>(j)])];
    if (chunk.has_sel()) {
      for (std::int64_t r = 0; r < n; ++r) {
        dst[r * k + j] = static_cast<float>(col[static_cast<std::size_t>(
            chunk.sel[static_cast<std::size_t>(r)])]);
      }
    } else {
      for (std::int64_t r = 0; r < n; ++r) {
        dst[r * k + j] = static_cast<float>(col[static_cast<std::size_t>(r)]);
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Fused filter -> project -> PREDICT chains
// ---------------------------------------------------------------------------

Status FusedOperator::Open() {
  RAVEN_RETURN_IF_ERROR(child_->Open());
  RAVEN_ASSIGN_OR_RETURN(std::vector<std::string> schema,
                         child_->OutputColumns());
  compiled_.clear();
  compiled_.resize(stages_.size());
  // Open errors name a lone stage by its operator and a chain's stage by
  // the chain's label.
  const bool chain = stages_.size() > 1;
  // Compile each stage against the schema as it evolves through the chain:
  // a filter keeps it, a projection replaces it, PREDICT appends a column.
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const FusedStage& stage = stages_[s];
    CompiledStage& cs = compiled_[s];
    switch (stage.kind) {
      case FusedStage::Kind::kFilter: {
        RAVEN_ASSIGN_OR_RETURN(
            cs.predicate,
            stage.predicate->Get(schema, chain ? label_ + " filter predicate"
                                               : "Filter predicate"));
        break;
      }
      case FusedStage::Kind::kProject: {
        cs.exprs.reserve(stage.exprs.size());
        for (std::size_t e = 0; e < stage.exprs.size(); ++e) {
          RAVEN_ASSIGN_OR_RETURN(
              const KernelProgram* program,
              stage.exprs[e]->Get(
                  schema, (chain ? label_ + " projection '"
                                 : "Project expression '") +
                              stage.names[e] + "'"));
          cs.exprs.push_back(program);
        }
        // Every reference resolved above, so this lookup cannot fail.
        cs.moved_idx.reserve(stage.exprs.size());
        for (const auto& program : stage.exprs) {
          const Expr& e = program->expr();
          if (e.kind() != Expr::Kind::kColumnRef) break;
          RAVEN_ASSIGN_OR_RETURN(
              std::int64_t idx,
              KernelProgram::ResolveOrdinal(
                  schema, static_cast<const ColumnRefExpr&>(e).name(),
                  label_));
          if (std::find(cs.moved_idx.begin(), cs.moved_idx.end(), idx) !=
              cs.moved_idx.end()) {
            break;
          }
          cs.moved_idx.push_back(idx);
        }
        if (cs.moved_idx.size() != stage.exprs.size()) cs.moved_idx.clear();
        schema = stage.names;
        break;
      }
      case FusedStage::Kind::kPredict: {
        cs.input_idx.reserve(stage.input_columns.size());
        for (const auto& name : stage.input_columns) {
          RAVEN_ASSIGN_OR_RETURN(
              std::int64_t idx,
              KernelProgram::ResolveOrdinal(
                  schema, name,
                  chain ? label_ + " PREDICT input" : "PREDICT input"));
          cs.input_idx.push_back(idx);
        }
        schema.push_back(stage.output_name);
        break;
      }
    }
  }
  output_columns_ = std::move(schema);
  return Status::OK();
}

Result<bool> FusedOperator::Next(DataChunk* out) {
  while (true) {
    RAVEN_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    bool dead = false;
    for (std::size_t s = 0; s < stages_.size() && !dead; ++s) {
      const FusedStage& stage = stages_[s];
      CompiledStage& cs = compiled_[s];
      switch (stage.kind) {
        case FusedStage::Kind::kFilter: {
          // The predicate evaluates every physical row; the selection is
          // then refined to survivors, so no column data moves while it
          // stays dense. Later stages' kernels (decision walks included)
          // and PREDICT gathers run over every physical row, so sparse
          // survivor sets are compacted here rather than paid for as dead
          // rows.
          RAVEN_ASSIGN_OR_RETURN(const std::vector<double>* mask,
                                 cs.predicate->Run(*out, &scratch_));
          dead = RefineSelection(*mask, out) == 0;
          if (!dead && out->num_selected() * 2 < out->num_rows()) {
            out->FlattenSel();
          }
          break;
        }
        case FusedStage::Kind::kProject: {
          projected_.resize(cs.exprs.size());
          if (!cs.moved_idx.empty() && !out->has_sel()) {
            for (std::size_t e = 0; e < cs.moved_idx.size(); ++e) {
              projected_[e].swap(
                  out->cols[static_cast<std::size_t>(cs.moved_idx[e])]);
            }
          } else {
            // Gather through the selection: a projection is the
            // compaction point after a filter, one pass per column.
            for (std::size_t e = 0; e < cs.exprs.size(); ++e) {
              RAVEN_ASSIGN_OR_RETURN(const std::vector<double>* values,
                                     cs.exprs[e]->Run(*out, &scratch_));
              GatherSelected(*values, out->sel, &projected_[e]);
            }
          }
          out->cols.swap(projected_);
          out->names = stage.names;
          out->sel.clear();
          break;
        }
        case FusedStage::Kind::kPredict: {
          const std::int64_t n = out->num_selected();
          GatherModelInput(*out, cs.input_idx, &cs.input);
          RAVEN_ASSIGN_OR_RETURN(std::vector<double> preds,
                                 stage.scorer(cs.input));
          if (static_cast<std::int64_t>(preds.size()) != n) {
            return Status::ExecutionError(
                "scorer returned " + std::to_string(preds.size()) +
                " predictions for " + std::to_string(n) + " rows");
          }
          // Predictions are per selected row; compact the pass-through
          // columns to match before appending the new column.
          out->FlattenSel();
          out->names.push_back(stage.output_name);
          out->cols.push_back(std::move(preds));
          break;
        }
      }
    }
    if (!dead) return true;
    // Every row filtered; pull the next chunk.
  }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

namespace {

/// MIN/MAX accumulation with NaN propagation: any NaN input makes both
/// NaN, regardless of accumulation or merge order. std::min/std::max keep
/// or drop a NaN depending on argument order, which would make parallel
/// results diverge from sequential.
void FoldMinMax(double v, AggPartial* p) {
  if (p->count == 0) {
    p->min = v;
    p->max = v;
  } else if (std::isnan(v) || std::isnan(p->min)) {
    p->min = std::numeric_limits<double>::quiet_NaN();
    p->max = std::numeric_limits<double>::quiet_NaN();
  } else {
    p->min = std::min(p->min, v);
    p->max = std::max(p->max, v);
  }
  ++p->count;
}

/// One aggregate's loop over n rows: row r's value(r) goes to
/// partials[gids[r] * stride], touching only the fields its kind reads.
template <typename Value>
void FoldRows(AggKind kind, std::size_t n, Value value,
              const GroupTable::GroupId* gids, AggPartial* partials,
              std::size_t stride) {
  switch (kind) {
    case AggKind::kCount:
      // No NULLs in this engine: COUNT(col) == COUNT(*) counts rows.
      for (std::size_t r = 0; r < n; ++r) ++partials[gids[r] * stride].count;
      return;
    case AggKind::kSum:
    case AggKind::kAvg:
      for (std::size_t r = 0; r < n; ++r) {
        AggPartial& p = partials[gids[r] * stride];
        p.sum.Add(value(r));
        ++p.count;
      }
      return;
    case AggKind::kMin:
    case AggKind::kMax:
      for (std::size_t r = 0; r < n; ++r) {
        FoldMinMax(value(r), &partials[gids[r] * stride]);
      }
      return;
  }
}

/// The key value a group stores: one quiet NaN for every NaN payload and
/// sign, +0.0 for both zeros.
double CanonicalKey(double v) {
  if (std::isnan(v)) return std::numeric_limits<double>::quiet_NaN();
  return v == 0.0 ? 0.0 : v;
}

std::uint64_t HashGroupKey(const double* key, std::size_t num_keys) {
  std::uint64_t h = 0;
  for (std::size_t k = 0; k < num_keys; ++k) {
    h = (h ^ std::bit_cast<std::uint64_t>(key[k])) * 0x9e3779b97f4a7c15ULL;
  }
  return Fmix64(h);
}

bool SameKey(const double* a, const double* b, std::size_t num_keys) {
  for (std::size_t k = 0; k < num_keys; ++k) {
    if (std::bit_cast<std::uint64_t>(a[k]) !=
        std::bit_cast<std::uint64_t>(b[k])) {
      return false;
    }
  }
  return true;
}

/// Renders `table`'s groups in ascending key order: keys in spec order,
/// then the finalized aggregates.
void RenderGroups(const GroupBySpec& spec, const GroupTable& table,
                  std::vector<std::string>* names,
                  std::vector<std::vector<double>>* cols) {
  names->clear();
  for (const auto& key : spec.keys) names->push_back(key);
  for (const auto& agg : spec.aggs) names->push_back(agg.output_name);
  const std::vector<GroupTable::GroupId> order = table.SortedGroups();
  const std::size_t num_keys = spec.keys.size();
  const std::size_t num_aggs = spec.aggs.size();
  cols->assign(names->size(), {});
  for (std::size_t c = 0; c < names->size(); ++c) {
    auto& col = (*cols)[c];
    col.reserve(order.size());
    for (GroupTable::GroupId g : order) {
      col.push_back(c < num_keys
                        ? table.key(g)[c]
                        : FinalizeAggPartial(
                              spec.aggs[c - num_keys].kind,
                              table.partials()[g * num_aggs + c - num_keys]));
    }
  }
}

}  // namespace

void AggPartial::MergeFrom(const AggPartial& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  if (std::isnan(min) || std::isnan(other.min)) {
    min = std::numeric_limits<double>::quiet_NaN();
    max = std::numeric_limits<double>::quiet_NaN();
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  sum.MergeFrom(other.sum);
  count += other.count;
}

double FinalizeAggPartial(AggKind kind, const AggPartial& partial) {
  switch (kind) {
    case AggKind::kCount:
      return static_cast<double>(partial.count);
    case AggKind::kSum:
      return partial.sum.Round();
    case AggKind::kAvg:
      // Round() is order-independent, so the quotient is too.
      return partial.count > 0
                 ? partial.sum.Round() / static_cast<double>(partial.count)
                 : 0.0;
    case AggKind::kMin:
      return partial.min;
    case AggKind::kMax:
      return partial.max;
  }
  return 0.0;
}

GroupTable::GroupTable(std::size_t num_keys, std::size_t num_aggs)
    : num_keys_(num_keys), num_aggs_(num_aggs), row_key_(num_keys) {
  Rehash(16);
  if (num_keys_ == 0) FindOrInsert(nullptr);
}

void GroupTable::AssignGroups(const DataChunk& chunk,
                              const std::vector<std::int64_t>& key_idx,
                              std::vector<GroupId>* gids) {
  const auto n = static_cast<std::size_t>(chunk.num_selected());
  if (num_keys_ == 0) {
    gids->assign(n, 0);
    return;
  }
  std::vector<const double*> key_cols;
  for (const std::int64_t idx : key_idx) {
    key_cols.push_back(chunk.cols[static_cast<std::size_t>(idx)].data());
  }
  gids->resize(n);
  const std::int32_t* sel = chunk.has_sel() ? chunk.sel.data() : nullptr;
  double* key = row_key_.data();
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t row =
        sel != nullptr ? static_cast<std::size_t>(sel[r]) : r;
    for (std::size_t k = 0; k < num_keys_; ++k) {
      key[k] = CanonicalKey(key_cols[k][row]);
    }
    (*gids)[r] = FindOrInsert(key);
  }
}

GroupTable::GroupId GroupTable::FindOrInsert(const double* key) {
  std::size_t slot = HashGroupKey(key, num_keys_) & slot_mask_;
  for (GroupId g; (g = slots_[slot]) != kNoGroup;
       slot = (slot + 1) & slot_mask_) {
    if (SameKey(this->key(g), key, num_keys_)) return g;
  }
  const auto g = static_cast<GroupId>(num_groups_++);
  keys_.insert(keys_.end(), key, key + num_keys_);
  partials_.resize(partials_.size() + num_aggs_);
  slots_[slot] = g;
  if (2 * num_groups_ > slots_.size()) Rehash(2 * slots_.size());
  return g;
}

void GroupTable::Rehash(std::size_t slots) {
  slots_.assign(slots, kNoGroup);
  slot_mask_ = slots - 1;
  for (GroupId g = 0; g < num_groups_; ++g) {
    std::size_t slot = HashGroupKey(key(g), num_keys_) & slot_mask_;
    while (slots_[slot] != kNoGroup) slot = (slot + 1) & slot_mask_;
    slots_[slot] = g;
  }
}

void GroupTable::MergeFrom(const GroupTable& other) {
  for (GroupId g = 0; g < other.num_groups_; ++g) {
    const GroupId mine = FindOrInsert(other.key(g));
    for (std::size_t a = 0; a < num_aggs_; ++a) {
      partials_[mine * num_aggs_ + a].MergeFrom(
          other.partials_[g * num_aggs_ + a]);
    }
  }
}

std::vector<GroupTable::GroupId> GroupTable::SortedGroups() const {
  std::vector<GroupId> order(num_groups_);
  std::iota(order.begin(), order.end(), GroupId{0});
  std::sort(order.begin(), order.end(), [this](GroupId a, GroupId b) {
    return std::lexicographical_compare(key(a), key(a) + num_keys_, key(b),
                                        key(b) + num_keys_, TotalDoubleLess);
  });
  return order;
}

SharedGroupByState::SharedGroupByState(GroupBySpec spec,
                                       std::int64_t num_workers)
    : spec_(std::move(spec)),
      tables_(static_cast<std::size_t>(std::max<std::int64_t>(1, num_workers)),
              GroupTable(spec_.keys.size(), spec_.aggs.size())) {}

GroupTable* SharedGroupByState::slot(std::int64_t worker) {
  if (worker < 0 || worker >= static_cast<std::int64_t>(tables_.size())) {
    return nullptr;
  }
  return &tables_[static_cast<std::size_t>(worker)];
}

Result<Table> SharedGroupByState::FinalTable() {
  GroupTable& merged = tables_.front();
  for (std::size_t w = 1; w < tables_.size(); ++w) {
    merged.MergeFrom(tables_[w]);
  }
  // Zero groups still renders the grouped schema (keys + aggregate names)
  // with zero rows: operators above resolve their column ordinals against
  // this table at Open time, before any chunk flows, and must see the same
  // schema a sequential GroupByOperator advertises. The executor restores
  // the engine-wide column-less empty-result convention only when this
  // table IS the query result (MorselExecutor::Execute root-breaker path).
  Table out;
  std::vector<std::string> names;
  std::vector<std::vector<double>> cols;
  RenderGroups(spec_, merged, &names, &cols);
  for (std::size_t c = 0; c < names.size(); ++c) {
    RAVEN_RETURN_IF_ERROR(out.AddNumericColumn(names[c], std::move(cols[c])));
  }
  return out;
}

GroupByOperator::GroupByOperator(OperatorPtr child, GroupBySpec spec)
    : child_(std::move(child)),
      state_(std::make_shared<SharedGroupByState>(std::move(spec), 1)),
      terminal_(true) {}

GroupByOperator::GroupByOperator(OperatorPtr child,
                                 std::shared_ptr<SharedGroupByState> shared,
                                 std::int64_t worker_id)
    : child_(std::move(child)), state_(std::move(shared)),
      worker_id_(worker_id) {}

Status GroupByOperator::Open() {
  RAVEN_RETURN_IF_ERROR(child_->Open());
  RAVEN_ASSIGN_OR_RETURN(std::vector<std::string> schema,
                         child_->OutputColumns());
  const GroupBySpec& spec = state_->spec();
  key_idx_.clear();
  for (const auto& key : spec.keys) {
    RAVEN_ASSIGN_OR_RETURN(
        std::int64_t idx,
        KernelProgram::ResolveOrdinal(schema, key, "GROUP BY key"));
    key_idx_.push_back(idx);
  }
  agg_idx_.assign(spec.aggs.size(), -1);
  for (std::size_t a = 0; a < spec.aggs.size(); ++a) {
    if (spec.aggs[a].kind == AggKind::kCount) continue;  // no input column
    RAVEN_ASSIGN_OR_RETURN(
        agg_idx_[a],
        KernelProgram::ResolveOrdinal(
            schema, spec.aggs[a].column,
            (spec.keys.empty() ? "Aggregate " : "GROUP BY aggregate ") +
                spec.aggs[a].output_name));
  }
  return Status::OK();
}

Result<std::vector<std::string>> GroupByOperator::OutputColumns() const {
  const GroupBySpec& spec = state_->spec();
  std::vector<std::string> names = spec.keys;
  for (const auto& agg : spec.aggs) names.push_back(agg.output_name);
  return names;
}

Status GroupByOperator::DrainChild(GroupTable* table) {
  const std::vector<AggregateSpec>& aggs = state_->spec().aggs;
  DataChunk chunk;
  std::vector<GroupTable::GroupId> gids;
  while (true) {
    RAVEN_ASSIGN_OR_RETURN(bool more, child_->Next(&chunk));
    if (!more) break;
    table->AssignGroups(chunk, key_idx_, &gids);
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      const double* v =
          agg_idx_[a] < 0
              ? nullptr
              : chunk.cols[static_cast<std::size_t>(agg_idx_[a])].data();
      AggPartial* partials = table->partials() + a;
      if (chunk.has_sel()) {
        const std::int32_t* sel = chunk.sel.data();
        FoldRows(aggs[a].kind, gids.size(),
                 [v, sel](std::size_t r) { return v[sel[r]]; }, gids.data(),
                 partials, aggs.size());
      } else {
        FoldRows(aggs[a].kind, gids.size(),
                 [v](std::size_t r) { return v[r]; }, gids.data(), partials,
                 aggs.size());
      }
    }
  }
  return Status::OK();
}

Result<bool> GroupByOperator::Next(DataChunk* out) {
  if (done_) return false;
  done_ = true;
  GroupTable* table = state_->slot(worker_id_);
  if (table == nullptr) {
    return Status::Internal("GROUP BY worker id out of range");
  }
  RAVEN_RETURN_IF_ERROR(DrainChild(table));
  // A sink emits nothing: the executor renders the merged table after all
  // workers join. A keyed GROUP BY over empty input emits nothing either.
  if (!terminal_ || table->num_groups() == 0) return false;
  out->order_source = 0;
  out->order_morsel = 0;
  out->sel.clear();  // reused chunks must not keep a stale selection
  RenderGroups(state_->spec(), *table, &out->names, &out->cols);
  return true;
}

// ---------------------------------------------------------------------------
// Sorting (ORDER BY)
// ---------------------------------------------------------------------------

Result<Table> SortTable(Table table, const std::vector<SortSpec>& keys) {
  if (table.num_rows() <= 1 || keys.empty()) return table;
  std::vector<const std::vector<double>*> key_cols;
  key_cols.reserve(keys.size());
  for (const auto& key : keys) {
    RAVEN_ASSIGN_OR_RETURN(std::int64_t idx, table.ColumnIndex(key.column));
    key_cols.push_back(&table.columns()[static_cast<std::size_t>(idx)].data);
  }
  std::vector<std::size_t> order(static_cast<std::size_t>(table.num_rows()));
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(
      order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        for (std::size_t k = 0; k < keys.size(); ++k) {
          // TotalDoubleLess keeps this a strict weak ordering even with
          // NaN key values (plain < would be UB for stable_sort then).
          const double va = (*key_cols[k])[a];
          const double vb = (*key_cols[k])[b];
          if (TotalDoubleLess(va, vb)) return !keys[k].descending;
          if (TotalDoubleLess(vb, va)) return keys[k].descending;
        }
        return false;  // stable: ties keep input order
      });
  for (auto& column : table.mutable_columns()) {
    std::vector<double> sorted;
    sorted.reserve(order.size());
    for (std::size_t r : order) sorted.push_back(column.data[r]);
    column.data = std::move(sorted);
  }
  return table;
}

Result<bool> SortOperator::Next(DataChunk* out) {
  if (done_) return false;
  done_ = true;
  // Gather: drain the (already opened) child into one columnar buffer.
  std::vector<std::string> names;
  std::vector<std::vector<double>> cols;
  bool first = true;
  DataChunk chunk;
  while (true) {
    RAVEN_ASSIGN_OR_RETURN(bool more, child_->Next(&chunk));
    if (!more) break;
    chunk.FlattenSel();
    if (first) {
      names = chunk.names;
      cols.assign(chunk.cols.size(), {});
      first = false;
    }
    for (std::size_t c = 0; c < chunk.cols.size(); ++c) {
      cols[c].insert(cols[c].end(), chunk.cols[c].begin(),
                     chunk.cols[c].end());
    }
  }
  if (first) return false;  // empty input: nothing to sort or emit
  Table gathered;
  for (std::size_t c = 0; c < names.size(); ++c) {
    RAVEN_RETURN_IF_ERROR(
        gathered.AddNumericColumn(names[c], std::move(cols[c])));
  }
  RAVEN_ASSIGN_OR_RETURN(Table sorted, SortTable(std::move(gathered), keys_));
  out->names = names;
  out->order_source = 0;
  out->order_morsel = 0;
  out->sel.clear();  // reused chunks must not keep a stale selection
  out->cols.clear();
  out->cols.reserve(sorted.columns().size());
  for (auto& column : sorted.mutable_columns()) {
    out->cols.push_back(std::move(column.data));
  }
  return true;
}

Status InstrumentedOperator::Open() {
  const auto start = std::chrono::steady_clock::now();
  Status status = child_->Open();
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  slot_->open_nanos.fetch_add(elapsed, std::memory_order_relaxed);
  return status;
}

Result<bool> InstrumentedOperator::Next(DataChunk* out) {
  const auto start = std::chrono::steady_clock::now();
  auto result = child_->Next(out);
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  slot_->wall_nanos.fetch_add(elapsed, std::memory_order_relaxed);
  if (result.ok() && result.value()) {
    slot_->chunks.fetch_add(1, std::memory_order_relaxed);
    slot_->rows.fetch_add(out->num_selected(), std::memory_order_relaxed);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

Result<Table> MaterializeAll(PhysicalOperator* root) {
  RAVEN_RETURN_IF_ERROR(root->Open());
  Table out;
  DataChunk chunk;
  bool first = true;
  std::vector<std::vector<double>> cols;
  std::vector<std::string> names;
  while (true) {
    RAVEN_ASSIGN_OR_RETURN(bool more, root->Next(&chunk));
    if (!more) break;
    chunk.FlattenSel();
    if (first) {
      names = chunk.names;
      cols.assign(chunk.cols.size(), {});
      first = false;
    }
    for (std::size_t c = 0; c < chunk.cols.size(); ++c) {
      cols[c].insert(cols[c].end(), chunk.cols[c].begin(),
                     chunk.cols[c].end());
    }
  }
  for (std::size_t c = 0; c < names.size(); ++c) {
    RAVEN_RETURN_IF_ERROR(out.AddNumericColumn(names[c], std::move(cols[c])));
  }
  return out;
}

Status DrainOrdered(PhysicalOperator* root, std::vector<OrderedChunk>* out) {
  RAVEN_RETURN_IF_ERROR(root->Open());
  while (true) {
    DataChunk chunk;
    RAVEN_ASSIGN_OR_RETURN(bool more, root->Next(&chunk));
    if (!more) return Status::OK();
    // Merge/serialize paths downstream index rows positionally.
    chunk.FlattenSel();
    OrderedChunk entry;
    entry.source = chunk.order_source;
    entry.morsel = chunk.order_morsel;
    entry.chunk = std::move(chunk);
    out->push_back(std::move(entry));
  }
}

Result<Table> MergeOrderedChunks(
    std::vector<std::vector<OrderedChunk>> parts) {
  std::vector<OrderedChunk> all;
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  all.reserve(total);
  for (auto& part : parts) {
    for (auto& entry : part) all.push_back(std::move(entry));
  }
  // Workers pop morsels in increasing order, so each part is already
  // sorted; a stable sort across parts restores global sequential order.
  std::stable_sort(all.begin(), all.end(),
                   [](const OrderedChunk& a, const OrderedChunk& b) {
                     return a.source != b.source ? a.source < b.source
                                                 : a.morsel < b.morsel;
                   });
  Table out;
  std::vector<std::vector<double>> cols;
  std::vector<std::string> names;
  bool first = true;
  for (auto& entry : all) {
    if (first) {
      names = entry.chunk.names;
      cols.assign(names.size(), {});
      first = false;
    }
    if (entry.chunk.names != names) {
      return Status::ExecutionError("parallel worker chunk schema mismatch");
    }
    for (std::size_t c = 0; c < names.size(); ++c) {
      cols[c].insert(cols[c].end(), entry.chunk.cols[c].begin(),
                     entry.chunk.cols[c].end());
    }
  }
  for (std::size_t c = 0; c < names.size(); ++c) {
    RAVEN_RETURN_IF_ERROR(out.AddNumericColumn(names[c], std::move(cols[c])));
  }
  return out;
}

}  // namespace raven::relational
