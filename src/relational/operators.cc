#include "relational/operators.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <mutex>
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

ScanOperator::ScanOperator(const Table* table, std::int64_t begin,
                           std::int64_t end)
    : table_(table), begin_(begin),
      end_(end < 0 ? table->num_rows() : end) {}

ScanOperator::ScanOperator(const Table* table,
                           std::shared_ptr<MorselQueue> morsels,
                           std::int64_t order_source)
    : table_(table), begin_(0), end_(table->num_rows()),
      morsels_(std::move(morsels)), order_source_(order_source) {}

Status ScanOperator::Open() {
  cursor_ = begin_;
  if (begin_ < 0 || end_ > table_->num_rows() || begin_ > end_) {
    return Status::OutOfRange("scan range invalid");
  }
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
  if (cursor_ >= end_) return false;
  const std::int64_t n = std::min(kChunkSize, end_ - cursor_);
  EmitRows(cursor_, n, out);
  out->order_source = order_source_;
  out->order_morsel = (cursor_ - begin_) / kChunkSize;
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

Status FilterOperator::Open() {
  RAVEN_RETURN_IF_ERROR(child_->Open());
  RAVEN_ASSIGN_OR_RETURN(std::vector<std::string> schema,
                         child_->OutputColumns());
  RAVEN_ASSIGN_OR_RETURN(program_,
                         predicate_->Get(schema, "Filter predicate"));
  return Status::OK();
}

Result<bool> FilterOperator::Next(DataChunk* out) {
  while (true) {
    RAVEN_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    // The compiled predicate evaluates every physical row; the selection
    // vector is then refined to survivors — no column data moves while
    // the selection stays dense. Sparse survivor sets are compacted
    // immediately: downstream kernels (an inlined tree's decision walk
    // included) also run over every physical row, and below half
    // selectivity one copy is cheaper than their passes over dead rows.
    // The copy is bounded by what the pre-selection-vector filter always
    // did.
    RAVEN_ASSIGN_OR_RETURN(const std::vector<double>* mask,
                           program_->Run(*out, &scratch_));
    if (RefineSelection(*mask, out) > 0) {
      if (out->num_selected() * 2 < out->num_rows()) out->FlattenSel();
      return true;
    }
    // Fully filtered; pull the next chunk.
  }
}

Status ProjectOperator::Open() {
  RAVEN_RETURN_IF_ERROR(child_->Open());
  RAVEN_ASSIGN_OR_RETURN(std::vector<std::string> schema,
                         child_->OutputColumns());
  programs_.clear();
  programs_.reserve(exprs_.size());
  for (std::size_t e = 0; e < exprs_.size(); ++e) {
    RAVEN_ASSIGN_OR_RETURN(
        const KernelProgram* program,
        exprs_[e]->Get(schema, "Project expression '" + names_[e] + "'"));
    programs_.push_back(program);
  }
  return Status::OK();
}

Result<bool> ProjectOperator::Next(DataChunk* out) {
  RAVEN_ASSIGN_OR_RETURN(bool more, child_->Next(&input_));
  if (!more) return false;
  out->names = names_;
  out->order_source = input_.order_source;
  out->order_morsel = input_.order_morsel;
  out->sel.clear();
  out->cols.assign(programs_.size(), {});
  for (std::size_t e = 0; e < programs_.size(); ++e) {
    RAVEN_ASSIGN_OR_RETURN(const std::vector<double>* values,
                           programs_[e]->Run(input_, &scratch_));
    // Gather through the child's selection: projection doubles as the
    // compaction point after a filter, one pass per output column.
    GatherSelected(*values, input_.sel, &out->cols[e]);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

namespace {

/// Bucket hash of a join key: its bit pattern with -0.0 folded onto +0.0
/// (the two are IEEE-equal, so they must share a bucket), mixed by the
/// murmur3 64-bit finalizer so keys that differ only in high mantissa or
/// exponent bits — small integers stored as doubles — spread over the low
/// bits the bucket mask keeps.
std::uint64_t HashJoinKey(double key) {
  if (key == 0.0) key = 0.0;
  auto h = std::bit_cast<std::uint64_t>(key);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
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

Status PredictOperator::Open() {
  RAVEN_RETURN_IF_ERROR(child_->Open());
  RAVEN_ASSIGN_OR_RETURN(std::vector<std::string> schema,
                         child_->OutputColumns());
  input_idx_.clear();
  input_idx_.reserve(input_columns_.size());
  for (const auto& name : input_columns_) {
    RAVEN_ASSIGN_OR_RETURN(
        std::int64_t idx,
        KernelProgram::ResolveOrdinal(schema, name, "PREDICT input"));
    input_idx_.push_back(idx);
  }
  return Status::OK();
}

Result<std::vector<std::string>> PredictOperator::OutputColumns() const {
  RAVEN_ASSIGN_OR_RETURN(std::vector<std::string> schema,
                         child_->OutputColumns());
  schema.push_back(output_name_);
  return schema;
}

Result<bool> PredictOperator::Next(DataChunk* out) {
  RAVEN_ASSIGN_OR_RETURN(bool more, child_->Next(out));
  if (!more) return false;
  // Assemble the feature tensor straight through the selection vector:
  // only surviving rows are gathered (and scored).
  const std::int64_t n = out->num_selected();
  GatherModelInput(*out, input_idx_, &input_);
  RAVEN_ASSIGN_OR_RETURN(std::vector<double> preds, scorer_(input_));
  if (static_cast<std::int64_t>(preds.size()) != n) {
    return Status::ExecutionError("scorer returned " +
                                  std::to_string(preds.size()) +
                                  " predictions for " + std::to_string(n) +
                                  " rows");
  }
  // Predictions are per-selected-row; compact the pass-through columns to
  // match before appending the new column.
  out->FlattenSel();
  out->names.push_back(output_name_);
  out->cols.push_back(std::move(preds));
  return true;
}

// ---------------------------------------------------------------------------
// Fused filter -> project -> PREDICT chains
// ---------------------------------------------------------------------------

Status FusedOperator::Open() {
  RAVEN_RETURN_IF_ERROR(child_->Open());
  RAVEN_ASSIGN_OR_RETURN(std::vector<std::string> schema,
                         child_->OutputColumns());
  compiled_.clear();
  compiled_.resize(stages_.size());
  // Compile each stage against the schema as it evolves through the chain:
  // a filter keeps it, a projection replaces it, PREDICT appends a column.
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const FusedStage& stage = stages_[s];
    CompiledStage& cs = compiled_[s];
    switch (stage.kind) {
      case FusedStage::Kind::kFilter: {
        RAVEN_ASSIGN_OR_RETURN(
            cs.predicate,
            stage.predicate->Get(schema, label_ + " filter predicate"));
        break;
      }
      case FusedStage::Kind::kProject: {
        cs.exprs.reserve(stage.exprs.size());
        for (std::size_t e = 0; e < stage.exprs.size(); ++e) {
          RAVEN_ASSIGN_OR_RETURN(
              const KernelProgram* program,
              stage.exprs[e]->Get(schema, label_ + " projection '" +
                                              stage.names[e] + "'"));
          cs.exprs.push_back(program);
        }
        for (const auto& program : stage.exprs) {
          const Expr& e = program->expr();
          if (e.kind() != Expr::Kind::kColumnRef) break;
          RAVEN_ASSIGN_OR_RETURN(
              std::int64_t idx,
              KernelProgram::ResolveOrdinal(
                  schema, static_cast<const ColumnRefExpr&>(e).name(),
                  label_ + " projection"));
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
        cs.input_idx_.reserve(stage.input_columns.size());
        for (const auto& name : stage.input_columns) {
          RAVEN_ASSIGN_OR_RETURN(
              std::int64_t idx,
              KernelProgram::ResolveOrdinal(schema, name,
                                            label_ + " PREDICT input"));
          cs.input_idx_.push_back(idx);
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
    RAVEN_ASSIGN_OR_RETURN(bool more, child_->Next(&work_));
    if (!more) return false;
    bool dead = false;
    for (std::size_t s = 0; s < stages_.size() && !dead; ++s) {
      const FusedStage& stage = stages_[s];
      CompiledStage& cs = compiled_[s];
      switch (stage.kind) {
        case FusedStage::Kind::kFilter: {
          RAVEN_ASSIGN_OR_RETURN(const std::vector<double>* mask,
                                 cs.predicate->Run(work_, &scratch_));
          dead = RefineSelection(*mask, &work_) == 0;
          // Later stages' kernels (decision walks included) and PREDICT
          // gathers run over every physical row, so compact sparse
          // survivor sets here rather than pay for dead rows.
          if (!dead && work_.num_selected() * 2 < work_.num_rows()) {
            work_.FlattenSel();
          }
          break;
        }
        case FusedStage::Kind::kProject: {
          DataChunk projected;
          projected.names = stage.names;
          projected.order_source = work_.order_source;
          projected.order_morsel = work_.order_morsel;
          projected.cols.assign(cs.exprs.size(), {});
          if (!cs.moved_idx.empty() && !work_.has_sel()) {
            for (std::size_t e = 0; e < cs.moved_idx.size(); ++e) {
              projected.cols[e] = std::move(
                  work_.cols[static_cast<std::size_t>(cs.moved_idx[e])]);
            }
            work_ = std::move(projected);
            break;
          }
          for (std::size_t e = 0; e < cs.exprs.size(); ++e) {
            RAVEN_ASSIGN_OR_RETURN(const std::vector<double>* values,
                                   cs.exprs[e]->Run(work_, &scratch_));
            GatherSelected(*values, work_.sel, &projected.cols[e]);
          }
          work_ = std::move(projected);
          break;
        }
        case FusedStage::Kind::kPredict: {
          const std::int64_t n = work_.num_selected();
          GatherModelInput(work_, cs.input_idx_, &cs.input);
          RAVEN_ASSIGN_OR_RETURN(std::vector<double> preds,
                                 stage.scorer(cs.input));
          if (static_cast<std::int64_t>(preds.size()) != n) {
            return Status::ExecutionError(
                "scorer returned " + std::to_string(preds.size()) +
                " predictions for " + std::to_string(n) + " rows");
          }
          work_.FlattenSel();
          work_.names.push_back(stage.output_name);
          work_.cols.push_back(std::move(preds));
          break;
        }
      }
    }
    if (dead) continue;  // every row filtered; pull the next chunk
    *out = std::move(work_);
    return true;
  }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

void AggPartial::AccumulateValue(double v) {
  if (count == 0) {
    min = v;
    max = v;
  } else if (std::isnan(v) || std::isnan(min)) {
    // NaN-propagating MIN/MAX: any NaN input makes both NaN, regardless of
    // accumulation or merge order. std::min/std::max keep or drop a NaN
    // depending on argument order, which would make parallel results
    // diverge from sequential (SUM propagates NaN on its own).
    min = std::numeric_limits<double>::quiet_NaN();
    max = std::numeric_limits<double>::quiet_NaN();
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  sum.Add(v);
  ++count;
}

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

SharedAggregateState::SharedAggregateState(std::vector<AggregateSpec> aggs)
    : aggs_(std::move(aggs)) {}

void SharedAggregateState::Merge(std::int64_t worker,
                                 const std::vector<AggPartial>& partials) {
  std::lock_guard<std::mutex> lock(mu_);
  if (worker < 0) worker = 0;
  const auto slot = static_cast<std::size_t>(worker);
  if (slot >= worker_partials_.size()) {
    worker_partials_.resize(slot + 1,
                            std::vector<AggPartial>(aggs_.size()));
  }
  auto& mine = worker_partials_[slot];
  for (std::size_t a = 0; a < mine.size() && a < partials.size(); ++a) {
    mine[a].MergeFrom(partials[a]);
  }
}

DataChunk SharedAggregateState::FinalChunk() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Fold deposits in ascending worker id — a fixed partition order,
  // independent of which worker merged first.
  std::vector<AggPartial> totals(aggs_.size());
  for (const auto& partials : worker_partials_) {
    for (std::size_t a = 0; a < totals.size(); ++a) {
      totals[a].MergeFrom(partials[a]);
    }
  }
  DataChunk out;
  for (std::size_t a = 0; a < aggs_.size(); ++a) {
    out.names.push_back(aggs_[a].output_name);
    out.cols.push_back({FinalizeAggPartial(aggs_[a].kind, totals[a])});
  }
  return out;
}

AggregateOperator::AggregateOperator(OperatorPtr child,
                                     std::vector<AggregateSpec> aggs)
    : child_(std::move(child)), aggs_(std::move(aggs)) {}

AggregateOperator::AggregateOperator(
    OperatorPtr child, std::shared_ptr<SharedAggregateState> shared,
    std::int64_t worker_id)
    : child_(std::move(child)), shared_(std::move(shared)),
      worker_id_(worker_id) {}

Status AggregateOperator::Open() {
  RAVEN_RETURN_IF_ERROR(child_->Open());
  RAVEN_ASSIGN_OR_RETURN(std::vector<std::string> schema,
                         child_->OutputColumns());
  const auto& aggs = specs();
  agg_idx_.assign(aggs.size(), -1);
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].kind == AggKind::kCount) continue;  // no input column
    RAVEN_ASSIGN_OR_RETURN(
        agg_idx_[a],
        KernelProgram::ResolveOrdinal(schema, aggs[a].column,
                                      "Aggregate " + aggs[a].output_name));
  }
  return Status::OK();
}

Result<std::vector<std::string>> AggregateOperator::OutputColumns() const {
  std::vector<std::string> names;
  for (const auto& agg : specs()) names.push_back(agg.output_name);
  return names;
}

Result<std::vector<AggPartial>> AggregateOperator::DrainChild(
    const std::vector<AggregateSpec>& aggs) {
  std::vector<AggPartial> partials(aggs.size());
  DataChunk chunk;
  while (true) {
    RAVEN_ASSIGN_OR_RETURN(bool more, child_->Next(&chunk));
    if (!more) break;
    const std::int64_t n = chunk.num_selected();
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      AggPartial& acc = partials[a];
      if (agg_idx_[a] < 0) {
        acc.count += n;  // no NULLs in this engine: COUNT(col) == COUNT(*)
        continue;
      }
      const auto& col = chunk.cols[static_cast<std::size_t>(agg_idx_[a])];
      if (chunk.has_sel()) {
        for (std::int32_t i : chunk.sel) {
          acc.AccumulateValue(col[static_cast<std::size_t>(i)]);
        }
      } else {
        for (double v : col) acc.AccumulateValue(v);
      }
    }
  }
  return partials;
}

Result<bool> AggregateOperator::Next(DataChunk* out) {
  if (done_) return false;
  done_ = true;
  if (shared_ != nullptr) {
    // Partial-sink mode: accumulate thread-locally, deposit once, emit
    // nothing — the executor renders the final row after all workers join.
    RAVEN_ASSIGN_OR_RETURN(std::vector<AggPartial> partials,
                           DrainChild(shared_->aggs()));
    shared_->Merge(worker_id_, partials);
    return false;
  }
  RAVEN_ASSIGN_OR_RETURN(std::vector<AggPartial> partials, DrainChild(aggs_));
  SharedAggregateState state(aggs_);
  state.Merge(0, partials);
  *out = state.FinalChunk();
  return true;
}

// ---------------------------------------------------------------------------
// Grouped aggregation
// ---------------------------------------------------------------------------

namespace {

/// Renders the (already key-ordered) groups into output columns: keys in
/// spec order, then the finalized aggregates.
void RenderGroups(const GroupBySpec& spec, const GroupMap& groups,
                  std::vector<std::string>* names,
                  std::vector<std::vector<double>>* cols) {
  names->clear();
  names->reserve(spec.keys.size() + spec.aggs.size());
  for (const auto& key : spec.keys) names->push_back(key);
  for (const auto& agg : spec.aggs) names->push_back(agg.output_name);
  cols->assign(names->size(), {});
  for (auto& col : *cols) col.reserve(groups.size());
  for (const auto& [key, partials] : groups) {
    for (std::size_t k = 0; k < spec.keys.size(); ++k) {
      (*cols)[k].push_back(key[k]);
    }
    for (std::size_t a = 0; a < spec.aggs.size(); ++a) {
      (*cols)[spec.keys.size() + a].push_back(
          FinalizeAggPartial(spec.aggs[a].kind, partials[a]));
    }
  }
}

}  // namespace

SharedGroupByState::SharedGroupByState(GroupBySpec spec)
    : spec_(std::move(spec)) {}

std::size_t SharedGroupByState::StripeOf(const std::vector<double>& key) {
  std::size_t seed = 0xcbf29ce484222325ULL;
  for (double v : key) {
    seed ^= std::hash<double>{}(v) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
            (seed >> 2);
  }
  return seed % kStripes;
}

void SharedGroupByState::Merge(GroupMap local) {
  // Bucket the worker's groups per stripe first so every stripe mutex is
  // taken at most once per merge instead of once per group.
  std::array<std::vector<const GroupMap::value_type*>, kStripes> buckets;
  for (const auto& entry : local) {
    buckets[StripeOf(entry.first)].push_back(&entry);
  }
  for (std::size_t s = 0; s < kStripes; ++s) {
    if (buckets[s].empty()) continue;
    Stripe& stripe = stripes_[s];
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const GroupMap::value_type* entry : buckets[s]) {
      auto [it, inserted] =
          stripe.groups.try_emplace(entry->first, spec_.aggs.size());
      for (std::size_t a = 0; a < spec_.aggs.size(); ++a) {
        it->second[a].MergeFrom(entry->second[a]);
      }
      (void)inserted;
    }
  }
}

Result<Table> SharedGroupByState::FinalTable() const {
  // Each key lives in exactly one stripe, so concatenating the (ordered)
  // stripe maps into one ordered map restores the canonical ascending
  // key-tuple order.
  GroupMap merged;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    merged.insert(stripe.groups.begin(), stripe.groups.end());
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
    : child_(std::move(child)), spec_(std::move(spec)) {}

GroupByOperator::GroupByOperator(OperatorPtr child,
                                 std::shared_ptr<SharedGroupByState> shared)
    : child_(std::move(child)), shared_(std::move(shared)) {}

Status GroupByOperator::Open() {
  RAVEN_RETURN_IF_ERROR(child_->Open());
  RAVEN_ASSIGN_OR_RETURN(std::vector<std::string> schema,
                         child_->OutputColumns());
  const GroupBySpec& spec = the_spec();
  key_idx_.clear();
  key_idx_.reserve(spec.keys.size());
  for (const auto& key : spec.keys) {
    RAVEN_ASSIGN_OR_RETURN(
        std::int64_t idx,
        KernelProgram::ResolveOrdinal(schema, key, "GROUP BY key"));
    key_idx_.push_back(idx);
  }
  agg_idx_.assign(spec.aggs.size(), -1);
  for (std::size_t a = 0; a < spec.aggs.size(); ++a) {
    if (spec.aggs[a].kind == AggKind::kCount) continue;
    RAVEN_ASSIGN_OR_RETURN(
        agg_idx_[a],
        KernelProgram::ResolveOrdinal(
            schema, spec.aggs[a].column,
            "GROUP BY aggregate " + spec.aggs[a].output_name));
  }
  return Status::OK();
}

Result<std::vector<std::string>> GroupByOperator::OutputColumns() const {
  const GroupBySpec& spec = the_spec();
  std::vector<std::string> names;
  names.reserve(spec.keys.size() + spec.aggs.size());
  for (const auto& key : spec.keys) names.push_back(key);
  for (const auto& agg : spec.aggs) names.push_back(agg.output_name);
  return names;
}

Result<GroupMap> GroupByOperator::DrainChild(const GroupBySpec& spec) {
  GroupMap groups;
  DataChunk chunk;
  std::vector<double> key(spec.keys.size());
  while (true) {
    RAVEN_ASSIGN_OR_RETURN(bool more, child_->Next(&chunk));
    if (!more) break;
    const std::int64_t n = chunk.num_selected();
    for (std::int64_t r = 0; r < n; ++r) {
      const auto row = static_cast<std::size_t>(
          chunk.has_sel() ? chunk.sel[static_cast<std::size_t>(r)] : r);
      for (std::size_t k = 0; k < key.size(); ++k) {
        const double v =
            chunk.cols[static_cast<std::size_t>(key_idx_[k])][row];
        // Canonicalize the keys GroupKeyLess treats as equal: every NaN
        // payload is one NaN, and -0.0 is +0.0, so a group renders the
        // same key whichever row or worker inserted it first.
        key[k] = std::isnan(v)   ? std::numeric_limits<double>::quiet_NaN()
                 : v == 0.0 ? 0.0
                            : v;
      }
      auto& partials = groups.try_emplace(key, spec.aggs.size()).first->second;
      for (std::size_t a = 0; a < spec.aggs.size(); ++a) {
        if (agg_idx_[a] < 0) {
          ++partials[a].count;  // no NULLs in this engine: COUNT counts rows
        } else {
          partials[a].AccumulateValue(
              chunk.cols[static_cast<std::size_t>(agg_idx_[a])][row]);
        }
      }
    }
  }
  return groups;
}

Result<bool> GroupByOperator::Next(DataChunk* out) {
  if (done_) return false;
  done_ = true;
  if (shared_ != nullptr) {
    // Partial-sink mode: pre-aggregate thread-locally, merge once, emit
    // nothing — the executor renders the merged table after all workers
    // join.
    RAVEN_ASSIGN_OR_RETURN(GroupMap groups, DrainChild(shared_->spec()));
    shared_->Merge(std::move(groups));
    return false;
  }
  RAVEN_ASSIGN_OR_RETURN(GroupMap groups, DrainChild(spec_));
  if (groups.empty()) return false;  // empty input: emit nothing (see above)
  out->order_source = 0;
  out->order_morsel = 0;
  out->sel.clear();  // reused chunks must not keep a stale selection
  RenderGroups(spec_, groups, &out->names, &out->cols);
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
