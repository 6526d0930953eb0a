#include "storage/columnar.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/serialize.h"

namespace raven::storage {
namespace {

constexpr char kMagic[4] = {'R', 'V', 'C', '1'};
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 8;

/// FNV-1a over 8-byte words (tail bytes one at a time) — same checksum the
/// NNRT artifact cache pins; it detects corruption, it is not a MAC. The
/// writer and the meta blob use this one chain; block reads use Fnv1aMany,
/// so every read cross-checks the two.
std::uint64_t Fnv1a(const char* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, data + i, 8);
    h ^= word;
    h *= 1099511628211ull;
  }
  for (; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

/// Fnv1a of every (data[k], n[k]) into out[k], bit-identical to calling
/// Fnv1a on each. One FNV-1a chain is bound by multiply latency, so this
/// runs four independent chains interleaved: whenever a lane finishes its
/// payload, it hashes that payload's tail bytes and takes the next one. An
/// idle lane rehashes a dummy word and its result is dropped.
void Fnv1aMany(const char* const* data, const std::size_t* n,
               std::size_t count, std::uint64_t* out) {
  constexpr std::uint64_t kBasis = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  constexpr std::size_t kIdle = SIZE_MAX;  // payload index of an idle lane
  static const std::uint64_t kDummy = 0;
  struct Lane {
    const char* ptr;
    std::size_t words;  // whole words left (SIZE_MAX when idle)
    std::size_t stride;
    std::uint64_t h;
    std::size_t payload;
  };
  Lane lanes[4];
  std::size_t next = 0;
  auto assign = [&](Lane* lane) {
    if (next < count) {
      *lane = {data[next], n[next] / 8, 8, kBasis, next};
      ++next;
    } else {
      *lane = {reinterpret_cast<const char*>(&kDummy), SIZE_MAX, 0, 0, kIdle};
    }
  };
  for (Lane& lane : lanes) assign(&lane);
  auto load = [](const char* p) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    return word;
  };
  while (true) {
    std::size_t step = SIZE_MAX;
    for (const Lane& lane : lanes) step = std::min(step, lane.words);
    if (step == SIZE_MAX) return;  // every lane idle
    const char* p0 = lanes[0].ptr;
    const char* p1 = lanes[1].ptr;
    const char* p2 = lanes[2].ptr;
    const char* p3 = lanes[3].ptr;
    std::uint64_t h0 = lanes[0].h;
    std::uint64_t h1 = lanes[1].h;
    std::uint64_t h2 = lanes[2].h;
    std::uint64_t h3 = lanes[3].h;
    const std::size_t s0 = lanes[0].stride;
    const std::size_t s1 = lanes[1].stride;
    const std::size_t s2 = lanes[2].stride;
    const std::size_t s3 = lanes[3].stride;
    for (std::size_t w = 0; w < step; ++w) {
      h0 = (h0 ^ load(p0)) * kPrime;
      h1 = (h1 ^ load(p1)) * kPrime;
      h2 = (h2 ^ load(p2)) * kPrime;
      h3 = (h3 ^ load(p3)) * kPrime;
      p0 += s0;
      p1 += s1;
      p2 += s2;
      p3 += s3;
    }
    lanes[0].ptr = p0;
    lanes[1].ptr = p1;
    lanes[2].ptr = p2;
    lanes[3].ptr = p3;
    lanes[0].h = h0;
    lanes[1].h = h1;
    lanes[2].h = h2;
    lanes[3].h = h3;
    for (Lane& lane : lanes) {
      if (lane.payload == kIdle) continue;
      lane.words -= step;
      if (lane.words > 0) continue;
      const std::size_t k = lane.payload;
      for (std::size_t i = n[k] / 8 * 8; i < n[k]; ++i) {
        lane.h = (lane.h ^ static_cast<unsigned char>(data[k][i])) * kPrime;
      }
      out[k] = lane.h;
      assign(&lane);
    }
  }
}

/// Bit-pattern equality: lets NaN extend an RLE run (NaN != NaN under
/// operator==) and keeps -0.0 vs +0.0 distinct, so decode is bit-exact.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void WriteStats(const relational::ColumnStats& s, BinaryWriter* w) {
  w->WriteF64(s.min);
  w->WriteF64(s.max);
  w->WriteI64(s.num_rows);
  w->WriteI64(s.nan_count);
  w->WriteI64(s.non_finite_count);
  w->WriteBool(s.has_non_finite);
  w->WriteI64(s.distinct);
  w->WriteBool(s.distinct_exact);
  w->WriteBool(s.constant.has_value());
  w->WriteF64(s.constant.value_or(0.0));
}

Result<relational::ColumnStats> ReadStats(BinaryReader* r) {
  relational::ColumnStats s;
  RAVEN_ASSIGN_OR_RETURN(s.min, r->ReadF64());
  RAVEN_ASSIGN_OR_RETURN(s.max, r->ReadF64());
  RAVEN_ASSIGN_OR_RETURN(s.num_rows, r->ReadI64());
  RAVEN_ASSIGN_OR_RETURN(s.nan_count, r->ReadI64());
  RAVEN_ASSIGN_OR_RETURN(s.non_finite_count, r->ReadI64());
  RAVEN_ASSIGN_OR_RETURN(s.has_non_finite, r->ReadBool());
  RAVEN_ASSIGN_OR_RETURN(s.distinct, r->ReadI64());
  RAVEN_ASSIGN_OR_RETURN(s.distinct_exact, r->ReadBool());
  bool has_constant = false;
  RAVEN_ASSIGN_OR_RETURN(has_constant, r->ReadBool());
  RAVEN_ASSIGN_OR_RETURN(const double constant, r->ReadF64());
  if (has_constant) s.constant = constant;
  return s;
}

/// Encodes one block of one column, choosing RLE when it is strictly
/// smaller than plain storage. Returns the encoding used.
std::uint8_t EncodePayload(const double* values, std::int64_t n,
                           bool enable_rle, BinaryWriter* out) {
  if (enable_rle && n > 0) {
    std::vector<std::pair<double, std::uint64_t>> runs;
    runs.emplace_back(values[0], 1);
    for (std::int64_t i = 1; i < n; ++i) {
      if (SameBits(values[i], runs.back().first)) {
        ++runs.back().second;
      } else {
        runs.emplace_back(values[i], 1);
      }
    }
    const std::size_t rle_size = 8 + runs.size() * 16;
    const std::size_t plain_size = static_cast<std::size_t>(n) * 8;
    if (rle_size < plain_size) {
      out->WriteU64(runs.size());
      for (const auto& [value, count] : runs) {
        out->WriteF64(value);
        out->WriteU64(count);
      }
      return 1;
    }
  }
  for (std::int64_t i = 0; i < n; ++i) out->WriteF64(values[i]);
  return 0;
}

Status Corrupt(const std::string& path, const std::string& why) {
  return Status::InvalidArgument("rvc file '" + path + "': " + why);
}

}  // namespace

Status WriteRvc(const relational::Table& table, const std::string& path,
                const RvcWriteOptions& options) {
  if (options.block_rows < 1) {
    return Status::InvalidArgument("rvc block_rows must be >= 1");
  }
  if (table.num_columns() == 0) {
    return Status::InvalidArgument("cannot write rvc with no columns");
  }
  const std::int64_t num_rows = table.num_rows();
  const std::int64_t block_rows = options.block_rows;
  const std::int64_t num_blocks =
      num_rows == 0 ? 0 : (num_rows + block_rows - 1) / block_rows;

  BinaryWriter meta;
  BinaryWriter data;
  meta.WriteI64(num_rows);
  meta.WriteI64(block_rows);
  meta.WriteU32(static_cast<std::uint32_t>(table.num_columns()));
  for (const auto& col : table.columns()) {
    meta.WriteString(col.name);
    meta.WriteBool(col.is_categorical());
    if (col.is_categorical()) meta.WriteStringVector(*col.dictionary);
  }
  meta.WriteI64(num_blocks);
  for (std::int64_t b = 0; b < num_blocks; ++b) {
    const std::int64_t begin = b * block_rows;
    const std::int64_t rows = std::min(block_rows, num_rows - begin);
    meta.WriteI64(rows);
    for (const auto& col : table.columns()) {
      relational::Column slice;
      slice.name = col.name;
      slice.data.assign(col.data.begin() + begin,
                        col.data.begin() + begin + rows);
      WriteStats(relational::ComputeColumnStats(slice), &meta);
      const std::size_t offset = data.buffer().size();
      const std::uint8_t encoding = EncodePayload(
          col.data.data() + begin, rows, options.enable_rle, &data);
      const std::size_t length = data.buffer().size() - offset;
      meta.WriteU8(encoding);
      meta.WriteU64(offset);
      meta.WriteU64(length);
      meta.WriteU64(Fnv1a(data.buffer().data() + offset, length));
    }
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out.write(kMagic, sizeof(kMagic));
  const std::uint32_t version = kRvcVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const std::uint64_t meta_len = meta.buffer().size();
  out.write(reinterpret_cast<const char*>(&meta_len), sizeof(meta_len));
  const std::uint64_t meta_checksum =
      Fnv1a(meta.buffer().data(), meta.buffer().size());
  out.write(reinterpret_cast<const char*>(&meta_checksum),
            sizeof(meta_checksum));
  out.write(meta.buffer().data(),
            static_cast<std::streamsize>(meta.buffer().size()));
  out.write(data.buffer().data(),
            static_cast<std::streamsize>(data.buffer().size()));
  out.flush();
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::OK();
}

Result<std::shared_ptr<DiskTable>> DiskTable::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path + "': " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("fstat '" + path + "' failed");
  }
  const std::size_t file_size = static_cast<std::size_t>(st.st_size);
  if (file_size < kHeaderSize) {
    ::close(fd);
    return Corrupt(path, "truncated (smaller than header)");
  }
  void* mapping = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (mapping == MAP_FAILED) {
    ::close(fd);
    return Status::IoError("mmap '" + path + "' failed");
  }

  std::shared_ptr<DiskTable> table(new DiskTable());
  table->path_ = path;
  table->fd_ = fd;
  table->mapping_ = static_cast<const char*>(mapping);
  table->file_size_ = file_size;
  const char* base = table->mapping_;

  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(path, "bad magic (not an rvc file)");
  }
  std::uint32_t version;
  std::memcpy(&version, base + 4, sizeof(version));
  if (version != kRvcVersion) {
    return Corrupt(path, "unsupported format version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kRvcVersion) + ")");
  }
  std::uint64_t meta_len;
  std::uint64_t meta_checksum;
  std::memcpy(&meta_len, base + 8, sizeof(meta_len));
  std::memcpy(&meta_checksum, base + 16, sizeof(meta_checksum));
  if (meta_len > file_size - kHeaderSize) {
    return Corrupt(path, "truncated (meta extends past end of file)");
  }
  const char* meta_start = base + kHeaderSize;
  if (Fnv1a(meta_start, meta_len) != meta_checksum) {
    return Corrupt(path, "meta checksum mismatch");
  }
  table->data_ = meta_start + meta_len;
  table->data_size_ = file_size - kHeaderSize - meta_len;

  BinaryReader reader(meta_start, meta_len);
  RAVEN_ASSIGN_OR_RETURN(table->num_rows_, reader.ReadI64());
  RAVEN_ASSIGN_OR_RETURN(table->block_rows_, reader.ReadI64());
  if (table->num_rows_ < 0 || table->block_rows_ < 1) {
    return Corrupt(path, "invalid row/block geometry");
  }
  RAVEN_ASSIGN_OR_RETURN(const std::uint32_t num_columns, reader.ReadU32());
  table->columns_.reserve(num_columns);
  for (std::uint32_t c = 0; c < num_columns; ++c) {
    ColumnMeta col;
    RAVEN_ASSIGN_OR_RETURN(col.name, reader.ReadString());
    bool categorical = false;
    RAVEN_ASSIGN_OR_RETURN(categorical, reader.ReadBool());
    if (categorical) {
      RAVEN_ASSIGN_OR_RETURN(col.dictionary, reader.ReadStringVector());
    }
    table->columns_.push_back(std::move(col));
  }
  std::int64_t num_blocks = 0;
  RAVEN_ASSIGN_OR_RETURN(num_blocks, reader.ReadI64());
  const std::int64_t expected_blocks =
      table->num_rows_ == 0
          ? 0
          : (table->num_rows_ + table->block_rows_ - 1) / table->block_rows_;
  if (num_blocks != expected_blocks) {
    return Corrupt(path, "block count does not match row count");
  }
  table->blocks_.reserve(static_cast<std::size_t>(num_blocks));
  std::int64_t rows_seen = 0;
  for (std::int64_t b = 0; b < num_blocks; ++b) {
    BlockMeta block;
    RAVEN_ASSIGN_OR_RETURN(block.row_count, reader.ReadI64());
    const std::int64_t expected_rows =
        std::min(table->block_rows_, table->num_rows_ - rows_seen);
    if (block.row_count != expected_rows) {
      return Corrupt(path, "block " + std::to_string(b) +
                               " has unexpected row count");
    }
    rows_seen += block.row_count;
    block.payloads.reserve(num_columns);
    for (std::uint32_t c = 0; c < num_columns; ++c) {
      PayloadMeta payload;
      RAVEN_ASSIGN_OR_RETURN(payload.stats, ReadStats(&reader));
      std::uint8_t encoding = 0;
      RAVEN_ASSIGN_OR_RETURN(encoding, reader.ReadU8());
      if (encoding > 1) {
        return Corrupt(path, "unknown payload encoding " +
                                 std::to_string(encoding));
      }
      payload.encoding = static_cast<Encoding>(encoding);
      RAVEN_ASSIGN_OR_RETURN(payload.offset, reader.ReadU64());
      RAVEN_ASSIGN_OR_RETURN(payload.length, reader.ReadU64());
      RAVEN_ASSIGN_OR_RETURN(payload.checksum, reader.ReadU64());
      if (payload.offset > table->data_size_ ||
          payload.length > table->data_size_ - payload.offset) {
        return Corrupt(path, "truncated (payload extends past end of file)");
      }
      block.payloads.push_back(payload);
    }
    table->blocks_.push_back(std::move(block));
    for (const auto& payload : table->blocks_.back().payloads) {
      if (payload.encoding == Encoding::kRle) ++table->rle_payloads_;
    }
  }
  if (!reader.AtEnd()) {
    return Corrupt(path, "trailing bytes after block metadata");
  }
  return table;
}

DiskTable::~DiskTable() {
  if (mapping_ != nullptr) {
    ::munmap(const_cast<char*>(mapping_), file_size_);
  }
  if (fd_ >= 0) ::close(fd_);
}

std::vector<std::string> DiskTable::ColumnNames() const {
  std::vector<std::string> out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col.name);
  return out;
}

std::int64_t DiskTable::BlockRowCount(std::int64_t block) const {
  if (block < 0 || block >= num_blocks()) return 0;
  return blocks_[static_cast<std::size_t>(block)].row_count;
}

const relational::ColumnStats* DiskTable::BlockStats(
    std::int64_t block, const std::string& column) const {
  if (block < 0 || block >= num_blocks()) return nullptr;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c].name == column) {
      return &blocks_[static_cast<std::size_t>(block)].payloads[c].stats;
    }
  }
  return nullptr;
}

const std::vector<std::string>* DiskTable::Dictionary(
    const std::string& column) const {
  for (const auto& col : columns_) {
    if (col.name == column) {
      return col.dictionary.has_value() ? &*col.dictionary : nullptr;
    }
  }
  return nullptr;
}

Status DiskTable::DecodePayload(const PayloadMeta& payload,
                                std::int64_t row_count,
                                std::vector<double>* out) const {
  const char* bytes = data_ + payload.offset;
  const std::size_t rows = static_cast<std::size_t>(row_count);
  out->resize(rows);
  if (payload.encoding == Encoding::kPlain) {
    if (payload.length != static_cast<std::uint64_t>(row_count) * 8) {
      return Corrupt(path_, "plain payload has wrong length");
    }
    std::memcpy(out->data(), bytes, payload.length);
    return Status::OK();
  }
  // RLE: u64 run count, then {f64 value, u64 count} per run. One length
  // check up front bounds every read below.
  std::uint64_t num_runs = 0;
  if (payload.length >= 8) std::memcpy(&num_runs, bytes, 8);
  if (payload.length < 8 || (payload.length - 8) % 16 != 0 ||
      (payload.length - 8) / 16 != num_runs) {
    return Corrupt(path_, "rle payload has wrong length");
  }
  const char* run = bytes + 8;
  double* dst = out->data();
  std::size_t filled = 0;
  for (std::uint64_t r = 0; r < num_runs; ++r, run += 16) {
    double value;
    std::uint64_t count;
    std::memcpy(&value, run, 8);
    std::memcpy(&count, run + 8, 8);
    if (count == 0 || count > rows - filled) {
      return Corrupt(path_, "rle run overflows block row count");
    }
    std::fill(dst + filled, dst + filled + count, value);
    filled += count;
  }
  if (filled != rows) {
    return Corrupt(path_, "rle payload does not cover block row count");
  }
  return Status::OK();
}

Status DiskTable::ReadBlock(std::int64_t block, relational::DataChunk* out,
                            const std::vector<std::int64_t>& columns) const {
  if (block < 0 || block >= num_blocks()) {
    return Status::OutOfRange("rvc block index out of range");
  }
  const BlockMeta& meta = blocks_[static_cast<std::size_t>(block)];
  // Every payload of the block is verified, requested or not, so a
  // projected read fails on corruption exactly where a full read would.
  const std::size_t num_payloads = meta.payloads.size();
  std::vector<const char*> starts(num_payloads);
  std::vector<std::size_t> lengths(num_payloads);
  std::vector<std::uint64_t> sums(num_payloads);
  for (std::size_t c = 0; c < num_payloads; ++c) {
    starts[c] = data_ + meta.payloads[c].offset;
    lengths[c] = static_cast<std::size_t>(meta.payloads[c].length);
  }
  Fnv1aMany(starts.data(), lengths.data(), num_payloads, sums.data());
  for (std::size_t c = 0; c < num_payloads; ++c) {
    if (sums[c] != meta.payloads[c].checksum) {
      return Corrupt(path_, "payload checksum mismatch (corrupted block)");
    }
  }
  const std::size_t width =
      columns.empty() ? columns_.size() : columns.size();
  out->names.resize(width);
  out->cols.resize(width);
  out->sel.clear();
  for (std::size_t i = 0; i < width; ++i) {
    const std::int64_t c =
        columns.empty() ? static_cast<std::int64_t>(i) : columns[i];
    if (c < 0 || c >= num_columns()) {
      return Status::OutOfRange("rvc column index out of range");
    }
    const auto col = static_cast<std::size_t>(c);
    out->names[i] = columns_[col].name;
    RAVEN_RETURN_IF_ERROR(
        DecodePayload(meta.payloads[col], meta.row_count, &out->cols[i]));
  }
  return Status::OK();
}

Result<relational::Table> DiskTable::ReadRows(std::int64_t begin,
                                              std::int64_t end) const {
  if (begin < 0 || end > num_rows_ || begin > end) {
    return Status::OutOfRange("rvc row range invalid");
  }
  std::vector<std::vector<double>> cols(columns_.size());
  for (auto& col : cols) {
    col.reserve(static_cast<std::size_t>(end - begin));
  }
  relational::DataChunk chunk;
  const std::int64_t first_block = num_blocks() == 0 ? 0 : begin / block_rows_;
  for (std::int64_t b = first_block; b < num_blocks(); ++b) {
    const std::int64_t block_begin = b * block_rows_;
    if (block_begin >= end) break;
    RAVEN_RETURN_IF_ERROR(ReadBlock(b, &chunk));
    const std::int64_t lo = std::max(begin - block_begin, std::int64_t{0});
    const std::int64_t hi = std::min(end - block_begin, BlockRowCount(b));
    for (std::size_t c = 0; c < cols.size(); ++c) {
      cols[c].insert(cols[c].end(), chunk.cols[c].begin() + lo,
                     chunk.cols[c].begin() + hi);
    }
  }
  relational::Table out;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c].dictionary.has_value()) {
      RAVEN_RETURN_IF_ERROR(out.AddCategoricalColumn(
          columns_[c].name, std::move(cols[c]), *columns_[c].dictionary));
    } else {
      RAVEN_RETURN_IF_ERROR(
          out.AddNumericColumn(columns_[c].name, std::move(cols[c])));
    }
  }
  return out;
}

std::string DiskTable::Describe() const {
  std::int64_t dict_columns = 0;
  for (const auto& col : columns_) {
    if (col.dictionary.has_value()) ++dict_columns;
  }
  return path_ + ": " + std::to_string(num_rows_) + " rows in " +
         std::to_string(num_blocks()) + " blocks of " +
         std::to_string(block_rows_) + " (" +
         std::to_string(columns_.size()) + " columns, " +
         std::to_string(dict_columns) + " dictionary-encoded, " +
         std::to_string(rle_payloads_) + " rle payloads)";
}

}  // namespace raven::storage
