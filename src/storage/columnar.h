#ifndef RAVEN_STORAGE_COLUMNAR_H_
#define RAVEN_STORAGE_COLUMNAR_H_

// Block-based columnar on-disk format (.rvc) — the storage layer behind
// relational::BlockTable. Layout:
//
//   [magic "RVC1" | u32 version | u64 meta_len | u64 meta_checksum]
//   [meta blob (BinaryWriter format, meta_len bytes)]
//   [data region: per-block per-column payloads, back to back]
//
// The meta blob carries the schema (with categorical dictionaries), the
// block geometry, and for every (block, column): its zone map
// (relational::ColumnStats), encoding tag, and payload offset/length/
// FNV-1a checksum within the data region. Payloads are either plain
// little-endian doubles or RLE runs of {value, count}; RLE compares bit
// patterns so NaN runs compress and decode bit-exactly.
//
// Hardening mirrors the NNRT artifact cache: magic/version/meta-checksum
// and full bounds validation at Open (truncated or stale files are
// rejected with a clean error before any query runs), plus per-payload
// checksums verified at block-read time so a corrupted block degrades to
// an execution error — never a wrong answer.
//
// Reads may be projected: ReadBlock decodes only the requested columns,
// but it verifies the checksum of every payload in the block, so what a
// read can detect does not depend on which columns it asks for. The
// checksums run as four interleaved FNV-1a chains (one chain is bound by
// multiply latency), and an RLE payload is bounds-checked once against
// its run count before its runs are filled in.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/block_table.h"
#include "relational/statistics.h"
#include "relational/table.h"

namespace raven::storage {

inline constexpr std::uint32_t kRvcVersion = 1;

struct RvcWriteOptions {
  /// Rows per block. The morsel executor uses the block as its morsel
  /// unit, so this is also the parallel work granule.
  std::int64_t block_rows = 4096;
  /// When set, payloads whose run-length encoding is smaller than plain
  /// storage are written RLE; otherwise everything is plain.
  bool enable_rle = true;
};

/// Writes `table` (codes, dictionaries, and per-block zone maps) to `path`.
Status WriteRvc(const relational::Table& table, const std::string& path,
                const RvcWriteOptions& options = {});

/// Memory-mapped .rvc reader. Open validates the header, meta checksum and
/// every payload's bounds up front; block payloads are decoded lazily on
/// each ReadBlock (only the requested columns, after every payload of the
/// block passes its checksum), so scanning never materializes the whole
/// table. Concurrent reads are safe: the mapping is read-only and all
/// mutable state is per-call.
class DiskTable final : public relational::BlockTable {
 public:
  static Result<std::shared_ptr<DiskTable>> Open(const std::string& path);
  ~DiskTable() override;

  DiskTable(const DiskTable&) = delete;
  DiskTable& operator=(const DiskTable&) = delete;

  std::vector<std::string> ColumnNames() const override;
  std::int64_t num_rows() const override { return num_rows_; }
  std::int64_t num_columns() const override {
    return static_cast<std::int64_t>(columns_.size());
  }
  std::int64_t num_blocks() const override {
    return static_cast<std::int64_t>(blocks_.size());
  }
  std::int64_t block_rows() const override { return block_rows_; }
  std::int64_t BlockRowCount(std::int64_t block) const override;
  const relational::ColumnStats* BlockStats(
      std::int64_t block, const std::string& column) const override;
  const std::vector<std::string>* Dictionary(
      const std::string& column) const override;
  Status ReadBlock(
      std::int64_t block, relational::DataChunk* out,
      const std::vector<std::int64_t>& columns = {}) const override;
  Result<relational::Table> ReadRows(std::int64_t begin,
                                     std::int64_t end) const override;
  std::string Describe() const override;

  const std::string& path() const { return path_; }

 private:
  enum class Encoding : std::uint8_t { kPlain = 0, kRle = 1 };

  struct ColumnMeta {
    std::string name;
    std::optional<std::vector<std::string>> dictionary;
  };
  struct PayloadMeta {
    relational::ColumnStats stats;
    Encoding encoding = Encoding::kPlain;
    std::uint64_t offset = 0;  // into the data region
    std::uint64_t length = 0;
    std::uint64_t checksum = 0;
  };
  struct BlockMeta {
    std::int64_t row_count = 0;
    std::vector<PayloadMeta> payloads;  // one per column
  };

  DiskTable() = default;

  Status DecodePayload(const PayloadMeta& payload, std::int64_t row_count,
                       std::vector<double>* out) const;

  std::string path_;
  int fd_ = -1;
  const char* mapping_ = nullptr;
  std::size_t file_size_ = 0;
  const char* data_ = nullptr;  // data region start
  std::size_t data_size_ = 0;

  std::int64_t num_rows_ = 0;
  std::int64_t block_rows_ = 0;
  std::vector<ColumnMeta> columns_;
  std::vector<BlockMeta> blocks_;
  std::int64_t rle_payloads_ = 0;
};

}  // namespace raven::storage

#endif  // RAVEN_STORAGE_COLUMNAR_H_
