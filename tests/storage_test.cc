// Tests for the on-disk columnar (.rvc) format and its scan path: write /
// mmap-read round trips (dictionaries, RLE, NaN payloads), rejection of
// truncated / corrupted / stale-version files, projected block reads
// (every payload still checksum-verified), malformed RLE payloads,
// zone-map block matching, the DiskScanOperator's skip accounting and
// range trimming, and MergedStats.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "relational/block_table.h"
#include "relational/chunk.h"
#include "relational/expression.h"
#include "relational/statistics.h"
#include "relational/table.h"
#include "storage/columnar.h"

namespace raven {
namespace {

using relational::BlockMayMatch;
using relational::ColumnStats;
using relational::CompareOp;
using relational::DataChunk;
using relational::DiskScanOperator;
using relational::SimplePredicate;
using relational::Table;
using storage::DiskTable;
using storage::RvcWriteOptions;
using storage::WriteRvc;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Mixed-content fixture: a spread numeric column, a constant column (RLE
// bait), a NaN-bearing column, and a dictionary column.
Table MakeFixture(std::int64_t rows) {
  Table t;
  std::vector<double> x, c, n, cat;
  std::vector<std::string> dict = {"red", "green", "blue"};
  for (std::int64_t i = 0; i < rows; ++i) {
    x.push_back(static_cast<double>(i) + 0.25);
    c.push_back(7.0);
    n.push_back(i % 5 == 3 ? kNan : static_cast<double>(i) * 0.5);
    cat.push_back(static_cast<double>(i % 3));
  }
  EXPECT_TRUE(t.AddNumericColumn("x", x).ok());
  EXPECT_TRUE(t.AddNumericColumn("c", c).ok());
  EXPECT_TRUE(t.AddNumericColumn("n", n).ok());
  EXPECT_TRUE(t.AddCategoricalColumn("cat", cat, dict).ok());
  return t;
}

void ExpectTablesBitEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (std::int64_t ci = 0; ci < a.num_columns(); ++ci) {
    const auto& ca = a.columns()[ci];
    const auto& cb = b.columns()[ci];
    EXPECT_EQ(ca.name, cb.name);
    EXPECT_EQ(ca.dictionary, cb.dictionary);
    ASSERT_EQ(ca.data.size(), cb.data.size());
    for (std::size_t i = 0; i < ca.data.size(); ++i) {
      // Bit-exact, NaN included: memcmp semantics, not ==.
      std::uint64_t ba, bb;
      std::memcpy(&ba, &ca.data[i], 8);
      std::memcpy(&bb, &cb.data[i], 8);
      EXPECT_EQ(ba, bb) << ca.name << "[" << i << "]";
    }
  }
}

TEST(RvcTest, RoundTripAcrossBlocks) {
  const std::string path = TempPath("roundtrip.rvc");
  Table original = MakeFixture(10);
  RvcWriteOptions opts;
  opts.block_rows = 4;
  ASSERT_TRUE(WriteRvc(original, path, opts).ok());

  auto opened = DiskTable::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const auto& disk = *opened.value();
  EXPECT_EQ(disk.num_rows(), 10);
  EXPECT_EQ(disk.num_blocks(), 3);  // 4 + 4 + 2
  EXPECT_EQ(disk.block_rows(), 4);
  EXPECT_EQ(disk.BlockRowCount(2), 2);
  EXPECT_EQ(disk.ColumnNames(), original.ColumnNames());
  ASSERT_NE(disk.Dictionary("cat"), nullptr);
  EXPECT_EQ((*disk.Dictionary("cat"))[0], "red");
  EXPECT_EQ(disk.Dictionary("x"), nullptr);

  auto all = disk.ReadRows(0, 10);
  ASSERT_TRUE(all.ok());
  ExpectTablesBitEqual(original, all.value());

  // A range straddling a block boundary decodes to the same slice.
  auto mid = disk.ReadRows(3, 7);
  ASSERT_TRUE(mid.ok());
  ExpectTablesBitEqual(original.SliceRows(3, 7), mid.value());
}

TEST(RvcTest, RleKicksInForConstantColumns) {
  const std::string path = TempPath("rle.rvc");
  ASSERT_TRUE(WriteRvc(MakeFixture(64), path).ok());
  auto opened = DiskTable::Open(path);
  ASSERT_TRUE(opened.ok());
  // The constant column "c" (and the short-run "cat" codes) must have
  // compressed; a zero count would make the encoder's tests vacuous.
  const std::string describe = opened.value()->Describe();
  EXPECT_EQ(describe.find("0 rle payloads"), std::string::npos) << describe;
  EXPECT_NE(describe.find("rle payloads"), std::string::npos) << describe;

  auto all = opened.value()->ReadRows(0, 64);
  ASSERT_TRUE(all.ok());
  ExpectTablesBitEqual(MakeFixture(64), all.value());
}

TEST(RvcTest, NanRunsCompressBitExactly) {
  const std::string path = TempPath("nanrle.rvc");
  Table t;
  ASSERT_TRUE(
      t.AddNumericColumn("v", std::vector<double>(100, kNan)).ok());
  ASSERT_TRUE(WriteRvc(t, path).ok());
  auto opened = DiskTable::Open(path);
  ASSERT_TRUE(opened.ok());
  auto back = opened.value()->ReadRows(0, 100);
  ASSERT_TRUE(back.ok());
  for (double v : back.value().columns()[0].data) {
    EXPECT_TRUE(std::isnan(v));
  }
}

TEST(RvcTest, RejectsMissingAndEmptyFiles) {
  EXPECT_FALSE(DiskTable::Open(TempPath("nope.rvc")).ok());
  const std::string path = TempPath("empty.rvc");
  std::ofstream(path, std::ios::binary).close();
  EXPECT_FALSE(DiskTable::Open(path).ok());
}

TEST(RvcTest, RejectsBadMagicAndStaleVersion) {
  const std::string good = TempPath("good.rvc");
  ASSERT_TRUE(WriteRvc(MakeFixture(8), good).ok());
  std::ifstream in(good, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  {
    std::string bad = bytes;
    bad[0] = 'X';  // magic
    const std::string path = TempPath("badmagic.rvc");
    std::ofstream(path, std::ios::binary).write(bad.data(), bad.size());
    auto r = DiskTable::Open(path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("magic"), std::string::npos);
  }
  {
    std::string bad = bytes;
    bad[4] = 99;  // version (little-endian u32 at offset 4)
    const std::string path = TempPath("staleversion.rvc");
    std::ofstream(path, std::ios::binary).write(bad.data(), bad.size());
    auto r = DiskTable::Open(path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("version"), std::string::npos);
  }
}

TEST(RvcTest, RejectsTruncationAtEveryRegion) {
  const std::string good = TempPath("trunc_src.rvc");
  ASSERT_TRUE(WriteRvc(MakeFixture(8), good).ok());
  std::ifstream in(good, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Header, mid-meta, and mid-data truncations must all fail cleanly at
  // Open (the data region is bounds-checked against block offsets).
  for (std::size_t keep :
       {std::size_t{10}, bytes.size() / 2, bytes.size() - 3}) {
    const std::string path = TempPath("trunc.rvc");
    std::ofstream(path, std::ios::binary).write(bytes.data(), keep);
    EXPECT_FALSE(DiskTable::Open(path).ok()) << "keep=" << keep;
  }
}

TEST(RvcTest, CorruptedDataRegionFailsChecksumNotAnswers) {
  const std::string good = TempPath("flip_src.rvc");
  ASSERT_TRUE(WriteRvc(MakeFixture(32), good).ok());
  std::ifstream in(good, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Flip one byte near the end (inside some block's payload). Open may
  // still succeed (meta intact), but decoding the poisoned block must
  // fail its checksum — never return altered rows.
  std::string bad = bytes;
  bad[bytes.size() - 5] = static_cast<char>(bad[bytes.size() - 5] ^ 0xFF);
  const std::string path = TempPath("flip.rvc");
  std::ofstream(path, std::ios::binary).write(bad.data(), bad.size());
  auto opened = DiskTable::Open(path);
  if (!opened.ok()) return;  // rejected at open: also fine
  bool failed = false;
  for (std::int64_t b = 0; b < opened.value()->num_blocks(); ++b) {
    DataChunk chunk;
    Status s = opened.value()->ReadBlock(b, &chunk);
    if (!s.ok()) {
      failed = true;
      EXPECT_NE(s.ToString().find("checksum"), std::string::npos)
          << s.ToString();
    }
  }
  EXPECT_TRUE(failed);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void ExpectColumnsBitEqual(const std::vector<double>& a,
                           const std::vector<double>& b,
                           const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what;
}

TEST(RvcTest, ProjectedReadBlockMatchesFullRead) {
  const std::string path = TempPath("projected.rvc");
  RvcWriteOptions opts;
  opts.block_rows = 16;
  ASSERT_TRUE(WriteRvc(MakeFixture(40), path, opts).ok());
  auto opened = DiskTable::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const DiskTable& disk = *opened.value();
  // The constant column must be RLE, or the projected RLE path is untested.
  EXPECT_EQ(disk.Describe().find(" 0 rle payloads"), std::string::npos)
      << disk.Describe();
  // Out of table order, with the dictionary (cat), NaN-bearing (n) and RLE
  // (c) columns, plus a single-column read.
  const std::vector<std::vector<std::int64_t>> requests = {
      {3, 0, 2}, {1}, {2, 1}};
  for (std::int64_t b = 0; b < disk.num_blocks(); ++b) {
    DataChunk full;
    ASSERT_TRUE(disk.ReadBlock(b, &full).ok());
    ASSERT_EQ(full.names, disk.ColumnNames());
    for (const auto& request : requests) {
      DataChunk part;
      ASSERT_TRUE(disk.ReadBlock(b, &part, request).ok());
      ASSERT_EQ(part.cols.size(), request.size());
      ASSERT_EQ(part.names.size(), request.size());
      EXPECT_TRUE(part.sel.empty());
      for (std::size_t i = 0; i < request.size(); ++i) {
        const auto c = static_cast<std::size_t>(request[i]);
        EXPECT_EQ(part.names[i], full.names[c]);
        ExpectColumnsBitEqual(part.cols[i], full.cols[c],
                              "block " + std::to_string(b) + " " +
                                  full.names[c]);
      }
    }
  }
  DataChunk chunk;
  EXPECT_FALSE(disk.ReadBlock(0, &chunk, {4}).ok());
  EXPECT_FALSE(disk.ReadBlock(0, &chunk, {-1}).ok());
}

TEST(RvcTest, CorruptionInAnUnreadColumnFailsTheProjectedRead) {
  // Two blocks; the last payload of the file is block 1's "cat" column.
  // A read of block 1 that never decodes "cat" must still fail its
  // checksum, while block 0 stays readable.
  const std::string good = TempPath("unread_src.rvc");
  RvcWriteOptions opts;
  opts.block_rows = 16;
  ASSERT_TRUE(WriteRvc(MakeFixture(32), good, opts).ok());
  std::string bytes = ReadFileBytes(good);
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x40);
  const std::string path = TempPath("unread.rvc");
  WriteFileBytes(path, bytes);
  auto opened = DiskTable::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DataChunk chunk;
  EXPECT_TRUE(opened.value()->ReadBlock(0, &chunk, {0}).ok());
  Status s = opened.value()->ReadBlock(1, &chunk, {0});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("checksum"), std::string::npos) << s.ToString();
}

/// The FNV-1a the format pins (8-byte words, then tail bytes).
std::uint64_t TestFnv1a(const char* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, data + i, 8);
    h = (h ^ word) * 1099511628211ull;
  }
  for (; i < n; ++i) {
    h = (h ^ static_cast<unsigned char>(data[i])) * 1099511628211ull;
  }
  return h;
}

/// Writes a one-column, one-block (8 rows) .rvc whose single RLE payload is
/// `payload`, with every checksum valid, so only the decoder can object.
/// The payload's length and checksum are the last two u64 of the meta blob,
/// and the payload is the whole data region.
std::string WriteRlePayloadFile(const std::string& name,
                                const std::string& payload) {
  Table t;
  EXPECT_TRUE(t.AddNumericColumn("v", std::vector<double>(8, 5.0)).ok());
  const std::string src = TempPath(name + "_src.rvc");
  EXPECT_TRUE(WriteRvc(t, src).ok());
  const std::string bytes = ReadFileBytes(src);
  std::uint64_t meta_len = 0;
  std::memcpy(&meta_len, bytes.data() + 8, 8);
  std::string meta = bytes.substr(24, meta_len);
  const std::uint64_t length = payload.size();
  const std::uint64_t checksum = TestFnv1a(payload.data(), payload.size());
  std::memcpy(&meta[meta.size() - 16], &length, 8);
  std::memcpy(&meta[meta.size() - 8], &checksum, 8);
  const std::uint64_t meta_checksum = TestFnv1a(meta.data(), meta.size());
  std::string out = bytes.substr(0, 16);
  out.append(reinterpret_cast<const char*>(&meta_checksum), 8);
  out += meta;
  out += payload;
  const std::string path = TempPath(name + ".rvc");
  WriteFileBytes(path, out);
  return path;
}

std::string RlePayload(std::uint64_t num_runs,
                       const std::vector<std::uint64_t>& counts) {
  std::string out(reinterpret_cast<const char*>(&num_runs), 8);
  for (std::uint64_t count : counts) {
    const double value = 5.0;
    out.append(reinterpret_cast<const char*>(&value), 8);
    out.append(reinterpret_cast<const char*>(&count), 8);
  }
  return out;
}

TEST(RvcTest, MalformedRlePayloadsFailCleanly) {
  {
    // The well-formed payload the malformations below start from.
    const std::string path = WriteRlePayloadFile("rle_ok", RlePayload(1, {8}));
    auto opened = DiskTable::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    DataChunk chunk;
    ASSERT_TRUE(opened.value()->ReadBlock(0, &chunk).ok());
    EXPECT_EQ(chunk.cols[0], std::vector<double>(8, 5.0));
  }
  const struct {
    const char* name;
    std::string payload;
    const char* error;
  } cases[] = {
      {"rle_zero_run", RlePayload(2, {0, 8}), "overflows"},
      {"rle_overflow", RlePayload(2, {4, 5}), "overflows"},
      {"rle_short_cover", RlePayload(1, {7}), "does not cover"},
      {"rle_short_payload", RlePayload(2, {8}), "wrong length"},
      {"rle_long_payload", RlePayload(1, {8, 8}), "wrong length"},
      {"rle_no_header", std::string(4, '\0'), "wrong length"},
      {"rle_huge_count", RlePayload(std::uint64_t{1} << 62, {8}),
       "wrong length"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = WriteRlePayloadFile(c.name, c.payload);
    auto opened = DiskTable::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    DataChunk chunk;
    Status s = opened.value()->ReadBlock(0, &chunk);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.ToString().find(c.error), std::string::npos) << s.ToString();
    EXPECT_FALSE(opened.value()->ReadRows(0, 8).ok());
  }
}

TEST(ZoneMapTest, RangePredicatesConsultMinMax) {
  ColumnStats stats;
  stats.min = 10.0;
  stats.max = 20.0;
  stats.num_rows = 4;
  EXPECT_TRUE(BlockMayMatch(stats, {"x", CompareOp::kEq, 15.0}));
  EXPECT_FALSE(BlockMayMatch(stats, {"x", CompareOp::kEq, 25.0}));
  EXPECT_TRUE(BlockMayMatch(stats, {"x", CompareOp::kLt, 10.5}));
  EXPECT_FALSE(BlockMayMatch(stats, {"x", CompareOp::kLt, 10.0}));
  EXPECT_TRUE(BlockMayMatch(stats, {"x", CompareOp::kLe, 10.0}));
  EXPECT_FALSE(BlockMayMatch(stats, {"x", CompareOp::kLe, 9.0}));
  EXPECT_TRUE(BlockMayMatch(stats, {"x", CompareOp::kGt, 19.5}));
  EXPECT_FALSE(BlockMayMatch(stats, {"x", CompareOp::kGt, 20.0}));
  EXPECT_TRUE(BlockMayMatch(stats, {"x", CompareOp::kGe, 20.0}));
  EXPECT_FALSE(BlockMayMatch(stats, {"x", CompareOp::kGe, 21.0}));
  // kNe skips only a block constant at exactly the compared value.
  EXPECT_TRUE(BlockMayMatch(stats, {"x", CompareOp::kNe, 15.0}));
  ColumnStats constant = stats;
  constant.min = constant.max = 15.0;
  constant.constant = 15.0;
  EXPECT_FALSE(BlockMayMatch(constant, {"x", CompareOp::kNe, 15.0}));
  EXPECT_TRUE(BlockMayMatch(constant, {"x", CompareOp::kNe, 16.0}));
}

TEST(ZoneMapTest, NonFiniteBlocksAndConstantsNeverSkip) {
  ColumnStats nan_block;
  nan_block.min = 1.0;
  nan_block.max = 2.0;
  nan_block.num_rows = 3;
  nan_block.nan_count = 1;
  nan_block.non_finite_count = 1;
  nan_block.has_non_finite = true;
  // The regression the NaN-stats fix exists for: [1,2] with a NaN row must
  // not be skipped by any range predicate.
  EXPECT_TRUE(BlockMayMatch(nan_block, {"x", CompareOp::kGe, 100.0}));
  EXPECT_TRUE(BlockMayMatch(nan_block, {"x", CompareOp::kEq, 100.0}));

  ColumnStats finite;
  finite.min = 1.0;
  finite.max = 2.0;
  finite.num_rows = 2;
  // Non-finite comparison constants never justify a skip.
  EXPECT_TRUE(BlockMayMatch(finite, {"x", CompareOp::kEq, kNan}));
  EXPECT_TRUE(BlockMayMatch(finite, {"x", CompareOp::kGt, -kInf}));

  ColumnStats all_nan;
  all_nan.num_rows = 2;
  all_nan.nan_count = 2;
  all_nan.non_finite_count = 2;
  all_nan.has_non_finite = true;
  EXPECT_TRUE(BlockMayMatch(all_nan, {"x", CompareOp::kLt, 0.0}));
}

std::shared_ptr<const DiskTable> OpenFixture(std::int64_t rows,
                                             std::int64_t block_rows,
                                             const std::string& name) {
  const std::string path = TempPath(name);
  Table t = MakeFixture(rows);
  RvcWriteOptions opts;
  opts.block_rows = block_rows;
  EXPECT_TRUE(WriteRvc(t, path, opts).ok());
  auto opened = DiskTable::Open(path);
  EXPECT_TRUE(opened.ok());
  return opened.value();
}

TEST(DiskScanTest, ZonePredicatesSkipNonMatchingBlocks) {
  auto disk = OpenFixture(64, 8, "scan_skip.rvc");  // x in [0.25, 63.25]
  DiskScanOperator scan(disk);
  scan.SetZonePredicates({{"x", CompareOp::kGe, 48.0}});
  std::atomic<std::int64_t> scanned{0}, skipped{0};
  scan.SetBlockCounters(&scanned, &skipped);
  ASSERT_TRUE(scan.Open().ok());
  DataChunk chunk;
  std::int64_t rows = 0;
  double min_x = kInf;
  while (true) {
    auto more = scan.Next(&chunk);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    rows += chunk.num_rows();
    for (double v : chunk.cols[0]) min_x = std::min(min_x, v);
  }
  // Blocks 0..5 top out below 48; block 5 covers rows 40..47 (max 47.25).
  EXPECT_EQ(skipped.load(), 6);
  EXPECT_EQ(scanned.load(), 2);
  EXPECT_EQ(rows, 16);
  EXPECT_EQ(min_x, 48.25);
}

TEST(DiskScanTest, NanColumnBlocksAreNeverSkipped) {
  // Column "n" has a NaN every 5 rows — every block is NaN-bearing, so a
  // wildly selective range predicate must not skip anything.
  auto disk = OpenFixture(64, 8, "scan_nan.rvc");
  DiskScanOperator scan(disk);
  scan.SetZonePredicates({{"n", CompareOp::kGe, 1e9}});
  std::atomic<std::int64_t> scanned{0}, skipped{0};
  scan.SetBlockCounters(&scanned, &skipped);
  ASSERT_TRUE(scan.Open().ok());
  DataChunk chunk;
  std::int64_t rows = 0;
  while (true) {
    auto more = scan.Next(&chunk);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    rows += chunk.num_rows();
  }
  EXPECT_EQ(skipped.load(), 0);
  EXPECT_EQ(scanned.load(), 8);
  EXPECT_EQ(rows, 64);
}

TEST(DiskScanTest, MorselModeRequiresBlockAlignment) {
  auto disk = OpenFixture(64, 8, "scan_align.rvc");
  {
    auto queue = std::make_shared<MorselQueue>(64, 16);  // wrong granularity
    DiskScanOperator scan(disk, queue, 0);
    EXPECT_FALSE(scan.Open().ok());
  }
  {
    auto queue = std::make_shared<MorselQueue>(32, 8);  // wrong total
    DiskScanOperator scan(disk, queue, 0);
    EXPECT_FALSE(scan.Open().ok());
  }
  {
    auto queue = std::make_shared<MorselQueue>(64, 8);
    DiskScanOperator scan(disk, queue, 3);
    ASSERT_TRUE(scan.Open().ok());
    DataChunk chunk;
    std::int64_t blocks = 0;
    while (true) {
      auto more = scan.Next(&chunk);
      ASSERT_TRUE(more.ok());
      if (!more.value()) break;
      ++blocks;
      EXPECT_EQ(chunk.order_source, 3);
      // Block-aligned queue makes morsel index == block index, which is
      // what keeps parallel merge order byte-identical to in-memory.
      EXPECT_EQ(chunk.cols[0][0], chunk.order_morsel * 8 + 0.25);
    }
    EXPECT_EQ(blocks, 8);
  }
}

TEST(DiskScanTest, RangeScanTrimsPartialBlocksLikeTheInMemorySlice) {
  // [700, 1300) over 512-row blocks starts and ends mid-block, so both the
  // head and the tail of a block get trimmed.
  const Table original = MakeFixture(2000);
  auto disk = OpenFixture(2000, 512, "scan_range.rvc");
  const Table expected = original.SliceRows(700, 1300);
  for (const std::vector<std::string>& columns :
       {std::vector<std::string>{}, std::vector<std::string>{"n", "cat"}}) {
    DiskScanOperator scan(disk, 700, 1300);
    scan.SetColumns(columns);
    ASSERT_TRUE(scan.Open().ok());
    const std::vector<std::string> names =
        columns.empty() ? original.ColumnNames() : columns;
    EXPECT_EQ(scan.OutputColumns().value(), names);
    std::vector<std::vector<double>> got(names.size());
    DataChunk chunk;
    while (true) {
      auto more = scan.Next(&chunk);
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      if (!more.value()) break;
      ASSERT_EQ(chunk.names, names);
      for (std::size_t c = 0; c < names.size(); ++c) {
        got[c].insert(got[c].end(), chunk.cols[c].begin(),
                      chunk.cols[c].end());
      }
    }
    for (std::size_t c = 0; c < names.size(); ++c) {
      ExpectColumnsBitEqual(got[c], expected.GetColumn(names[c]).value()->data,
                            names[c]);
    }
  }
  DiskScanOperator unknown(disk);
  unknown.SetColumns({"no_such_column"});
  EXPECT_FALSE(unknown.Open().ok());
}

TEST(MergedStatsTest, MergesAcrossBlocks) {
  auto disk = OpenFixture(20, 4, "merged.rvc");
  auto merged = relational::MergedStats(*disk);
  ASSERT_TRUE(merged.count("x"));
  EXPECT_EQ(merged["x"].min, 0.25);
  EXPECT_EQ(merged["x"].max, 19.25);
  EXPECT_EQ(merged["x"].num_rows, 20);
  EXPECT_FALSE(merged["x"].has_non_finite);
  EXPECT_FALSE(merged["x"].constant.has_value());
  // The constant column survives the merge as a constant.
  ASSERT_TRUE(merged.count("c"));
  EXPECT_EQ(merged["c"].constant, std::optional<double>(7.0));
  EXPECT_EQ(merged["c"].distinct, 1);
  // The NaN-bearing column reports its non-finite rows (4 of 20).
  ASSERT_TRUE(merged.count("n"));
  EXPECT_TRUE(merged["n"].has_non_finite);
  EXPECT_EQ(merged["n"].nan_count, 4);
}

}  // namespace
}  // namespace raven
