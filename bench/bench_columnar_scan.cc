// Columnar on-disk scan: in-memory scan vs `.rvc` full scan vs a
// zone-map-selective `.rvc` scan, at dop 1 and 8. The full-scan pair
// measures the decode overhead of the block format (mmap read + checksum +
// RLE decode against a plain in-memory sweep); the selective run measures
// what block skipping buys when the predicate prunes most of a clustered
// column — the regression signal is selective-vs-full on the same file.
//
// BM_RvcReadBlock is the `.rvc` decode layer alone: DiskTable::ReadBlock on
// the 12-column hospital table at the paper_batch benchmark's layout
// (100k rows in 512-row blocks, RLE-heavy categorical columns), decoding
// all 12 columns or a 4-of-12 projection. Both verify
// every payload checksum of the block. Counters: us_per_block and
// decoded_mb_per_s (bytes of decoded doubles per second).

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "data/hospital.h"
#include "raven/raven.h"
#include "storage/columnar.h"

namespace raven {
namespace {

/// A table clustered on id (sequential), so range predicates on id map
/// cleanly onto block zone maps — the layout ingest produces from any
/// sorted export.
relational::Table MakeClusteredTable(std::int64_t rows) {
  Rng rng(77);
  std::vector<double> id(static_cast<std::size_t>(rows));
  std::vector<double> v(static_cast<std::size_t>(rows));
  for (std::size_t i = 0; i < id.size(); ++i) {
    id[i] = static_cast<double>(i);
    v[i] = rng.Uniform(0.0, 1000.0);
  }
  relational::Table t;
  bench::MustOk(t.AddNumericColumn("id", std::move(id)), "id column");
  bench::MustOk(t.AddNumericColumn("v", std::move(v)), "value column");
  return t;
}

const std::string kSelectiveSql =
    "SELECT COUNT(*) AS n, SUM(v) AS s FROM scans WHERE id < 100";
const std::string kFullSql = "SELECT COUNT(*) AS n, SUM(v) AS s FROM scans";

void RunScan(benchmark::State& state, bool on_disk, bool selective) {
  const std::int64_t rows = state.range(0);
  const std::int64_t dop = state.range(1);
  RavenContext ctx;
  ctx.execution_options().parallelism = dop;
  const std::string path = "/tmp/raven_bench_columnar_" +
                           std::to_string(rows) + ".rvc";
  if (on_disk) {
    storage::RvcWriteOptions opts;
    opts.block_rows = 4096;
    bench::MustOk(storage::WriteRvc(MakeClusteredTable(rows), path, opts),
                  "write rvc");
    auto disk = bench::Must(storage::DiskTable::Open(path), "open rvc");
    bench::MustOk(ctx.RegisterDiskTable("scans", disk), "register disk");
  } else {
    bench::MustOk(ctx.RegisterTable("scans", MakeClusteredTable(rows)),
                  "register");
  }
  ir::IrPlan plan =
      bench::Must(ctx.Prepare(selective ? kSelectiveSql : kFullSql),
                  "prepare");
  runtime::ExecutionStats warm_stats;
  auto warm = ctx.ExecutePlan(plan, &warm_stats);
  bench::MustOk(warm.status(), "warm-up execute");
  for (auto _ : state) {
    auto result = ctx.ExecutePlan(plan);
    if (!result.ok()) {
      state.SkipWithError("execute failed");
      return;
    }
    benchmark::DoNotOptimize(result->num_rows());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["dop"] = static_cast<double>(dop);
  state.counters["blocks_scanned"] =
      static_cast<double>(warm_stats.blocks_scanned);
  state.counters["blocks_skipped"] =
      static_cast<double>(warm_stats.blocks_skipped);
  if (on_disk) std::remove(path.c_str());
}

void BM_InMemoryFullScan(benchmark::State& state) {
  RunScan(state, /*on_disk=*/false, /*selective=*/false);
}
void BM_DiskFullScan(benchmark::State& state) {
  RunScan(state, /*on_disk=*/true, /*selective=*/false);
}
void BM_DiskSelectiveScan(benchmark::State& state) {
  RunScan(state, /*on_disk=*/true, /*selective=*/true);
}

void BM_RvcReadBlock(benchmark::State& state) {
  const bool projected = state.range(0) == 4;
  constexpr std::int64_t kBlockRows = 512;
  const std::string path = "/tmp/raven_bench_readblock.rvc";
  const data::HospitalDataset data = data::MakeHospitalDataset(100000, 7);
  storage::RvcWriteOptions opts;
  opts.block_rows = kBlockRows;
  bench::MustOk(storage::WriteRvc(data.joined, path, opts), "write rvc");
  auto disk = bench::Must(storage::DiskTable::Open(path), "open rvc");
  // id, age, gender, pregnant: two plain and two RLE-heavy columns.
  const std::vector<std::int64_t> columns = {0, 1, 8, 9};
  relational::DataChunk chunk;
  std::int64_t block = 0;
  for (auto _ : state) {
    const Status status = projected ? disk->ReadBlock(block, &chunk, columns)
                                    : disk->ReadBlock(block, &chunk);
    if (!status.ok()) {
      state.SkipWithError("ReadBlock failed");
      return;
    }
    benchmark::DoNotOptimize(chunk.cols.data());
    block = (block + 1) % disk->num_blocks();
  }
  const double decoded_bytes = static_cast<double>(chunk.num_cols()) *
                               static_cast<double>(kBlockRows) * 8.0;
  state.counters["columns"] = static_cast<double>(chunk.num_cols());
  state.counters["us_per_block"] = benchmark::Counter(
      1e-6 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["decoded_mb_per_s"] = benchmark::Counter(
      decoded_bytes * 1e-6 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  std::remove(path.c_str());
}

BENCHMARK(BM_RvcReadBlock)->Arg(12)->Arg(4)->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_InMemoryFullScan)
    ->ArgsProduct({{20000, 200000}, {1, 8}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DiskFullScan)
    ->ArgsProduct({{20000, 200000}, {1, 8}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DiskSelectiveScan)
    ->ArgsProduct({{20000, 200000}, {1, 8}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace raven
