// Layer microbench: the hash join's build and probe, outside any query.
//
//   HashJoin_Build/rows/dup = JoinBuildState: append the build side's
//                             kChunkSize-row chunks, then FinalizeBuild
//                             (concatenate, chain every row into the
//                             bucket table). ns_per_row is per build row.
//   HashJoin_Probe/rows/dup = a probe-only HashJoinOperator draining a scan
//                             of as many probe rows as the build has, over
//                             a finalized build (chain walk, then one
//                             gather per output column). ns_per_row is per
//                             probe row, the scan's chunk copy included;
//                             matches_per_probe_row is the output fan-out.
//
// rows = build rows (30k: the running-example join in perfbench's
// paper_batch; 1M: a build far outside the caches). dup = 0 for unique
// keys (every probe row matches once), 1 for duplicate-heavy keys (16 build
// rows per key, so every probe row matches 16 times). Keys are whole
// numbers stored as doubles, like the hospital tables' ids. The build runs
// on one thread, as FinalizeBuild does after a parallel drain.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "relational/operators.h"

namespace raven {
namespace {

using relational::DataChunk;
using relational::kChunkSize;

constexpr std::int64_t kDupsPerKey = 16;

/// A (k, <side>0, <side>1) table of `rows` rows; k runs through
/// `rows / kDupsPerKey` distinct keys round-robin when `dup` is set, else is
/// the row number. Probe and build sides get distinct payload names, so the
/// join emits all five columns.
relational::Table JoinSide(std::int64_t rows, bool dup,
                           const std::string& side) {
  const std::int64_t distinct = dup ? rows / kDupsPerKey : rows;
  std::vector<double> k(static_cast<std::size_t>(rows));
  std::vector<double> a(k.size());
  std::vector<double> b(k.size());
  for (std::int64_t i = 0; i < rows; ++i) {
    const auto r = static_cast<std::size_t>(i);
    k[r] = static_cast<double>(i % distinct);
    a[r] = static_cast<double>(i);
    b[r] = static_cast<double>(-i);
  }
  relational::Table t;
  bench::MustOk(t.AddNumericColumn("k", std::move(k)), "k");
  bench::MustOk(t.AddNumericColumn(side + "0", std::move(a)), "payload");
  bench::MustOk(t.AddNumericColumn(side + "1", std::move(b)), "payload");
  return t;
}

std::vector<DataChunk> ChunksOf(const relational::Table& t) {
  std::vector<DataChunk> chunks;
  for (std::int64_t begin = 0; begin < t.num_rows(); begin += kChunkSize) {
    const std::int64_t end = std::min(t.num_rows(), begin + kChunkSize);
    DataChunk chunk;
    for (const auto& col : t.columns()) {
      chunk.names.push_back(col.name);
      chunk.cols.emplace_back(col.data.begin() + begin,
                              col.data.begin() + end);
    }
    chunk.order_morsel = begin / kChunkSize;
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

std::shared_ptr<relational::JoinBuildState> Build(
    std::vector<DataChunk> chunks) {
  auto build = std::make_shared<relational::JoinBuildState>("k", 1);
  for (DataChunk& chunk : chunks) {
    bench::MustOk(build->Append(0, std::move(chunk)), "append");
  }
  bench::MustOk(build->FinalizeBuild(), "finalize");
  return build;
}

void BM_HashJoin_Build(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const std::vector<DataChunk> chunks =
      ChunksOf(JoinSide(rows, state.range(1) != 0, "b"));
  double seconds = 0.0;
  for (auto _ : state) {
    std::vector<DataChunk> copy = chunks;  // untimed: the drained input
    const auto start = std::chrono::steady_clock::now();
    auto build = Build(std::move(copy));
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    benchmark::DoNotOptimize(build.get());
    state.SetIterationTime(elapsed.count());
    seconds += elapsed.count();
  }
  state.counters["ns_per_row"] =
      seconds * 1e9 / static_cast<double>(state.iterations() * rows);
}

void BM_HashJoin_Probe(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const bool dup = state.range(1) != 0;
  auto build = Build(ChunksOf(JoinSide(rows, dup, "b")));
  const relational::Table probe = JoinSide(rows, dup, "p");
  std::int64_t matches = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    relational::HashJoinOperator join(
        std::make_unique<relational::ScanOperator>(&probe), "k", build);
    bench::MustOk(join.Open(), "open");
    DataChunk out;
    matches = 0;
    while (bench::Must(join.Next(&out), "next")) matches += out.num_rows();
    benchmark::DoNotOptimize(matches);
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["ns_per_row"] =
      elapsed.count() / static_cast<double>(state.iterations() * rows);
  state.counters["matches_per_probe_row"] =
      static_cast<double>(matches) / static_cast<double>(rows);
}

BENCHMARK(BM_HashJoin_Build)
    ->ArgsProduct({{30000, 1000000}, {0, 1}})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HashJoin_Probe)
    ->ArgsProduct({{30000, 1000000}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace raven
