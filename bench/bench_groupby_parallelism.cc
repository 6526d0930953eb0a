// Morsel-parallel hash GROUP BY. Every worker pre-aggregates its morsels
// into a flat group table of its own (one group-id pass per chunk, then
// one loop per aggregate); the tables merge in worker order and one sort
// of the distinct groups gives the ascending output.
//   LowCardinality/rows/dop  = an 8-value key: the per-row probe and
//                              aggregate loops, the merge is trivial;
//   HighCardinality/rows/dop = a ~rows/4-value key: table growth, the merge
//                              of large per-worker tables and the sort;
//   PaperShape/rows/dop      = paper_batch's grouped PREDICT aggregation
//                              without the model: two 0/1 keys, COUNT(*)
//                              and AVG of a non-integer column.
// The ns_per_row counter is wall time per input row of one execution.

#include <chrono>

#include "bench_util.h"
#include "raven/raven.h"

namespace raven {
namespace {

/// Times `sql` over `table` at `dop` (plan prepared once, one warm-up run
/// outside the timed loop).
void RunGroupBySql(benchmark::State& state, relational::Table table,
                   const std::string& sql) {
  const std::int64_t rows = state.range(0);
  const std::int64_t dop = state.range(1);
  RavenContext ctx;
  ctx.execution_options().parallelism = dop;
  bench::MustOk(ctx.RegisterTable("keyed", std::move(table)), "register");
  ir::IrPlan plan = bench::Must(ctx.Prepare(sql), "prepare");
  auto warm = ctx.ExecutePlan(plan);
  bench::MustOk(warm.status(), "warm-up execute");
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto result = ctx.ExecutePlan(plan);
    if (!result.ok()) {
      state.SkipWithError("execute failed");
      return;
    }
    benchmark::DoNotOptimize(result->num_rows());
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["dop"] = static_cast<double>(dop);
  state.counters["groups"] = static_cast<double>(warm->num_rows());
  state.counters["ns_per_row"] =
      elapsed.count() / static_cast<double>(state.iterations() * rows);
}

/// Synthetic keyed table: `low_card` picks between an 8-value key and a
/// ~n/4-value key, plus one numeric value column to aggregate.
relational::Table MakeKeyedTable(std::int64_t rows, bool low_card) {
  Rng rng(low_card ? 91 : 92);
  const std::int64_t cardinality = low_card ? 8 : std::max<std::int64_t>(
                                                      1, rows / 4);
  std::vector<double> key(static_cast<std::size_t>(rows));
  std::vector<double> value(static_cast<std::size_t>(rows));
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<double>(
        rng.NextUint(static_cast<std::uint64_t>(cardinality)));
    value[i] = rng.Uniform(0.0, 1000.0);
  }
  relational::Table t;
  bench::MustOk(t.AddNumericColumn("k", std::move(key)), "key column");
  bench::MustOk(t.AddNumericColumn("v", std::move(value)), "value column");
  return t;
}

void RunGroupBy(benchmark::State& state, bool low_card) {
  RunGroupBySql(state, MakeKeyedTable(state.range(0), low_card),
                "SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, "
                "MAX(v) AS hi FROM keyed GROUP BY k");
}

/// paper_batch's grouped aggregation over stand-in predictions: two 0/1
/// keys (gender, pregnant) and a uniform non-integer score column.
relational::Table MakePaperShapeTable(std::int64_t rows) {
  Rng rng(93);
  std::vector<double> gender(static_cast<std::size_t>(rows));
  std::vector<double> pregnant(gender.size());
  std::vector<double> p(gender.size());
  for (std::size_t i = 0; i < gender.size(); ++i) {
    gender[i] = static_cast<double>(rng.NextUint(2));
    pregnant[i] = static_cast<double>(rng.NextUint(2));
    p[i] = rng.Uniform(0.0, 10.0);
  }
  relational::Table t;
  bench::MustOk(t.AddNumericColumn("gender", std::move(gender)), "gender");
  bench::MustOk(t.AddNumericColumn("pregnant", std::move(pregnant)),
                "pregnant");
  bench::MustOk(t.AddNumericColumn("p", std::move(p)), "p");
  return t;
}

void BM_GroupBy_PaperShape(benchmark::State& state) {
  RunGroupBySql(state, MakePaperShapeTable(state.range(0)),
                "SELECT gender, pregnant, COUNT(*) AS n, AVG(p) AS mean_p "
                "FROM keyed GROUP BY gender, pregnant");
}

void BM_GroupBy_LowCardinality(benchmark::State& state) {
  RunGroupBy(state, /*low_card=*/true);
}

void BM_GroupBy_HighCardinality(benchmark::State& state) {
  RunGroupBy(state, /*low_card=*/false);
}

// 50000-row points stay in the --smoke set; 500000 is filtered out there
// (see tools/bench.sh) and anchors the full sweep.
BENCHMARK(BM_GroupBy_LowCardinality)
    ->Args({50000, 1})->Args({50000, 8})
    ->Args({500000, 1})->Args({500000, 8})
    ->Iterations(2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GroupBy_HighCardinality)
    ->Args({50000, 1})->Args({50000, 8})
    ->Args({500000, 1})->Args({500000, 8})
    ->Iterations(2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GroupBy_PaperShape)
    ->Args({50000, 1})->Args({50000, 4})
    ->Iterations(20)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace raven
