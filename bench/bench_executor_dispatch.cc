// Layer microbench: the plan executor's per-statement dispatch cost.
//
//   BM_ExecutorDispatch/rows/dop = PlanExecutor::Execute of a prepared
//                                  filter + project plan over an in-memory
//                                  table of `rows` rows at parallelism
//                                  `dop`. us_per_stmt is wall time per
//                                  execution.
//
//   BM_ExecutorForestProgram/dop = the same for paper_batch's forest
//                                  statement shape: 10 depth-8 trees
//                                  inlined into one CASE projection, over
//                                  2048 in-memory rows in 4 morsels of 512.
//                                  programs_compiled is per execution.
//
//   BM_ExecutorLoneProject/rows/dop = serve_adhoc's grouped shape without
//                                  its WHERE: SELECT gender, pregnant,
//                                  COUNT(*), MAX(bp) ... GROUP BY gender,
//                                  pregnant over `rows` in-memory hospital
//                                  rows. The plan is GroupBy over a lone
//                                  Project of three column references, a
//                                  one-stage FusedOperator (no fused chain).
//                                  Executed with stats, as the server does.
//                                  ns_per_row is wall time per input row.
//
// The row counts sit on either side of the 2048-row morsel: 512 and 2048
// rows are one morsel, 2049 rows is two, 16384 rows is eight. At dop 4 a
// one-morsel statement runs one worker tree on the calling thread, a
// two-morsel one starts two trees on the pool, and an eight-morsel one
// starts four — so the dop 1 / dop 4 pair at each size shows what the
// morsel-parallel dispatch costs or saves for statements of that size.
// The forest case starts min(dop, 4) trees, which share one compiled
// program per expression: its compile cost is paid once per statement
// whatever the dop, and only the walk divides across the trees.

#include <chrono>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/hospital.h"
#include "raven/raven.h"

namespace raven {
namespace {

relational::Table MakeTable(std::int64_t rows) {
  std::vector<double> id(static_cast<std::size_t>(rows));
  std::vector<double> x(id.size());
  for (std::size_t i = 0; i < id.size(); ++i) {
    id[i] = static_cast<double>(i);
    x[i] = static_cast<double>((i * 7919) % 1000) / 1000.0;
  }
  relational::Table t;
  bench::MustOk(t.AddNumericColumn("id", std::move(id)), "id column");
  bench::MustOk(t.AddNumericColumn("x", std::move(x)), "x column");
  return t;
}

void BM_ExecutorDispatch(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const std::int64_t dop = state.range(1);
  RavenContext ctx;
  ctx.execution_options().parallelism = dop;
  bench::MustOk(ctx.RegisterTable("t", MakeTable(rows)), "register");
  ir::IrPlan plan = bench::Must(
      ctx.Prepare("SELECT id, x * 2 + 1 AS y FROM t WHERE x > 0.25"),
      "prepare");
  // Warm-up + correctness guard outside the timed loop.
  bench::MustOk(ctx.ExecutePlan(plan).status(), "warm-up execute");
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto result = ctx.ExecutePlan(plan);
    if (!result.ok()) {
      state.SkipWithError("execute failed");
      return;
    }
    benchmark::DoNotOptimize(result->num_rows());
  }
  const std::chrono::duration<double, std::micro> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["us_per_stmt"] =
      elapsed.count() / static_cast<double>(state.iterations());
}

void BM_ExecutorForestProgram(benchmark::State& state) {
  RavenContext ctx;
  bench::MustOk(
      ctx.RegisterTable("patients",
                        bench::Hospital(relational::kChunkSize).joined),
      "register");
  static const ml::ModelPipeline* forest = new ml::ModelPipeline(bench::Must(
      data::TrainHospitalForest(bench::Hospital(10000), 10, 8), "train rf"));
  bench::MustOk(
      ctx.InsertModel("los_rf", data::HospitalForestScript(), *forest),
      "insert");
  ir::IrPlan plan = bench::Must(
      ctx.Prepare("SELECT id, p FROM PREDICT(MODEL='los_rf', DATA=patients) "
                  "WITH(p float)"),
      "prepare");
  runtime::ExecutionOptions options = ctx.execution_options();
  options.parallelism = state.range(0);
  options.morsel_rows = relational::kChunkSize / 4;
  runtime::ExecutionStats stats;
  bench::MustOk(ctx.executor().Execute(plan, options, &stats).status(),
                "warm-up execute");
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto result = ctx.executor().Execute(plan, options, &stats);
    if (!result.ok()) {
      state.SkipWithError("execute failed");
      return;
    }
    benchmark::DoNotOptimize(result->num_rows());
  }
  const std::chrono::duration<double, std::micro> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["us_per_stmt"] =
      elapsed.count() / static_cast<double>(state.iterations());
  state.counters["programs_compiled"] =
      static_cast<double>(stats.programs_compiled);
}

void BM_ExecutorLoneProject(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  RavenContext ctx;
  bench::MustOk(
      ctx.RegisterTable("patients", bench::Hospital(rows).joined),
      "register");
  ir::IrPlan plan = bench::Must(
      ctx.Prepare("SELECT gender, pregnant, COUNT(*) AS n, MAX(bp) AS max_bp "
                  "FROM patients GROUP BY gender, pregnant"),
      "prepare");
  runtime::ExecutionOptions options = ctx.execution_options();
  options.parallelism = state.range(1);
  // Warm-up + shape guard outside the timed loop: the projection must run
  // alone, not fused into a chain.
  runtime::ExecutionStats stats;
  bench::MustOk(ctx.executor().Execute(plan, options, &stats).status(),
                "warm-up execute");
  bool lone_project = false;
  for (const auto& op : stats.operators) lone_project |= op.op == "Project";
  if (!lone_project || stats.fused_chains != 0) {
    state.SkipWithError("plan has no lone Project");
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto result = ctx.executor().Execute(plan, options, &stats);
    if (!result.ok()) {
      state.SkipWithError("execute failed");
      return;
    }
    benchmark::DoNotOptimize(result->num_rows());
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["ns_per_row"] =
      elapsed.count() / static_cast<double>(state.iterations() * rows);
}

BENCHMARK(BM_ExecutorDispatch)
    ->ArgsProduct({{512, 2048, 2049, 16384}, {1, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_ExecutorForestProgram)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_ExecutorLoneProject)
    ->ArgsProduct({{2000, 16384}, {1, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace raven
