// Fig 2(c): model inlining (hospital length-of-stay decision tree). The
// paper translates the tree to SQL, inlines it (Froid-style), and reports
// ~17x at 300K tuples over scikit-learn reading data from the DB — most of
// the win being avoided data movement — plus another 29% from
// predicate-based pruning when the query selects on a tree dimension
// (24.5x total).
//
// Series:
//   External  = out-of-process scoring of the stored pipeline (the
//               "classical framework reading from the DB" baseline).
//   InlinedSQL = tree compiled to a CASE expression evaluated by the
//               relational engine (model inlining ON, NN translation OFF).
//   InlinedPruned = same, plus WHERE bp > 140 predicate pruning the tree.
//
// Layer microbench (the CASE kernel alone): a depth-d tree inlined by
// TreeToCaseExpr, evaluated over one kChunkSize-row chunk of hospital rows
// by KernelProgram::Run (the query path's decision walk) and by
// Expr::Evaluate (the eager reference interpreter). The ns_per_row counter
// is the per-row cost of one evaluation.
//   CaseKernel/d      = KernelProgram::Run
//   CaseInterpreter/d = Expr::Evaluate

#include <chrono>
#include <vector>

#include "bench_util.h"
#include "optimizer/converters.h"
#include "raven/raven.h"
#include "relational/kernel.h"

namespace raven {
namespace {

std::unique_ptr<RavenContext> MakeContext(std::int64_t rows, bool inlining,
                                          bool pruning,
                                          runtime::ExecutionMode mode) {
  RavenOptions options;
  options.optimizer.model_inlining = inlining;
  options.optimizer.nn_translation = false;
  options.optimizer.predicate_model_pruning = pruning;
  options.execution.mode = mode;
  options.execution.external.boot_millis = 300;  // external runtime boot
  auto ctx = std::make_unique<RavenContext>(options);
  const auto& data = bench::Hospital(rows);
  bench::MustOk(ctx->RegisterTable("patients", data.joined), "register");
  bench::MustOk(ctx->InsertModel(
                    "los", data::HospitalTreeScript(),
                    bench::Must(data::TrainHospitalTree(data, 8), "train")),
                "insert model");
  return ctx;
}

constexpr const char* kPlainQuery =
    "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float)";
constexpr const char* kSelectiveQuery =
    "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
    "WHERE bp > 140";

void RunQuery(benchmark::State& state, RavenContext* ctx, const char* sql) {
  for (auto _ : state) {
    auto result = ctx->Query(sql);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->table.num_rows());
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}

void BM_Fig2c_External(benchmark::State& state) {
  auto ctx = MakeContext(state.range(0), /*inlining=*/false,
                         /*pruning=*/false,
                         runtime::ExecutionMode::kOutOfProcess);
  RunQuery(state, ctx.get(), kPlainQuery);
}

void BM_Fig2c_InlinedSql(benchmark::State& state) {
  auto ctx = MakeContext(state.range(0), /*inlining=*/true, /*pruning=*/false,
                         runtime::ExecutionMode::kInProcess);
  RunQuery(state, ctx.get(), kPlainQuery);
}

void BM_Fig2c_SelectiveInlined(benchmark::State& state) {
  auto ctx = MakeContext(state.range(0), /*inlining=*/true, /*pruning=*/false,
                         runtime::ExecutionMode::kInProcess);
  RunQuery(state, ctx.get(), kSelectiveQuery);
}

void BM_Fig2c_SelectiveInlinedPruned(benchmark::State& state) {
  auto ctx = MakeContext(state.range(0), /*inlining=*/true, /*pruning=*/true,
                         runtime::ExecutionMode::kInProcess);
  RunQuery(state, ctx.get(), kSelectiveQuery);
}

struct CaseKernelInput {
  relational::ExprPtr expr;
  relational::DataChunk chunk;
};

CaseKernelInput MakeCaseKernelInput(std::int64_t depth) {
  const auto& data = bench::Hospital(10000);
  CaseKernelInput in;
  in.expr = bench::Must(
      optimizer::TreeToCaseExpr(
          bench::Must(data::TrainHospitalTree(data, depth), "train")),
      "inline");
  for (const auto& column : data.joined.columns()) {
    in.chunk.names.push_back(column.name);
    in.chunk.cols.emplace_back(column.data.begin(),
                               column.data.begin() + relational::kChunkSize);
  }
  return in;
}

/// Times `evaluate` over the chunk and reports ns per evaluated row.
template <typename F>
void TimeCaseEvaluation(benchmark::State& state, F evaluate) {
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) evaluate();
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["ns_per_row"] =
      elapsed.count() /
      static_cast<double>(state.iterations() * relational::kChunkSize);
}

void BM_Fig2c_CaseKernel(benchmark::State& state) {
  const CaseKernelInput in = MakeCaseKernelInput(state.range(0));
  auto program = bench::Must(
      relational::KernelProgram::Compile(*in.expr, in.chunk.names, "bench"),
      "compile");
  relational::KernelProgram::Scratch scratch;
  TimeCaseEvaluation(state, [&] {
    auto values = program.Run(in.chunk, &scratch);
    benchmark::DoNotOptimize(values);
    benchmark::ClobberMemory();
  });
}

void BM_Fig2c_CaseInterpreter(benchmark::State& state) {
  const CaseKernelInput in = MakeCaseKernelInput(state.range(0));
  std::vector<double> out;
  TimeCaseEvaluation(state, [&] {
    bench::MustOk(in.expr->Evaluate(in.chunk, &out), "evaluate");
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  });
}

// Paper uses up to 300K tuples for the headline number.
BENCHMARK(BM_Fig2c_External)
    ->Arg(10000)->Arg(100000)->Arg(300000)
    ->Iterations(2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig2c_InlinedSql)
    ->Arg(10000)->Arg(100000)->Arg(300000)
    ->Iterations(3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig2c_SelectiveInlined)
    ->Arg(100000)->Arg(300000)
    ->Iterations(3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig2c_SelectiveInlinedPruned)
    ->Arg(100000)->Arg(300000)
    ->Iterations(3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig2c_CaseKernel)
    ->Arg(5)->Arg(8)->Arg(12)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Fig2c_CaseInterpreter)
    ->Arg(5)->Arg(8)->Arg(12)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace raven
