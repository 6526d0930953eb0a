// Fig 2(d): NN translation (hospital random forest). The paper compares
// scikit-learn's interpreted RF against the same model translated to a
// neural network (GEMM layers) on CPU and on a K80 GPU: RF-NN(CPU) ~2x
// faster at 1K rows with the gap closing as size grows; RF-NN(GPU) up to
// ~15x at 1M rows.
//
// Series:
//   RF_Interpreted   = row-at-a-time tree walking (classical framework).
//   RFNN_CPU         = GEMM-lowered forest in NNRT on the host CPU
//                      (measured wall time).
//   RFNN_Accelerator = same graph on the simulated accelerator; reported
//                      time is the device cost model
//                      (launch_overhead + flops/throughput), see DESIGN.md
//                      GPU substitution. Uses manual timing.
//   RF_Walk          = the same forest inlined into SQL (the optimizer's
//                      default representation): `(CASE_1 + ... + CASE_10)
//                      / 10` compiled by KernelProgram into ten decision
//                      walks, nine adds and a divide, over one
//                      kChunkSize-row chunk. Its `ns_per_row` sits next to
//                      RFNN_CPU's at the same row count: the walk-vs-GEMM
//                      crossover for a 10-tree, depth-8 forest.

#include "bench_util.h"
#include "nnrt/session.h"
#include "optimizer/converters.h"
#include "relational/kernel.h"

namespace raven {
namespace {

const ml::ModelPipeline& Forest() {
  static auto* model = new ml::ModelPipeline(bench::Must(
      data::TrainHospitalForest(bench::Hospital(20000), 10, 8), "train rf"));
  return *model;
}

Tensor InputFor(std::int64_t rows) {
  return bench::Must(
      bench::Hospital(rows).joined.ToTensor(Forest().input_columns),
      "tensor");
}

const nnrt::InferenceSession& Session(nnrt::DeviceSpec device) {
  static auto* cpu = new std::unique_ptr<nnrt::InferenceSession>();
  static auto* acc = new std::unique_ptr<nnrt::InferenceSession>();
  auto& slot = device.type == nnrt::DeviceType::kCpu ? *cpu : *acc;
  if (slot == nullptr) {
    nnrt::Graph graph =
        bench::Must(optimizer::PipelineToNnGraph(Forest()), "translate");
    nnrt::SessionOptions options;
    options.device = device;
    slot = bench::Must(
        nnrt::InferenceSession::Create(std::move(graph), options),
        "session");
  }
  return *slot;
}

/// Per-row CPU time of a benchmark that scores `rows` rows per iteration.
benchmark::Counter NsPerRow(std::int64_t rows) {
  return benchmark::Counter(
      static_cast<double>(rows) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_Fig2d_RF_Interpreted(benchmark::State& state) {
  Tensor x = InputFor(state.range(0));
  const auto& model = Forest();
  for (auto _ : state) {
    auto preds = model.Predict(x);
    benchmark::DoNotOptimize(preds);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}

void BM_Fig2d_RFNN_CPU(benchmark::State& state) {
  Tensor x = InputFor(state.range(0));
  const auto& session = Session(nnrt::DeviceSpec::Cpu());
  for (auto _ : state) {
    auto preds = session.RunSingle(x);
    benchmark::DoNotOptimize(preds);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
  state.counters["ns_per_row"] = NsPerRow(state.range(0));
}

void BM_Fig2d_RF_Walk(benchmark::State& state) {
  const auto& data = bench::Hospital(20000);
  const relational::ExprPtr forest =
      bench::Must(optimizer::TreeToCaseExpr(Forest()), "inline");
  relational::DataChunk chunk;
  for (const auto& column : data.joined.columns()) {
    chunk.names.push_back(column.name);
    chunk.cols.emplace_back(column.data.begin(),
                            column.data.begin() + relational::kChunkSize);
  }
  auto program = bench::Must(
      relational::KernelProgram::Compile(*forest, chunk.names, "bench"),
      "compile");
  relational::KernelProgram::Scratch scratch;
  for (auto _ : state) {
    auto values = program.Run(chunk, &scratch);
    benchmark::DoNotOptimize(values);
    benchmark::ClobberMemory();
  }
  state.counters["rows"] = static_cast<double>(relational::kChunkSize);
  state.counters["ns_per_row"] = NsPerRow(relational::kChunkSize);
}

void BM_Fig2d_RFNN_Accelerator(benchmark::State& state) {
  Tensor x = InputFor(state.range(0));
  const auto& session =
      Session(nnrt::DeviceSpec::Accelerator(/*launch_overhead_us=*/60.0,
                                            /*flops_per_us=*/2.0e4));
  for (auto _ : state) {
    nnrt::RunStats stats;
    auto preds = session.RunSingle(x, &stats);
    benchmark::DoNotOptimize(preds);
    // Report the device-model time, not host wall time.
    state.SetIterationTime(stats.simulated_micros * 1e-6);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}

#define FIG2D_SIZES ->Arg(1000)->Arg(10000)->Arg(100000)->Arg(200000)

BENCHMARK(BM_Fig2d_RF_Interpreted)
    FIG2D_SIZES->Iterations(2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig2d_RFNN_CPU)
    FIG2D_SIZES->Iterations(2)->Unit(benchmark::kMillisecond);
// One chunk through NNRT's GEMM lowering vs the inlined decision walks.
BENCHMARK(BM_Fig2d_RFNN_CPU)
    ->Arg(relational::kChunkSize)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Fig2d_RF_Walk)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Fig2d_RFNN_Accelerator)
    FIG2D_SIZES->Iterations(2)->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace raven
