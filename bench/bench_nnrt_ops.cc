// Layer microbench: NNRT ops per backend, on the hospital MLP (the paper's
// Fig 3 MLP, 12 -> 32 -> 16 -> 1) with its real activations.
//
//   BM_Nnrt_Gemm/<backend>/<layer>/<rows>
//       one Gemm kernel call (fused ReLU included on layers 0 and 1), fed
//       the activations the layer sees when the model scores hospital rows.
//       layer 0 = 12x32+ReLU, 1 = 32x16+ReLU, 2 = 16x1. rows = 512 (one
//       scan morsel) or 1 (a served point PREDICT). The label names the
//       shape. <backend> is reference, simd (the width the CPU runs), or a
//       pinned width: sse2, avx2 (skipped on CPUs without AVX2).
//   BM_Nnrt_FirstLayer/<backend>/<rows>
//       the first layer from raw hospital rows: Featurize then Gemm+ReLU as
//       two plan steps on reference, one fused FeaturizeGemm step on the
//       SIMD widths (the label lists the steps).
//   BM_Nnrt_FirstLayerIrregular/<sse2|avx2>
//       the fused first layer on 512 raw rows of which one in 8 has an
//       exactly-zero feature: every row group takes the per-row listing
//       for that row, so its cost next to FirstLayerWidth is the fallback's.
//   BM_Nnrt_Featurize/<fused|unfused>/<rows>
//       the featurizer on raw hospital rows: one Featurize node against the
//       GatherColumns/Scaler/OneHot/Concat chain it replaces (7 nodes).
//   BM_Nnrt_HospitalMlp/<backend>/<fused|unfused>/<rows>
//       InferenceSession::RunSingle of the whole graph per morsel: with the
//       session-time optimizer (Featurize, Gemm+ReLU) or without it.
//   BM_Nnrt_HospitalMlpPlan/<sse2|avx2>/<rows>
//       the optimized graph's plan at a pinned width, run over one reused
//       RunArena (the scorer's hot path).
//
// Every case reports ns_per_row. The graph-level cases include the plan's
// per-call overhead; the Gemm cases call the prepared kernel alone.

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "nnrt/backend.h"
#include "nnrt/executor.h"
#include "nnrt/graph_optimizer.h"
#include "nnrt/kernels.h"
#include "nnrt/session.h"
#include "optimizer/converters.h"

namespace raven {
namespace {

using nnrt::BackendKind;

constexpr std::int64_t kMorselRows = 512;

/// The hospital MLP, translated, plus the raw rows and every Gemm's input
/// activations for the first kMorselRows rows.
struct MlpFixture {
  nnrt::Graph graph;      // as translated (unfused)
  nnrt::Graph optimized;  // after OptimizeGraph
  Tensor x;               // raw [kMorselRows, 9] hospital rows
  std::vector<const nnrt::Node*> gemms;  // in the optimized graph, in order
  std::vector<Tensor> activations;       // gemms[l]'s input
};

const MlpFixture& Mlp() {
  static const MlpFixture* fixture = [] {
    auto* f = new MlpFixture();
    const auto& data = bench::Hospital(4000);
    const auto pipeline =
        bench::Must(data::TrainHospitalMlp(data), "train mlp");
    f->graph = bench::Must(optimizer::PipelineToNnGraph(pipeline), "translate");
    f->optimized = f->graph;
    bench::MustOk(nnrt::OptimizeGraph(&f->optimized), "optimize");
    const Tensor all =
        bench::Must(data.joined.ToTensor(pipeline.input_columns), "tensor");
    const std::int64_t cols = all.dim(1);
    f->x = bench::Must(
        Tensor::FromData(
            {kMorselRows, cols},
            std::vector<float>(all.raw(), all.raw() + kMorselRows * cols)),
        "morsel");
    // Expose every Gemm input as a graph output to capture the activations.
    nnrt::Graph probe = f->optimized;
    for (const auto& node : f->optimized.nodes()) {
      if (node.op_type == "Gemm") probe.AddOutput(node.inputs[0]);
    }
    nnrt::TensorMap env;
    env["X"] = f->x;
    const auto out = bench::Must(nnrt::ExecuteGraph(probe, env), "probe");
    auto order = bench::Must(f->optimized.TopologicalOrder(), "order");
    for (std::size_t idx : order) {
      const nnrt::Node& node = f->optimized.nodes()[idx];
      if (node.op_type != "Gemm") continue;
      f->gemms.push_back(&node);
      f->activations.push_back(out.at(node.inputs[0]));
    }
    if (f->gemms.size() != 3) {
      fprintf(stderr, "bench setup failed: expected 3 Gemm layers\n");
      abort();
    }
    return f;
  }();
  return *fixture;
}

/// The first `rows` rows of `t`.
Tensor HeadRows(const Tensor& t, std::int64_t rows) {
  const std::int64_t cols = t.dim(1);
  return bench::Must(
      Tensor::FromData({rows, cols},
                       std::vector<float>(t.raw(), t.raw() + rows * cols)),
      "head rows");
}

/// Times the benchmark loop body `run` and reports ns_per_row.
template <typename F>
void RunPerRow(benchmark::State& state, std::int64_t rows, F run) {
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) run();
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["ns_per_row"] =
      elapsed.count() / static_cast<double>(state.iterations() * rows);
}

/// The SIMD backend at `width`, or null (after skipping the benchmark)
/// when this CPU lacks it.
const nnrt::Backend* PinnedWidth(benchmark::State& state,
                                 nnrt::SimdWidth width) {
  for (nnrt::SimdWidth w : nnrt::SupportedSimdWidths()) {
    if (w == width) return nnrt::GetSimdBackend(width);
  }
  state.SkipWithError("width not supported by this CPU");
  return nullptr;
}

void RunGemm(benchmark::State& state, const nnrt::Backend* backend) {
  const MlpFixture& f = Mlp();
  const std::size_t layer = static_cast<std::size_t>(state.range(0));
  const std::int64_t rows = state.range(1);
  const nnrt::Node& node = *f.gemms[layer];
  const Tensor input = HeadRows(f.activations[layer], rows);
  const nnrt::Kernel kernel =
      bench::Must((*backend->FindKernel("Gemm"))(node), "prepare gemm");
  const Tensor* inputs[] = {&input,
                            &f.optimized.initializers().at(node.inputs[1]),
                            &f.optimized.initializers().at(node.inputs[2])};
  Tensor output;
  Tensor* outputs[] = {&output};
  nnrt::KernelContext ctx;
  ctx.node = &node;
  ctx.inputs = inputs;
  ctx.input_count = 3;
  ctx.outputs = outputs;
  ctx.output_count = 1;
  RunPerRow(state, rows, [&] {
    bench::MustOk(kernel(&ctx), "gemm");
    benchmark::DoNotOptimize(output.raw());
  });
  const Tensor& w = *inputs[1];
  state.SetLabel(std::to_string(w.dim(0)) + "x" + std::to_string(w.dim(1)) +
                 (node.HasAttr(nnrt::kGemmActivationAttr) ? "+ReLU" : ""));
}

void BM_Nnrt_Gemm(benchmark::State& state, BackendKind backend) {
  RunGemm(state, nnrt::GetBackend(backend));
}

void BM_Nnrt_GemmWidth(benchmark::State& state, nnrt::SimdWidth width) {
  if (const nnrt::Backend* backend = PinnedWidth(state, width)) {
    RunGemm(state, backend);
  }
}

/// Runs `graph`'s plan for `backend` on `input` over one reused arena per
/// iteration.
void RunPlanOn(benchmark::State& state, const nnrt::Graph& graph,
               const nnrt::Backend* backend, const Tensor& input) {
  const std::int64_t rows = input.dim(0);
  const auto plan =
      bench::Must(nnrt::ExecutionPlan::Build(graph, backend), "plan");
  const Tensor* inputs[] = {&input};
  nnrt::RunArena arena;
  RunPerRow(state, rows, [&] {
    bench::MustOk(plan.Run(inputs, 1, &arena), "run");
    benchmark::DoNotOptimize(plan.Output(arena, 0).raw());
  });
  std::string label;
  for (const auto& op : plan.StepOps()) label += (label.empty() ? "" : "+") + op;
  state.SetLabel(label);
}

/// Runs `graph`'s plan on the first `rows` raw hospital rows.
void RunPlan(benchmark::State& state, const nnrt::Graph& graph,
             const nnrt::Backend* backend, std::int64_t rows) {
  RunPlanOn(state, graph, backend, HeadRows(Mlp().x, rows));
}

/// The optimized graph cut after the first Gemm: Featurize -> Gemm+ReLU.
const nnrt::Graph& FirstLayerGraph() {
  static const nnrt::Graph* graph = [] {
    const MlpFixture& f = Mlp();
    auto* g = new nnrt::Graph();
    g->AddInput("X");
    const nnrt::Node& gemm = *f.gemms[0];
    for (const auto& node : f.optimized.nodes()) {
      if (node.op_type == "Featurize") g->AddNode(node);
    }
    g->AddNode(gemm);
    for (std::size_t i = 1; i < gemm.inputs.size(); ++i) {
      g->AddInitializer(gemm.inputs[i],
                        f.optimized.initializers().at(gemm.inputs[i]));
    }
    g->AddOutput(gemm.outputs[0]);
    return g;
  }();
  return *graph;
}

void BM_Nnrt_FirstLayer(benchmark::State& state, BackendKind backend) {
  RunPlan(state, FirstLayerGraph(), nnrt::GetBackend(backend),
          state.range(0));
}

void BM_Nnrt_FirstLayerWidth(benchmark::State& state, nnrt::SimdWidth width) {
  if (const nnrt::Backend* backend = PinnedWidth(state, width)) {
    RunPlan(state, FirstLayerGraph(), backend, state.range(0));
  }
}

/// The first kMorselRows raw rows with one row in 8 irregular for the
/// fused first layer: its first scaled feature is exactly zero (the raw
/// value equals the scaler's offset), so every row group mixes template
/// rows with a listed one.
Tensor IrregularRows() {
  const MlpFixture& f = Mlp();
  const nnrt::Node* featurize = nullptr;
  for (const auto& node : f.optimized.nodes()) {
    if (node.op_type == "Featurize") featurize = &node;
  }
  const auto kinds =
      bench::Must(featurize->GetIntsAttr("kinds"), "featurize kinds");
  const auto columns =
      bench::Must(featurize->GetIntsAttr("columns"), "featurize columns");
  const auto offset =
      bench::Must(featurize->GetFloatsAttr("offset"), "featurize offset");
  if (kinds.empty() || kinds[0] != 1 || offset.empty()) {
    fprintf(stderr, "bench setup failed: expected a leading scale segment\n");
    abort();
  }
  Tensor x = HeadRows(f.x, kMorselRows);
  const std::int64_t cols = x.dim(1);
  for (std::int64_t r = 7; r < kMorselRows; r += 8) {
    x.raw()[r * cols + columns[0]] = static_cast<float>(offset[0]);
  }
  return x;
}

void BM_Nnrt_FirstLayerIrregular(benchmark::State& state,
                                 nnrt::SimdWidth width) {
  if (const nnrt::Backend* backend = PinnedWidth(state, width)) {
    RunPlanOn(state, FirstLayerGraph(), backend, IrregularRows());
  }
}

void BM_Nnrt_HospitalMlpPlan(benchmark::State& state, nnrt::SimdWidth width) {
  if (const nnrt::Backend* backend = PinnedWidth(state, width)) {
    RunPlan(state, Mlp().optimized, backend, state.range(0));
  }
}

/// The featurizer alone: the translated graph's nodes up to the first
/// Gemm's input, fused into one Featurize or left as translated.
void BM_Nnrt_Featurize(benchmark::State& state, bool fused) {
  const MlpFixture& f = Mlp();
  const std::int64_t rows = state.range(0);
  nnrt::Graph graph;
  graph.AddInput("X");
  std::string features;
  for (const auto& node : f.graph.nodes()) {
    if (node.op_type == "Gemm") {
      if (features.empty()) features = node.inputs[0];
      continue;
    }
    if (node.op_type != "Relu") graph.AddNode(node);
  }
  graph.AddOutput(features);
  if (fused) bench::MustOk(nnrt::OptimizeGraph(&graph), "optimize");
  nnrt::TensorMap env;
  env["X"] = HeadRows(f.x, rows);
  const nnrt::Backend* simd = nnrt::GetBackend(BackendKind::kSimd);
  RunPerRow(state, rows, [&] {
    auto out = bench::Must(nnrt::ExecuteGraph(graph, env, nullptr, simd),
                           "featurize");
    benchmark::DoNotOptimize(out);
  });
  state.SetLabel(std::to_string(graph.nodes().size()) + " nodes");
}

void BM_Nnrt_HospitalMlp(benchmark::State& state, BackendKind backend,
                         bool fused) {
  const MlpFixture& f = Mlp();
  const std::int64_t rows = state.range(0);
  nnrt::SessionOptions options;
  options.backend = backend;
  options.enable_graph_optimizations = fused;
  auto session =
      bench::Must(nnrt::InferenceSession::Create(f.graph, options), "session");
  const Tensor input = HeadRows(f.x, rows);
  RunPerRow(state, rows, [&] {
    auto out = bench::Must(session->RunSingle(input), "run");
    benchmark::DoNotOptimize(out.raw());
  });
  state.SetLabel(std::to_string(session->graph().nodes().size()) + " nodes");
}

void GemmArgs(benchmark::internal::Benchmark* b) {
  for (std::int64_t layer = 0; layer < 3; ++layer) {
    b->Args({layer, kMorselRows});
    b->Args({layer, 1});
  }
}

BENCHMARK_CAPTURE(BM_Nnrt_Gemm, reference, BackendKind::kReference)
    ->Apply(GemmArgs);
BENCHMARK_CAPTURE(BM_Nnrt_Gemm, simd, BackendKind::kSimd)->Apply(GemmArgs);
BENCHMARK_CAPTURE(BM_Nnrt_GemmWidth, sse2, nnrt::SimdWidth::kSse2)
    ->Apply(GemmArgs);
BENCHMARK_CAPTURE(BM_Nnrt_GemmWidth, avx2, nnrt::SimdWidth::kAvx2)
    ->Apply(GemmArgs);
BENCHMARK_CAPTURE(BM_Nnrt_FirstLayer, reference, BackendKind::kReference)
    ->Arg(kMorselRows)
    ->Arg(1);
BENCHMARK_CAPTURE(BM_Nnrt_FirstLayerWidth, sse2, nnrt::SimdWidth::kSse2)
    ->Arg(kMorselRows)
    ->Arg(1);
BENCHMARK_CAPTURE(BM_Nnrt_FirstLayerWidth, avx2, nnrt::SimdWidth::kAvx2)
    ->Arg(kMorselRows)
    ->Arg(1);
BENCHMARK_CAPTURE(BM_Nnrt_FirstLayerIrregular, sse2, nnrt::SimdWidth::kSse2);
BENCHMARK_CAPTURE(BM_Nnrt_FirstLayerIrregular, avx2, nnrt::SimdWidth::kAvx2);
BENCHMARK_CAPTURE(BM_Nnrt_Featurize, fused, true)->Arg(kMorselRows)->Arg(1);
BENCHMARK_CAPTURE(BM_Nnrt_Featurize, unfused, false)->Arg(kMorselRows)->Arg(1);
BENCHMARK_CAPTURE(BM_Nnrt_HospitalMlp, reference/unfused,
                  BackendKind::kReference, false)
    ->Arg(kMorselRows)
    ->Arg(1);
BENCHMARK_CAPTURE(BM_Nnrt_HospitalMlp, reference/fused,
                  BackendKind::kReference, true)
    ->Arg(kMorselRows)
    ->Arg(1);
BENCHMARK_CAPTURE(BM_Nnrt_HospitalMlp, simd/fused, BackendKind::kSimd, true)
    ->Arg(kMorselRows)
    ->Arg(1);
BENCHMARK_CAPTURE(BM_Nnrt_HospitalMlpPlan, sse2, nnrt::SimdWidth::kSse2)
    ->Arg(kMorselRows)
    ->Arg(1);
BENCHMARK_CAPTURE(BM_Nnrt_HospitalMlpPlan, avx2, nnrt::SimdWidth::kAvx2)
    ->Arg(kMorselRows)
    ->Arg(1);

}  // namespace
}  // namespace raven
