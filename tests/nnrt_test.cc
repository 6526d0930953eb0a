#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

#include "data/flight.h"
#include "data/hospital.h"
#include "nnrt/artifact_cache.h"
#include "nnrt/backend.h"
#include "nnrt/device.h"
#include "nnrt/executor.h"
#include "nnrt/graph.h"
#include "nnrt/graph_optimizer.h"
#include "nnrt/kernels.h"
#include "nnrt/session.h"
#include "optimizer/converters.h"

namespace raven::nnrt {
namespace {

Node MakeNode(const std::string& op, std::vector<std::string> inputs,
              std::vector<std::string> outputs) {
  Node node;
  node.op_type = op;
  node.name = op + "_" + outputs.front();
  node.inputs = std::move(inputs);
  node.outputs = std::move(outputs);
  return node;
}

Result<Tensor> RunSingleOp(Node node, std::vector<Tensor> inputs) {
  Graph graph;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    graph.AddInput(node.inputs[i]);
  }
  graph.AddOutput(node.outputs[0]);
  TensorMap env;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    env[node.inputs[i]] = std::move(inputs[i]);
  }
  graph.AddNode(std::move(node));
  RAVEN_ASSIGN_OR_RETURN(TensorMap out, ExecuteGraph(graph, env));
  return out.begin()->second;
}

TEST(KernelTest, AddBroadcastRowVector) {
  Tensor a = *Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({10, 20, 30});
  Tensor out = *RunSingleOp(MakeNode("Add", {"a", "b"}, {"y"}), {a, b});
  EXPECT_TRUE(out.Equals(*Tensor::FromData({2, 3}, {11, 22, 33, 14, 25, 36})));
}

TEST(KernelTest, AddScalarBroadcast) {
  Tensor a = *Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor out = *RunSingleOp(MakeNode("Add", {"a", "b"}, {"y"}),
                            {a, Tensor::Scalar(1.0f)});
  EXPECT_TRUE(out.Equals(*Tensor::FromData({2, 2}, {2, 3, 4, 5})));
}

TEST(KernelTest, AddShapeMismatchFails) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({2});
  EXPECT_FALSE(RunSingleOp(MakeNode("Add", {"a", "b"}, {"y"}), {a, b}).ok());
}

TEST(KernelTest, MatMul) {
  Tensor a = *Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = *Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor out = *RunSingleOp(MakeNode("MatMul", {"a", "b"}, {"y"}), {a, b});
  EXPECT_TRUE(out.Equals(*Tensor::FromData({2, 2}, {58, 64, 139, 154})));
}

TEST(KernelTest, GemmWithBias) {
  Tensor x = *Tensor::FromData({1, 2}, {1, 2});
  Tensor w = *Tensor::FromData({2, 2}, {1, 0, 0, 1});
  Tensor b = Tensor::FromVector({10, 20});
  Node node = MakeNode("Gemm", {"x", "w", "b"}, {"y"});
  Tensor out = *RunSingleOp(std::move(node), {x, w, b});
  EXPECT_TRUE(out.Equals(*Tensor::FromData({1, 2}, {11, 22})));
}

TEST(KernelTest, ReluSigmoidTanh) {
  Tensor x = *Tensor::FromData({1, 3}, {-1, 0, 2});
  Tensor relu = *RunSingleOp(MakeNode("Relu", {"x"}, {"y"}), {x});
  EXPECT_TRUE(relu.Equals(*Tensor::FromData({1, 3}, {0, 0, 2})));
  Tensor sig = *RunSingleOp(MakeNode("Sigmoid", {"x"}, {"y"}), {x});
  EXPECT_NEAR(sig.raw()[1], 0.5f, 1e-6f);
  EXPECT_NEAR(sig.raw()[2], 1.0f / (1.0f + std::exp(-2.0f)), 1e-6f);
  Tensor th = *RunSingleOp(MakeNode("Tanh", {"x"}, {"y"}), {x});
  EXPECT_NEAR(th.raw()[0], std::tanh(-1.0f), 1e-6f);
}

TEST(KernelTest, SoftmaxRows) {
  Tensor x = *Tensor::FromData({2, 2}, {0, 0, 1, 3});
  Tensor out = *RunSingleOp(MakeNode("Softmax", {"x"}, {"y"}), {x});
  EXPECT_NEAR(out.At(0, 0), 0.5f, 1e-6f);
  EXPECT_NEAR(out.At(1, 0) + out.At(1, 1), 1.0f, 1e-6f);
  EXPECT_GT(out.At(1, 1), out.At(1, 0));
}

TEST(KernelTest, ConcatAxis1) {
  Tensor a = *Tensor::FromData({2, 1}, {1, 2});
  Tensor b = *Tensor::FromData({2, 2}, {3, 4, 5, 6});
  Tensor out = *RunSingleOp(MakeNode("Concat", {"a", "b"}, {"y"}), {a, b});
  EXPECT_TRUE(out.Equals(*Tensor::FromData({2, 3}, {1, 3, 4, 2, 5, 6})));
}

TEST(KernelTest, GatherColumns) {
  Tensor x = *Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Node node = MakeNode("GatherColumns", {"x"}, {"y"});
  node.attrs["indices"] = std::vector<std::int64_t>{2, 0};
  Tensor out = *RunSingleOp(std::move(node), {x});
  EXPECT_TRUE(out.Equals(*Tensor::FromData({2, 2}, {3, 1, 6, 4})));
}

TEST(KernelTest, GatherColumnsOutOfRangeFails) {
  Tensor x = Tensor::Zeros({1, 2});
  Node node = MakeNode("GatherColumns", {"x"}, {"y"});
  node.attrs["indices"] = std::vector<std::int64_t>{5};
  EXPECT_FALSE(RunSingleOp(std::move(node), {x}).ok());
}

TEST(KernelTest, OneHot) {
  Tensor x = *Tensor::FromData({3, 1}, {0, 2, 7});  // 7 out of range
  Node node = MakeNode("OneHot", {"x"}, {"y"});
  node.attrs["depth"] = static_cast<std::int64_t>(3);
  Tensor out = *RunSingleOp(std::move(node), {x});
  EXPECT_TRUE(out.Equals(
      *Tensor::FromData({3, 3}, {1, 0, 0, 0, 0, 1, 0, 0, 0})));
}

TEST(KernelTest, FeaturizeRejectsMalformedSegments) {
  // Copy X[:, 1], then one-hot X[:, 0] over codes {0, 2}.
  Node good = MakeNode("Featurize", {"x"}, {"y"});
  good.attrs["kinds"] = std::vector<std::int64_t>{0, 2};
  good.attrs["widths"] = std::vector<std::int64_t>{1, 2};
  good.attrs["columns"] = std::vector<std::int64_t>{1, 0};
  good.attrs["codes"] = std::vector<std::int64_t>{0, 2};
  good.attrs["offset"] = std::vector<double>{};
  good.attrs["scale"] = std::vector<double>{};
  Tensor x = *Tensor::FromData({2, 2}, {2.0f, 5.0f, 1.0f, 6.0f});
  Tensor y = *RunSingleOp(good, {x});
  EXPECT_TRUE(y.Equals(*Tensor::FromData(
      {2, 3}, {5.0f, 0.0f, 1.0f, 6.0f, 0.0f, 0.0f})));

  Node out_of_range = good;
  out_of_range.attrs["columns"] = std::vector<std::int64_t>{1, 2};
  auto r1 = RunSingleOp(out_of_range, {x});
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kOutOfRange);
  Node short_codes = good;
  short_codes.attrs["codes"] = std::vector<std::int64_t>{0};
  EXPECT_FALSE(RunSingleOp(short_codes, {x}).ok());
  Node extra_columns = good;
  extra_columns.attrs["columns"] = std::vector<std::int64_t>{1, 0, 0};
  EXPECT_FALSE(RunSingleOp(extra_columns, {x}).ok());
  Node negative_code = good;
  negative_code.attrs["codes"] = std::vector<std::int64_t>{-1, 2};
  EXPECT_FALSE(RunSingleOp(negative_code, {x}).ok());
  Node missing = good;
  missing.attrs.erase("kinds");
  EXPECT_FALSE(RunSingleOp(missing, {x}).ok());
}

TEST(KernelTest, Scaler) {
  Tensor x = *Tensor::FromData({2, 2}, {10, 100, 20, 200});
  Node node = MakeNode("Scaler", {"x"}, {"y"});
  node.attrs["offset"] = std::vector<double>{10.0, 100.0};
  node.attrs["scale"] = std::vector<double>{0.5, 0.1};
  Tensor out = *RunSingleOp(std::move(node), {x});
  EXPECT_TRUE(out.Equals(*Tensor::FromData({2, 2}, {0, 0, 5, 10})));
}

TEST(KernelTest, ArgMaxAndReduceSum) {
  Tensor x = *Tensor::FromData({2, 3}, {1, 5, 2, 9, 0, 3});
  Tensor am = *RunSingleOp(MakeNode("ArgMax", {"x"}, {"y"}), {x});
  EXPECT_TRUE(am.Equals(*Tensor::FromData({2, 1}, {1, 0})));
  Tensor rs = *RunSingleOp(MakeNode("ReduceSum", {"x"}, {"y"}), {x});
  EXPECT_TRUE(rs.Equals(*Tensor::FromData({2, 1}, {8, 12})));
}

TEST(KernelTest, ComparisonOps) {
  Tensor a = *Tensor::FromData({1, 3}, {1, 2, 3});
  Tensor b = *Tensor::FromData({1, 3}, {2, 2, 2});
  EXPECT_TRUE(RunSingleOp(MakeNode("Less", {"a", "b"}, {"y"}), {a, b})
                  ->Equals(*Tensor::FromData({1, 3}, {1, 0, 0})));
  EXPECT_TRUE(RunSingleOp(MakeNode("LessOrEqual", {"a", "b"}, {"y"}), {a, b})
                  ->Equals(*Tensor::FromData({1, 3}, {1, 1, 0})));
  EXPECT_TRUE(RunSingleOp(MakeNode("Greater", {"a", "b"}, {"y"}), {a, b})
                  ->Equals(*Tensor::FromData({1, 3}, {0, 0, 1})));
  EXPECT_TRUE(RunSingleOp(MakeNode("Equal", {"a", "b"}, {"y"}), {a, b})
                  ->Equals(*Tensor::FromData({1, 3}, {0, 1, 0})));
}

TEST(KernelTest, TreeEnsembleSingleTree) {
  // Tree: x0 <= 5 ? 1 : (x1 <= 0 ? 2 : 3)
  Node node = MakeNode("TreeEnsemble", {"x"}, {"y"});
  node.attrs["roots"] = Tensor::FromVector({0});
  node.attrs["feature"] = Tensor::FromVector({0, -1, 1, -1, -1});
  node.attrs["threshold"] = Tensor::FromVector({5, 0, 0, 0, 0});
  node.attrs["left"] = Tensor::FromVector({1, -1, 3, -1, -1});
  node.attrs["right"] = Tensor::FromVector({2, -1, 4, -1, -1});
  node.attrs["value"] = Tensor::FromVector({0, 1, 0, 2, 3});
  Tensor x = *Tensor::FromData({3, 2}, {4, 0, 6, -1, 6, 1});
  Tensor out = *RunSingleOp(std::move(node), {x});
  EXPECT_TRUE(out.Equals(*Tensor::FromData({3, 1}, {1, 2, 3})));
}

TEST(KernelTest, TreeEnsembleAverageAndSigmoid) {
  // Two single-leaf trees with values 0 and 2 -> average 1; sigmoid(1).
  Node node = MakeNode("TreeEnsemble", {"x"}, {"y"});
  node.attrs["roots"] = Tensor::FromVector({0, 1});
  node.attrs["feature"] = Tensor::FromVector({-1, -1});
  node.attrs["threshold"] = Tensor::FromVector({0, 0});
  node.attrs["left"] = Tensor::FromVector({-1, -1});
  node.attrs["right"] = Tensor::FromVector({-1, -1});
  node.attrs["value"] = Tensor::FromVector({0, 2});
  node.attrs["aggregate"] = static_cast<std::int64_t>(1);
  node.attrs["post"] = static_cast<std::int64_t>(1);
  Tensor x = Tensor::Zeros({1, 1});
  Tensor out = *RunSingleOp(std::move(node), {x});
  EXPECT_NEAR(out.raw()[0], 1.0f / (1.0f + std::exp(-1.0f)), 1e-6f);
}

TEST(GraphTest, ValidateCatchesMissingProducer) {
  Graph graph;
  graph.AddInput("x");
  graph.AddNode(MakeNode("Relu", {"nope"}, {"y"}));
  graph.AddOutput("y");
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(GraphTest, ValidateCatchesDuplicateProducer) {
  Graph graph;
  graph.AddInput("x");
  graph.AddNode(MakeNode("Relu", {"x"}, {"y"}));
  graph.AddNode(MakeNode("Neg", {"x"}, {"y"}));
  graph.AddOutput("y");
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(GraphTest, TopologicalOrderDetectsCycle) {
  Graph graph;
  graph.AddInput("x");
  graph.AddNode(MakeNode("Add", {"x", "b"}, {"a"}));
  graph.AddNode(MakeNode("Add", {"a", "x"}, {"b"}));
  graph.AddOutput("b");
  EXPECT_FALSE(graph.TopologicalOrder().ok());
}

TEST(GraphTest, ExecutesOutOfOrderNodes) {
  // Nodes appended in reverse dataflow order still execute correctly.
  Graph graph;
  graph.AddInput("x");
  graph.AddNode(MakeNode("Relu", {"mid"}, {"y"}));
  graph.AddNode(MakeNode("Neg", {"x"}, {"mid"}));
  graph.AddOutput("y");
  TensorMap in;
  in["x"] = *Tensor::FromData({1, 2}, {-3, 4});
  TensorMap out = *ExecuteGraph(graph, in);
  EXPECT_TRUE(out.at("y").Equals(*Tensor::FromData({1, 2}, {3, 0})));
}

TEST(GraphTest, MissingInputIsError) {
  Graph graph;
  graph.AddInput("x");
  graph.AddNode(MakeNode("Relu", {"x"}, {"y"}));
  graph.AddOutput("y");
  EXPECT_FALSE(ExecuteGraph(graph, {}).ok());
}

TEST(GraphTest, UnknownOpIsError) {
  Graph graph;
  graph.AddInput("x");
  graph.AddNode(MakeNode("Conv3DTranspose", {"x"}, {"y"}));
  graph.AddOutput("y");
  TensorMap in;
  in["x"] = Tensor::Zeros({1, 1});
  auto result = ExecuteGraph(graph, in);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

TEST(GraphTest, SerializeRoundTrip) {
  Graph graph;
  graph.AddInput("x");
  graph.AddInitializer("w", *Tensor::FromData({2, 1}, {0.5f, -1.0f}));
  Node node = MakeNode("Gemm", {"x", "w"}, {"y"});
  node.attrs["alpha"] = 1.5;
  node.attrs["tag"] = std::string("test");
  node.attrs["dims"] = std::vector<std::int64_t>{2, 1};
  graph.AddNode(std::move(node));
  graph.AddOutput("y");

  BinaryWriter w;
  graph.Serialize(&w);
  const std::string buf = w.Release();
  BinaryReader r(buf);
  Graph back = *Graph::Deserialize(&r);
  EXPECT_EQ(back.inputs(), graph.inputs());
  EXPECT_EQ(back.outputs(), graph.outputs());
  EXPECT_EQ(back.nodes().size(), 1u);
  EXPECT_EQ(*back.nodes()[0].GetFloatAttr("alpha"), 1.5);
  EXPECT_EQ(*back.nodes()[0].GetStringAttr("tag"), "test");

  TensorMap in;
  in["x"] = *Tensor::FromData({1, 2}, {2, 2});
  TensorMap out = *ExecuteGraph(back, in);
  EXPECT_NEAR(out.at("y").raw()[0], -1.0f, 1e-6f);
}

TEST(GraphOptimizerTest, ConstantFolding) {
  Graph graph;
  graph.AddInput("x");
  graph.AddInitializer("a", Tensor::FromVector({1, 2}));
  graph.AddInitializer("b", Tensor::FromVector({3, 4}));
  graph.AddNode(MakeNode("Add", {"a", "b"}, {"c"}));   // fully constant
  graph.AddNode(MakeNode("Add", {"x", "c"}, {"y"}));   // depends on input
  graph.AddOutput("y");
  GraphOptStats stats;
  ASSERT_TRUE(OptimizeGraph(&graph, &stats).ok());
  EXPECT_EQ(stats.constants_folded, 1u);
  EXPECT_EQ(graph.nodes().size(), 1u);
  TensorMap in;
  in["x"] = Tensor::FromVector({10, 10});
  TensorMap out = *ExecuteGraph(graph, in);
  EXPECT_TRUE(out.at("y").Equals(Tensor::FromVector({14, 16})));
}

TEST(GraphOptimizerTest, IdentityElimination) {
  Graph graph;
  graph.AddInput("x");
  graph.AddNode(MakeNode("Identity", {"x"}, {"a"}));
  graph.AddNode(MakeNode("Identity", {"a"}, {"b"}));
  graph.AddNode(MakeNode("Relu", {"b"}, {"y"}));
  graph.AddOutput("y");
  GraphOptStats stats;
  ASSERT_TRUE(OptimizeGraph(&graph, &stats).ok());
  EXPECT_EQ(stats.identities_removed, 2u);
  EXPECT_EQ(graph.nodes().size(), 1u);
}

TEST(GraphOptimizerTest, GemmFusion) {
  Graph graph;
  graph.AddInput("x");
  graph.AddInitializer("w", *Tensor::FromData({2, 2}, {1, 0, 0, 1}));
  graph.AddInitializer("b", Tensor::FromVector({5, 5}));
  graph.AddNode(MakeNode("MatMul", {"x", "w"}, {"mm"}));
  graph.AddNode(MakeNode("Add", {"mm", "b"}, {"y"}));
  graph.AddOutput("y");
  GraphOptStats stats;
  ASSERT_TRUE(OptimizeGraph(&graph, &stats).ok());
  EXPECT_EQ(stats.gemms_fused, 1u);
  EXPECT_EQ(graph.CountOps("Gemm"), 1u);
  EXPECT_EQ(graph.CountOps("MatMul"), 0u);
  TensorMap in;
  in["x"] = *Tensor::FromData({1, 2}, {1, 2});
  TensorMap out = *ExecuteGraph(graph, in);
  EXPECT_TRUE(out.at("y").Equals(*Tensor::FromData({1, 2}, {6, 7})));
}

TEST(GraphOptimizerTest, DeadNodeElimination) {
  Graph graph;
  graph.AddInput("x");
  graph.AddNode(MakeNode("Relu", {"x"}, {"y"}));
  graph.AddNode(MakeNode("Neg", {"x"}, {"unused"}));
  graph.AddOutput("y");
  GraphOptStats stats;
  ASSERT_TRUE(OptimizeGraph(&graph, &stats).ok());
  EXPECT_EQ(stats.dead_nodes_removed, 1u);
  EXPECT_EQ(graph.nodes().size(), 1u);
}

TEST(SessionTest, CreateRunAndStats) {
  Graph graph;
  graph.AddInput("x");
  graph.AddInitializer("w", *Tensor::FromData({2, 1}, {1.0f, 1.0f}));
  graph.AddNode(MakeNode("MatMul", {"x", "w"}, {"y"}));
  graph.AddOutput("y");
  auto session = std::move(InferenceSession::Create(std::move(graph))).value();
  RunStats stats;
  Tensor out = *session->RunSingle(*Tensor::FromData({1, 2}, {3, 4}), &stats);
  EXPECT_NEAR(out.raw()[0], 7.0f, 1e-6f);
  EXPECT_GT(stats.flops, 0.0);
  EXPECT_GE(stats.wall_micros, 0.0);
}

TEST(SessionTest, AcceleratorUsesCostModel) {
  Graph graph;
  graph.AddInput("x");
  graph.AddInitializer("w", *Tensor::FromData({2, 2}, {1, 0, 0, 1}));
  graph.AddNode(MakeNode("MatMul", {"x", "w"}, {"y"}));
  graph.AddOutput("y");
  SessionOptions options;
  options.device = DeviceSpec::Accelerator(/*launch_overhead_us=*/100.0,
                                           /*flops_per_us=*/1000.0);
  auto session = std::move(InferenceSession::Create(std::move(graph), options)).value();
  RunStats stats;
  (void)*session->RunSingle(*Tensor::FromData({1, 2}, {1, 2}), &stats);
  // simulated = overhead + flops/throughput.
  EXPECT_NEAR(stats.simulated_micros, 100.0 + stats.flops / 1000.0, 1e-9);
}

TEST(SessionTest, RoundTripBytes) {
  Graph graph;
  graph.AddInput("x");
  graph.AddNode(MakeNode("Relu", {"x"}, {"y"}));
  graph.AddOutput("y");
  auto session = std::move(InferenceSession::Create(std::move(graph))).value();
  auto session2 = std::move(InferenceSession::FromBytes(session->ToBytes())).value();
  Tensor out = *session2->RunSingle(*Tensor::FromData({1, 1}, {-1}));
  EXPECT_EQ(out.raw()[0], 0.0f);
}

TEST(SessionCacheTest, HitsAndEviction) {
  Graph graph;
  graph.AddInput("x");
  graph.AddNode(MakeNode("Relu", {"x"}, {"y"}));
  graph.AddOutput("y");
  BinaryWriter w;
  graph.Serialize(&w);
  const std::string bytes = w.Release();

  SessionCache cache(2);
  auto a = *cache.GetOrCreate("m1", bytes);
  auto b = *cache.GetOrCreate("m1", bytes);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  (void)*cache.GetOrCreate("m2", bytes);
  (void)*cache.GetOrCreate("m3", bytes);  // evicts m1 (capacity 2)
  EXPECT_EQ(cache.size(), 2u);
  (void)*cache.GetOrCreate("m1", bytes);  // miss again
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(SessionCacheTest, Invalidate) {
  Graph graph;
  graph.AddInput("x");
  graph.AddNode(MakeNode("Relu", {"x"}, {"y"}));
  graph.AddOutput("y");
  BinaryWriter w;
  graph.Serialize(&w);
  const std::string bytes = w.Release();
  SessionCache cache(4);
  (void)*cache.GetOrCreate("m", bytes);
  cache.Invalidate("m");
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Artifact cache + single-flight SessionCache + pluggable backends.

std::string IdentityReluBytes() {
  Graph graph;
  graph.AddInput("x");
  graph.AddNode(MakeNode("Identity", {"x"}, {"a"}));
  graph.AddNode(MakeNode("Relu", {"a"}, {"y"}));
  graph.AddOutput("y");
  BinaryWriter w;
  graph.Serialize(&w);
  return w.Release();
}

std::string MakeTempDir() {
  char tmpl[] = "/tmp/raven_nnrt_test_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

void RemoveDirRecursive(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") {
        ::unlink((dir + "/" + name).c_str());
      }
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

void OverwriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::string ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  if (f != nullptr) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

TEST(SessionCacheTest, ZeroCapacityPassThrough) {
  const std::string bytes = IdentityReluBytes();
  SessionCache cache(0);
  auto a = cache.GetOrCreate("m", bytes);
  ASSERT_TRUE(a.ok());
  auto b = cache.GetOrCreate("m", bytes);
  ASSERT_TRUE(b.ok());
  // Pass-through: nothing cached, every call a clean miss + build — never
  // the old insert-then-immediately-evict churn.
  EXPECT_NE(a->get(), b->get());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  Tensor out = *(*a)->RunSingle(*Tensor::FromData({1, 1}, {-3.0f}));
  EXPECT_EQ(out.raw()[0], 0.0f);
}

TEST(SessionCacheTest, StatsCountersAndSetCapacity) {
  const std::string bytes = IdentityReluBytes();
  SessionCache cache(4);
  (void)*cache.GetOrCreate("m1", bytes);
  (void)*cache.GetOrCreate("m2", bytes);
  (void)*cache.GetOrCreate("m3", bytes);
  (void)*cache.GetOrCreate("m1", bytes);
  SessionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.compiles, 3u);
  EXPECT_EQ(stats.graph_optimizations, 3u);
  EXPECT_EQ(stats.artifact_hits, 0u);
  EXPECT_EQ(stats.artifact_writes, 0u);

  cache.set_capacity(1);
  EXPECT_EQ(cache.capacity(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  cache.set_capacity(0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().evictions, 3u);
}

TEST(ArtifactCacheTest, MissIsNotFound) {
  const std::string dir = MakeTempDir();
  ArtifactCache artifacts(dir);
  auto missing = artifacts.Load(0xabcdef);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  RemoveDirRecursive(dir);
}

TEST(ArtifactCacheTest, RoundTripPreservesGraphAndStats) {
  const std::string dir = MakeTempDir();
  ArtifactCache artifacts(dir);
  const std::string bytes = IdentityReluBytes();
  const std::uint64_t fp = FingerprintGraphBytes(bytes);
  auto session = std::move(InferenceSession::FromBytes(bytes)).value();
  ASSERT_EQ(session->optimization_stats().identities_removed, 1u);
  ASSERT_TRUE(
      artifacts.Store(fp, session->graph(), session->optimization_stats())
          .ok());

  auto loaded = artifacts.Load(fp);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->opt_stats.identities_removed, 1u);
  TensorMap env;
  env["x"] = *Tensor::FromData({1, 2}, {-1.0f, 2.0f});
  TensorMap out = *ExecuteGraph(loaded->graph, env);
  EXPECT_TRUE(out.at("y").Equals(*Tensor::FromData({1, 2}, {0.0f, 2.0f})));
  RemoveDirRecursive(dir);
}

/// Appends the word-stride FNV-1a checksum exactly as artifact_cache.cc
/// computes it, so a hand-built payload passes the checksum and Load fails
/// (or succeeds) on what follows it.
std::string SealArtifact(BinaryWriter payload) {
  const std::string& buf = payload.buffer();
  std::uint64_t h = 1469598103934665603ull;
  std::size_t i = 0;
  for (; i + 8 <= buf.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, buf.data() + i, 8);
    h ^= word;
    h *= 1099511628211ull;
  }
  for (; i < buf.size(); ++i) {
    h ^= static_cast<unsigned char>(buf[i]);
    h *= 1099511628211ull;
  }
  payload.WriteU64(h);
  return payload.Release();
}

TEST(ArtifactCacheTest, RejectsCorruptTruncatedAndStaleVersion) {
  const std::string dir = MakeTempDir();
  ArtifactCache artifacts(dir);
  const std::string bytes = IdentityReluBytes();
  const std::uint64_t fp = FingerprintGraphBytes(bytes);
  auto session = std::move(InferenceSession::FromBytes(bytes)).value();
  ASSERT_TRUE(
      artifacts.Store(fp, session->graph(), session->optimization_stats())
          .ok());
  const std::string path = artifacts.PathFor(fp);
  const std::string good = ReadFileOrDie(path);
  ASSERT_GT(good.size(), 32u);

  // Corrupt: flip bytes in the middle (checksum mismatch).
  std::string corrupt = good;
  corrupt[good.size() / 2] ^= 0x5a;
  OverwriteFile(path, corrupt);
  auto r1 = artifacts.Load(fp);
  EXPECT_FALSE(r1.ok());
  EXPECT_NE(r1.status().code(), StatusCode::kNotFound);

  // Truncated: half the file.
  OverwriteFile(path, good.substr(0, good.size() / 2));
  auto r2 = artifacts.Load(fp);
  EXPECT_FALSE(r2.ok());
  EXPECT_NE(r2.status().code(), StatusCode::kNotFound);

  // Stale format version: a well-formed payload (magic, checksum both
  // valid) written by a "future" build. Mirrors the pinned on-disk layout.
  BinaryWriter payload;
  payload.WriteString("RAVEN_NNRT_ARTIFACT");
  payload.WriteU32(ArtifactCache::kFormatVersion + 1);
  payload.WriteU64(fp);
  for (int i = 0; i < 6; ++i) payload.WriteU64(0);
  payload.WriteString(bytes);
  // The checksum must pass so Load fails on the version check, not here.
  OverwriteFile(path, SealArtifact(std::move(payload)));
  auto r3 = artifacts.Load(fp);
  EXPECT_FALSE(r3.ok());
  EXPECT_NE(r3.status().code(), StatusCode::kNotFound);
  // Specifically the version check — the checksum above must have passed.
  EXPECT_NE(r3.status().ToString().find("format version"), std::string::npos)
      << r3.status().ToString();

  // A valid rewrite heals the slot.
  ASSERT_TRUE(
      artifacts.Store(fp, session->graph(), session->optimization_stats())
          .ok());
  EXPECT_TRUE(artifacts.Load(fp).ok());
  RemoveDirRecursive(dir);
}

TEST(SessionCacheTest, ArtifactWarmStartSkipsOptimizer) {
  const std::string dir = MakeTempDir();
  const std::string bytes = IdentityReluBytes();
  const std::uint64_t fp = FingerprintGraphBytes(bytes);
  const auto bytes_fn = [&bytes]() { return bytes; };

  SessionCache cold(8, std::make_shared<ArtifactCache>(dir));
  auto first = cold.GetOrCreate("m#1", fp, bytes_fn);
  ASSERT_TRUE(first.ok());
  SessionCacheStats s1 = cold.stats();
  EXPECT_EQ(s1.compiles, 1u);
  EXPECT_EQ(s1.graph_optimizations, 1u);
  EXPECT_EQ(s1.artifact_writes, 1u);
  EXPECT_EQ(s1.artifact_hits, 0u);

  // A fresh cache (= restarted server / spawned worker) on the same dir:
  // the compile — and in particular the optimizer — must not run again.
  SessionCache warm(8, std::make_shared<ArtifactCache>(dir));
  auto second = warm.GetOrCreate("m#1", fp, bytes_fn);
  ASSERT_TRUE(second.ok());
  SessionCacheStats s2 = warm.stats();
  EXPECT_EQ(s2.artifact_hits, 1u);
  EXPECT_EQ(s2.compiles, 0u);
  EXPECT_EQ(s2.graph_optimizations, 0u);
  // The warm session reports the original compile's optimizer stats and
  // computes the same result.
  EXPECT_EQ((*second)->optimization_stats().identities_removed, 1u);
  Tensor in = *Tensor::FromData({1, 2}, {-1.0f, 2.0f});
  EXPECT_TRUE((*first)->RunSingle(in)->Equals(*(*second)->RunSingle(in)));
  RemoveDirRecursive(dir);
}

TEST(SessionCacheTest, CorruptArtifactFallsBackAndRewrites) {
  const std::string dir = MakeTempDir();
  const std::string bytes = IdentityReluBytes();
  const std::uint64_t fp = FingerprintGraphBytes(bytes);
  const auto bytes_fn = [&bytes]() { return bytes; };
  {
    SessionCache writer(8, std::make_shared<ArtifactCache>(dir));
    ASSERT_TRUE(writer.GetOrCreate("m#1", fp, bytes_fn).ok());
  }
  ArtifactCache probe(dir);
  OverwriteFile(probe.PathFor(fp), "not an artifact");

  SessionCache cache(8, std::make_shared<ArtifactCache>(dir));
  auto session = cache.GetOrCreate("m#1", fp, bytes_fn);
  ASSERT_TRUE(session.ok());  // never a serving error
  SessionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.artifact_rejects, 1u);
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.graph_optimizations, 1u);
  EXPECT_EQ(stats.artifact_writes, 1u);  // rewritten in place
  Tensor out = *(*session)->RunSingle(*Tensor::FromData({1, 1}, {-2.0f}));
  EXPECT_EQ(out.raw()[0], 0.0f);

  // The rewrite produced a loadable artifact again.
  SessionCache healed(8, std::make_shared<ArtifactCache>(dir));
  ASSERT_TRUE(healed.GetOrCreate("m#1", fp, bytes_fn).ok());
  EXPECT_EQ(healed.stats().artifact_hits, 1u);
  RemoveDirRecursive(dir);
}

TEST(SessionCacheTest, FormatV1ArtifactIsRejectedRecompiledAndRewritten) {
  // A v1 artifact holds an unfused graph (no Featurize, no fused ReLU) and
  // four stats counters. It is well formed, checksum included, but a v2
  // build must not run it: warm restarts would stay on the slow graph.
  const std::string dir = MakeTempDir();
  const std::string bytes = IdentityReluBytes();
  const std::uint64_t fp = FingerprintGraphBytes(bytes);
  const auto bytes_fn = [&bytes]() { return bytes; };
  ArtifactCache probe(dir);
  ASSERT_EQ(ArtifactCache::kFormatVersion, 2u);
  BinaryWriter v1;
  v1.WriteString("RAVEN_NNRT_ARTIFACT");
  v1.WriteU32(1);
  v1.WriteU64(fp);
  for (int i = 0; i < 4; ++i) v1.WriteU64(0);
  v1.WriteString(bytes);
  OverwriteFile(probe.PathFor(fp), SealArtifact(std::move(v1)));
  auto stale = probe.Load(fp);
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.status().ToString().find("format version 1"),
            std::string::npos)
      << stale.status().ToString();

  SessionCache cache(8, std::make_shared<ArtifactCache>(dir));
  ASSERT_TRUE(cache.GetOrCreate("m#1", fp, bytes_fn).ok());
  SessionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.artifact_rejects, 1u);
  EXPECT_EQ(stats.artifact_hits, 0u);
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.artifact_writes, 1u);

  SessionCache restarted(8, std::make_shared<ArtifactCache>(dir));
  ASSERT_TRUE(restarted.GetOrCreate("m#1", fp, bytes_fn).ok());
  EXPECT_EQ(restarted.stats().artifact_hits, 1u);
  EXPECT_EQ(restarted.stats().artifact_rejects, 0u);
  EXPECT_EQ(restarted.stats().compiles, 0u);
  RemoveDirRecursive(dir);
}

TEST(ArtifactCacheTest, RoundTripKeepsFusionCounters) {
  const std::string dir = MakeTempDir();
  ArtifactCache artifacts(dir);
  GraphOptStats stats;
  stats.gemms_fused = 1;
  stats.relus_fused = 2;
  stats.featurizers_fused = 3;
  Graph graph;
  graph.AddInput("x");
  graph.AddNode(MakeNode("Relu", {"x"}, {"y"}));
  graph.AddOutput("y");
  ASSERT_TRUE(artifacts.Store(7, graph, stats).ok());
  auto loaded = artifacts.Load(7);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->opt_stats.gemms_fused, 1u);
  EXPECT_EQ(loaded->opt_stats.relus_fused, 2u);
  EXPECT_EQ(loaded->opt_stats.featurizers_fused, 3u);
  RemoveDirRecursive(dir);
}

TEST(SessionCacheTest, ConcurrentGetOrCreateSingleFlight) {
  const std::string dir = MakeTempDir();
  const std::string bytes = IdentityReluBytes();
  const std::uint64_t fp = FingerprintGraphBytes(bytes);
  std::atomic<int> serializations{0};
  const auto bytes_fn = [&]() {
    serializations.fetch_add(1);
    // Widen the race window so late arrivals find the build in flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return bytes;
  };

  SessionCache cache(8, std::make_shared<ArtifactCache>(dir));
  constexpr int kThreads = 4;
  std::shared_ptr<InferenceSession> sessions[kThreads];
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      auto result = cache.GetOrCreate("m#1", fp, bytes_fn);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      sessions[t] = result.value();
    });
  }
  for (auto& th : threads) th.join();

  // One builder; everyone else waited for — and shares — its session.
  EXPECT_EQ(serializations.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(sessions[0].get(), sessions[t].get());
  }
  SessionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.artifact_writes, 1u);
  RemoveDirRecursive(dir);
}

// --- Backends ---------------------------------------------------------------

TEST(BackendTest, ParseAndNames) {
  EXPECT_EQ(ParseBackendKind("reference").value(), BackendKind::kReference);
  EXPECT_EQ(ParseBackendKind("simd").value(), BackendKind::kSimd);
  EXPECT_EQ(ParseBackendKind("fp16").value(), BackendKind::kFp16);
  EXPECT_FALSE(ParseBackendKind("avx512").ok());
  EXPECT_STREQ(BackendKindToString(BackendKind::kSimd), "simd");
  EXPECT_STREQ(GetBackend(BackendKind::kReference)->name(), "reference");
  EXPECT_TRUE(GetBackend(BackendKind::kFp16)->fp16());
  EXPECT_FALSE(GetBackend(BackendKind::kSimd)->fp16());
}

float LcgFloat(std::uint32_t* s) {
  *s = *s * 1664525u + 1013904223u;
  return static_cast<float>((*s >> 8) & 0xFFFF) / 16384.0f - 2.0f;
}

Tensor RandomTensor(std::uint32_t* s, std::int64_t rows, std::int64_t cols,
                    bool with_zeros) {
  std::vector<float> data(static_cast<std::size_t>(rows * cols));
  for (auto& v : data) {
    v = LcgFloat(s);
    // Exercise the MatMul zero-skip fast path on some elements.
    if (with_zeros && std::fabs(v) < 0.5f) v = 0.0f;
  }
  return *Tensor::FromData({rows, cols}, std::move(data));
}

std::vector<float> RandomVec(std::uint32_t* s, std::int64_t n) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = LcgFloat(s);
  return v;
}

/// A dense graph over exactly the ops the SIMD backend overrides
/// (Gemm/MatMul/Relu/Sub/Mul/Div), with odd widths so every vectorized
/// loop runs its scalar tail.
Graph RandomDenseGraph(std::uint32_t seed, std::int64_t in,
                       std::int64_t hidden, std::int64_t out) {
  std::uint32_t s = seed * 2654435761u + 12345u;
  Graph g;
  g.AddInput("x");
  g.AddInitializer("w1", RandomTensor(&s, in, hidden, false));
  g.AddInitializer("b1", Tensor::FromVector(RandomVec(&s, hidden)));
  g.AddNode(MakeNode("Gemm", {"x", "w1", "b1"}, {"h"}));
  g.AddNode(MakeNode("Relu", {"h"}, {"hr"}));
  g.AddInitializer("w2", RandomTensor(&s, hidden, out, true));
  g.AddNode(MakeNode("MatMul", {"hr", "w2"}, {"m"}));
  g.AddInitializer("rowv", Tensor::FromVector(RandomVec(&s, out)));
  g.AddNode(MakeNode("Sub", {"m", "rowv"}, {"d"}));
  g.AddNode(MakeNode("Mul", {"d", "d"}, {"sq"}));
  g.AddInitializer("divisor", Tensor::Scalar(1.7f));
  g.AddNode(MakeNode("Div", {"sq", "divisor"}, {"y"}));
  g.AddOutput("y");
  return g;
}

void ExpectBitIdentical(const TensorMap& a, const TensorMap& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, ta] : a) {
    auto it = b.find(name);
    ASSERT_NE(it, b.end()) << name;
    const Tensor& tb = it->second;
    ASSERT_EQ(ta.shape(), tb.shape()) << name;
    EXPECT_EQ(std::memcmp(ta.raw(), tb.raw(),
                          sizeof(float) *
                              static_cast<std::size_t>(ta.num_elements())),
              0)
        << name;
  }
}

float FloatFromBits(std::uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

/// The NaN x86 arithmetic itself produces (quiet, sign set). Injecting
/// exactly this one keeps every NaN in a result bit-identical whichever
/// operand order a compiler picks for a commutative op.
const float kDefaultNaN = FloatFromBits(0xffc00000u);

/// [rows, cols] activations shaped like a ReLU layer's output: about half
/// of them +0.0 or -0.0, the rest in [-2, 2), a few NaN when `with_nan`.
/// Row 0 is all zeros, so its outputs are the bias exactly.
Tensor PostReluLike(std::uint32_t* s, std::int64_t rows, std::int64_t cols,
                    bool with_nan) {
  std::vector<float> data(static_cast<std::size_t>(rows * cols));
  for (std::int64_t i = 0; i < rows * cols; ++i) {
    float v = LcgFloat(s);
    const std::uint32_t r = (*s >> 4) % 16;
    if (i < cols || r < 6) {
      v = 0.0f;
    } else if (r < 8) {
      v = -0.0f;
    } else if (with_nan && r == 15) {
      v = kDefaultNaN;
    }
    data[static_cast<std::size_t>(i)] = v;
  }
  return *Tensor::FromData({rows, cols}, std::move(data));
}

/// One Gemm (or MatMul when `bias` is null) node over input "a".
Graph SingleGemm(Tensor w, const Tensor* bias, bool relu) {
  Graph g;
  g.AddInput("a");
  g.AddInitializer("w", std::move(w));
  std::vector<std::string> inputs = {"a", "w"};
  if (bias != nullptr) {
    g.AddInitializer("b", *bias);
    inputs.push_back("b");
  }
  Node node = MakeNode(bias != nullptr ? "Gemm" : "MatMul", inputs, {"y"});
  if (relu) node.attrs[kGemmActivationAttr] = std::string("Relu");
  g.AddNode(std::move(node));
  g.AddOutput("y");
  return g;
}

/// Differential check of `backend` against the reference: dense graphs,
/// then the blocked Gemm over every panel width, row group and depth.
void ExpectMatchesReferenceBitExact(const Backend* backend) {
  const struct {
    std::int64_t rows, in, hidden, out;
  } kConfigs[] = {
      {1, 4, 8, 4},    // lane-aligned
      {3, 7, 9, 5},    // scalar tails everywhere
      {4, 13, 11, 7},  // wider, odd
      {2, 1, 2, 1},    // degenerate widths
      {5, 3, 17, 3},
  };
  for (std::uint32_t seed = 0; seed < 4; ++seed) {
    for (const auto& c : kConfigs) {
      Graph g = RandomDenseGraph(seed, c.in, c.hidden, c.out);
      std::uint32_t s = seed ^ 0xbeef;
      TensorMap env;
      env["x"] = RandomTensor(&s, c.rows, c.in, true);
      auto ref = ExecuteGraph(g, env, nullptr,
                              GetBackend(BackendKind::kReference));
      auto simd =
          ExecuteGraph(g, env, nullptr, backend);
      ASSERT_TRUE(ref.ok() && simd.ok());
      ExpectBitIdentical(ref.value(), simd.value());
    }
  }

  // The blocked Gemm: every output width that hits a 32/16/8/4 panel and
  // the m % 4 tail, every row count up to the 8-row tail group plus
  // remainder, and depths that hit the transposed k blocks and their k tail.
  // Activations are post-ReLU-like (+-0.0 everywhere, a zero row, NaN);
  // bias has -0.0 entries, which only an exact skip keeps as -0.0; weight
  // rows 0 and k-1 hold inf/NaN, reached only by rows whose activation
  // there is nonzero.
  const std::int64_t kWidths[] = {1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 40};
  // 16 and 17 rows reach the two-vector tail groups at AVX2 width; depth 16
  // is two 8-wide transposed blocks, 70 outgrows the on-stack term lists.
  const std::int64_t kDepths[] = {1, 4, 7, 12, 16, 70};
  const std::int64_t kRows[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17};
  const float kInf = std::numeric_limits<float>::infinity();
  for (std::int64_t m : kWidths) {
    for (std::int64_t k : kDepths) {
      for (std::int64_t n : kRows) {
        std::uint32_t s =
            static_cast<std::uint32_t>(m * 1000003 + k * 1009 + n);
        Tensor w = RandomTensor(&s, k, m, false);
        for (std::int64_t j = 0; j < m; j += 3) {
          w.raw()[j] = (j / 3) % 2 == 0 ? kInf : kDefaultNaN;
          w.raw()[(k - 1) * m + j] = (j / 3) % 2 == 0 ? -kInf : kInf;
        }
        Tensor bias = Tensor::FromVector(RandomVec(&s, m));
        for (std::int64_t j = 0; j < m; j += 2) bias.raw()[j] = -0.0f;
        for (int variant = 0; variant < 4; ++variant) {
          const bool has_bias = variant != 0;
          const bool relu = variant == 2;
          const bool with_nan = variant == 3;
          TensorMap env;
          env["a"] = PostReluLike(&s, n, k, with_nan);
          // Column 0 is zero except in the last row, so the inf/NaN weight
          // row 0 reaches exactly one row.
          for (std::int64_t i = 0; i + 1 < n; ++i) env["a"].raw()[i * k] = 0.0f;
          if (n > 1) env["a"].raw()[(n - 1) * k] = 1.5f;
          Graph g = SingleGemm(w, has_bias ? &bias : nullptr, relu);
          auto ref = ExecuteGraph(g, env, nullptr,
                                  GetBackend(BackendKind::kReference));
          auto simd =
              ExecuteGraph(g, env, nullptr, backend);
          ASSERT_TRUE(ref.ok()) << ref.status().ToString();
          ASSERT_TRUE(simd.ok()) << simd.status().ToString();
          SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                       " n=" + std::to_string(n) +
                       " variant=" + std::to_string(variant));
          ExpectBitIdentical(ref.value(), simd.value());
          if (has_bias && !relu) {
            // Row 0 is all zeros: its outputs are the bias, -0.0 included.
            EXPECT_EQ(std::memcmp(ref->at("y").raw(), bias.raw(),
                                  sizeof(float) * static_cast<std::size_t>(m)),
                      0);
          }
        }
      }
    }
  }
}

TEST(BackendTest, SimdMatchesReferenceBitExact) {
  ExpectMatchesReferenceBitExact(GetBackend(BackendKind::kSimd));
}

TEST(BackendTest, EveryCompiledWidthMatchesReferenceBitExact) {
  // The dispatcher runs one width; this pins each width the CPU supports
  // (SSE2 always, AVX2 when present) so both instantiations are covered.
  const std::vector<SimdWidth> widths = SupportedSimdWidths();
#if defined(__SSE2__)
  ASSERT_FALSE(widths.empty());
  EXPECT_EQ(widths.front(), SimdWidth::kSse2);
  if (__builtin_cpu_supports("avx2")) {
    ASSERT_EQ(widths.size(), 2u);
    EXPECT_EQ(widths.back(), SimdWidth::kAvx2);
  }
#endif
  for (SimdWidth width : widths) {
    SCOPED_TRACE(SimdWidthToString(width));
    ExpectMatchesReferenceBitExact(GetSimdBackend(width));
  }
}

// --- Session-time fusion: Gemm+ReLU and Featurize ---------------------------

/// Optimization stats of `graph` compiled with the optimizer on.
GraphOptStats FusionStats(const Graph& graph) {
  SessionOptions on;
  auto session = InferenceSession::Create(graph, on);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return session.ok() ? (*session)->optimization_stats() : GraphOptStats();
}

/// Runs `graph` unoptimized on the reference backend (the parent
/// semantics), then optimized on reference and on simd: all three must be
/// byte-identical. Returns the optimized graph.
Graph ExpectFusionExact(const Graph& graph, const TensorMap& env) {
  SessionOptions off;
  off.enable_graph_optimizations = false;
  off.backend = BackendKind::kReference;
  auto plain = InferenceSession::Create(graph, off);
  EXPECT_TRUE(plain.ok()) << plain.status().ToString();
  if (!plain.ok()) return graph;
  auto expected = (*plain)->Run(env);
  EXPECT_TRUE(expected.ok()) << expected.status().ToString();
  Graph optimized;
  for (BackendKind backend : {BackendKind::kReference, BackendKind::kSimd}) {
    SessionOptions on;
    on.backend = backend;
    auto fused = InferenceSession::Create(graph, on);
    EXPECT_TRUE(fused.ok()) << fused.status().ToString();
    if (!fused.ok() || !expected.ok()) return graph;
    auto actual = (*fused)->Run(env);
    EXPECT_TRUE(actual.ok()) << actual.status().ToString();
    if (!actual.ok()) return graph;
    SCOPED_TRACE(BackendKindToString(backend));
    ExpectBitIdentical(*expected, *actual);
    optimized = (*fused)->graph();
  }
  return optimized;
}

/// Overwrites some rows of `x`'s column `col` with codes a one-hot must
/// turn into an all-zero segment (NaN, negative, out of range, inf) or
/// round first (2.5 -> 3, -0.4 -> 0).
void InjectOddCodes(Tensor* x, std::int64_t col) {
  const float kOdd[] = {kDefaultNaN, -1.0f, 1e9f, 2.5f, -0.4f,
                        std::numeric_limits<float>::infinity(), 7.0f};
  const std::int64_t rows = x->dim(0);
  const std::int64_t cols = x->dim(1);
  for (std::int64_t r = 0; r < rows; r += 5) {
    x->raw()[r * cols + col] = kOdd[(r / 5) % 7];
  }
}

class FusionTest : public ::testing::Test {
 protected:
  void SetUp() override { data_ = data::MakeHospitalDataset(300, 17); }

  /// The hospital feature matrix with odd category codes in every one-hot
  /// column and a NaN vital.
  TensorMap HospitalInput(const ml::ModelPipeline& pipeline) {
    Tensor x = *data_.joined.ToTensor(pipeline.input_columns);
    for (const auto& branch : pipeline.featurizer.branches()) {
      if (branch.kind != ml::TransformKind::kOneHot) continue;
      for (std::int64_t col : branch.input_columns) InjectOddCodes(&x, col);
    }
    x.raw()[3 * x.dim(1)] = kDefaultNaN;
    TensorMap env;
    env["X"] = std::move(x);
    return env;
  }

  data::HospitalDataset data_;
};

TEST_F(FusionTest, HospitalMlpFusesEveryReluAndTheFeaturizer) {
  auto pipeline = *data::TrainHospitalMlp(data_);
  Graph graph = *optimizer::PipelineToNnGraph(pipeline);
  Graph optimized = ExpectFusionExact(graph, HospitalInput(pipeline));
  const GraphOptStats stats = FusionStats(graph);
  EXPECT_EQ(stats.relus_fused, 2u);
  EXPECT_EQ(stats.featurizers_fused, 1u);
  // Featurize -> Gemm+ReLU -> Gemm+ReLU -> Gemm.
  EXPECT_EQ(optimized.nodes().size(), 4u) << optimized.ToString();
  EXPECT_EQ(optimized.CountOps("Featurize"), 1u);
  EXPECT_EQ(optimized.CountOps("Relu"), 0u);
  EXPECT_EQ(optimized.CountOps("Concat"), 0u);
}

TEST_F(FusionTest, HospitalTreeGemmAndLogregPipelines) {
  auto tree = *data::TrainHospitalTree(data_, 6);
  optimizer::NnTranslationOptions gemm;
  gemm.lower_trees_to_gemm = true;
  Graph tree_graph = *optimizer::PipelineToNnGraph(tree, gemm);
  Graph tree_opt = ExpectFusionExact(tree_graph, HospitalInput(tree));
  EXPECT_EQ(tree_opt.CountOps("Featurize"), 1u);

  ml::ModelPipeline logreg = tree;
  ml::LinearModel linear(ml::LinearKind::kLogistic);
  std::uint32_t s = 5;
  std::vector<double> weights = {};
  for (std::int64_t f = 0; f < logreg.NumFeatures(); ++f) {
    weights.push_back(f % 4 == 1 ? 0.0 : LcgFloat(&s));
  }
  linear.SetParams(std::move(weights), -0.25);
  logreg.predictor = linear;
  Graph logreg_graph = *optimizer::PipelineToNnGraph(logreg);
  Graph logreg_opt = ExpectFusionExact(logreg_graph, HospitalInput(logreg));
  EXPECT_EQ(logreg_opt.CountOps("Featurize"), 1u);
  EXPECT_EQ(logreg_opt.CountOps("Sigmoid"), 1u);
}

TEST_F(FusionTest, FlightLogregPipeline) {
  auto flights = data::MakeFlightDataset(300, 9);
  auto pipeline = *data::TrainFlightLogreg(flights, 0.01, 5);
  Tensor x = *flights.flights.ToTensor(pipeline.input_columns);
  for (std::int64_t col : {3, 4, 5}) InjectOddCodes(&x, col);
  TensorMap env;
  env["X"] = std::move(x);
  Graph optimized =
      ExpectFusionExact(*optimizer::PipelineToNnGraph(pipeline), env);
  EXPECT_EQ(optimized.CountOps("Featurize"), 1u);
  EXPECT_EQ(optimized.CountOps("OneHot"), 0u);
}

/// X[:, 0..1] scaled, X[:, 2] passed through, X[:, 3] one-hot over 5 codes
/// restricted to {1, 3, 4}, X[:, 4] full one-hot over 3, into a 2-layer MLP.
Graph HandFeaturizedMlp() {
  Graph g;
  g.AddInput("X");
  Node gs = MakeNode("GatherColumns", {"X"}, {"gs"});
  gs.attrs["indices"] = std::vector<std::int64_t>{0, 1};
  g.AddNode(std::move(gs));
  Node scaler = MakeNode("Scaler", {"gs"}, {"scaled"});
  scaler.attrs["offset"] = std::vector<double>{0.1, -1.3};
  scaler.attrs["scale"] = std::vector<double>{1.7, 0.3};
  g.AddNode(std::move(scaler));
  Node gi = MakeNode("GatherColumns", {"X"}, {"ident"});
  gi.attrs["indices"] = std::vector<std::int64_t>{2};
  g.AddNode(std::move(gi));
  Node gc = MakeNode("GatherColumns", {"X"}, {"cat"});
  gc.attrs["indices"] = std::vector<std::int64_t>{3};
  g.AddNode(std::move(gc));
  Node oh = MakeNode("OneHot", {"cat"}, {"oh"});
  oh.attrs["depth"] = std::int64_t{5};
  g.AddNode(std::move(oh));
  Node kept = MakeNode("GatherColumns", {"oh"}, {"oh_kept"});
  kept.attrs["indices"] = std::vector<std::int64_t>{1, 3, 4};
  g.AddNode(std::move(kept));
  Node gc2 = MakeNode("GatherColumns", {"X"}, {"cat2"});
  gc2.attrs["indices"] = std::vector<std::int64_t>{4};
  g.AddNode(std::move(gc2));
  Node oh2 = MakeNode("OneHot", {"cat2"}, {"oh2"});
  oh2.attrs["depth"] = std::int64_t{3};
  g.AddNode(std::move(oh2));
  g.AddNode(
      MakeNode("Concat", {"scaled", "ident", "oh_kept", "oh2"}, {"feats"}));
  std::uint32_t s = 41;
  g.AddInitializer("w1", RandomTensor(&s, 9, 6, false));
  g.AddInitializer("b1", Tensor::FromVector(RandomVec(&s, 6)));
  g.AddNode(MakeNode("Gemm", {"feats", "w1", "b1"}, {"h"}));
  g.AddNode(MakeNode("Relu", {"h"}, {"hr"}));
  g.AddInitializer("w2", RandomTensor(&s, 6, 1, false));
  g.AddInitializer("b2", Tensor::FromVector({-0.0f}));
  g.AddNode(MakeNode("Gemm", {"hr", "w2", "b2"}, {"Y"}));
  g.AddOutput("Y");
  return g;
}

TensorMap HandFeaturizedInput() {
  std::uint32_t s = 77;
  Tensor x = RandomTensor(&s, 40, 5, false);
  for (std::int64_t r = 0; r < 40; ++r) {
    x.raw()[r * 5 + 3] = static_cast<float>(r % 6);
    x.raw()[r * 5 + 4] = static_cast<float>(r % 3);
  }
  InjectOddCodes(&x, 3);
  InjectOddCodes(&x, 4);
  x.raw()[1 * 5 + 0] = kDefaultNaN;
  x.raw()[2 * 5 + 2] = -0.0f;
  TensorMap env;
  env["X"] = std::move(x);
  return env;
}

TEST(GraphOptimizerTest, RestrictedOneHotFeaturizeIsExact) {
  Graph optimized = ExpectFusionExact(HandFeaturizedMlp(),
                                      HandFeaturizedInput());
  EXPECT_EQ(optimized.nodes().size(), 3u) << optimized.ToString();
  ASSERT_EQ(optimized.CountOps("Featurize"), 1u);
  for (const Node& node : optimized.nodes()) {
    if (node.op_type != "Featurize") continue;
    EXPECT_EQ(*node.GetIntsAttr("codes"),
              (std::vector<std::int64_t>{1, 3, 4, 0, 1, 2}));
    EXPECT_EQ(*node.GetIntsAttr("widths"),
              (std::vector<std::int64_t>{2, 1, 3, 3}));
  }
}

bool ProducesValue(const Graph& graph, const std::string& value) {
  for (const Node& node : graph.nodes()) {
    for (const auto& out : node.outputs) {
      if (out == value) return true;
    }
  }
  return false;
}

TEST(GraphOptimizerTest, FeaturizeRoundsCodesLikeOneHot) {
  // Featurize rounds a category code once per row with its own exact
  // llround; OneHot (the oracle) calls std::llround. Sweep every quarter in
  // [-12, 12], values beside each half, the 2^23 boundary where floats stop
  // having fractions, huge values, inf and NaN.
  std::vector<float> values;
  for (int q = -48; q <= 48; ++q) {
    const float v = static_cast<float>(q) / 4.0f;
    values.push_back(v);
    values.push_back(std::nextafter(v, 100.0f));
    values.push_back(std::nextafter(v, -100.0f));
  }
  for (float v : {8388607.5f, 8388608.0f, 8388609.0f, -8388607.5f, 1e9f,
                  -1e9f, 3e19f, std::numeric_limits<float>::infinity(),
                  -std::numeric_limits<float>::infinity(), kDefaultNaN,
                  -0.0f, 0.49999997f}) {
    values.push_back(v);
  }
  const std::int64_t rows = static_cast<std::int64_t>(values.size());
  Graph g;
  g.AddInput("X");
  Node gather = MakeNode("GatherColumns", {"X"}, {"cat"});
  gather.attrs["indices"] = std::vector<std::int64_t>{0};
  g.AddNode(std::move(gather));
  Node onehot = MakeNode("OneHot", {"cat"}, {"y"});
  onehot.attrs["depth"] = std::int64_t{13};
  g.AddNode(std::move(onehot));
  g.AddOutput("y");
  TensorMap env;
  env["X"] = *Tensor::FromData({rows, 1}, values);
  Graph optimized = ExpectFusionExact(g, env);
  EXPECT_EQ(optimized.CountOps("Featurize"), 1u) << optimized.ToString();
}

TEST(GraphOptimizerTest, FusionDeclinesSharedOrExportedIntermediates) {
  // Gemm output read by a second node: the Relu stays a node.
  {
    Graph g = HandFeaturizedMlp();
    g.AddNode(MakeNode("Neg", {"h"}, {"h_neg"}));
    g.AddOutput("h_neg");
    Graph opt = ExpectFusionExact(g, HandFeaturizedInput());
    EXPECT_EQ(opt.CountOps("Relu"), 1u);
    EXPECT_EQ(FusionStats(g).relus_fused, 0u);
  }
  // Gemm output is itself a graph output.
  {
    Graph g = HandFeaturizedMlp();
    g.AddOutput("h");
    Graph opt = ExpectFusionExact(g, HandFeaturizedInput());
    EXPECT_EQ(opt.CountOps("Relu"), 1u);
  }
  // A one-hot output with a second consumer: the Concat cannot absorb it.
  {
    Graph g = HandFeaturizedMlp();
    g.AddNode(MakeNode("Neg", {"oh2"}, {"oh2_neg"}));
    g.AddOutput("oh2_neg");
    Graph opt = ExpectFusionExact(g, HandFeaturizedInput());
    EXPECT_EQ(opt.CountOps("Concat"), 1u) << opt.ToString();
    EXPECT_TRUE(ProducesValue(opt, "oh2")) << opt.ToString();
  }
  // A one-hot output that is a graph output.
  {
    Graph g = HandFeaturizedMlp();
    g.AddOutput("oh_kept");
    Graph opt = ExpectFusionExact(g, HandFeaturizedInput());
    EXPECT_EQ(opt.CountOps("Concat"), 1u) << opt.ToString();
    EXPECT_TRUE(ProducesValue(opt, "oh_kept")) << opt.ToString();
  }
  // Parts reading two different graph inputs.
  {
    Graph g;
    g.AddInput("X");
    g.AddInput("Z");
    Node a = MakeNode("GatherColumns", {"X"}, {"a"});
    a.attrs["indices"] = std::vector<std::int64_t>{0};
    g.AddNode(std::move(a));
    Node b = MakeNode("GatherColumns", {"Z"}, {"b"});
    b.attrs["indices"] = std::vector<std::int64_t>{1};
    g.AddNode(std::move(b));
    g.AddNode(MakeNode("Concat", {"a", "b"}, {"y"}));
    g.AddOutput("y");
    EXPECT_EQ(FusionStats(g).featurizers_fused, 0u);
  }
}

// --- Plan-time Featurize -> Gemm fusion -----------------------------------

/// Featurize (X[:, 0..1] scaled, X[:, 2] copied, X[:, 3] one-hot over the
/// non-contiguous codes {4, 1, 3}, X[:, 4] one-hot over {0, 1, 2}: F = 9)
/// feeding Gemm [9, m] (+ReLU). Weight row 0 (scaled feature 0) holds inf
/// in some columns: an exact skip of a zero feature keeps it out. Rows 5
/// (code 3) and 8 (code 2) hold inf/NaN, reached only through a hot one-hot
/// column. Bias has -0.0 in even columns.
Graph FeaturizeGemmGraph(std::int64_t m, bool relu, std::uint32_t seed) {
  Graph g;
  g.AddInput("X");
  Node featurize = MakeNode("Featurize", {"X"}, {"feats"});
  featurize.attrs["kinds"] = std::vector<std::int64_t>{1, 0, 2, 2};
  featurize.attrs["widths"] = std::vector<std::int64_t>{2, 1, 3, 3};
  featurize.attrs["columns"] = std::vector<std::int64_t>{0, 1, 2, 3, 4};
  featurize.attrs["codes"] = std::vector<std::int64_t>{4, 1, 3, 0, 1, 2};
  featurize.attrs["offset"] = std::vector<double>{0.5, -1.25};
  featurize.attrs["scale"] = std::vector<double>{2.0, 0.75};
  g.AddNode(std::move(featurize));
  std::uint32_t s = seed * 2654435761u + 7u;
  Tensor w = RandomTensor(&s, 9, m, false);
  const float kInf = std::numeric_limits<float>::infinity();
  for (std::int64_t j = 0; j < m; j += 3) {
    w.raw()[0 * m + j] = kInf;
    w.raw()[5 * m + j] = (j / 3) % 2 == 0 ? kDefaultNaN : -kInf;
    w.raw()[8 * m + j] = kInf;
  }
  Tensor bias = Tensor::FromVector(RandomVec(&s, m));
  for (std::int64_t j = 0; j < m; j += 2) bias.raw()[j] = -0.0f;
  g.AddInitializer("w", std::move(w));
  g.AddInitializer("b", std::move(bias));
  Node gemm = MakeNode("Gemm", {"feats", "w", "b"}, {"y"});
  if (relu) gemm.attrs[kGemmActivationAttr] = std::string("Relu");
  g.AddNode(std::move(gemm));
  g.AddOutput("y");
  return g;
}

/// Raw rows for FeaturizeGemmGraph: odd one-hot codes (NaN, negative,
/// unlisted, inf, 2.5 -> 3, -0.4 -> 0), NaN vitals, scaled values that are
/// exactly zero (x == offset), copied zeros and -0.0. Row 0 makes every
/// feature zero, so its outputs are the bias (-0.0 included).
Tensor FeaturizeGemmInput(std::int64_t rows, std::uint32_t seed) {
  std::uint32_t s = seed + 101u;
  Tensor x = RandomTensor(&s, rows, 5, false);
  const float kInf = std::numeric_limits<float>::infinity();
  const float kCodes3[] = {4, 1, 3, 2, kDefaultNaN, -1, kInf, 2.5f, -0.4f};
  const float kCodes4[] = {0, 1, 2, 2.5f, -0.4f, kDefaultNaN, 7, -kInf};
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = x.raw() + r * 5;
    row[3] = kCodes3[r % 9];
    row[4] = kCodes4[(r * 5) % 8];
    if (r % 4 == 1) row[0] = 0.5f;    // scaled feature 0 is exactly 0
    if (r % 5 == 2) row[1] = -1.25f;  // scaled feature 1 is exactly 0
    if (r % 6 == 3) row[0] = kDefaultNaN;
    if (r % 3 == 0) row[2] = r % 2 == 0 ? 0.0f : -0.0f;
  }
  float* row0 = x.raw();
  row0[0] = 0.5f;
  row0[1] = -1.25f;
  row0[2] = 0.0f;
  row0[3] = 2.0f;  // unlisted
  row0[4] = kDefaultNaN;
  return x;
}

/// Runs `graph` on the reference (Featurize and Gemm as separate steps)
/// and on every supported SIMD width, whose plans must hold `simd_steps`;
/// all outputs byte-identical.
void ExpectFusedPlanExact(const Graph& graph, const TensorMap& env,
                          const std::vector<std::string>& simd_steps) {
  auto ref = ExecuteGraph(graph, env, nullptr,
                          GetBackend(BackendKind::kReference));
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  for (SimdWidth width : SupportedSimdWidths()) {
    SCOPED_TRACE(SimdWidthToString(width));
    const Backend* backend = GetSimdBackend(width);
    auto plan = ExecutionPlan::Build(graph, backend);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->StepOps(), simd_steps);
    auto simd = ExecuteGraph(graph, env, nullptr, backend);
    ASSERT_TRUE(simd.ok()) << simd.status().ToString();
    ExpectBitIdentical(*ref, *simd);
  }
}

TEST_F(FusionTest, FeaturizeGemmMatchesUnfusedReferenceBitExact) {
  const std::int64_t kWidths[] = {1, 3, 4, 8, 13, 16, 32, 37, 55};
  const std::int64_t kRows[] = {1, 2, 3, 4, 5, 7, 9, 18};
  for (std::int64_t m : kWidths) {
    for (std::int64_t n : kRows) {
      for (bool relu : {false, true}) {
        SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                     " relu=" + std::to_string(relu));
        const Graph g =
            FeaturizeGemmGraph(m, relu, static_cast<std::uint32_t>(m * n));
        TensorMap env;
        env["X"] = FeaturizeGemmInput(n, static_cast<std::uint32_t>(n));
        ExpectFusedPlanExact(g, env, {"FeaturizeGemm"});
        if (!relu) {
          // Row 0's features are all zero: its outputs are the bias.
          auto out = ExecuteGraph(g, env, nullptr, GetBackend(BackendKind::kSimd));
          ASSERT_TRUE(out.ok());
          EXPECT_EQ(std::memcmp(out->at("y").raw(),
                                g.initializers().at("b").raw(),
                                sizeof(float) * static_cast<std::size_t>(m)),
                    0);
        }
      }
    }
  }
}

TEST_F(FusionTest, FeaturizeGemmFusesTheHospitalMlpFirstLayer) {
  auto pipeline = *data::TrainHospitalMlp(data_);
  Graph graph = *optimizer::PipelineToNnGraph(pipeline);
  ASSERT_TRUE(OptimizeGraph(&graph).ok());
  ExpectFusedPlanExact(graph, HospitalInput(pipeline),
                       {"FeaturizeGemm", "Gemm", "Gemm"});
}

TEST_F(FusionTest, FeaturizeWithASecondReaderStaysUnfused) {
  // The feature matrix is also read by a Neg: the plan keeps Featurize.
  {
    Graph g = FeaturizeGemmGraph(16, true, 3);
    g.AddNode(MakeNode("Neg", {"feats"}, {"feats_neg"}));
    g.AddOutput("feats_neg");
    TensorMap env;
    env["X"] = FeaturizeGemmInput(9, 3);
    ExpectFusedPlanExact(g, env, {"Featurize", "Gemm", "Neg"});
  }
  // The feature matrix is itself a graph output.
  {
    Graph g = FeaturizeGemmGraph(16, true, 4);
    g.AddOutput("feats");
    TensorMap env;
    env["X"] = FeaturizeGemmInput(9, 4);
    ExpectFusedPlanExact(g, env, {"Featurize", "Gemm"});
  }
}

// --- The fused first layer's term template --------------------------------

/// Featurize over 8 raw columns feeding Gemm [18, m] (+ReLU): X[:, 0..1]
/// scaled, X[:, 2] copied, X[:, 3] one-hot over the non-contiguous codes
/// {4, 1, 3}, X[:, 4] one-hot over {0, 1, 2}, X[:, 5] one-hot over
/// {2^23, 7, 2^32, 2, 2^31 - 1} (the last two only the scalar LlroundFloat
/// can match), X[:, 6] copied, X[:, 7] one-hot over {5, 9, 5} (code 5 makes two
/// hot columns). W holds inf and NaN in some rows, and the bias (if any)
/// -0.0 in even columns, so a term added out of order or not skipped
/// shows.
Graph TemplateGraph(std::int64_t m, bool relu, bool bias,
                    std::uint32_t seed) {
  Graph g;
  g.AddInput("X");
  Node featurize = MakeNode("Featurize", {"X"}, {"feats"});
  featurize.attrs["kinds"] = std::vector<std::int64_t>{1, 0, 2, 2, 2, 0, 2};
  featurize.attrs["widths"] = std::vector<std::int64_t>{2, 1, 3, 3, 5, 1, 3};
  featurize.attrs["columns"] =
      std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6, 7};
  featurize.attrs["codes"] = std::vector<std::int64_t>{
      4, 1, 3, 0, 1, 2, 8388608, 7, 4294967296, 2, 2147483647, 5, 9, 5};
  featurize.attrs["offset"] = std::vector<double>{0.5, -1.25};
  featurize.attrs["scale"] = std::vector<double>{2.0, 0.75};
  g.AddNode(std::move(featurize));
  std::uint32_t s = seed * 2654435761u + 11u;
  Tensor w = RandomTensor(&s, 18, m, false);
  const float kInf = std::numeric_limits<float>::infinity();
  for (std::int64_t j = 0; j < m; j += 3) {
    w.raw()[0 * m + j] = kInf;
    w.raw()[2 * m + j] = -kInf;
    w.raw()[5 * m + j] = (j / 3) % 2 == 0 ? kDefaultNaN : -kInf;
    w.raw()[9 * m + j] = kInf;
    w.raw()[13 * m + j] = kInf;
    w.raw()[16 * m + j] = kInf;
  }
  g.AddInitializer("w", std::move(w));
  std::vector<std::string> inputs = {"feats", "w"};
  if (bias) {
    Tensor b = Tensor::FromVector(RandomVec(&s, m));
    for (std::int64_t j = 0; j < m; j += 2) b.raw()[j] = -0.0f;
    g.AddInitializer("b", std::move(b));
    inputs.push_back("b");
  }
  Node gemm = MakeNode("Gemm", std::move(inputs), {"y"});
  if (relu) gemm.attrs[kGemmActivationAttr] = std::string("Relu");
  g.AddNode(std::move(gemm));
  g.AddOutput("y");
  return g;
}

/// Kinds of irregular row for TemplateGraph: each makes one value exactly
/// zero or leaves one one-hot segment without exactly one hot column
/// found by the vector code.
constexpr int kIrregularKinds = 15;

/// Raw rows for TemplateGraph. Row r is regular unless `irregular(r)`:
/// every copied or scaled value nonzero (NaN vitals included), every
/// one-hot code one of its segment's, reached through rounding edges
/// (0.5, 2.5, 0.49999997, -0.4, 8388607.5) or exactly (2^23). An
/// irregular row takes kind
/// `r % kIrregularKinds` on top of that.
template <class Irregular>
Tensor TemplateInput(std::int64_t rows, std::uint32_t seed,
                     Irregular irregular) {
  std::uint32_t s = seed + 977u;
  Tensor x = RandomTensor(&s, rows, 8, false);
  const float kInf = std::numeric_limits<float>::infinity();
  const float kCodes3[] = {4.0f, 0.5f, 2.5f, 3.4f, 1.4999999f, 4.4999995f};
  const float kCodes4[] = {0.0f, -0.4f, 0.49999997f, 1.5f, 2.4f, -0.0f};
  const float kCodes5[] = {7.0f, 8388607.5f, 2.0f, 6.5f, 1.5f, 8388608.0f};
  const float kCodes7[] = {9.0f, 8.5f, 9.4f};
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = x.raw() + r * 8;
    if (row[0] == 0.5f) row[0] = 0.75f;
    if (row[1] == -1.25f) row[1] = -1.0f;
    if (row[2] == 0.0f) row[2] = 0.25f;
    if (row[6] == 0.0f) row[6] = -0.25f;
    if (r % 7 == 3) row[0] = kDefaultNaN;
    if (r % 5 == 1) row[6] = -kInf;
    row[3] = kCodes3[r % 6];
    row[4] = kCodes4[(r * 5) % 6];
    row[5] = kCodes5[r % 6];
    row[7] = kCodes7[r % 3];
    if (!irregular(r)) continue;
    switch (r % kIrregularKinds) {
      case 0: row[0] = 0.5f; break;           // scaled feature 0 is +0
      case 1: row[1] = -1.25f; break;         // scaled feature 1 is +0
      case 2: row[2] = 0.0f; break;           // copied +0
      case 3: row[6] = -0.0f; break;          // copied -0
      case 4: row[3] = 2.0f; break;           // unlisted code
      case 5: row[3] = kDefaultNaN; break;    // NaN code
      case 6: row[4] = -0.5f; break;          // rounds to -1
      case 7: row[4] = 3.0f; break;           // past a contiguous segment
      case 8: row[5] = 2147483648.0f; break;  // 2^31: scalar code, cold
      case 9: row[5] = -3e9f; break;          // vector code wraps: cold
      case 10: row[3] = kInf; break;          // inf code
      case 11: row[3] = -0.5f; break;         // rounds to -1
      case 12: row[5] = 4294967296.0f; break; // 2^32: scalar code, hot
      case 13: row[7] = 5.0f; break;          // a repeated code: two hot
      case 14: row[7] = 4.6f; break;          // rounds to 5: two hot
    }
  }
  return x;
}

/// Every m the panels treat differently (32/16/8/4-column panels and the
/// scalar tail), at 1-20 rows: full and short groups at both widths.
template <class Irregular>
void ExpectTemplateExact(Irregular irregular) {
  const std::int64_t kWidths[] = {1, 4, 8, 13, 16, 32, 37, 55};
  for (std::int64_t m : kWidths) {
    for (std::int64_t n = 1; n <= 20; ++n) {
      for (const auto& [relu, bias] : {std::pair{false, true},
                                       std::pair{true, true},
                                       std::pair{true, false}}) {
        SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                     " relu=" + std::to_string(relu) +
                     " bias=" + std::to_string(bias));
        const Graph g =
            TemplateGraph(m, relu, bias, static_cast<std::uint32_t>(m));
        TensorMap env;
        env["X"] = TemplateInput(n, static_cast<std::uint32_t>(n), irregular);
        ExpectFusedPlanExact(g, env, {"FeaturizeGemm"});
      }
    }
  }
}

TEST(FeatureTemplateTest, RegularGroupsMatchReferenceBitExact) {
  ExpectTemplateExact([](std::int64_t) { return false; });
}

TEST(FeatureTemplateTest, OneIrregularRowAtEachGroupPosition) {
  // At most one irregular row in every 8-row group (and so in every
  // 4-row group), at each position in turn.
  for (std::int64_t pos = 0; pos < 8; ++pos) {
    SCOPED_TRACE("pos=" + std::to_string(pos));
    ExpectTemplateExact([pos](std::int64_t r) { return r % 8 == pos; });
  }
}

TEST(FeatureTemplateTest, EveryRowIrregularMatchesReferenceBitExact) {
  ExpectTemplateExact([](std::int64_t) { return true; });
}

TEST(FeatureTemplateTest, InputsReachBothPaths) {
  // The inputs above are what they claim: a regular row's features are all
  // nonzero with one hot column per one-hot segment; each irregular kind
  // has a zero feature or a segment without exactly one hot column.
  const Graph g = TemplateGraph(4, false, true, 1);
  Graph features;
  features.AddInput("X");
  features.AddNode(g.nodes()[0]);
  features.AddOutput("feats");
  const std::int64_t kRows = 2 * kIrregularKinds;
  for (bool irregular : {false, true}) {
    TensorMap env;
    env["X"] =
        TemplateInput(kRows, 5, [irregular](std::int64_t) { return irregular; });
    auto out = ExecuteGraph(features, env);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const Tensor& f = out->at("feats");
    ASSERT_EQ(f.dim(1), 18);
    for (std::int64_t r = 0; r < kRows; ++r) {
      const float* row = f.raw() + r * 18;
      bool regular = true;
      for (std::int64_t c : {0, 1, 2, 14}) regular &= row[c] != 0.0f;
      const std::pair<std::int64_t, std::int64_t> kOneHots[] = {
          {3, 3}, {6, 3}, {9, 5}, {15, 3}};
      for (const auto& [begin, width] : kOneHots) {
        int hot = 0;
        for (std::int64_t t = 0; t < width; ++t) hot += row[begin + t] == 1.0f;
        regular &= hot == 1;
      }
      // Kind 12 leaves one hot column, reached only through the scalar
      // code.
      const bool scalar_hot = irregular && r % kIrregularKinds == 12;
      EXPECT_EQ(regular, !irregular || scalar_hot) << "row " << r;
    }
  }
}

TEST(BackendTest, SimdScalerBitExact) {
  Node node = MakeNode("Scaler", {"x"}, {"y"});
  node.attrs["offset"] = std::vector<double>{0.25, -1.5, 3.125, 0.1, -0.7};
  node.attrs["scale"] = std::vector<double>{2.0, 0.5, -1.25, 7.3, 0.01};
  Graph g;
  g.AddInput("x");
  g.AddNode(std::move(node));
  g.AddOutput("y");
  std::uint32_t s = 99;
  TensorMap env;
  env["x"] = RandomTensor(&s, 7, 5, false);
  auto ref = ExecuteGraph(g, env, nullptr, GetBackend(BackendKind::kReference));
  auto simd = ExecuteGraph(g, env, nullptr, GetBackend(BackendKind::kSimd));
  ASSERT_TRUE(ref.ok() && simd.ok());
  ExpectBitIdentical(ref.value(), simd.value());
}

TEST(BackendTest, SimdFallsBackForOrderSensitiveOps) {
  // Softmax is deliberately NOT overridden (order-sensitive reduction);
  // the SIMD backend must serve the reference kernel for it, exactly.
  Graph g;
  g.AddInput("x");
  g.AddNode(MakeNode("Softmax", {"x"}, {"y"}));
  g.AddOutput("y");
  TensorMap env;
  env["x"] = *Tensor::FromData({2, 3}, {0.5f, -1.0f, 2.0f, 3.0f, 3.0f, 0.0f});
  auto ref = ExecuteGraph(g, env, nullptr, GetBackend(BackendKind::kReference));
  auto simd = ExecuteGraph(g, env, nullptr, GetBackend(BackendKind::kSimd));
  ASSERT_TRUE(ref.ok() && simd.ok());
  ExpectBitIdentical(ref.value(), simd.value());
  EXPECT_EQ(GetBackend(BackendKind::kSimd)->FindKernel("NoSuchOp"), nullptr);
}

TEST(BackendTest, RoundToFp16PinnedValues) {
  EXPECT_EQ(RoundToFp16(0.0f), 0.0f);
  EXPECT_EQ(RoundToFp16(1.0f), 1.0f);
  EXPECT_EQ(RoundToFp16(-2.5f), -2.5f);
  // 0.1 is inexact in binary16: nearest half is 0.0999755859375.
  EXPECT_EQ(RoundToFp16(0.1f), 0.0999755859375f);
  // 1 + 2^-10 is exactly representable; 1 + 2^-11 is halfway and rounds
  // to even (down to 1.0).
  EXPECT_EQ(RoundToFp16(1.0f + 0.0009765625f), 1.0f + 0.0009765625f);
  EXPECT_EQ(RoundToFp16(1.0f + 0.00048828125f), 1.0f);
  // Largest finite half; anything above overflows to infinity.
  EXPECT_EQ(RoundToFp16(65504.0f), 65504.0f);
  EXPECT_TRUE(std::isinf(RoundToFp16(70000.0f)));
  EXPECT_TRUE(std::isinf(RoundToFp16(-70000.0f)));
  EXPECT_LT(RoundToFp16(-70000.0f), 0.0f);
  // Subnormal range: min positive half-subnormal is 2^-24.
  EXPECT_EQ(RoundToFp16(3.0e-8f), 5.9604645e-8f);
  EXPECT_EQ(RoundToFp16(1.0e-8f), 0.0f);
  EXPECT_TRUE(std::isnan(RoundToFp16(std::nanf(""))));
}

TEST(BackendTest, Fp16WithinDocumentedTolerance) {
  for (std::uint32_t seed = 0; seed < 3; ++seed) {
    Graph g = RandomDenseGraph(seed, 6, 10, 4);
    std::uint32_t s = seed + 7;
    TensorMap env;
    env["x"] = RandomTensor(&s, 3, 6, false);
    auto ref =
        ExecuteGraph(g, env, nullptr, GetBackend(BackendKind::kReference));
    auto fp16 = ExecuteGraph(g, env, nullptr, GetBackend(BackendKind::kFp16));
    // The session-time fusions (here Gemm+ReLU) round fewer intermediates;
    // the fused graph must stay within the same bound.
    SessionOptions fused_options;
    fused_options.backend = BackendKind::kFp16;
    auto fused = InferenceSession::Create(g, fused_options);
    ASSERT_TRUE(ref.ok() && fp16.ok() && fused.ok());
    ASSERT_EQ((*fused)->optimization_stats().relus_fused, 1u);
    auto fused_out = (*fused)->Run(env);
    ASSERT_TRUE(fused_out.ok());
    const Tensor& rt = ref->at("y");
    for (const Tensor* ht : {&fp16->at("y"), &fused_out->at("y")}) {
      ASSERT_EQ(rt.shape(), ht->shape());
      for (std::int64_t i = 0; i < rt.num_elements(); ++i) {
        const float r = rt.raw()[i];
        const float h = ht->raw()[i];
        // The documented bound (docs/OPERATIONS.md): 1% relative or 1e-2
        // absolute, whichever is larger.
        EXPECT_NEAR(h, r, std::max(1e-2f, 0.01f * std::fabs(r)))
            << "seed " << seed << " element " << i;
      }
    }
  }
}

TEST(OpProfilerTest, ExecuteGraphFillsPerOpStats) {
  Graph g = RandomDenseGraph(1, 4, 8, 4);
  std::uint32_t s = 3;
  TensorMap env;
  env["x"] = RandomTensor(&s, 2, 4, false);
  RunStats stats;
  ASSERT_TRUE(ExecuteGraph(g, env, &stats, nullptr, /*profile_ops=*/true).ok());
  ASSERT_FALSE(stats.per_op.empty());
  std::int64_t calls = 0;
  for (const auto& op : stats.per_op) calls += op.calls;
  EXPECT_EQ(static_cast<std::size_t>(calls), stats.nodes_executed);

  OpProfiler profiler;
  profiler.Merge(stats.per_op);
  profiler.Merge(stats.per_op);
  EXPECT_EQ(profiler.total_calls(), 2 * calls);
  auto rows = profiler.Snapshot();
  ASSERT_FALSE(rows.empty());
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1].wall_micros, rows[i].wall_micros);
  }
}

TEST(OpProfilerTest, SessionRunFeedsCacheProfiler) {
  SessionCache cache(4);
  SessionOptions options;
  options.profiler = &cache.profiler();
  auto session = cache.GetOrCreate("m", IdentityReluBytes(), options);
  ASSERT_TRUE(session.ok());
  (void)*(*session)->RunSingle(*Tensor::FromData({1, 2}, {-1.0f, 2.0f}));
  EXPECT_GT(cache.profiler().total_calls(), 0);
  EXPECT_FALSE(cache.profiler().Snapshot().empty());
}

TEST(KernelRegistryTest, SupportedOps) {
  EXPECT_TRUE(IsOpSupported("Gemm"));
  EXPECT_TRUE(IsOpSupported("TreeEnsemble"));
  EXPECT_FALSE(IsOpSupported("Attention"));
  EXPECT_GE(SupportedOps().size(), 20u);
}

}  // namespace
}  // namespace raven::nnrt
