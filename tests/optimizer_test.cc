#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <set>
#include <string>

#include "data/flight.h"
#include "data/hospital.h"
#include "frontend/analyzer.h"
#include "ir/ir.h"
#include "optimizer/converters.h"
#include "optimizer/cost_model.h"
#include "optimizer/cross_optimizer.h"
#include "optimizer/rules.h"
#include "optimizer/specialize.h"
#include "relational/statistics.h"
#include "relational/operators.h"
#include "runtime/codegen.h"
#include "runtime/plan_executor.h"
#include "storage/columnar.h"
#include "test_util.h"

namespace raven::optimizer {
namespace {

using ir::IrNode;
using ir::IrNodePtr;
using ir::IrOpKind;
using ir::IrPlan;

class HospitalFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = data::MakeHospitalDataset(4000, 21);
    ASSERT_NO_FATAL_FAILURE(test_util::RegisterHospitalTables(&catalog_, data_));
    tree_pipeline_ = test_util::InsertHospitalTreeModel(&catalog_, data_, 8);
    ASSERT_FALSE(HasFailure()) << "fixture setup failed";
  }

  /// Analyzes the paper's running-example query.
  IrPlan RunningExamplePlan() {
    return test_util::AnalyzePlan(catalog_, test_util::RunningExampleSql());
  }

  /// Executes a plan in-process and returns the table.
  relational::Table Run(const IrPlan& plan) {
    nnrt::SessionCache cache(8);
    runtime::PlanExecutor executor(&catalog_, &cache);
    auto result = executor.Execute(plan, runtime::ExecutionOptions());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  data::HospitalDataset data_;
  relational::Catalog catalog_;
  ml::ModelPipeline tree_pipeline_;
};

const ml::DecisionTree& TreeOf(const ml::ModelPipeline& pipeline) {
  return std::get<ml::DecisionTree>(pipeline.predictor);
}

TEST_F(HospitalFixture, PredicatePushdownSinksBelowModel) {
  IrPlan plan = RunningExamplePlan();
  auto fired = *ApplyPredicatePushdown(&plan.mutable_root(), catalog_);
  EXPECT_GT(fired, 0u);
  ASSERT_TRUE(plan.Validate(catalog_).ok());
  // pregnant=1 must now sit below the model node; length_of_stay>7 stays
  // above (it reads the prediction).
  EXPECT_TRUE(test_util::FilterBelowModelMentions(plan.root(), "pregnant"));
  EXPECT_TRUE(test_util::FilterMentions(plan.root(), "length_of_stay"));
  EXPECT_FALSE(
      test_util::FilterBelowModelMentions(plan.root(), "length_of_stay"));
}

TEST_F(HospitalFixture, PredicateModelPruningShrinksTree) {
  IrPlan plan = RunningExamplePlan();
  (void)*ApplyPredicatePushdown(&plan.mutable_root(), catalog_);
  const std::int64_t nodes_before = TreeOf(tree_pipeline_).num_nodes();
  auto fired = *ApplyPredicateModelPruning(&plan.mutable_root());
  EXPECT_EQ(fired, 1u);
  ir::VisitIr(plan.root(), [&](const IrNode* node) {
    if (node->kind == IrOpKind::kModelPipeline) {
      EXPECT_LT(TreeOf(*node->pipeline).num_nodes(), nodes_before);
    }
  });
  ASSERT_TRUE(plan.Validate(catalog_).ok());
}

TEST_F(HospitalFixture, PruningPreservesSemantics) {
  IrPlan reference = RunningExamplePlan();
  IrPlan optimized = RunningExamplePlan();
  (void)*ApplyPredicatePushdown(&optimized.mutable_root(), catalog_);
  (void)*ApplyPredicateModelPruning(&optimized.mutable_root());
  relational::Table expected = Run(reference);
  relational::Table actual = Run(optimized);
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  for (const char* col : {"id", "length_of_stay"}) {
    EXPECT_EQ((*expected.GetColumn(col))->data, (*actual.GetColumn(col))->data)
        << col;
  }
}

TEST_F(HospitalFixture, JoinEliminationAfterPruning) {
  // The pruned model (pregnant=1 branch removed? no — kept) may not need
  // prenatal columns once gender-style features drop. Force the situation
  // with a model that ignores prenatal columns entirely.
  ml::ModelPipeline narrow;
  narrow.input_columns = {"age", "bp"};
  ml::LinearModel lin(ml::LinearKind::kRegression);
  lin.SetParams({0.1, 0.05}, 0.0);
  narrow.predictor = std::move(lin);
  ASSERT_TRUE(catalog_.InsertModel(
      "narrow",
      "model_pipeline = Pipeline([('clf', LinearRegression())])",
      narrow.ToBytes()).ok());
  frontend::StaticAnalyzer analyzer(&catalog_);
  auto plan = std::move(analyzer.Analyze(
      "WITH data AS (SELECT * FROM patient_info AS pi "
      "  JOIN blood_tests AS bt ON pi.id = bt.id "
      "  JOIN prenatal_tests AS pt ON bt.id = pt.id) "
      "SELECT id, pred FROM PREDICT(MODEL='narrow', DATA=data) "
      "WITH(pred float)")).value();
  EXPECT_EQ(plan.CountKind(IrOpKind::kJoin), 2u);
  auto fired = *ApplyJoinElimination(&plan.mutable_root(), catalog_);
  EXPECT_GE(fired, 1u);
  // prenatal_tests provides nothing: its join disappears.
  EXPECT_EQ(plan.CountKind(IrOpKind::kJoin), 1u);
  ASSERT_TRUE(plan.Validate(catalog_).ok());
}

TEST_F(HospitalFixture, ProjectionPushdownNarrowsScans) {
  frontend::StaticAnalyzer analyzer(&catalog_);
  auto plan = std::move(analyzer.Analyze(
      "SELECT id, pred FROM PREDICT(MODEL='los', DATA=patients) "
      "WITH(pred float)")).value();
  auto fired = *ApplyProjectionPushdown(&plan.mutable_root(), catalog_);
  EXPECT_GE(fired, 1u);
  // The scan must now be wrapped in a Project that drops length_of_stay
  // (the label column is not a model input).
  bool narrowed = false;
  ir::VisitIr(plan.root(), [&](const IrNode* node) {
    if (node->kind == IrOpKind::kProject) {
      bool has_label = false;
      for (const auto& name : node->proj_names) {
        if (name == "length_of_stay") has_label = true;
      }
      if (!has_label && !node->children.empty() &&
          node->children[0]->kind == IrOpKind::kTableScan) {
        narrowed = true;
      }
    }
  });
  EXPECT_TRUE(narrowed);
  ASSERT_TRUE(plan.Validate(catalog_).ok());
}

TEST_F(HospitalFixture, ModelInliningProducesCaseProjection) {
  frontend::StaticAnalyzer analyzer(&catalog_);
  auto plan = std::move(analyzer.Analyze(
      "SELECT id, pred FROM PREDICT(MODEL='los', DATA=patients) "
      "WITH(pred float)")).value();
  IrPlan reference = plan.Clone();
  auto fired = *ApplyModelInlining(&plan.mutable_root(), catalog_, 4096);
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(plan.CountKind(IrOpKind::kModelPipeline), 0u);
  ASSERT_TRUE(plan.Validate(catalog_).ok());
  // Semantics: inlined CASE expression equals interpreted tree (float32
  // rounding tolerance because the expression engine computes in double).
  relational::Table expected = Run(reference);
  relational::Table actual = Run(plan);
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  const auto& e = (*expected.GetColumn("pred"))->data;
  const auto& a = (*actual.GetColumn("pred"))->data;
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_NEAR(e[i], a[i], 1e-3) << "row " << i;
  }
}

TEST_F(HospitalFixture, InliningRespectsSizeBudget) {
  frontend::StaticAnalyzer analyzer(&catalog_);
  auto plan = std::move(analyzer.Analyze(
      "SELECT * FROM PREDICT(MODEL='los', DATA=patients)")).value();
  auto fired = *ApplyModelInlining(&plan.mutable_root(), catalog_, 1);
  EXPECT_EQ(fired, 0u);  // tree bigger than 1 node: not inlined
}

/// Rules fired by `rule` in `report` (0 when it never ran).
std::size_t Fired(const OptimizationReport& report, const std::string& rule) {
  for (const auto& [name, fired] : report.rule_applications) {
    if (name == rule) return fired;
  }
  return 0;
}

TEST_F(HospitalFixture, ForestsAreInlinedByDefault) {
  ml::ModelPipeline forest = *data::TrainHospitalForest(data_, 10, 8);
  ASSERT_TRUE(catalog_.InsertModel("los_rf", data::HospitalForestScript(),
                                   forest.ToBytes()).ok());
  IrPlan plan = test_util::AnalyzePlan(
      catalog_,
      "SELECT id, pred FROM PREDICT(MODEL='los_rf', DATA=patients) "
      "WITH(pred float)");
  IrPlan reference = plan.Clone();
  CrossOptimizer optimizer(&catalog_, OptimizerOptions());
  OptimizationReport report;
  ASSERT_TRUE(optimizer.Optimize(&plan, &report).ok());
  EXPECT_EQ(Fired(report, "model_inlining"), 1u);
  EXPECT_EQ(Fired(report, "nn_translation"), 0u);
  EXPECT_EQ(plan.CountKind(IrOpKind::kModelPipeline), 0u);
  EXPECT_EQ(plan.CountKind(IrOpKind::kNnGraph), 0u);
  // The forest is averaged in double, the interpreted forest in float32.
  relational::Table expected = Run(reference);
  relational::Table actual = Run(plan);
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  const auto& e = (*expected.GetColumn("pred"))->data;
  const auto& a = (*actual.GetColumn("pred"))->data;
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_NEAR(e[i], a[i], 1e-3) << "row " << i;
  }
}

/// The Project node directly over `table`'s scan, or nullptr.
const IrNode* SelectionOverScan(const IrNode* root) {
  const IrNode* found = nullptr;
  ir::VisitIr(root, [&](const IrNode* node) {
    if (node->kind == IrOpKind::kProject &&
        node->children[0]->kind == IrOpKind::kTableScan) {
      found = node;
    }
  });
  return found;
}

/// The first Project holding a computed (non-column) item, or nullptr.
const IrNode* ComputedProject(const IrNode* root) {
  const IrNode* found = nullptr;
  ir::VisitIr(root, [&](const IrNode* node) {
    if (found != nullptr || node->kind != IrOpKind::kProject) return;
    for (const auto& e : node->proj_exprs) {
      if (e->kind() != relational::Expr::Kind::kColumnRef) found = node;
    }
  });
  return found;
}

TEST_F(HospitalFixture, InlinedTreeNarrowsToTheTreesColumns) {
  IrPlan plan = test_util::AnalyzePlan(
      catalog_,
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float)");
  IrPlan reference = plan.Clone();
  CrossOptimizer optimizer(&catalog_, OptimizerOptions());
  ASSERT_TRUE(optimizer.Optimize(&plan).ok());
  ASSERT_TRUE(plan.Validate(catalog_).ok());
  // The CASE projection keeps only what the query returns ...
  const IrNode* inlined = ComputedProject(plan.root());
  ASSERT_NE(inlined, nullptr) << plan.ToString();
  EXPECT_EQ(inlined->proj_names, (std::vector<std::string>{"id", "p"}));
  // ... so the scan below is narrowed to id plus the tree's columns, in
  // table order.
  std::set<std::string> needed = {"id"};
  for (const auto& e : inlined->proj_exprs) e->CollectColumns(&needed);
  const std::vector<std::string> table_columns =
      *catalog_.TableSchema("patients");
  std::vector<std::string> expected;
  for (const auto& col : table_columns) {
    if (needed.count(col) > 0) expected.push_back(col);
  }
  ASSERT_LT(expected.size(), table_columns.size());
  const IrNode* selection = SelectionOverScan(plan.root());
  ASSERT_NE(selection, nullptr) << plan.ToString();
  EXPECT_EQ(selection->proj_names, expected);
  // Exactly one selection over the scan, not a stack of identical ones,
  // and no select list of exactly the CASE projection's columns above it.
  EXPECT_NE(selection->children[0]->kind, IrOpKind::kProject);
  EXPECT_EQ(plan.CountKind(IrOpKind::kProject), 2u) << plan.ToString();
  // Same rows as the plan without any rule applied (the interpreted tree
  // scores in float32, the CASE in double).
  relational::Table want = Run(reference);
  relational::Table got = Run(plan);
  ASSERT_EQ(got.ColumnNames(), (std::vector<std::string>{"id", "p"}));
  ASSERT_EQ(want.num_rows(), got.num_rows());
  const auto& e = (*want.GetColumn("p"))->data;
  const auto& a = (*got.GetColumn("p"))->data;
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_NEAR(e[i], a[i], 1e-3) << "row " << i;
  }
}

TEST_F(HospitalFixture, NarrowingKeepsItemsOnlyParentOperatorsRead) {
  // A projection with computed items, each read by exactly one kind of
  // parent operator and by nothing the query returns.
  auto computed = []() {
    std::vector<relational::ExprPtr> exprs;
    exprs.push_back(relational::Col("id"));
    exprs.push_back(relational::Col("age"));
    exprs.push_back(relational::Gt(relational::Col("bp"), relational::Lit(120)));
    exprs.push_back(
        relational::Lt(relational::Col("glucose"), relational::Lit(100)));
    exprs.push_back(
        relational::Gt(relational::Col("weight"), relational::Lit(80)));
    exprs.push_back(
        relational::Gt(relational::Col("platelets"), relational::Lit(1)));
    return IrNode::Project(
        IrNode::TableScan("patients"), std::move(exprs),
        {"id", "age", "high_bp", "low_glucose", "heavy", "unused"});
  };
  struct Case {
    const char* name;
    IrNodePtr root;
    std::vector<std::string> kept;
  };
  std::vector<Case> cases;
  // Filter: only the filter reads high_bp.
  cases.push_back(
      {"filter",
       IrNode::ProjectColumns(
           IrNode::Filter(computed(), relational::Eq(relational::Col("high_bp"),
                                                     relational::Lit(1))),
           {"id"}),
       {"id", "high_bp"}});
  // GroupBy: low_glucose is a key, age is aggregated.
  cases.push_back(
      {"group_by",
       IrNode::GroupBy(computed(), {"low_glucose"},
                       {ir::AggregateItem{ir::AggFunc::kAvg, "age", "m"}}),
       {"age", "low_glucose"}});
  // OrderBy: only the sort reads heavy.
  cases.push_back(
      {"order_by",
       IrNode::ProjectColumns(
           IrNode::OrderBy(computed(), {ir::SortKey{"heavy", true}}), {"id"}),
       {"id", "heavy"}});
  // COUNT(*) reads nothing; one plain column survives for the row count.
  cases.push_back(
      {"count_star",
       IrNode::Aggregate(computed(),
                         {ir::AggregateItem{ir::AggFunc::kCount, "", "n"}}),
       {"id"}});
  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    IrPlan plan(std::move(c.root));
    IrPlan reference = plan.Clone();
    ASSERT_TRUE(plan.Validate(catalog_).ok());
    auto fired = ApplyProjectionPushdown(&plan.mutable_root(), catalog_);
    ASSERT_TRUE(fired.ok()) << fired.status().ToString();
    EXPECT_GE(*fired, 1u);
    ASSERT_TRUE(plan.Validate(catalog_).ok()) << plan.ToString();
    const IrNode* narrowed = ComputedProject(plan.root());
    if (narrowed == nullptr) narrowed = SelectionOverScan(plan.root());
    ASSERT_NE(narrowed, nullptr) << plan.ToString();
    EXPECT_EQ(narrowed->proj_names, c.kept) << plan.ToString();
    test_util::ExpectTablesBitIdentical(Run(reference), Run(plan));
  }
}

TEST_F(HospitalFixture, NarrowedForestStillSkipsBlocksByItsIdRange) {
  // The forest shape of the paper_batch benchmark, on disk: the inlined
  // forest's projection narrows, which puts a column selection over the
  // scan, and the id-range filter must still reach the zone maps.
  ml::ModelPipeline forest = *data::TrainHospitalForest(data_, 10, 8);
  ASSERT_TRUE(catalog_.InsertModel("los_rf", data::HospitalForestScript(),
                                   forest.ToBytes()).ok());
  const std::string path = ::testing::TempDir() + "/narrowed_forest.rvc";
  storage::RvcWriteOptions write_options;
  write_options.block_rows = 512;  // 4000 rows: 8 blocks
  ASSERT_TRUE(
      storage::WriteRvc(data_.joined, path, write_options).ok());
  auto disk = storage::DiskTable::Open(path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  relational::Catalog disk_catalog;
  ASSERT_TRUE(disk_catalog.RegisterDiskTable("patients", *disk).ok());
  ASSERT_TRUE(disk_catalog.InsertModel("los_rf", data::HospitalForestScript(),
                                       forest.ToBytes()).ok());
  const std::string sql =
      "SELECT id, p FROM PREDICT(MODEL='los_rf', DATA=patients) "
      "WITH(p float) WHERE id >= 1024 AND id < 1536";
  IrPlan memory_plan = test_util::AnalyzePlan(catalog_, sql);
  ASSERT_TRUE(CrossOptimizer(&catalog_, OptimizerOptions())
                  .Optimize(&memory_plan).ok());
  IrPlan plan = test_util::AnalyzePlan(disk_catalog, sql);
  ASSERT_TRUE(CrossOptimizer(&disk_catalog, OptimizerOptions())
                  .Optimize(&plan).ok());
  ASSERT_NE(ComputedProject(plan.root()), nullptr);
  EXPECT_EQ(ComputedProject(plan.root())->proj_names,
            (std::vector<std::string>{"id", "p"}));

  const std::string storage =
      runtime::DescribeStorageScans(*plan.root(), disk_catalog);
  EXPECT_NE(storage.find("zone-map conjuncts: id >= 1024; id < 1536;"),
            std::string::npos)
      << storage;
  const std::size_t at = storage.find("columns: ");
  ASSERT_NE(at, std::string::npos) << storage;
  const int decoded = std::stoi(storage.substr(at + 9));
  EXPECT_GT(decoded, 1) << storage;
  EXPECT_LT(decoded, data_.joined.num_columns()) << storage;

  for (std::int64_t dop : {1, 4}) {
    SCOPED_TRACE("dop=" + std::to_string(dop));
    nnrt::SessionCache cache(8);
    runtime::PlanExecutor executor(&disk_catalog, &cache);
    runtime::ExecutionOptions options;
    options.parallelism = dop;
    runtime::ExecutionStats stats;
    auto result = executor.Execute(plan, options, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->num_rows(), 512);
    EXPECT_EQ(stats.blocks_scanned, 1);
    EXPECT_EQ(stats.blocks_skipped, 7);
    test_util::ExpectTablesBitIdentical(Run(memory_plan), *result);
  }
  std::remove(path.c_str());
}

TEST_F(HospitalFixture, ForestWithOneOversizedTreeIsTranslated) {
  ml::ModelPipeline forest = *data::TrainHospitalForest(data_, 4, 6);
  // Grow the last tree past the per-tree cap that every other tree fits.
  auto& trees = std::get<ml::RandomForest>(forest.predictor).mutable_trees();
  std::int64_t cap = 0;
  for (std::size_t t = 0; t + 1 < trees.size(); ++t) {
    cap = std::max(cap, trees[t].num_nodes());
  }
  ml::DecisionTree deep = std::get<ml::DecisionTree>(
      data::TrainHospitalTree(data_, 10)->predictor);
  ASSERT_GT(deep.num_nodes(), cap);
  trees.back() = std::move(deep);
  EXPECT_TRUE(IsInlinable(forest, cap + 1000000));
  EXPECT_FALSE(IsInlinable(forest, cap));
  ASSERT_TRUE(catalog_.InsertModel("los_rf", data::HospitalForestScript(),
                                   forest.ToBytes()).ok());
  IrPlan plan = test_util::AnalyzePlan(
      catalog_,
      "SELECT id, pred FROM PREDICT(MODEL='los_rf', DATA=patients) "
      "WITH(pred float)");
  OptimizerOptions options;
  options.inline_max_nodes = cap;
  CrossOptimizer optimizer(&catalog_, options);
  OptimizationReport report;
  ASSERT_TRUE(optimizer.Optimize(&plan, &report).ok());
  EXPECT_EQ(Fired(report, "model_inlining"), 0u);
  EXPECT_EQ(Fired(report, "nn_translation"), 1u);
  EXPECT_EQ(plan.CountKind(IrOpKind::kNnGraph), 1u);
}

TEST(InliningTest, InlinedSplitsDecideLikeTheFloat32Model) {
  // The model featurizes in float32 — float(x), then (x - mean) * scale —
  // so a raw value goes left iff that rounds to <= the threshold. The
  // inlined raw-space test must agree on every input: values whose
  // featurized form ties the threshold, one double either side of the
  // inlined bound, and the IEEE corners.
  std::mt19937_64 rng(1601);
  std::uniform_real_distribution<double> raw_dist(20.0, 90.0);
  std::vector<float> raw(64);
  for (auto& v : raw) v = static_cast<float>(std::round(raw_dist(rng)));
  const Tensor fit = *Tensor::FromData({64, 1}, raw);
  for (const bool scaled : {false, true}) {
    ml::ModelPipeline pipeline;
    pipeline.input_columns = {"x"};
    ml::FeatureBranch branch;
    branch.input_columns = {0};
    if (scaled) branch.kind = ml::TransformKind::kScaler;
    pipeline.featurizer.AddBranch(std::move(branch));
    ASSERT_TRUE(pipeline.featurizer.Fit(fit).ok());
    const Tensor features = *pipeline.featurizer.Transform(fit);
    std::vector<float> thresholds(features.raw(), features.raw() + 64);
    thresholds.push_back(0.1f);
    thresholds.push_back(-3.3f);
    for (const float thr : thresholds) {
      pipeline.predictor = *ml::DecisionTree::FromArrays(
          1, {0, -1, -1}, {thr, 0.0f, 0.0f}, {1, -1, -1}, {2, -1, -1},
          {0.0f, 1.0f, 2.0f});
      auto expr = TreeToCaseExpr(pipeline);
      ASSERT_TRUE(expr.ok()) << expr.status().ToString();
      const auto& when = *static_cast<const relational::CaseWhenExpr&>(**expr)
                              .arms()[0]
                              .when;
      const double bound =
          static_cast<const relational::LiteralExpr&>(
              static_cast<const relational::CompareExpr&>(when).rhs())
              .value();
      const double inf = std::numeric_limits<double>::infinity();
      relational::DataChunk chunk;
      chunk.names = {"x"};
      chunk.cols.resize(1);
      for (const double v : {bound, std::nextafter(bound, inf),
                             std::nextafter(bound, -inf), inf, -inf,
                             std::numeric_limits<double>::quiet_NaN()}) {
        chunk.cols[0].push_back(v);
      }
      for (const float r : raw) {
        chunk.cols[0].push_back(r);
        chunk.cols[0].push_back(std::nextafter(static_cast<double>(r), inf));
        chunk.cols[0].push_back(std::nextafter(static_cast<double>(r), -inf));
      }
      std::vector<double> inlined;
      ASSERT_TRUE((*expr)->Evaluate(chunk, &inlined).ok());
      std::vector<float> as_float(chunk.cols[0].begin(), chunk.cols[0].end());
      const auto n = static_cast<std::int64_t>(as_float.size());
      const Tensor predicted =
          *pipeline.Predict(*Tensor::FromData({n, 1}, as_float));
      for (std::int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(inlined[static_cast<std::size_t>(i)], predicted.raw()[i])
            << (scaled ? "scaled" : "identity") << " thr " << thr
            << " x " << chunk.cols[0][static_cast<std::size_t>(i)];
      }
    }
  }
}

TEST(InliningTest, ForestInlinesToATreeOrderSumOverT) {
  // The averaging convention: CASEs added left to right in tree order,
  // then one divide by the tree count.
  ml::ModelPipeline pipeline;
  pipeline.input_columns = {"x"};
  ml::RandomForest forest;
  for (int t = 0; t < 3; ++t) {
    forest.AddTree(*ml::DecisionTree::FromArrays(
        1, {0, -1, -1}, {0.5f + static_cast<float>(t), 0.0f, 0.0f},
        {1, -1, -1}, {2, -1, -1},
        {0.0f, static_cast<float>(2 * t + 1), static_cast<float>(2 * t + 2)}));
  }
  pipeline.predictor = std::move(forest);
  auto expr = TreeToCaseExpr(pipeline);
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  EXPECT_EQ((*expr)->ToString(),
            "(((CASE WHEN (x <= 0.5) THEN 1 ELSE 2 END + "
            "CASE WHEN (x <= 1.5) THEN 3 ELSE 4 END) + "
            "CASE WHEN (x <= 2.5) THEN 5 ELSE 6 END) / 3)");
}

TEST(InliningTest, EmptyOrTooDeepForestsAreNotInlinable) {
  ml::ModelPipeline pipeline;
  pipeline.input_columns = {"x"};
  pipeline.predictor = ml::RandomForest();
  EXPECT_FALSE(IsInlinable(pipeline));
  EXPECT_FALSE(TreeToCaseExpr(pipeline).ok());
  // Stumps `x <= 0.5`: T of them inline to a sum chain T deep, so the
  // expression stays shippable (relational::kMaxExprDepth) only while
  // T + 2 <= kMaxExprDepth.
  ml::DecisionTree stump = *ml::DecisionTree::FromArrays(
      1, {0, -1, -1}, {0.5f, 0.0f, 0.0f}, {1, -1, -1}, {2, -1, -1},
      {0.0f, 1.0f, 2.0f});
  ml::RandomForest forest;
  for (int t = 0; t < relational::kMaxExprDepth - 2; ++t) forest.AddTree(stump);
  pipeline.predictor = forest;
  EXPECT_TRUE(IsInlinable(pipeline));
  auto expr = TreeToCaseExpr(pipeline);
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  BinaryWriter writer;
  relational::SerializeExpr(**expr, &writer);
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(relational::DeserializeExpr(&reader).ok());
  forest.AddTree(stump);
  pipeline.predictor = forest;
  EXPECT_FALSE(IsInlinable(pipeline));
}

TEST_F(HospitalFixture, NnTranslationTreeGemmEquivalence) {
  // The LA lowering of the tree must agree exactly with the interpreted
  // tree on real data — the core NN-translation correctness property.
  NnTranslationOptions options;
  options.lower_trees_to_gemm = true;
  nnrt::Graph graph = *PipelineToNnGraph(tree_pipeline_, options);
  auto session = std::move(nnrt::InferenceSession::Create(graph)).value();
  Tensor x = *data_.joined.ToTensor(tree_pipeline_.input_columns);
  Tensor expected = *tree_pipeline_.Predict(x);
  Tensor actual = *session->RunSingle(x);
  EXPECT_TRUE(expected.AllClose(actual, 1e-4f));
  EXPECT_GT(graph.CountOps("MatMul") + graph.CountOps("Gemm"), 0u);
  EXPECT_EQ(graph.CountOps("TreeEnsemble"), 0u);
}

TEST_F(HospitalFixture, NnTranslationTreeEnsembleOpEquivalence) {
  NnTranslationOptions options;
  options.lower_trees_to_gemm = false;
  nnrt::Graph graph = *PipelineToNnGraph(tree_pipeline_, options);
  EXPECT_EQ(graph.CountOps("TreeEnsemble"), 1u);
  auto session = std::move(nnrt::InferenceSession::Create(graph)).value();
  Tensor x = *data_.joined.ToTensor(tree_pipeline_.input_columns);
  EXPECT_TRUE(
      (*tree_pipeline_.Predict(x)).AllClose(*session->RunSingle(x), 1e-4f));
}

TEST_F(HospitalFixture, NnTranslationForestAndMlp) {
  auto forest_pipeline = *data::TrainHospitalForest(data_, 5, 5);
  nnrt::Graph fg = *PipelineToNnGraph(forest_pipeline);
  auto fs = std::move(nnrt::InferenceSession::Create(fg)).value();
  Tensor x = *data_.joined.ToTensor(forest_pipeline.input_columns);
  EXPECT_TRUE(
      (*forest_pipeline.Predict(x)).AllClose(*fs->RunSingle(x), 1e-3f));

  auto mlp_pipeline = *data::TrainHospitalMlp(data_);
  nnrt::Graph mg = *PipelineToNnGraph(mlp_pipeline);
  auto ms = std::move(nnrt::InferenceSession::Create(mg)).value();
  EXPECT_TRUE((*mlp_pipeline.Predict(x)).AllClose(*ms->RunSingle(x), 1e-3f));
}

TEST_F(HospitalFixture, ModelQuerySplittingProducesUnion) {
  frontend::StaticAnalyzer analyzer(&catalog_);
  auto plan = std::move(analyzer.Analyze(
      "SELECT id, pred FROM PREDICT(MODEL='los', DATA=patients) "
      "WITH(pred float)")).value();
  IrPlan reference = plan.Clone();
  auto fired = *ApplyModelQuerySplitting(&plan.mutable_root());
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(plan.CountKind(IrOpKind::kUnionAll), 1u);
  EXPECT_EQ(plan.CountKind(IrOpKind::kModelPipeline), 2u);
  ASSERT_TRUE(plan.Validate(catalog_).ok());
  // Semantics preserved modulo row order: compare sorted predictions.
  relational::Table expected = Run(reference);
  relational::Table actual = Run(plan);
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  auto e = (*expected.GetColumn("pred"))->data;
  auto a = (*actual.GetColumn("pred"))->data;
  std::sort(e.begin(), e.end());
  std::sort(a.begin(), a.end());
  for (std::size_t i = 0; i < e.size(); ++i) EXPECT_NEAR(e[i], a[i], 1e-5);
}

TEST(QuerySplittingTest, RowsAtTheSplitScoreAsWithoutSplitting) {
  // Splitting filters each branch by the root split in raw space, and each
  // branch scores with a model pruned to its side. The model featurizes in
  // float32, so a raw value whose featurized form ties the threshold goes
  // left: the raw-space bound must send every such row — and the doubles
  // that round onto it, the IEEE corners and NaN — to the model's branch,
  // or its pruned model scores it as the other side.
  std::mt19937_64 rng(1701);
  std::uniform_real_distribution<double> raw_dist(20.0, 90.0);
  std::vector<float> raw(32);
  for (auto& v : raw) v = static_cast<float>(std::round(raw_dist(rng)));
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {inf, -inf,
                            std::numeric_limits<double>::quiet_NaN()};
  for (const float r : raw) {
    xs.push_back(r);
    xs.push_back(std::nextafter(static_cast<double>(r), inf));
    xs.push_back(std::nextafter(static_cast<double>(r), -inf));
  }
  std::vector<double> ids(xs.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<double>(i);
  relational::Table table;
  ASSERT_TRUE(table.AddNumericColumn("id", ids).ok());
  ASSERT_TRUE(table.AddNumericColumn("x", xs).ok());
  relational::Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("t", std::move(table)).ok());
  nnrt::SessionCache cache(8);
  runtime::PlanExecutor executor(&catalog, &cache);
  // Prediction per id, whatever order the branches emit rows in.
  auto predictions = [&](const IrPlan& plan) {
    auto result = executor.Execute(plan, runtime::ExecutionOptions());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<double> by_id(ids.size(), -1.0);
    if (!result.ok()) return by_id;
    const auto& id = (*result->GetColumn("id"))->data;
    const auto& pred = (*result->GetColumn("pred"))->data;
    EXPECT_EQ(id.size(), ids.size());
    for (std::size_t r = 0; r < id.size(); ++r) {
      by_id[static_cast<std::size_t>(id[r])] = pred[r];
    }
    return by_id;
  };

  const Tensor fit = *Tensor::FromData({32, 1}, raw);
  for (const bool scaled : {false, true}) {
    ml::ModelPipeline pipeline;
    pipeline.input_columns = {"x"};
    ml::FeatureBranch branch;
    branch.input_columns = {0};
    if (scaled) branch.kind = ml::TransformKind::kScaler;
    pipeline.featurizer.AddBranch(std::move(branch));
    ASSERT_TRUE(pipeline.featurizer.Fit(fit).ok());
    const Tensor features = *pipeline.featurizer.Transform(fit);
    for (std::int64_t t = 0; t < features.dim(0); ++t) {
      const float thr = features.raw()[t];
      pipeline.predictor = *ml::DecisionTree::FromArrays(
          1, {0, -1, -1}, {thr, 0.0f, 0.0f}, {1, -1, -1}, {2, -1, -1},
          {0.0f, 1.0f, 2.0f});
      IrPlan plan(IrNode::ModelPipelineNode(
          IrNode::TableScan("t"), "m",
          std::make_shared<ml::ModelPipeline>(pipeline), {"x"}, "pred"));
      const std::vector<double> expected = predictions(plan);
      ASSERT_EQ(*ApplyModelQuerySplitting(&plan.mutable_root()), 1u);
      const std::vector<double> actual = predictions(plan);
      for (std::size_t i = 0; i < xs.size(); ++i) {
        EXPECT_EQ(expected[i], actual[i])
            << (scaled ? "scaled" : "identity") << " thr " << thr << " x "
            << xs[i];
      }
    }
  }
}

TEST(FlightSpecializeTest, ZeroWeightProjectionDropsFeatures) {
  auto data = data::MakeFlightDataset(4000, 22);
  auto pipeline = *data::TrainFlightLogreg(data, 0.02);
  const auto& linear = std::get<ml::LinearModel>(pipeline.predictor);
  ASSERT_GT(linear.Sparsity(), 0.2);
  auto result = *ProjectUnusedFeatures(pipeline);
  ASSERT_TRUE(result.changed);
  EXPECT_LT(result.features_after, result.features_before);
  // Equivalence on fresh data.
  auto fresh = data::MakeFlightDataset(500, 23);
  Tensor x_full = *fresh.flights.ToTensor(pipeline.input_columns);
  Tensor x_kept = *fresh.flights.ToTensor(result.kept_inputs);
  Tensor expected = *pipeline.Predict(x_full);
  Tensor actual = *result.pipeline.Predict(x_kept);
  EXPECT_TRUE(expected.AllClose(actual, 1e-5f));
}

TEST(FlightSpecializeTest, CategoricalPredicateFoldsOneHotBlock) {
  auto data = data::MakeFlightDataset(4000, 24);
  auto pipeline = *data::TrainFlightLogreg(data, 0.0);
  const std::int64_t features_before = pipeline.NumFeatures();
  // dest = code 5 fixes the whole dest one-hot block.
  auto result = *PruneWithPredicates(
      pipeline, {relational::SimplePredicate{
                    "dest", relational::CompareOp::kEq, 5.0}});
  ASSERT_TRUE(result.changed);
  // The dest block (num_airports features) folds into the bias.
  EXPECT_EQ(result.features_after, features_before - data.num_airports);
  // 'dest' no longer a raw input.
  for (const auto& name : result.kept_inputs) EXPECT_NE(name, "dest");
  // Equivalence on rows satisfying the predicate.
  auto fresh = data::MakeFlightDataset(2000, 25);
  Tensor x_full = *fresh.flights.ToTensor(pipeline.input_columns);
  Tensor x_kept = *fresh.flights.ToTensor(result.kept_inputs);
  Tensor expected = *pipeline.Predict(x_full);
  Tensor actual = *result.pipeline.Predict(x_kept);
  const auto dest = fresh.flights.GetColumn("dest");
  for (std::int64_t i = 0; i < x_full.dim(0); ++i) {
    if ((*dest)->data[static_cast<std::size_t>(i)] == 5.0) {
      EXPECT_NEAR(expected.raw()[i], actual.raw()[i], 1e-5f);
    }
  }
}

TEST(SpecializeTest, NoPredicatesNoChange) {
  auto data = data::MakeHospitalDataset(500, 26);
  auto pipeline = *data::TrainHospitalTree(data, 4);
  auto result = *PruneWithPredicates(pipeline, {});
  EXPECT_FALSE(result.changed);
  auto result2 = *PruneWithPredicates(
      pipeline, {relational::SimplePredicate{
                    "not_a_column", relational::CompareOp::kEq, 1.0}});
  EXPECT_FALSE(result2.changed);
}

TEST_F(HospitalFixture, CostModelOrdersPlansSensibly) {
  frontend::StaticAnalyzer analyzer(&catalog_);
  auto plan = std::move(analyzer.Analyze(
      "SELECT id, pred FROM PREDICT(MODEL='los', DATA=patients) "
      "WITH(pred float) WHERE pregnant = 1")).value();
  PlanCost before = *EstimateCost(*plan.root(), catalog_);
  IrPlan optimized = plan.Clone();
  (void)*ApplyPredicatePushdown(&optimized.mutable_root(), catalog_);
  (void)*ApplyPredicateModelPruning(&optimized.mutable_root());
  PlanCost after = *EstimateCost(*optimized.root(), catalog_);
  EXPECT_LT(after.total_cost, before.total_cost);
  EXPECT_GT(before.output_rows, 0.0);
}

TEST_F(HospitalFixture, CrossOptimizerEndToEndRunningExample) {
  CrossOptimizer optimizer(&catalog_, OptimizerOptions());
  IrPlan plan = RunningExamplePlan();
  IrPlan reference = plan.Clone();
  OptimizationReport report;
  ASSERT_TRUE(optimizer.Optimize(&plan, &report).ok());
  EXPECT_GT(report.TotalApplications(), 0u);
  EXPECT_NE(reference.ToString(), plan.ToString());
  // The tree is small: it must be inlined, leaving no model nodes.
  EXPECT_EQ(plan.CountKind(IrOpKind::kModelPipeline), 0u);
  // Semantics preserved end to end.
  relational::Table expected = Run(reference);
  relational::Table actual = Run(plan);
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  const auto& e = (*expected.GetColumn("length_of_stay"))->data;
  const auto& a = (*actual.GetColumn("length_of_stay"))->data;
  for (std::size_t i = 0; i < e.size(); ++i) EXPECT_NEAR(e[i], a[i], 1e-3);
}

TEST_F(HospitalFixture, ClusteringRuleSwapsNode) {
  auto artifact = std::make_shared<ir::ClusteredModel>(*BuildClusteredModel(
      tree_pipeline_, data_.joined, ClusteringOptions{4, 10, 99, {}}));
  CrossOptimizer optimizer(&catalog_, OptimizerOptions());
  optimizer.RegisterClusteredModel("los", artifact);
  frontend::StaticAnalyzer analyzer(&catalog_);
  auto plan = std::move(analyzer.Analyze(
      "SELECT id, pred FROM PREDICT(MODEL='los', DATA=patients) "
      "WITH(pred float)")).value();
  IrPlan reference = plan.Clone();
  ASSERT_TRUE(optimizer.Optimize(&plan).ok());
  EXPECT_EQ(plan.CountKind(IrOpKind::kClusteredPredict), 1u);
  relational::Table expected = Run(reference);
  relational::Table actual = Run(plan);
  EXPECT_EQ((*expected.GetColumn("pred"))->data,
            (*actual.GetColumn("pred"))->data);
}

TEST_F(HospitalFixture, OptionsDisableRules) {
  OptimizerOptions options;
  options.predicate_pushdown = false;
  options.predicate_model_pruning = false;
  options.model_projection_pushdown = false;
  options.projection_pushdown = false;
  options.join_elimination = false;
  options.model_inlining = false;
  options.nn_translation = false;
  CrossOptimizer optimizer(&catalog_, options);
  IrPlan plan = RunningExamplePlan();
  const std::string before = plan.ToString();
  OptimizationReport report;
  ASSERT_TRUE(optimizer.Optimize(&plan, &report).ok());
  EXPECT_EQ(report.TotalApplications(), 0u);
  EXPECT_EQ(plan.ToString(), before);
}

}  // namespace
}  // namespace raven::optimizer

// ---------------------------------------------------------------------------
// Data-property-derived pruning and lossy projection (paper §4.1 variants).
// These live outside the fixture namespace edits above; re-open the
// namespaces.
// ---------------------------------------------------------------------------

namespace raven::optimizer {
namespace {

TEST(DataPropertyPruningTest, StatsDerivePredicates) {
  // Register a table where every patient is over 35 and none are pregnant:
  // the rule must specialize the tree exactly as explicit predicates would.
  auto data = data::MakeHospitalDataset(4000, 31);
  auto pipeline = *data::TrainHospitalTree(data, 8);

  relational::Catalog catalog;
  // Filter the joined table to age > 35, pregnant = 0.
  relational::Table old_only;
  {
    const auto& src = data.joined;
    const auto& age = (*src.GetColumn("age"))->data;
    const auto& pregnant = (*src.GetColumn("pregnant"))->data;
    std::vector<std::int64_t> keep;
    for (std::size_t i = 0; i < age.size(); ++i) {
      if (age[i] > 35.0 && pregnant[i] == 0.0) {
        keep.push_back(static_cast<std::int64_t>(i));
      }
    }
    for (const auto& col : src.columns()) {
      std::vector<double> vals;
      vals.reserve(keep.size());
      for (std::int64_t i : keep) {
        vals.push_back(col.data[static_cast<std::size_t>(i)]);
      }
      ASSERT_TRUE(old_only.AddNumericColumn(col.name, std::move(vals)).ok());
    }
  }
  ASSERT_TRUE(catalog.RegisterTable("patients", old_only).ok());
  ASSERT_TRUE(catalog.InsertModel("los", data::HospitalTreeScript(),
                                  pipeline.ToBytes()).ok());

  frontend::StaticAnalyzer analyzer(&catalog);
  auto plan = std::move(analyzer.Analyze(
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) "
      "WITH(p float)")).value();
  ir::IrPlan reference = plan.Clone();

  const std::int64_t nodes_before =
      std::get<ml::DecisionTree>(pipeline.predictor).num_nodes();
  auto fired = *ApplyDataPropertyPruning(&plan.mutable_root(), catalog);
  EXPECT_EQ(fired, 1u);
  std::int64_t nodes_after = nodes_before;
  ir::VisitIr(plan.root(), [&](const ir::IrNode* node) {
    if (node->kind == ir::IrOpKind::kModelPipeline) {
      nodes_after =
          std::get<ml::DecisionTree>(node->pipeline->predictor).num_nodes();
    }
  });
  EXPECT_LT(nodes_after, nodes_before);

  // Semantics: identical predictions on this table.
  nnrt::SessionCache cache(4);
  runtime::PlanExecutor executor(&catalog, &cache);
  auto expected = *executor.Execute(reference, runtime::ExecutionOptions());
  auto actual = *executor.Execute(plan, runtime::ExecutionOptions());
  EXPECT_EQ((*expected.GetColumn("p"))->data, (*actual.GetColumn("p"))->data);
}

TEST(DataPropertyPruningTest, NoStatsNoChange) {
  // Full-range data: min/max predicates exist but prune nothing... or
  // little; the rule must at minimum keep the plan valid and semantics
  // intact.
  auto data = data::MakeHospitalDataset(2000, 32);
  auto pipeline = *data::TrainHospitalTree(data, 6);
  relational::Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("patients", data.joined).ok());
  ASSERT_TRUE(catalog.InsertModel("los", data::HospitalTreeScript(),
                                  pipeline.ToBytes()).ok());
  frontend::StaticAnalyzer analyzer(&catalog);
  auto plan = std::move(analyzer.Analyze(
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) "
      "WITH(p float)")).value();
  ir::IrPlan reference = plan.Clone();
  (void)*ApplyDataPropertyPruning(&plan.mutable_root(), catalog);
  ASSERT_TRUE(plan.Validate(catalog).ok());
  nnrt::SessionCache cache(4);
  runtime::PlanExecutor executor(&catalog, &cache);
  auto expected = *executor.Execute(reference, runtime::ExecutionOptions());
  auto actual = *executor.Execute(plan, runtime::ExecutionOptions());
  EXPECT_EQ((*expected.GetColumn("p"))->data, (*actual.GetColumn("p"))->data);
}

TEST(LossyProjectionTest, TradesAccuracyForFeatures) {
  auto data = data::MakeFlightDataset(4000, 33);
  auto pipeline = *data::TrainFlightLogreg(data, 0.0);  // dense model
  relational::Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("flights", data.flights).ok());
  ASSERT_TRUE(catalog.InsertModel("delay", data::FlightLogregScript(),
                                  pipeline.ToBytes()).ok());
  frontend::StaticAnalyzer analyzer(&catalog);
  auto plan = std::move(analyzer.Analyze(
      "SELECT id, p FROM PREDICT(MODEL='delay', DATA=flights) "
      "WITH(p float)")).value();
  ir::IrPlan reference = plan.Clone();
  auto fired = *ApplyLossyProjection(&plan.mutable_root(), 0.05);
  EXPECT_EQ(fired, 1u);
  std::int64_t features_after = pipeline.NumFeatures();
  ir::VisitIr(plan.root(), [&](const ir::IrNode* node) {
    if (node->kind == ir::IrOpKind::kModelPipeline) {
      features_after = node->pipeline->NumFeatures();
    }
  });
  EXPECT_LT(features_after, pipeline.NumFeatures());
  // Predictions drift, but stay within a loose bound for small weights.
  nnrt::SessionCache cache(4);
  runtime::PlanExecutor executor(&catalog, &cache);
  auto expected = *executor.Execute(reference, runtime::ExecutionOptions());
  auto actual = *executor.Execute(plan, runtime::ExecutionOptions());
  const auto& e = (*expected.GetColumn("p"))->data;
  const auto& a = (*actual.GetColumn("p"))->data;
  double max_err = 0;
  for (std::size_t i = 0; i < e.size(); ++i) {
    max_err = std::max(max_err, std::abs(e[i] - a[i]));
  }
  EXPECT_GT(max_err, 0.0);   // it IS lossy
  EXPECT_LT(max_err, 0.15);  // but bounded
}

TEST(LossyProjectionTest, ZeroThresholdIsNoop) {
  auto data = data::MakeFlightDataset(500, 34);
  auto pipeline = *data::TrainFlightLogreg(data, 0.0);
  relational::Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("flights", data.flights).ok());
  ASSERT_TRUE(catalog.InsertModel("delay", data::FlightLogregScript(),
                                  pipeline.ToBytes()).ok());
  frontend::StaticAnalyzer analyzer(&catalog);
  auto plan = std::move(analyzer.Analyze(
      "SELECT id FROM PREDICT(MODEL='delay', DATA=flights)")).value();
  EXPECT_EQ(*ApplyLossyProjection(&plan.mutable_root(), 0.0), 0u);
}

TEST(ValueSetRestrictionTest, DropsAbsentOneHotCodes) {
  auto data = data::MakeFlightDataset(3000, 35);
  auto pipeline = *data::TrainFlightLogreg(data, 0.0);
  // Restrict dest (input column 5) to codes {1, 2, 3}.
  auto result = *RestrictToValueSets(pipeline, {{5, {1.0, 2.0, 3.0}}});
  ASSERT_TRUE(result.changed);
  EXPECT_EQ(result.features_after,
            result.features_before - (data.num_airports - 3));
  // Exact agreement on rows whose dest is in the set.
  Tensor x = *data.flights.ToTensor(pipeline.input_columns);
  Tensor expected = *pipeline.Predict(x);
  Tensor actual = *result.pipeline.Predict(x);
  const auto& dest = (*data.flights.GetColumn("dest"))->data;
  for (std::int64_t i = 0; i < x.dim(0); ++i) {
    const double v = dest[static_cast<std::size_t>(i)];
    if (v == 1.0 || v == 2.0 || v == 3.0) {
      EXPECT_NEAR(expected.raw()[i], actual.raw()[i], 1e-5f);
    }
  }
}

TEST(ValueSetRestrictionTest, ClusteringShrinksModels) {
  // With value-set restriction, clustered flight models must have strictly
  // fewer features than the original (each cluster sees a subset of
  // airports), while staying semantically exact via the fallback check.
  auto data = data::MakeFlightDataset(5000, 36);
  auto pipeline = *data::TrainFlightLogreg(data, 0.0);
  ClusteringOptions options;
  options.k = 8;
  auto clustered = *BuildClusteredModel(pipeline, data.flights, options);
  bool any_smaller = false;
  for (const auto& m : clustered.cluster_models) {
    if (m.NumFeatures() < pipeline.NumFeatures()) any_smaller = true;
  }
  EXPECT_TRUE(any_smaller);
  Tensor x = *data.flights.ToTensor(pipeline.input_columns);
  Tensor expected = *pipeline.Predict(x);
  Tensor actual = *clustered.Predict(x);
  EXPECT_TRUE(expected.AllClose(actual, 1e-5f));
}

TEST(ColumnStatsTest, Basics) {
  relational::Column col;
  col.name = "x";
  col.data = {3.0, 1.0, 2.0, 3.0};
  auto stats = relational::ComputeColumnStats(col);
  EXPECT_EQ(stats.min, 1.0);
  EXPECT_EQ(stats.max, 3.0);
  EXPECT_EQ(stats.distinct, 3);
  EXPECT_FALSE(stats.constant.has_value());
  relational::Column constant;
  constant.name = "c";
  constant.data = {7.0, 7.0};
  auto cstats = relational::ComputeColumnStats(constant);
  ASSERT_TRUE(cstats.constant.has_value());
  EXPECT_EQ(*cstats.constant, 7.0);
}

}  // namespace
}  // namespace raven::optimizer
