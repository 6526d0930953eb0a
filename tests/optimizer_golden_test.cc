// Plan-shape golden tests for the optimizer rule chain. These pin the
// *structure* (operator kinds and nesting, via test_util::PlanShape) of the
// canonical Raven plans after each stage of the chain the paper describes:
// relational pushdowns -> model specialization (clustering) -> representation
// choice (inlining). Future rule edits that reorder or restructure the
// canonical plans must update these snapshots consciously.

#include <gtest/gtest.h>

#include "data/flight.h"
#include "data/hospital.h"
#include "ir/clustered_model.h"
#include "optimizer/converters.h"
#include "optimizer/cost_model.h"
#include "optimizer/cross_optimizer.h"
#include "optimizer/rules.h"
#include "optimizer/specialize.h"
#include "test_util.h"

namespace raven::optimizer {
namespace {

class GoldenFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = data::MakeHospitalDataset(2000, 91);
    ASSERT_NO_FATAL_FAILURE(test_util::RegisterHospitalTables(&catalog_, data_));
    pipeline_ = test_util::InsertHospitalTreeModel(&catalog_, data_, 6);
    ASSERT_FALSE(HasFailure()) << "fixture setup failed";
  }

  ir::IrPlan RunningExamplePlan() {
    return test_util::AnalyzePlan(catalog_, test_util::RunningExampleSql());
  }

  std::shared_ptr<ir::ClusteredModel> ClusteredArtifact(std::int64_t k) {
    ClusteringOptions options;
    options.k = k;
    auto clustered = BuildClusteredModel(pipeline_, data_.joined, options);
    if (!clustered.ok()) {
      ADD_FAILURE() << "BuildClusteredModel: " << clustered.status().ToString();
      return nullptr;
    }
    return std::make_shared<ir::ClusteredModel>(std::move(clustered).value());
  }

  data::HospitalDataset data_;
  relational::Catalog catalog_;
  ml::ModelPipeline pipeline_;
};

// The analyzer's canonical (unoptimized) running-example plan.
TEST_F(GoldenFixture, AnalyzerShape) {
  ir::IrPlan plan = RunningExamplePlan();
  EXPECT_PLAN_SHAPE(
      plan,
      "Project(Filter(ModelPipeline(Join(Join(TableScan, TableScan), TableScan))))");
}

// Stage 1: relational pushdowns (predicate, then projection).
TEST_F(GoldenFixture, AfterPushdownsShape) {
  ir::IrPlan plan = RunningExamplePlan();
  ASSERT_TRUE(ApplyPredicatePushdown(&plan.mutable_root(), catalog_).ok());
  ASSERT_TRUE(ApplyProjectionPushdown(&plan.mutable_root(), catalog_).ok());
  ASSERT_TRUE(plan.Validate(catalog_).ok());
  EXPECT_PLAN_SHAPE(
      plan,
      "Project(Filter(ModelPipeline(Join(Join(Filter(TableScan), TableScan), "
      "Project(TableScan)))))");
}

// Stage 2: model clustering swaps the pipeline node for the precompiled
// per-cluster artifact.
TEST_F(GoldenFixture, AfterClusteringShape) {
  ir::IrPlan plan = RunningExamplePlan();
  ASSERT_TRUE(ApplyPredicatePushdown(&plan.mutable_root(), catalog_).ok());
  ASSERT_TRUE(ApplyProjectionPushdown(&plan.mutable_root(), catalog_).ok());
  std::map<std::string, std::shared_ptr<ir::ClusteredModel>> artifacts;
  auto artifact = ClusteredArtifact(3);
  ASSERT_NE(artifact, nullptr);
  artifacts["los"] = std::move(artifact);
  auto fired = ApplyModelClustering(&plan.mutable_root(), artifacts);
  ASSERT_TRUE(fired.ok()) << fired.status().ToString();
  EXPECT_EQ(*fired, 1u);
  ASSERT_TRUE(plan.Validate(catalog_).ok());
  EXPECT_PLAN_SHAPE(
      plan,
      "Project(Filter(ClusteredPredict(Join(Join(Filter(TableScan), TableScan), "
      "Project(TableScan)))))");
}

// Stage 3: model inlining turns the (small) tree into relational CASE
// expressions, erasing the model node entirely.
TEST_F(GoldenFixture, AfterInliningShape) {
  ir::IrPlan plan = RunningExamplePlan();
  ASSERT_TRUE(ApplyPredicatePushdown(&plan.mutable_root(), catalog_).ok());
  ASSERT_TRUE(ApplyProjectionPushdown(&plan.mutable_root(), catalog_).ok());
  auto fired = ApplyModelInlining(&plan.mutable_root(), catalog_, 100000);
  ASSERT_TRUE(fired.ok()) << fired.status().ToString();
  EXPECT_EQ(*fired, 1u);
  ASSERT_TRUE(plan.Validate(catalog_).ok());
  EXPECT_PLAN_SHAPE(
      plan,
      "Project(Filter(Project(Join(Join(Filter(TableScan), TableScan), "
      "Project(TableScan)))))");
}

// The full CrossOptimizer over the same plan with a clustering artifact
// registered: the end-to-end canonical shape, plus the rule-application
// order recorded in the report.
TEST_F(GoldenFixture, FullChainShapeAndRuleOrder) {
  OptimizerOptions options;
  CrossOptimizer optimizer(&catalog_, options);
  auto artifact = ClusteredArtifact(3);
  ASSERT_NE(artifact, nullptr);
  optimizer.RegisterClusteredModel("los", std::move(artifact));
  ir::IrPlan plan = RunningExamplePlan();
  OptimizationReport report;
  ASSERT_TRUE(optimizer.Optimize(&plan, &report).ok());
  ASSERT_TRUE(plan.Validate(catalog_).ok());
  // Join elimination's walk already narrowed the prenatal_tests scan, so
  // projection pushdown finds nothing left to do (it no longer stacks an
  // identical column selection on top).
  EXPECT_PLAN_SHAPE(
      plan,
      "Project(Filter(ClusteredPredict(Join(Join(Filter(TableScan), TableScan), "
      "Project(TableScan)))))");
  // Rule order is part of the golden contract (paper §4.3 fixed order).
  std::vector<std::string> fired;
  for (const auto& [rule, count] : report.rule_applications) {
    if (count > 0) fired.push_back(rule);
  }
  EXPECT_EQ(fired, (std::vector<std::string>{"predicate_pushdown", "model_clustering",
                                     "join_elimination"}));
}

// GROUP BY / HAVING / ORDER BY goldens: the analyzer's canonical grouped
// shapes and their path through the optimizer chain.

// HAVING over a group key is pulled below the GroupBy (HAVING -> WHERE),
// while HAVING over an aggregate output must stay above it.
TEST_F(GoldenFixture, HavingOnKeyPullsBelowGroupByShape) {
  ir::IrPlan plan = test_util::AnalyzePlan(
      catalog_,
      "SELECT pregnant, COUNT(*) AS n FROM patients "
      "GROUP BY pregnant HAVING pregnant = 1");
  EXPECT_PLAN_SHAPE(plan, "Project(Filter(GroupBy(TableScan)))");
  ASSERT_TRUE(ApplyPredicatePushdown(&plan.mutable_root(), catalog_).ok());
  ASSERT_TRUE(plan.Validate(catalog_).ok());
  EXPECT_PLAN_SHAPE(plan, "Project(GroupBy(Filter(TableScan)))");

  ir::IrPlan agg_having = test_util::AnalyzePlan(
      catalog_,
      "SELECT pregnant, AVG(bp) AS mean_bp FROM patients "
      "GROUP BY pregnant HAVING AVG(bp) > 100");
  ASSERT_TRUE(
      ApplyPredicatePushdown(&agg_having.mutable_root(), catalog_).ok());
  ASSERT_TRUE(agg_having.Validate(catalog_).ok());
  EXPECT_PLAN_SHAPE(agg_having, "Project(Filter(GroupBy(TableScan)))");
}

// Projection pushdown narrows the grouped subtree to keys + aggregated
// columns.
TEST_F(GoldenFixture, GroupByProjectionPushdownShape) {
  ir::IrPlan plan = test_util::AnalyzePlan(
      catalog_,
      "SELECT pregnant, AVG(bp) AS mean_bp FROM patients GROUP BY pregnant");
  EXPECT_PLAN_SHAPE(plan, "Project(GroupBy(TableScan))");
  ASSERT_TRUE(ApplyProjectionPushdown(&plan.mutable_root(), catalog_).ok());
  ASSERT_TRUE(plan.Validate(catalog_).ok());
  // The select list is exactly the GroupBy's output, so it goes away.
  EXPECT_PLAN_SHAPE(plan, "GroupBy(Project(TableScan))");
}

// The paper's signature grouped-inference query (per-group PREDICT score
// distribution with HAVING cut and descending sort) through the full
// CrossOptimizer chain, with the rule-firing order pinned.
TEST_F(GoldenFixture, GroupByOverPredictFullChainShapeAndRuleOrder) {
  OptimizerOptions options;
  CrossOptimizer optimizer(&catalog_, options);
  ir::IrPlan plan = test_util::AnalyzePlan(
      catalog_,
      "SELECT pregnant, AVG(p) AS mean_pred, COUNT(*) AS n "
      "FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
      "WHERE bp > 100 "
      "GROUP BY pregnant HAVING AVG(p) > 0.4 ORDER BY 2 DESC");
  EXPECT_PLAN_SHAPE(
      plan,
      "OrderBy(Project(Filter(GroupBy(Filter(ModelPipeline(TableScan))))))");
  OptimizationReport report;
  ASSERT_TRUE(optimizer.Optimize(&plan, &report).ok());
  ASSERT_TRUE(plan.Validate(catalog_).ok());
  // WHERE bp > 100 sank below PREDICT (feeding predicate-based model
  // pruning); the small tree then inlined into a CASE projection; the
  // HAVING filter (aggregate output) stays above the GroupBy. The GroupBy
  // reads only pregnant and p, so the CASE projection narrows to those two
  // and the scan gets a selection of the tree's columns; the final
  // predicate pushdown sinks bp > 100 below that selection, next to the
  // scan. The select list is exactly the HAVING filter's columns, so it
  // goes away.
  EXPECT_PLAN_SHAPE(
      plan, "OrderBy(Filter(GroupBy(Project(Project(Filter(TableScan))))))");
  std::vector<std::string> fired;
  for (const auto& [rule, count] : report.rule_applications) {
    if (count > 0) fired.push_back(rule);
  }
  EXPECT_EQ(fired,
            (std::vector<std::string>{"predicate_pushdown",
                                      "predicate_model_pruning",
                                      "model_inlining", "join_elimination",
                                      "predicate_pushdown(final)"}));
  // Parallelism-aware costing is reported for every operator of the plan,
  // GroupBy and OrderBy included.
  bool saw_group = false;
  bool saw_order = false;
  const auto rows =
      EstimateOperatorCosts(*plan.root(), catalog_, options.target_parallelism);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  for (const auto& row : *rows) {
    const std::string op = ir::IrOpKindToString(row.node->kind);
    if (op == "GroupBy") saw_group = true;
    if (op == "OrderBy") saw_order = true;
    EXPECT_GT(row.sequential_cost, 0.0) << op;
  }
  EXPECT_TRUE(saw_group);
  EXPECT_TRUE(saw_order);
}

// The flight-delay workload (paper Fig 2(a)): single-table logreg query.
// Pins both the nested shape and the preorder kind sequence after the full
// chain, which exercises model-projection pushdown instead of clustering.
TEST(FlightGolden, LogregQueryFullChain) {
  auto data = data::MakeFlightDataset(2000, 92);
  relational::Catalog catalog;
  ASSERT_NO_FATAL_FAILURE(test_util::RegisterFlightTable(&catalog, data));
  auto trained = data::TrainFlightLogreg(data, 0.01);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  ASSERT_TRUE(catalog
                  .InsertModel("delay", data::FlightLogregScript(),
                               trained->ToBytes())
                  .ok());
  ir::IrPlan plan = test_util::AnalyzePlan(
      catalog,
      "SELECT id, p FROM PREDICT(MODEL='delay', DATA=flights) WITH(p float) "
      "WHERE p > 0.4");
  EXPECT_PLAN_SHAPE(plan, "Project(Filter(ModelPipeline(TableScan)))");

  OptimizerOptions options;
  CrossOptimizer optimizer(&catalog, options);
  ASSERT_TRUE(optimizer.Optimize(&plan).ok());
  ASSERT_TRUE(plan.Validate(catalog).ok());
  EXPECT_PLAN_SHAPE(plan, "Project(Filter(NnGraph(Project(TableScan))))");
  EXPECT_EQ(test_util::KindSequence(plan),
            (std::vector<std::string>{"Project", "Filter", "NnGraph", "Project",
                                     "TableScan"}));
}

}  // namespace
}  // namespace raven::optimizer
