// End-to-end tests through the public RavenContext API: store models, run
// inference queries, inspect EXPLAIN output, and exercise the governance
// features the paper motivates (transactional model updates, auditing,
// session caching).

#include <gtest/gtest.h>

#include "data/flight.h"
#include "data/hospital.h"
#include "raven/raven.h"
#include "test_util.h"

namespace raven {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = data::MakeHospitalDataset(3000, 61);
    ASSERT_TRUE(ctx_.RegisterTable("patient_info", data_.patient_info).ok());
    ASSERT_TRUE(ctx_.RegisterTable("blood_tests", data_.blood_tests).ok());
    ASSERT_TRUE(
        ctx_.RegisterTable("prenatal_tests", data_.prenatal_tests).ok());
    pipeline_ = *data::TrainHospitalTree(data_, 7);
    ASSERT_TRUE(ctx_.InsertModel("duration_of_stay",
                                 data::HospitalTreeScript(), pipeline_).ok());
  }

  const std::string kRunningExample =
      test_util::RunningExampleSql("duration_of_stay");

  data::HospitalDataset data_;
  RavenContext ctx_;
  ml::ModelPipeline pipeline_;
};

TEST_F(IntegrationTest, RunningExampleEndToEnd) {
  auto result = ctx_.Query(kRunningExample);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.ColumnNames(),
            (std::vector<std::string>{"id", "length_of_stay"}));
  EXPECT_GT(result->table.num_rows(), 0);
  // Every returned row satisfies both predicates by construction: verify
  // against ground truth.
  const auto& ids = (*result->table.GetColumn("id"))->data;
  const auto& preds = (*result->table.GetColumn("length_of_stay"))->data;
  const auto& pregnant = (*data_.joined.GetColumn("pregnant"))->data;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(pregnant[static_cast<std::size_t>(ids[i])], 1.0);
    EXPECT_GT(preds[i], 7.0);
  }
  // Optimizations fired and the report records them.
  EXPECT_GT(result->optimization.TotalApplications(), 0u);
  EXPECT_FALSE(result->GeneratedSql().empty());
  EXPECT_GT(result->total_millis, 0.0);
}

TEST_F(IntegrationTest, GeneratedSqlRendersTheExecutedPlanOnDemand) {
  auto result = ctx_.Query(kRunningExample);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto prepared = ctx_.Prepare(kRunningExample);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(result->plan.ToString(), prepared->ToString());
  EXPECT_EQ(result->GeneratedSql(), runtime::GenerateSql(*prepared->root()));
  EXPECT_EQ(QueryResult().GeneratedSql(), "");
}

TEST_F(IntegrationTest, ResultsMatchDirectPipelineEvaluation) {
  auto result = ctx_.Query(
      "WITH data AS (SELECT * FROM patient_info "
      "  JOIN blood_tests ON id = id JOIN prenatal_tests ON id = id) "
      "SELECT id, p FROM PREDICT(MODEL='duration_of_stay', DATA=data) "
      "WITH(p float)");
  ASSERT_TRUE(result.ok());
  Tensor x = *data_.joined.ToTensor(pipeline_.input_columns);
  Tensor expected = *pipeline_.Predict(x);
  const auto& actual = (*result->table.GetColumn("p"))->data;
  ASSERT_EQ(static_cast<std::int64_t>(actual.size()), expected.dim(0));
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected.raw()[static_cast<std::int64_t>(i)],
                2e-3);
  }
}

TEST_F(IntegrationTest, ExplainShowsPlansAndRules) {
  auto explain = ctx_.Explain(kRunningExample);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("Unified IR"), std::string::npos);
  EXPECT_NE(explain->find("Optimized IR"), std::string::npos);
  EXPECT_NE(explain->find("predicate_model_pruning"), std::string::npos);
  EXPECT_NE(explain->find("Generated SQL"), std::string::npos);
}

TEST_F(IntegrationTest, GroupedInferenceQueryEndToEnd) {
  // The paper's signature grouped shape through the public API, in
  // parallel: per-group PREDICT score distribution, HAVING cut, sorted by
  // score descending.
  ctx_.execution_options().parallelism = 8;
  auto result = ctx_.Query(
      "WITH data AS (SELECT * FROM patient_info "
      "  JOIN blood_tests ON id = id JOIN prenatal_tests ON id = id) "
      "SELECT pregnant, AVG(p) AS mean_los, COUNT(*) AS n "
      "FROM PREDICT(MODEL='duration_of_stay', DATA=data) WITH(p float) "
      "GROUP BY pregnant HAVING COUNT(*) > 5 ORDER BY 2 DESC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.ColumnNames(),
            (std::vector<std::string>{"pregnant", "mean_los", "n"}));
  ASSERT_EQ(result->table.num_rows(), 2);  // pregnant in {0, 1}
  const auto& means = (*result->table.GetColumn("mean_los"))->data;
  EXPECT_GE(means[0], means[1]);  // ORDER BY 2 DESC
  EXPECT_EQ(result->execution.partitions_used, 8);
}

TEST_F(IntegrationTest, ExplainShowsParallelCostRowsForGroupByAndOrderBy) {
  ctx_.execution_options().parallelism = 8;
  auto explain = ctx_.Explain(
      "WITH data AS (SELECT * FROM patient_info "
      "  JOIN blood_tests ON id = id JOIN prenatal_tests ON id = id) "
      "SELECT pregnant, AVG(p) AS mean_los "
      "FROM PREDICT(MODEL='duration_of_stay', DATA=data) WITH(p float) "
      "GROUP BY pregnant ORDER BY 2 DESC");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  // Parallelism-aware cost rows for every operator, the new ones included.
  EXPECT_NE(explain->find("parallel(dop=8)"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("operators (subtree totals):"), std::string::npos);
  EXPECT_NE(explain->find("GroupBy rows="), std::string::npos) << *explain;
  EXPECT_NE(explain->find("OrderBy rows="), std::string::npos) << *explain;
  EXPECT_NE(explain->find("par(dop=8)="), std::string::npos) << *explain;
  // The optimized plan keeps the grouped shape in the printed IR.
  EXPECT_NE(explain->find("GroupBy [RA] keys=[pregnant]"), std::string::npos)
      << *explain;
}

TEST_F(IntegrationTest, TransactionalModelUpdateChangesResults) {
  const std::string sql =
      "WITH data AS (SELECT * FROM patient_info "
      "  JOIN blood_tests ON id = id JOIN prenatal_tests ON id = id) "
      "SELECT p FROM PREDICT(MODEL='duration_of_stay', DATA=data) "
      "WITH(p float) LIMIT 10";
  auto before = ctx_.Query(sql);
  ASSERT_TRUE(before.ok());
  // Deploy a retrained (shallower) model under the same name.
  auto v2 = *data::TrainHospitalTree(data_, 2);
  ASSERT_TRUE(
      ctx_.UpdateModel("duration_of_stay", data::HospitalTreeScript(), v2)
          .ok());
  auto after = ctx_.Query(sql);
  ASSERT_TRUE(after.ok());
  EXPECT_NE((*before->table.GetColumn("p"))->data,
            (*after->table.GetColumn("p"))->data);
  // Audit trail recorded both operations.
  ASSERT_GE(ctx_.catalog().AuditLog().size(), 2u);
  EXPECT_NE(ctx_.catalog().AuditLog().back().find("UPDATE"),
            std::string::npos);
}

constexpr const char* kForestSql =
    "WITH data AS (SELECT * FROM patient_info "
    "  JOIN blood_tests ON id = id JOIN prenatal_tests ON id = id) "
    "SELECT id, p FROM PREDICT(MODEL='los_rf', DATA=data) WITH(p float) "
    "WHERE pregnant = 1";

/// Times `rule` fired while optimizing `result`'s statement.
std::size_t Fired(const QueryResult& result, const std::string& rule) {
  std::size_t total = 0;
  for (const auto& [name, fired] : result.optimization.rule_applications) {
    if (name == rule) total += fired;
  }
  return total;
}

TEST_F(IntegrationTest, ForestQueryViaNnTranslation) {
  // With inlining off, the forest goes through NN translation to NNRT.
  ctx_.optimizer_options().model_inlining = false;
  auto forest = *data::TrainHospitalForest(data_, 6, 6);
  ASSERT_TRUE(
      ctx_.InsertModel("los_rf", data::HospitalForestScript(), forest).ok());
  auto result = ctx_.Query(kForestSql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(Fired(*result, "nn_translation"), 0u);
  EXPECT_GT(result->execution.nn_wall_micros, 0.0);
}

TEST_F(IntegrationTest, ForestQueryInlined) {
  // By default the forest is inlined: per-tree CASE walks averaged in SQL,
  // no NNRT call, and the same rows as the NNRT path within float32
  // rounding.
  auto forest = *data::TrainHospitalForest(data_, 6, 6);
  ASSERT_TRUE(
      ctx_.InsertModel("los_rf", data::HospitalForestScript(), forest).ok());
  auto inlined = ctx_.Query(kForestSql);
  ASSERT_TRUE(inlined.ok()) << inlined.status().ToString();
  EXPECT_EQ(Fired(*inlined, "model_inlining"), 1u);
  EXPECT_EQ(Fired(*inlined, "nn_translation"), 0u);
  EXPECT_EQ(inlined->execution.nn_wall_micros, 0.0);
  const std::string sql = inlined->GeneratedSql();
  EXPECT_NE(sql.find(" / 6) AS p"), std::string::npos) << sql.substr(0, 400);

  ctx_.optimizer_options().model_inlining = false;
  auto translated = ctx_.Query(kForestSql);
  ASSERT_TRUE(translated.ok()) << translated.status().ToString();
  const auto& ids_a = (*inlined->table.GetColumn("id"))->data;
  const auto& ids_b = (*translated->table.GetColumn("id"))->data;
  const auto& p_a = (*inlined->table.GetColumn("p"))->data;
  const auto& p_b = (*translated->table.GetColumn("p"))->data;
  ASSERT_EQ(ids_a, ids_b);
  ASSERT_FALSE(ids_a.empty());
  for (std::size_t i = 0; i < p_a.size(); ++i) {
    EXPECT_NEAR(p_a[i], p_b[i], 1e-3) << "row " << i;
  }
}

TEST_F(IntegrationTest, FlightCategoricalPredicateQuery) {
  auto flight_data = data::MakeFlightDataset(4000, 62);
  ASSERT_TRUE(ctx_.RegisterTable("flights", flight_data.flights).ok());
  auto logreg = *data::TrainFlightLogreg(flight_data, 0.01);
  ASSERT_TRUE(
      ctx_.InsertModel("delay", data::FlightLogregScript(), logreg).ok());
  auto result = ctx_.Query(
      "SELECT id, p FROM PREDICT(MODEL='delay', DATA=flights) WITH(p float) "
      "WHERE dest = 'AP7' AND p > 0.5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& ids = (*result->table.GetColumn("id"))->data;
  const auto& dest = (*flight_data.flights.GetColumn("dest"))->data;
  for (double id : ids) {
    EXPECT_EQ(dest[static_cast<std::size_t>(id)], 7.0);  // 'AP7' is code 7
  }
}

TEST_F(IntegrationTest, SessionCacheHitsAcrossQueries) {
  // Force the NNRT path (disable inlining) and repeat a query: the second
  // run must reuse the cached inference session (paper §5 observation ii).
  ctx_.optimizer_options().model_inlining = false;
  const std::string sql =
      "WITH data AS (SELECT * FROM patient_info "
      "  JOIN blood_tests ON id = id JOIN prenatal_tests ON id = id) "
      "SELECT p FROM PREDICT(MODEL='duration_of_stay', DATA=data) "
      "WITH(p float) LIMIT 5";
  ASSERT_TRUE(ctx_.Query(sql).ok());
  const auto hits_before = ctx_.session_cache().hits();
  ASSERT_TRUE(ctx_.Query(sql).ok());
  EXPECT_GT(ctx_.session_cache().hits(), hits_before);
}

TEST_F(IntegrationTest, QueryErrorsSurfaceCleanly) {
  EXPECT_FALSE(ctx_.Query("SELECT * FROM nope").ok());
  EXPECT_FALSE(
      ctx_.Query("SELECT * FROM PREDICT(MODEL='missing', DATA=patient_info)")
          .ok());
  EXPECT_FALSE(ctx_.Query("COMPLETELY INVALID").ok());
}

TEST_F(IntegrationTest, ClusteredModelEndToEnd) {
  auto flight_data = data::MakeFlightDataset(3000, 63);
  ASSERT_TRUE(ctx_.RegisterTable("flights2", flight_data.flights).ok());
  auto logreg = *data::TrainFlightLogreg(flight_data, 0.0);
  ASSERT_TRUE(
      ctx_.InsertModel("delay2", data::FlightLogregScript(), logreg).ok());
  const std::string sql =
      "SELECT id, p FROM PREDICT(MODEL='delay2', DATA=flights2) "
      "WITH(p float)";
  auto reference = ctx_.Query(sql);
  ASSERT_TRUE(reference.ok());
  optimizer::ClusteringOptions options;
  options.k = 6;
  ASSERT_TRUE(ctx_.BuildClusteredModel("delay2", "flights2", options).ok());
  auto clustered = ctx_.Query(sql);
  ASSERT_TRUE(clustered.ok());
  bool used_clustering = false;
  for (const auto& [rule, fired] : clustered->optimization.rule_applications) {
    if (rule == "model_clustering" && fired > 0) used_clustering = true;
  }
  EXPECT_TRUE(used_clustering);
  const auto& e = (*reference->table.GetColumn("p"))->data;
  const auto& a = (*clustered->table.GetColumn("p"))->data;
  ASSERT_EQ(e.size(), a.size());
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_NEAR(e[i], a[i], 2e-3) << "row " << i;
  }
}

TEST_F(IntegrationTest, ParallelExecutionOption) {
  ctx_.execution_options().parallelism = 4;
  auto result = ctx_.Query(
      "SELECT id, p FROM "
      "PREDICT(MODEL='duration_of_stay', DATA=patient_info_joined_missing)");
  EXPECT_FALSE(result.ok());  // bad table still errors cleanly

  // Single-table parallel predict works and matches sequential.
  ASSERT_TRUE(ctx_.RegisterTable("patients", data_.joined).ok());
  const std::string sql =
      "SELECT id, p FROM PREDICT(MODEL='duration_of_stay', DATA=patients) "
      "WITH(p float)";
  auto parallel = ctx_.Query(sql);
  ASSERT_TRUE(parallel.ok());
  ctx_.execution_options().parallelism = 1;
  auto sequential = ctx_.Query(sql);
  ASSERT_TRUE(sequential.ok());
  EXPECT_EQ((*parallel->table.GetColumn("p"))->data,
            (*sequential->table.GetColumn("p"))->data);
}

}  // namespace
}  // namespace raven
