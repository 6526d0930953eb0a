#include <gtest/gtest.h>

#include "data/flight.h"
#include "data/hospital.h"
#include "frontend/analyzer.h"
#include "frontend/pipeline_parser.h"
#include "frontend/sql_parser.h"
#include "ir/ir.h"
#include "test_util.h"

namespace raven::frontend {
namespace {

TEST(PipelineParserTest, ParsesSimplePipeline) {
  const std::string script =
      "from sklearn.pipeline import Pipeline\n"
      "from sklearn.tree import DecisionTreeClassifier\n"
      "# a comment\n"
      "model_pipeline = Pipeline([('clf', DecisionTreeClassifier("
      "max_depth=6))])\n";
  PyScript parsed = *ParsePipelineScript(script);
  EXPECT_EQ(parsed.assignments.size(), 1u);
  PipelineSpec spec = *ExtractPipelineSpec(parsed);
  EXPECT_EQ(spec.predictor_callable, "DecisionTreeClassifier");
  EXPECT_EQ(spec.predictor_params.at("max_depth"), 6.0);
  EXPECT_TRUE(spec.branches.empty());
}

TEST(PipelineParserTest, ParsesFeatureUnion) {
  PyScript parsed = *ParsePipelineScript(data::HospitalTreeScript());
  PipelineSpec spec = *ExtractPipelineSpec(parsed);
  ASSERT_EQ(spec.branches.size(), 2u);
  EXPECT_EQ(spec.branches[0].callable, "StandardScaler");
  EXPECT_EQ(spec.branches[0].columns.front(), "age");
  EXPECT_EQ(spec.branches[1].callable, "OneHotEncoder");
  EXPECT_EQ(spec.predictor_callable, "DecisionTreeRegressor");
}

TEST(PipelineParserTest, VariableAliasResolved) {
  const std::string script =
      "clf = Pipeline([('m', LinearRegression())])\n"
      "model_pipeline = clf\n";
  PyScript parsed = *ParsePipelineScript(script);
  PipelineSpec spec = *ExtractPipelineSpec(parsed);
  EXPECT_EQ(spec.predictor_callable, "LinearRegression");
}

TEST(PipelineParserTest, ControlFlowRejected) {
  const std::string script =
      "for i in range(10):\n"
      "    train(i)\n";
  auto result = ParsePipelineScript(script);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("control-flow"),
            std::string::npos);
}

TEST(PipelineParserTest, UnknownEstimatorRejected) {
  const std::string script =
      "model_pipeline = Pipeline([('clf', XGBoostMagicClassifier())])\n";
  PyScript parsed = *ParsePipelineScript(script);
  auto spec = ExtractPipelineSpec(parsed);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("XGBoostMagicClassifier"),
            std::string::npos);
}

TEST(PipelineParserTest, UnterminatedStringIsParseError) {
  EXPECT_FALSE(ParsePipelineScript("x = 'oops\n").ok());
}

TEST(PipelineParserTest, NoPipelineFound) {
  PyScript parsed = *ParsePipelineScript("x = 5\n");
  EXPECT_FALSE(ExtractPipelineSpec(parsed).ok());
}

TEST(PipelineParserTest, KnowledgeBase) {
  EXPECT_TRUE(KnowledgeBaseContains("StandardScaler"));
  EXPECT_TRUE(KnowledgeBaseContains("MLPRegressor"));
  EXPECT_FALSE(KnowledgeBaseContains("TransformerLM"));
}

class SqlParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = data::MakeHospitalDataset(50, 5);
    ASSERT_NO_FATAL_FAILURE(test_util::RegisterHospitalTables(
        &catalog_, data, /*include_joined=*/false));
    model_builder_ = [](const std::string& name, ir::IrNodePtr child,
                        const std::string& out) -> Result<ir::IrNodePtr> {
      // Test double: record the model reference without catalog lookup.
      return ir::IrNode::OpaquePipeline(std::move(child), name, "", "test",
                                        {}, out);
    };
  }

  relational::Catalog catalog_;
  ModelNodeBuilder model_builder_;
};

TEST_F(SqlParserTest, SimpleSelect) {
  auto plan = std::move(ParseInferenceQuery(
      "SELECT id, age FROM patient_info WHERE age > 40", catalog_,
      model_builder_)).value();
  EXPECT_EQ(plan.CountKind(ir::IrOpKind::kProject), 1u);
  EXPECT_EQ(plan.CountKind(ir::IrOpKind::kFilter), 1u);
  EXPECT_TRUE(plan.Validate(catalog_).ok());
}

TEST_F(SqlParserTest, JoinChain) {
  auto plan = std::move(ParseInferenceQuery(
      "SELECT * FROM patient_info AS pi "
      "JOIN blood_tests AS bt ON pi.id = bt.id "
      "JOIN prenatal_tests AS pt ON bt.id = pt.id",
      catalog_, model_builder_)).value();
  EXPECT_EQ(plan.CountKind(ir::IrOpKind::kJoin), 2u);
  EXPECT_EQ(plan.CountKind(ir::IrOpKind::kTableScan), 3u);
}

TEST_F(SqlParserTest, PaperRunningExample) {
  const std::string sql =
      "WITH data AS (SELECT * FROM patient_info AS pi "
      "  JOIN blood_tests AS bt ON pi.id = bt.id "
      "  JOIN prenatal_tests AS pt ON bt.id = pt.id) "
      "SELECT d.id, p.length_of_stay "
      "FROM PREDICT(MODEL='duration_of_stay', DATA=data AS d) "
      "WITH(length_of_stay float) AS p "
      "WHERE d.pregnant = 1 AND p.length_of_stay > 7";
  auto plan = std::move(ParseInferenceQuery(sql, catalog_, model_builder_)).value();
  EXPECT_EQ(plan.CountKind(ir::IrOpKind::kOpaquePipeline), 1u);
  EXPECT_EQ(plan.CountKind(ir::IrOpKind::kJoin), 2u);
  const std::string s = plan.ToString();
  EXPECT_NE(s.find("duration_of_stay"), std::string::npos);
  EXPECT_NE(s.find("length_of_stay"), std::string::npos);
}

TEST_F(SqlParserTest, AtVariableModelReference) {
  auto plan = std::move(ParseInferenceQuery(
      "SELECT * FROM PREDICT(MODEL=@my_model, DATA=patient_info)", catalog_,
      model_builder_)).value();
  bool found = false;
  ir::VisitIr(plan.root(), [&](const ir::IrNode* node) {
    if (node->kind == ir::IrOpKind::kOpaquePipeline) {
      EXPECT_EQ(node->model_name, "my_model");
      found = true;
    }
  });
  EXPECT_TRUE(found);
}

TEST_F(SqlParserTest, StringLiteralResolvesAgainstDictionary) {
  auto plan = std::move(ParseInferenceQuery(
      "SELECT id FROM patient_info WHERE gender = 'F'", catalog_,
      model_builder_)).value();
  // 'F' is code 0 in the gender dictionary.
  bool found = false;
  ir::VisitIr(plan.root(), [&](const ir::IrNode* node) {
    if (node->kind == ir::IrOpKind::kFilter) {
      EXPECT_NE(node->predicate->ToString().find("(gender = 0)"),
                std::string::npos);
      found = true;
    }
  });
  EXPECT_TRUE(found);
}

TEST_F(SqlParserTest, UnknownStringValueIsError) {
  auto result = ParseInferenceQuery(
      "SELECT id FROM patient_info WHERE gender = 'X'", catalog_,
      model_builder_);
  EXPECT_FALSE(result.ok());
}

TEST_F(SqlParserTest, ErrorsOnBadSyntax) {
  EXPECT_FALSE(
      ParseInferenceQuery("SELECT FROM x", catalog_, model_builder_).ok());
  EXPECT_FALSE(ParseInferenceQuery("SELECT * FROM missing_table", catalog_,
                                   model_builder_)
                   .ok());
  EXPECT_FALSE(ParseInferenceQuery("SELECT * FROM patient_info trailing junk(",
                                   catalog_, model_builder_)
                   .ok());
  EXPECT_FALSE(ParseInferenceQuery(
                   "SELECT * FROM PREDICT(MODEL=42, DATA=patient_info)",
                   catalog_, model_builder_)
                   .ok());
}

TEST_F(SqlParserTest, LimitAndIn) {
  auto plan = std::move(ParseInferenceQuery(
      "SELECT id FROM patient_info WHERE pregnant IN (1) LIMIT 3", catalog_,
      model_builder_)).value();
  EXPECT_EQ(plan.CountKind(ir::IrOpKind::kLimit), 1u);
}

TEST_F(SqlParserTest, AggregateSelect) {
  auto plan = std::move(ParseInferenceQuery(
      "SELECT COUNT(*) AS n, AVG(age) AS mean_age, MAX(bp) "
      "FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id "
      "WHERE pregnant = 1",
      catalog_, model_builder_)).value();
  EXPECT_EQ(plan.CountKind(ir::IrOpKind::kAggregate), 1u);
  EXPECT_EQ(plan.CountKind(ir::IrOpKind::kFilter), 1u);
  ASSERT_EQ(plan.root()->kind, ir::IrOpKind::kAggregate);
  const auto& aggs = plan.root()->aggregates;
  ASSERT_EQ(aggs.size(), 3u);
  EXPECT_EQ(aggs[0].func, ir::AggFunc::kCount);
  EXPECT_EQ(aggs[0].output_name, "n");
  EXPECT_EQ(aggs[1].func, ir::AggFunc::kAvg);
  EXPECT_EQ(aggs[1].column, "age");
  EXPECT_EQ(aggs[2].output_name, "max_bp");  // default alias
  EXPECT_TRUE(plan.Validate(catalog_).ok());
  auto schema = *ir::IrPlan::ComputeSchema(*plan.root(), catalog_);
  EXPECT_EQ(schema, (std::vector<std::string>{"n", "mean_age", "max_bp"}));
}

TEST_F(SqlParserTest, AggregateWithLimit) {
  auto plan = std::move(ParseInferenceQuery(
      "SELECT COUNT(*) AS n FROM patient_info LIMIT 1", catalog_,
      model_builder_)).value();
  ASSERT_EQ(plan.root()->kind, ir::IrOpKind::kLimit);
  EXPECT_EQ(plan.root()->children[0]->kind, ir::IrOpKind::kAggregate);
}

TEST_F(SqlParserTest, AggregateErrors) {
  // Mixing aggregates and plain items is rejected (no GROUP BY support).
  EXPECT_FALSE(ParseInferenceQuery("SELECT COUNT(*), id FROM patient_info",
                                   catalog_, model_builder_)
                   .ok());
  // Star is only valid under COUNT.
  EXPECT_FALSE(ParseInferenceQuery("SELECT SUM(*) FROM patient_info",
                                   catalog_, model_builder_)
                   .ok());
  // A column named like an aggregate function still parses as a column
  // when not followed by '('.
  auto plan = ParseInferenceQuery("SELECT count FROM patient_info",
                                  catalog_, model_builder_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->CountKind(ir::IrOpKind::kAggregate), 0u);
}

TEST_F(SqlParserTest, GroupByBasic) {
  auto plan = std::move(ParseInferenceQuery(
      "SELECT pregnant, COUNT(*) AS n, AVG(age) AS mean_age "
      "FROM patient_info GROUP BY pregnant",
      catalog_, model_builder_)).value();
  // Shape: Project (select order/aliases) over GroupBy.
  ASSERT_EQ(plan.root()->kind, ir::IrOpKind::kProject);
  const ir::IrNode* group = plan.root()->children[0].get();
  ASSERT_EQ(group->kind, ir::IrOpKind::kGroupBy);
  EXPECT_EQ(group->group_keys, (std::vector<std::string>{"pregnant"}));
  ASSERT_EQ(group->aggregates.size(), 2u);
  EXPECT_EQ(group->aggregates[0].func, ir::AggFunc::kCount);
  EXPECT_EQ(group->aggregates[1].column, "age");
  EXPECT_TRUE(plan.Validate(catalog_).ok());
  auto schema = *ir::IrPlan::ComputeSchema(*plan.root(), catalog_);
  EXPECT_EQ(schema, (std::vector<std::string>{"pregnant", "n", "mean_age"}));
}

TEST_F(SqlParserTest, GroupByMultiKeySelectOrderPreserved) {
  // Aggregate listed before a key: the projection restores select order.
  auto plan = std::move(ParseInferenceQuery(
      "SELECT MAX(age) AS oldest, gender, pregnant FROM patient_info "
      "GROUP BY gender, pregnant",
      catalog_, model_builder_)).value();
  EXPECT_TRUE(plan.Validate(catalog_).ok());
  auto schema = *ir::IrPlan::ComputeSchema(*plan.root(), catalog_);
  EXPECT_EQ(schema, (std::vector<std::string>{"oldest", "gender", "pregnant"}));
}

TEST_F(SqlParserTest, HavingBecomesFilterAboveGroupBy) {
  auto plan = std::move(ParseInferenceQuery(
      "SELECT pregnant, AVG(age) AS mean_age FROM patient_info "
      "GROUP BY pregnant HAVING AVG(age) > 30 AND COUNT(*) > 2",
      catalog_, model_builder_)).value();
  ASSERT_EQ(plan.root()->kind, ir::IrOpKind::kProject);
  const ir::IrNode* filter = plan.root()->children[0].get();
  ASSERT_EQ(filter->kind, ir::IrOpKind::kFilter);
  // AVG(age) reuses the select item's output; COUNT(*) becomes a hidden
  // aggregate that the projection drops again.
  EXPECT_NE(filter->predicate->ToString().find("mean_age"),
            std::string::npos);
  EXPECT_NE(filter->predicate->ToString().find("count"), std::string::npos);
  const ir::IrNode* group = filter->children[0].get();
  ASSERT_EQ(group->kind, ir::IrOpKind::kGroupBy);
  ASSERT_EQ(group->aggregates.size(), 2u);  // mean_age + hidden count
  EXPECT_TRUE(plan.Validate(catalog_).ok());
  auto schema = *ir::IrPlan::ComputeSchema(*plan.root(), catalog_);
  EXPECT_EQ(schema, (std::vector<std::string>{"pregnant", "mean_age"}));
}

TEST_F(SqlParserTest, GroupByWithoutAggregatesIsDistinct) {
  // SELECT DISTINCT-shaped: keys only, no aggregate items.
  auto plan = std::move(ParseInferenceQuery(
      "SELECT gender, pregnant FROM patient_info GROUP BY gender, pregnant",
      catalog_, model_builder_)).value();
  EXPECT_TRUE(plan.Validate(catalog_).ok()) << plan.ToString();
  EXPECT_EQ(plan.CountKind(ir::IrOpKind::kGroupBy), 1u);
  auto schema = *ir::IrPlan::ComputeSchema(*plan.root(), catalog_);
  EXPECT_EQ(schema, (std::vector<std::string>{"gender", "pregnant"}));
}

TEST_F(SqlParserTest, HavingHiddenAggregateDodgesGroupKeyName) {
  // A group key literally named like a default aggregate output
  // ("count_v") must not collide with the hidden HAVING item.
  relational::Table t;
  ASSERT_TRUE(t.AddNumericColumn("count_v", {1, 1, 2}).ok());
  ASSERT_TRUE(t.AddNumericColumn("v", {10, 20, 30}).ok());
  ASSERT_TRUE(catalog_.RegisterTable("tcol", std::move(t)).ok());
  auto plan = std::move(ParseInferenceQuery(
      "SELECT count_v FROM tcol GROUP BY count_v HAVING COUNT(v) > 1",
      catalog_, model_builder_)).value();
  EXPECT_TRUE(plan.Validate(catalog_).ok()) << plan.ToString();
  // The hidden aggregate got a de-collided name.
  bool found = false;
  ir::VisitIr(plan.root(), [&](const ir::IrNode* node) {
    if (node->kind != ir::IrOpKind::kGroupBy) return;
    ASSERT_EQ(node->aggregates.size(), 1u);
    EXPECT_EQ(node->aggregates[0].output_name, "count_v_2");
    found = true;
  });
  EXPECT_TRUE(found);
}

TEST_F(SqlParserTest, OrderByColumnsAndOrdinals) {
  auto plan = std::move(ParseInferenceQuery(
      "SELECT id, age FROM patient_info ORDER BY age DESC, 1 LIMIT 5",
      catalog_, model_builder_)).value();
  // LIMIT must sit above the sort (top-5 by age), sort above the project.
  ASSERT_EQ(plan.root()->kind, ir::IrOpKind::kLimit);
  const ir::IrNode* order = plan.root()->children[0].get();
  ASSERT_EQ(order->kind, ir::IrOpKind::kOrderBy);
  ASSERT_EQ(order->sort_keys.size(), 2u);
  EXPECT_EQ(order->sort_keys[0].column, "age");
  EXPECT_TRUE(order->sort_keys[0].descending);
  EXPECT_EQ(order->sort_keys[1].column, "id");  // ordinal 1 -> first item
  EXPECT_FALSE(order->sort_keys[1].descending);
  EXPECT_EQ(order->children[0]->kind, ir::IrOpKind::kProject);
  EXPECT_TRUE(plan.Validate(catalog_).ok());
}

TEST_F(SqlParserTest, GroupByOrderByOrdinalOverAggregate) {
  auto plan = std::move(ParseInferenceQuery(
      "SELECT gender, AVG(age) AS mean_age FROM patient_info "
      "GROUP BY gender ORDER BY 2 DESC",
      catalog_, model_builder_)).value();
  ASSERT_EQ(plan.root()->kind, ir::IrOpKind::kOrderBy);
  ASSERT_EQ(plan.root()->sort_keys.size(), 1u);
  EXPECT_EQ(plan.root()->sort_keys[0].column, "mean_age");
  EXPECT_TRUE(plan.root()->sort_keys[0].descending);
  EXPECT_TRUE(plan.Validate(catalog_).ok());
}

TEST_F(SqlParserTest, GroupByErrors) {
  // Non-key plain item.
  EXPECT_FALSE(ParseInferenceQuery(
                   "SELECT age, COUNT(*) FROM patient_info GROUP BY pregnant",
                   catalog_, model_builder_)
                   .ok());
  // SELECT * with GROUP BY.
  EXPECT_FALSE(ParseInferenceQuery(
                   "SELECT * FROM patient_info GROUP BY pregnant", catalog_,
                   model_builder_)
                   .ok());
  // HAVING without GROUP BY.
  EXPECT_FALSE(ParseInferenceQuery(
                   "SELECT COUNT(*) FROM patient_info HAVING COUNT(*) > 1",
                   catalog_, model_builder_)
                   .ok());
  // ORDER BY ordinal out of range / over SELECT *.
  EXPECT_FALSE(ParseInferenceQuery(
                   "SELECT id FROM patient_info ORDER BY 2", catalog_,
                   model_builder_)
                   .ok());
  EXPECT_FALSE(ParseInferenceQuery(
                   "SELECT * FROM patient_info ORDER BY 1", catalog_,
                   model_builder_)
                   .ok());
  // Unknown group key surfaces through Validate.
  auto plan = ParseInferenceQuery(
      "SELECT no_such, COUNT(*) FROM patient_info GROUP BY no_such", catalog_,
      model_builder_);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->Validate(catalog_).ok());
}

TEST_F(SqlParserTest, ParseErrorsReportTokenAndByteOffset) {
  // "WHRE" is a stray identifier where end-of-query (or a clause) should
  // be: the error must name the token and its byte offset.
  const std::string sql = "SELECT id FROM patient_info WHRE age > 40";
  auto result = ParseInferenceQuery(sql, catalog_, model_builder_);
  ASSERT_FALSE(result.ok());
  const std::string message = result.status().message();
  EXPECT_NE(message.find("'WHRE'"), std::string::npos) << message;
  EXPECT_NE(message.find("byte offset " +
                         std::to_string(sql.find("WHRE"))),
            std::string::npos)
      << message;

  // Missing closing parenthesis: the failure point is end-of-input.
  auto eof = ParseInferenceQuery("SELECT id FROM (SELECT id FROM patient_info",
                                 catalog_, model_builder_);
  ASSERT_FALSE(eof.ok());
  EXPECT_NE(eof.status().message().find("<end of input>"), std::string::npos)
      << eof.status().message();
  EXPECT_NE(eof.status().message().find("byte offset"), std::string::npos);

  // Lexer-level error carries an offset too.
  auto lex = ParseInferenceQuery("SELECT id FROM patient_info WHERE age > #",
                                 catalog_, model_builder_);
  ASSERT_FALSE(lex.ok());
  EXPECT_NE(lex.status().message().find("byte offset 40"), std::string::npos)
      << lex.status().message();

  // A numeric literal past DBL_MAX is a ParseError, not a crash.
  auto huge = ParseInferenceQuery(
      "SELECT id FROM patient_info WHERE age > 1" + std::string(320, '0'),
      catalog_, model_builder_);
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.status().message().find("out of range"), std::string::npos)
      << huge.status().message();
  EXPECT_NE(huge.status().message().find("byte offset 40"), std::string::npos)
      << huge.status().message();
}

TEST_F(SqlParserTest, ParameterPlaceholdersNumberedLexically) {
  auto plan = ParseInferenceQuery(
      "SELECT id FROM patient_info WHERE age > ? AND weight < ? + 10",
      catalog_, model_builder_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(ir::PlanParamCount(*plan->root()), 2);
  // Binding replaces every placeholder with its literal; the bound plan
  // carries none.
  auto bound = ir::BindPlanParameters(*plan->root(), {40.0, 90.0});
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(ir::PlanParamCount(**bound), 0);
  bool saw_forty = false;
  ir::VisitIr(bound->get(), [&saw_forty](const ir::IrNode* node) {
    if (node->kind == ir::IrOpKind::kFilter &&
        node->predicate->ToString().find("40") != std::string::npos) {
      saw_forty = true;
    }
  });
  EXPECT_TRUE(saw_forty);
  // Too few values fails fast instead of executing with unbound params.
  EXPECT_FALSE(ir::BindPlanParameters(*plan->root(), {40.0}).ok());
  // Fingerprints: the parameterized template and a bound instance differ.
  EXPECT_NE(ir::PlanFingerprint(*plan->root()),
            ir::PlanFingerprint(**bound));
}

TEST_F(SqlParserTest, FingerprintsSeparateLiteralsThatRenderAlike) {
  // Both predicates render as `(id = 1e+06)`; the fingerprint encodes the
  // exact literal bits, so the two plans still differ.
  auto a = ParseInferenceQuery("SELECT id FROM patient_info WHERE id = 1000001",
                               catalog_, model_builder_);
  auto b = ParseInferenceQuery("SELECT id FROM patient_info WHERE id = 1000002",
                               catalog_, model_builder_);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->ToString(), b->ToString());
  EXPECT_NE(ir::PlanFingerprint(*a->root()), ir::PlanFingerprint(*b->root()));
  // The same statement parsed twice fingerprints equal.
  auto again = ParseInferenceQuery(
      "SELECT id FROM patient_info WHERE id = 1000001", catalog_,
      model_builder_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(ir::PlanFingerprint(*a->root()),
            ir::PlanFingerprint(*again->root()));
}

TEST_F(SqlParserTest, StatementLengthCapIsACleanParseError) {
  std::string sql = "SELECT id FROM patient_info --";
  sql.append(kMaxSqlLength, 'x');
  auto result = ParseInferenceQuery(sql, catalog_, model_builder_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("exceeds"), std::string::npos)
      << result.status().message();
  // One byte under the cap parses (the comment is ignored).
  std::string under = "SELECT id FROM patient_info --";
  under.append(kMaxSqlLength - under.size(), 'x');
  EXPECT_TRUE(ParseInferenceQuery(under, catalog_, model_builder_).ok());
}

TEST_F(SqlParserTest, NestingDepthCapIsACleanParseError) {
  // An attacker-controlled paren tower must not turn recursive descent
  // into a stack overflow: 5000 levels fail with a diagnosable error.
  std::string deep = "SELECT id FROM patient_info WHERE ";
  deep.append(5000, '(');
  deep += "age > 1";
  deep.append(5000, ')');
  auto result = ParseInferenceQuery(deep, catalog_, model_builder_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("nesting depth"),
            std::string::npos)
      << result.status().message();

  // NOT chains recurse through a different path; guard them too.
  std::string nots = "SELECT id FROM patient_info WHERE ";
  for (int i = 0; i < 5000; ++i) nots += "NOT ";
  nots += "age > 1";
  auto not_result = ParseInferenceQuery(nots, catalog_, model_builder_);
  ASSERT_FALSE(not_result.ok());
  EXPECT_EQ(not_result.status().code(), StatusCode::kParseError);

  // Comfortable nesting still parses.
  std::string fine = "SELECT id FROM patient_info WHERE ";
  fine.append(20, '(');
  fine += "age > 1";
  fine.append(20, ')');
  EXPECT_TRUE(ParseInferenceQuery(fine, catalog_, model_builder_).ok());
}

TEST_F(SqlParserTest, NormalizeSqlCanonicalizesSpacingOnly) {
  auto a = NormalizeSql(
      "SELECT   id,age FROM patient_info -- trailing comment\n WHERE age>40");
  auto b = NormalizeSql(
      "SELECT id, age\nFROM patient_info WHERE age > 40");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
  // Identifier case is preserved: `age` and `AGE` are different columns,
  // so conflating them would alias distinct plans in the cache.
  auto lower = NormalizeSql("SELECT age FROM t");
  auto upper = NormalizeSql("SELECT AGE FROM t");
  ASSERT_TRUE(lower.ok());
  ASSERT_TRUE(upper.ok());
  EXPECT_NE(lower.value(), upper.value());
  // String literals keep their quotes (and their case).
  auto quoted = NormalizeSql("SELECT * FROM PREDICT(MODEL='los', DATA=t)");
  ASSERT_TRUE(quoted.ok());
  EXPECT_NE(quoted->find("'los'"), std::string::npos);
  // Text that does not lex does not normalize.
  EXPECT_FALSE(NormalizeSql("SELECT # FROM t").ok());
}

class AnalyzerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = data::MakeHospitalDataset(800, 6);
    ASSERT_TRUE(catalog_.RegisterTable("patients", data_.joined).ok());
    pipeline_ = *data::TrainHospitalTree(data_, 5);
  }

  data::HospitalDataset data_;
  relational::Catalog catalog_;
  ml::ModelPipeline pipeline_;
};

TEST_F(AnalyzerTest, AnalyzableScriptYieldsModelPipelineNode) {
  ASSERT_TRUE(catalog_.InsertModel("los", data::HospitalTreeScript(),
                                   pipeline_.ToBytes()).ok());
  StaticAnalyzer analyzer(&catalog_);
  AnalysisStats stats;
  auto plan = std::move(analyzer.Analyze(
      "SELECT * FROM PREDICT(MODEL='los', DATA=patients) WITH(pred float)",
      &stats)).value();
  EXPECT_EQ(plan.CountKind(ir::IrOpKind::kModelPipeline), 1u);
  EXPECT_EQ(plan.CountKind(ir::IrOpKind::kOpaquePipeline), 0u);
  EXPECT_FALSE(stats.used_udf_fallback);
}

TEST_F(AnalyzerTest, UnanalyzableScriptFallsBackToUdf) {
  const std::string script =
      "import custom_lib\n"
      "model_pipeline = Pipeline([('clf', custom_lib.MagicModel())])\n";
  ASSERT_TRUE(catalog_.InsertModel("magic", script, pipeline_.ToBytes()).ok());
  StaticAnalyzer analyzer(&catalog_);
  AnalysisStats stats;
  auto plan = std::move(analyzer.Analyze(
      "SELECT * FROM PREDICT(MODEL='magic', DATA=patients)", &stats)).value();
  EXPECT_EQ(plan.CountKind(ir::IrOpKind::kOpaquePipeline), 1u);
  EXPECT_TRUE(stats.used_udf_fallback);
  EXPECT_FALSE(stats.fallback_reason.empty());
}

TEST_F(AnalyzerTest, ScriptModelMismatchFallsBack) {
  // Script claims a logistic regression; stored pipeline is a tree.
  ASSERT_TRUE(catalog_.InsertModel("mismatch", data::FlightLogregScript(),
                                   pipeline_.ToBytes()).ok());
  StaticAnalyzer analyzer(&catalog_);
  AnalysisStats stats;
  auto plan = std::move(analyzer.Analyze(
      "SELECT * FROM PREDICT(MODEL='mismatch', DATA=patients)", &stats)).value();
  EXPECT_EQ(plan.CountKind(ir::IrOpKind::kOpaquePipeline), 1u);
  EXPECT_TRUE(stats.used_udf_fallback);
}

TEST_F(AnalyzerTest, MissingModelIsHardError) {
  StaticAnalyzer analyzer(&catalog_);
  EXPECT_FALSE(
      analyzer.Analyze("SELECT * FROM PREDICT(MODEL='nope', DATA=patients)")
          .ok());
}

TEST_F(AnalyzerTest, AnalysisIsFast) {
  // The paper reports <10 ms static analysis; allow generous slack for CI.
  ASSERT_TRUE(catalog_.InsertModel("los", data::HospitalTreeScript(),
                                   pipeline_.ToBytes()).ok());
  StaticAnalyzer analyzer(&catalog_);
  AnalysisStats stats;
  (void)*analyzer.Analyze(
      "SELECT * FROM PREDICT(MODEL='los', DATA=patients)", &stats);
  EXPECT_LT(stats.script_analysis_micros + stats.sql_parse_micros, 100000.0);
}

TEST(SpecMatchTest, ChecksBranchKindsAndColumns) {
  auto data = data::MakeHospitalDataset(300, 7);
  auto pipeline = *data::TrainHospitalTree(data, 4);
  PyScript parsed = *ParsePipelineScript(data::HospitalTreeScript());
  PipelineSpec spec = *ExtractPipelineSpec(parsed);
  EXPECT_TRUE(
      StaticAnalyzer::CheckSpecMatchesPipeline(spec, pipeline).ok());
  // Swap branch callables -> kind mismatch.
  std::swap(spec.branches[0].callable, spec.branches[1].callable);
  EXPECT_FALSE(
      StaticAnalyzer::CheckSpecMatchesPipeline(spec, pipeline).ok());
}

}  // namespace
}  // namespace raven::frontend
