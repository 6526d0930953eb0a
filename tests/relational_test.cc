#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <random>

#include "relational/catalog.h"
#include "relational/csv.h"
#include "relational/expression.h"
#include "relational/operators.h"
#include "relational/statistics.h"
#include "relational/table.h"
#include "test_util.h"

namespace raven::relational {
namespace {

Table MakeTable(std::int64_t n) {
  Table t;
  std::vector<double> id(static_cast<std::size_t>(n));
  std::vector<double> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    id[static_cast<std::size_t>(i)] = static_cast<double>(i);
    v[static_cast<std::size_t>(i)] = static_cast<double>(i % 10);
  }
  (void)t.AddNumericColumn("id", std::move(id));
  (void)t.AddNumericColumn("v", std::move(v));
  return t;
}

/// A program for `expr`, which the caller keeps alive.
SharedProgramPtr Program(const ExprPtr& expr) {
  return std::make_shared<SharedProgram>(expr.get());
}

// One-stage FusedOperator stages: the engine runs a lone filter, projection
// or PREDICT as a FusedOperator of that one stage.
FusedStage FilterStage(const ExprPtr& predicate) {
  FusedStage stage;
  stage.kind = FusedStage::Kind::kFilter;
  stage.predicate = Program(predicate);
  return stage;
}

FusedStage ProjectStage(std::vector<SharedProgramPtr> exprs,
                        std::vector<std::string> names) {
  FusedStage stage;
  stage.kind = FusedStage::Kind::kProject;
  stage.exprs = std::move(exprs);
  stage.names = std::move(names);
  return stage;
}

FusedStage PredictStage(std::vector<std::string> input_columns,
                        std::string output_name, BatchScorer scorer) {
  FusedStage stage;
  stage.kind = FusedStage::Kind::kPredict;
  stage.input_columns = std::move(input_columns);
  stage.output_name = std::move(output_name);
  stage.scorer = std::move(scorer);
  return stage;
}

TEST(TableTest, AddColumnValidations) {
  Table t;
  EXPECT_TRUE(t.AddNumericColumn("a", {1, 2}).ok());
  EXPECT_FALSE(t.AddNumericColumn("a", {3, 4}).ok());  // duplicate
  EXPECT_FALSE(t.AddNumericColumn("b", {1}).ok());     // length mismatch
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.num_columns(), 1);
}

TEST(TableTest, CategoricalDictionary) {
  Table t;
  ASSERT_TRUE(t.AddCategoricalColumn("c", {0, 1, 0}, {"x", "y"}).ok());
  const Column* col = *t.GetColumn("c");
  EXPECT_TRUE(col->is_categorical());
  EXPECT_EQ((*col->dictionary)[1], "y");
  EXPECT_NE(t.ToString().find("x"), std::string::npos);
}

TEST(TableTest, ToTensorAndBack) {
  Table t = MakeTable(5);
  Tensor x = *t.ToTensor({"v", "id"});
  EXPECT_EQ(x.dim(0), 5);
  EXPECT_EQ(x.At(3, 1), 3.0f);
  Table back = *Table::FromTensor(x, {"v", "id"});
  EXPECT_EQ(back.num_rows(), 5);
  EXPECT_FALSE(t.ToTensor({"missing"}).ok());
}

TEST(TableTest, SliceRows) {
  Table t = MakeTable(10);
  Table s = t.SliceRows(2, 5);
  EXPECT_EQ(s.num_rows(), 3);
  EXPECT_EQ((*s.GetColumn("id"))->data[0], 2.0);
  EXPECT_EQ(t.Head(3).num_rows(), 3);
}

DataChunk ChunkOf(const Table& t) {
  DataChunk chunk;
  for (const auto& c : t.columns()) {
    chunk.names.push_back(c.name);
    chunk.cols.push_back(c.data);
  }
  return chunk;
}

TEST(ExpressionTest, CompareAndLogical) {
  Table t = MakeTable(10);
  DataChunk chunk = ChunkOf(t);
  ExprPtr e = And(Gt(Col("v"), Lit(2)), Le(Col("id"), Lit(7)));
  std::vector<double> out;
  ASSERT_TRUE(e->Evaluate(chunk, &out).ok());
  for (std::int64_t i = 0; i < 10; ++i) {
    const bool expected = (i % 10) > 2 && i <= 7;
    EXPECT_EQ(out[static_cast<std::size_t>(i)], expected ? 1.0 : 0.0);
  }
}

TEST(ExpressionTest, ArithmeticAndCase) {
  Table t = MakeTable(4);
  DataChunk chunk = ChunkOf(t);
  std::vector<CaseWhenExpr::Arm> arms;
  arms.push_back(CaseWhenExpr::Arm{Lt(Col("v"), Lit(2)), Lit(100)});
  arms.push_back(CaseWhenExpr::Arm{Lt(Col("v"), Lit(3)), Lit(200)});
  ExprPtr c = std::make_unique<CaseWhenExpr>(
      std::move(arms),
      std::make_unique<ArithExpr>(ArithOp::kMul, Col("v"), Lit(10)));
  std::vector<double> out;
  ASSERT_TRUE(c->Evaluate(chunk, &out).ok());
  EXPECT_EQ(out, (std::vector<double>{100, 100, 200, 30}));
}

TEST(ExpressionTest, InAndNot) {
  Table t = MakeTable(5);
  DataChunk chunk = ChunkOf(t);
  ExprPtr e = Not(std::make_unique<InExpr>(Col("id"),
                                           std::vector<double>{1, 3}));
  std::vector<double> out;
  ASSERT_TRUE(e->Evaluate(chunk, &out).ok());
  EXPECT_EQ(out, (std::vector<double>{1, 0, 1, 0, 1}));
}

TEST(ExpressionTest, CloneIsDeep) {
  ExprPtr e = And(Gt(Col("v"), Lit(2)), Eq(Col("id"), Lit(3)));
  ExprPtr c = e->Clone();
  EXPECT_EQ(e->ToString(), c->ToString());
}

TEST(ExpressionTest, RenderingIsPinned) {
  // Strings captured from the ostringstream-based renderer: EXPLAIN,
  // generated SQL and plan dumps must not change a byte.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Lit(0.1)->ToString(), "0.1");
  EXPECT_EQ(Lit(1e-7)->ToString(), "1e-07");
  EXPECT_EQ(Lit(1e21)->ToString(), "1e+21");
  EXPECT_EQ(Lit(-0.0)->ToString(), "-0");
  EXPECT_EQ(Lit(nan)->ToString(), "nan");
  EXPECT_EQ(Lit(inf)->ToString(), "inf");
  EXPECT_EQ(Lit(-inf)->ToString(), "-inf");
  EXPECT_EQ(Lit(123456789.0)->ToString(), "1.23457e+08");

  std::vector<CaseWhenExpr::Arm> inner;
  inner.push_back({std::make_unique<InExpr>(
                       Col("x"), std::vector<double>{1.0, 2.5, -0.0}),
                   std::make_unique<ParamExpr>(0)});
  ExprPtr inner_case = std::make_unique<CaseWhenExpr>(
      std::move(inner),
      std::make_unique<ArithExpr>(ArithOp::kAdd, Col("x"), Lit(1e-7)));
  std::vector<CaseWhenExpr::Arm> outer;
  outer.push_back({Le(Col("x"), Lit(0.5)), std::move(inner_case)});
  outer.push_back(
      {And(Not(Gt(Col("y"), Lit(-0.0))),
           Or(Eq(Col("z"), std::make_unique<ParamExpr>(1)),
              Cmp(CompareOp::kNe, Col("z"), Lit(3.0)))),
       std::make_unique<ArithExpr>(
           ArithOp::kDiv,
           std::make_unique<ArithExpr>(ArithOp::kMul, Col("y"), Lit(2.0)),
           std::make_unique<ArithExpr>(ArithOp::kSub, Lit(1e21), Col("z")))});
  outer.push_back(
      {Ge(Col("y"), Lit(123456789.0)), Lt(Col("x"), Lit(inf))});
  const CaseWhenExpr nested(std::move(outer), nullptr);
  EXPECT_EQ(nested.ToString(),
            "CASE WHEN (x <= 0.5) THEN CASE WHEN x IN (1, 2.5, -0) THEN ?1 "
            "ELSE (x + 1e-07) END WHEN (NOT (y > -0) AND ((z = ?2) OR "
            "(z <> 3))) THEN ((y * 2) / (1e+21 - z)) WHEN (y >= "
            "1.23457e+08) THEN (x < inf) END");
  std::vector<CaseWhenExpr::Arm> arms;
  arms.push_back({Col("a"), Lit(1.0)});
  EXPECT_EQ(CaseWhenExpr(std::move(arms), Lit(nan)).ToString(),
            "CASE WHEN a THEN 1 ELSE nan END");
  // AppendTo extends the buffer it is given.
  std::string out = "SELECT ";
  Eq(Col("id"), Lit(1000001.0))->AppendTo(&out);
  EXPECT_EQ(out, "SELECT (id = 1e+06)");
}

TEST(ExpressionTest, LiteralsRenderAsPrintfG) {
  // Literal text must stay exactly printf("%g"): random bit patterns, values
  // log-uniform across the fixed-notation range and past it, decimal grid
  // points and the halfway points between them, each one ulp either side.
  std::mt19937_64 rng(1603);
  std::vector<double> values = {0.0, -0.0, 1e-4, 1e-5, 999999.5, 999999.4,
                                9.999995, 9.9999949999, 0.00099999950000001,
                                123456.5, 5e-324};
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    values.push_back(v);
    const double lv =
        std::pow(10.0, std::uniform_real_distribution<double>(-5.5, 6.5)(rng));
    values.push_back(rng() % 2 ? lv : -lv);
    values.push_back(static_cast<float>(lv));
    const double step = std::pow(10.0, static_cast<int>(rng() % 12) - 6);
    const double grid = static_cast<double>(rng() % 10000000) * step;
    values.push_back(grid);
    values.push_back(grid + 0.5 * step);
  }
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t base = values.size();
  for (std::size_t i = 0; i < base; ++i) {
    values.push_back(std::nextafter(values[i], inf));
    values.push_back(std::nextafter(values[i], -inf));
  }
  int mismatches = 0;
  for (const double v : values) {
    char want[64];
    std::snprintf(want, sizeof(want), "%g", v);
    const std::string got = Lit(v)->ToString();
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << v << ": got " << got << ", want "
                    << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(ExpressionTest, ConjunctExtractionAndSimpleMatch) {
  ExprPtr e = And(And(Gt(Col("a"), Lit(1)), Eq(Col("b"), Lit(2))),
                  Or(Lt(Col("c"), Lit(3)), Eq(Col("d"), Lit(4))));
  const auto conjuncts = ExtractConjuncts(*e);
  ASSERT_EQ(conjuncts.size(), 3u);
  auto simple = MatchSimplePredicate(*conjuncts[0]);
  ASSERT_TRUE(simple.has_value());
  EXPECT_EQ(simple->column, "a");
  EXPECT_EQ(simple->op, CompareOp::kGt);
  EXPECT_FALSE(MatchSimplePredicate(*conjuncts[2]).has_value());
  // Flipped form: const < col.
  ExprPtr flipped = Lt(Lit(5), Col("x"));
  auto fs = MatchSimplePredicate(*flipped);
  ASSERT_TRUE(fs.has_value());
  EXPECT_EQ(fs->op, CompareOp::kGt);
  EXPECT_EQ(fs->constant, 5.0);
}

TEST(OperatorTest, ScanChunksAndRange) {
  Table t = MakeTable(5000);
  ScanOperator scan(&t);
  ASSERT_TRUE(scan.Open().ok());
  DataChunk chunk;
  std::int64_t total = 0;
  std::int64_t chunks = 0;
  while (*scan.Next(&chunk)) {
    total += chunk.num_rows();
    ++chunks;
  }
  EXPECT_EQ(total, 5000);
  EXPECT_GE(chunks, 2);

  const Table rows_100_to_150 = t.SliceRows(100, 150);
  ScanOperator ranged(&rows_100_to_150);
  ASSERT_TRUE(ranged.Open().ok());
  ASSERT_TRUE(*ranged.Next(&chunk));
  EXPECT_EQ(chunk.num_rows(), 50);
  EXPECT_EQ(chunk.cols[0][0], 100.0);

  // A projected scan emits only the named columns, into a reused chunk.
  ScanOperator projected(&rows_100_to_150);
  projected.SetColumns({"v"});
  ASSERT_TRUE(projected.Open().ok());
  EXPECT_EQ(*projected.OutputColumns(), std::vector<std::string>{"v"});
  ASSERT_TRUE(*projected.Next(&chunk));
  EXPECT_EQ(chunk.names, std::vector<std::string>{"v"});
  ASSERT_EQ(chunk.num_cols(), 1);
  EXPECT_EQ(chunk.num_rows(), 50);
  EXPECT_EQ(chunk.cols[0][0], 0.0);
  EXPECT_EQ(chunk.cols[0][7], 7.0);

  ScanOperator unknown(&t);
  unknown.SetColumns({"missing"});
  EXPECT_FALSE(unknown.Open().ok());
}

TEST(OperatorTest, FilterProjectLimit) {
  Table t = MakeTable(1000);
  auto scan = std::make_unique<ScanOperator>(&t);
  const ExprPtr predicate = Gt(Col("v"), Lit(7));
  auto filter = std::make_unique<FusedOperator>(
      std::move(scan), std::vector<FusedStage>{FilterStage(predicate)},
      "Filter");
  const ExprPtr id = Col("id");
  const ExprPtr v100 =
      std::make_unique<ArithExpr>(ArithOp::kAdd, Col("v"), Lit(100));
  auto project = std::make_unique<FusedOperator>(
      std::move(filter),
      std::vector<FusedStage>{
          ProjectStage({Program(id), Program(v100)}, {"id", "v100"})},
      "Project");
  LimitOperator limit(std::move(project), 5);
  Table out = *MaterializeAll(&limit);
  EXPECT_EQ(out.num_rows(), 5);
  EXPECT_EQ(out.ColumnNames(), (std::vector<std::string>{"id", "v100"}));
  EXPECT_EQ((*out.GetColumn("v100"))->data[0], 108.0);  // first v>7 is 8
}

TEST(OperatorTest, HashJoin) {
  Table left;
  (void)left.AddNumericColumn("id", {0, 1, 2, 3});
  (void)left.AddNumericColumn("a", {10, 11, 12, 13});
  Table right;
  (void)right.AddNumericColumn("id", {1, 3, 5});
  (void)right.AddNumericColumn("b", {21, 23, 25});
  HashJoinOperator join(std::make_unique<ScanOperator>(&left),
                        std::make_unique<ScanOperator>(&right), "id", "id");
  Table out = *MaterializeAll(&join);
  EXPECT_EQ(out.num_rows(), 2);
  EXPECT_EQ(out.ColumnNames(), (std::vector<std::string>{"id", "a", "b"}));
  EXPECT_EQ((*out.GetColumn("b"))->data, (std::vector<double>{21, 23}));
}

TEST(OperatorTest, HashJoinDuplicateBuildKeys) {
  Table left;
  (void)left.AddNumericColumn("k", {1});
  Table right;
  (void)right.AddNumericColumn("k", {1, 1});
  (void)right.AddNumericColumn("b", {5, 6});
  HashJoinOperator join(std::make_unique<ScanOperator>(&left),
                        std::make_unique<ScanOperator>(&right), "k", "k");
  Table out = *MaterializeAll(&join);
  EXPECT_EQ(out.num_rows(), 2);
}

// ---------------------------------------------------------------------------
// Hash-join edge cases, each against test_util::NestedLoopJoin, through both
// join modes: the owning join (build drained at Open) and a probe-only join
// over a shared build whose chunks arrive out of morsel order.
// ---------------------------------------------------------------------------

Table KeyedTable(const std::string& key, std::vector<double> keys,
                 const std::string& payload, double payload_base) {
  std::vector<double> values(keys.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = payload_base + static_cast<double>(i);
  }
  Table t;
  EXPECT_TRUE(t.AddNumericColumn(key, std::move(keys)).ok());
  EXPECT_TRUE(t.AddNumericColumn(payload, std::move(values)).ok());
  return t;
}

/// `t` as kChunkSize-row chunks tagged (source 0, morsel i).
std::vector<DataChunk> ChunksOf(const Table& t) {
  std::vector<DataChunk> chunks;
  for (std::int64_t begin = 0; begin < t.num_rows(); begin += kChunkSize) {
    const std::int64_t end = std::min(t.num_rows(), begin + kChunkSize);
    DataChunk chunk;
    for (const auto& col : t.columns()) {
      chunk.names.push_back(col.name);
      chunk.cols.emplace_back(col.data.begin() + begin,
                              col.data.begin() + end);
    }
    chunk.order_morsel = begin / kChunkSize;
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

/// The logical rows of `chunks` (selections applied), as one table.
Table LogicalRows(const std::vector<std::string>& names,
                  std::vector<DataChunk> chunks) {
  std::vector<std::vector<double>> cols(names.size());
  for (DataChunk& chunk : chunks) {
    chunk.FlattenSel();
    for (std::size_t c = 0; c < names.size(); ++c) {
      cols[c].insert(cols[c].end(), chunk.cols[c].begin(),
                     chunk.cols[c].end());
    }
  }
  Table t;
  for (std::size_t c = 0; c < names.size(); ++c) {
    EXPECT_TRUE(t.AddNumericColumn(names[c], std::move(cols[c])).ok());
  }
  return t;
}

/// Emits a fixed list of chunks as given, selection vectors included.
class ChunkListOperator final : public PhysicalOperator {
 public:
  ChunkListOperator(std::vector<std::string> names,
                    std::vector<DataChunk> chunks)
      : names_(std::move(names)), chunks_(std::move(chunks)) {}

  Result<bool> Next(DataChunk* out) override {
    if (next_ == chunks_.size()) return false;
    *out = chunks_[next_++];
    return true;
  }
  std::string Name() const override { return "ChunkList"; }
  Result<std::vector<std::string>> OutputColumns() const override {
    return names_;
  }

 private:
  std::vector<std::string> names_;
  std::vector<DataChunk> chunks_;
  std::size_t next_ = 0;
};

/// Joins `probe_chunks` (schema `probe_names`) against `build` in both join
/// modes and expects each to equal the nested-loop oracle bit for bit,
/// output order included.
void ExpectJoinMatchesOracle(const std::vector<std::string>& probe_names,
                             const std::vector<DataChunk>& probe_chunks,
                             const Table& build, const std::string& left_key,
                             const std::string& right_key) {
  const Table expected = test_util::NestedLoopJoin(
      LogicalRows(probe_names, probe_chunks), build, left_key, right_key);
  {
    SCOPED_TRACE("owning join");
    HashJoinOperator join(
        std::make_unique<ChunkListOperator>(probe_names, probe_chunks),
        std::make_unique<ScanOperator>(&build), left_key, right_key);
    auto out = MaterializeAll(&join);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    test_util::ExpectTablesBitIdentical(expected, *out);
  }
  {
    SCOPED_TRACE("probe-only join over a shared build");
    auto shared = std::make_shared<JoinBuildState>(right_key, 2);
    std::vector<DataChunk> build_chunks = ChunksOf(build);
    // Last morsel first, alternating workers: FinalizeBuild must restore
    // morsel order for duplicate-key matches to come out in build order.
    for (std::size_t i = build_chunks.size(); i-- > 0;) {
      ASSERT_TRUE(shared
                      ->Append(static_cast<std::int64_t>(i % 2),
                               std::move(build_chunks[i]))
                      .ok());
    }
    ASSERT_TRUE(shared->FinalizeBuild().ok());
    HashJoinOperator join(
        std::make_unique<ChunkListOperator>(probe_names, probe_chunks),
        left_key, shared);
    auto out = MaterializeAll(&join);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    test_util::ExpectTablesBitIdentical(expected, *out);
  }
}

void ExpectJoinMatchesOracle(const Table& probe, const Table& build,
                             const std::string& left_key,
                             const std::string& right_key) {
  ExpectJoinMatchesOracle(probe.ColumnNames(), ChunksOf(probe), build,
                          left_key, right_key);
}

TEST(HashJoinEdgeTest, SignedZeroKeysJoinEachOther) {
  // IEEE: -0.0 == +0.0. Distinct key names keep the build key in the
  // output, so the bit check sees which zero each match came from.
  const Table probe = KeyedTable("pk", {0.0, -0.0, 1.0, -0.0}, "p", 0);
  const Table build = KeyedTable("bk", {-0.0, 2.0, 0.0, 1.0}, "b", 10);
  ExpectJoinMatchesOracle(probe, build, "pk", "bk");
  HashJoinOperator join(std::make_unique<ScanOperator>(&probe),
                        std::make_unique<ScanOperator>(&build), "pk", "bk");
  const Table out = *MaterializeAll(&join);
  EXPECT_EQ((*out.GetColumn("b"))->data,
            (std::vector<double>{10, 12, 10, 12, 13, 10, 12}));
}

TEST(HashJoinEdgeTest, NanKeysNeverMatchOnEitherSide) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Table probe = KeyedTable("k", {nan, 1.0, nan, 2.0}, "p", 0);
  const Table build = KeyedTable("k", {nan, 1.0, nan, 1.0}, "b", 10);
  ExpectJoinMatchesOracle(probe, build, "k", "k");
  HashJoinOperator join(std::make_unique<ScanOperator>(&probe),
                        std::make_unique<ScanOperator>(&build), "k", "k");
  const Table out = *MaterializeAll(&join);
  EXPECT_EQ((*out.GetColumn("b"))->data, (std::vector<double>{11, 13}));
}

TEST(HashJoinEdgeTest, EmptyBuildSide) {
  const Table probe = KeyedTable("k", {1.0, 2.0, 3.0}, "p", 0);
  const Table build = KeyedTable("k", {}, "b", 10);
  ExpectJoinMatchesOracle(probe, build, "k", "k");
}

TEST(HashJoinEdgeTest, AllMissProbeAndMissingChunksAreSkipped) {
  // Three probe chunks; none hits at first, then only the last one does:
  // the join must keep pulling past chunks whose every row missed.
  std::vector<double> keys(3 * kChunkSize);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<double>(i);
  }
  const Table probe = KeyedTable("k", keys, "p", 0);
  ExpectJoinMatchesOracle(probe, KeyedTable("k", {-1.0, 1e9}, "b", 10), "k",
                          "k");
  const Table build = KeyedTable("k", {-1.0, keys.back(), 1e9}, "b", 10);
  ExpectJoinMatchesOracle(probe, build, "k", "k");
}

TEST(HashJoinEdgeTest, ProbeChunkWithSelectionVector) {
  // Only the selected rows probe; the unselected ones would match too.
  std::vector<double> keys;
  for (int i = 0; i < 300; ++i) keys.push_back(i % 17);
  const Table probe = KeyedTable("k", keys, "p", 0);
  std::vector<DataChunk> chunks = ChunksOf(probe);
  for (std::int32_t i = 1; i < 300; i += 3) chunks[0].sel.push_back(i);
  std::vector<double> build_keys;
  for (int i = 0; i < 40; ++i) build_keys.push_back(i % 20);
  ExpectJoinMatchesOracle(probe.ColumnNames(), chunks,
                          KeyedTable("k", build_keys, "b", 100), "k", "k");
}

TEST(HashJoinEdgeTest, DuplicateAndCollidingKeysKeepBuildOrder) {
  // Heavy duplicates (a few hot keys) mixed with thousands of distinct
  // keys: at two buckets per row the distinct keys share buckets with each
  // other and with the hot keys, so chains interleave keys and the `==`
  // test, not the bucket, decides every match.
  std::mt19937_64 rng(17);
  std::vector<double> build_keys;
  for (int i = 0; i < 6000; ++i) {
    build_keys.push_back(i % 3 == 0 ? static_cast<double>(rng() % 5)
                                    : 100.0 + 0.5 * static_cast<double>(i));
  }
  std::vector<double> probe_keys;
  for (int i = 0; i < 5000; ++i) {
    probe_keys.push_back(i % 4 == 0 ? static_cast<double>(rng() % 6)
                                    : 100.0 + 0.5 * static_cast<double>(
                                                        rng() % 12000));
  }
  ExpectJoinMatchesOracle(KeyedTable("k", probe_keys, "p", 0),
                          KeyedTable("k", build_keys, "b", 10000), "k", "k");
}

TEST(HashJoinEdgeTest, UnionBuildSideKeepsArrivalOrder) {
  // Both union branches tag their chunks (source 0, morsel 0..); the owning
  // join re-tags them by arrival so branch a's rows precede branch b's.
  std::vector<double> keys;
  for (int i = 0; i < 3000; ++i) keys.push_back(i % 40);
  const Table a = KeyedTable("k", keys, "b", 10000);
  const Table b = KeyedTable("k", keys, "b", 20000);
  const Table probe = KeyedTable("k", {3.0, 39.0, 41.0, 0.0}, "p", 0);
  std::vector<OperatorPtr> branches;
  branches.push_back(std::make_unique<ScanOperator>(&a));
  branches.push_back(std::make_unique<ScanOperator>(&b));
  HashJoinOperator join(std::make_unique<ScanOperator>(&probe),
                        std::make_unique<UnionAllOperator>(std::move(branches)),
                        "k", "k");
  auto out = MaterializeAll(&join);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const Table both = *ConcatTables({a, b});
  test_util::ExpectTablesBitIdentical(
      test_util::NestedLoopJoin(probe, both, "k", "k"), *out);
}

TEST(OperatorTest, UnionAll) {
  const Table four = MakeTable(4);
  const Table six = MakeTable(6);
  std::vector<OperatorPtr> children;
  children.push_back(std::make_unique<ScanOperator>(&four));
  children.push_back(std::make_unique<ScanOperator>(&six));
  UnionAllOperator u(std::move(children));
  Table out = *MaterializeAll(&u);
  EXPECT_EQ(out.num_rows(), 10);
}

TEST(OperatorTest, PredictAppendsColumn) {
  Table t = MakeTable(100);
  auto scorer = [](const Tensor& input) -> Result<std::vector<double>> {
    std::vector<double> out(static_cast<std::size_t>(input.dim(0)));
    for (std::int64_t i = 0; i < input.dim(0); ++i) {
      out[static_cast<std::size_t>(i)] = 2.0 * input.At(i, 0);
    }
    return out;
  };
  FusedOperator predict(std::make_unique<ScanOperator>(&t),
                        {PredictStage({"v"}, "pred", scorer)}, "Predict");
  Table out = *MaterializeAll(&predict);
  EXPECT_EQ(out.num_columns(), 3);
  EXPECT_EQ((*out.GetColumn("pred"))->data[7], 14.0);
}

TEST(OperatorTest, PredictScorerRowMismatchIsError) {
  Table t = MakeTable(10);
  auto bad = [](const Tensor&) -> Result<std::vector<double>> {
    return std::vector<double>{1.0};
  };
  FusedOperator predict(std::make_unique<ScanOperator>(&t),
                        {PredictStage({"v"}, "p", bad)}, "Predict");
  EXPECT_FALSE(MaterializeAll(&predict).ok());
}

TEST(OperatorTest, UnknownColumnFailsAtOpenWithColumnAndOperator) {
  // Kernel compilation happens once at Open, so a bad reference must fail
  // there — before any chunk flows — naming both the column and the
  // operator that tried to resolve it.
  Table t = MakeTable(10);
  const ExprPtr nope = Gt(Col("nope"), Lit(1));
  FusedOperator filter(std::make_unique<ScanOperator>(&t),
                       {FilterStage(nope)}, "Filter");
  Status open = filter.Open();
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.code(), StatusCode::kNotFound);
  EXPECT_NE(open.ToString().find("'nope'"), std::string::npos)
      << open.ToString();
  EXPECT_NE(open.ToString().find("Filter predicate"), std::string::npos)
      << open.ToString();

  const ExprPtr missing = Col("missing");
  FusedOperator project(std::make_unique<ScanOperator>(&t),
                        {ProjectStage({Program(missing)}, {"m"})}, "Project");
  open = project.Open();
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.code(), StatusCode::kNotFound);
  EXPECT_NE(open.ToString().find("'missing'"), std::string::npos)
      << open.ToString();
  EXPECT_NE(open.ToString().find("Project expression 'm'"),
            std::string::npos)
      << open.ToString();
}

TEST(OperatorTest, AmbiguousColumnFailsAtOpen) {
  // PREDICT whose output name collides with an input column makes any
  // downstream reference to that name ambiguous — diagnosed at Open, not
  // silently resolved to one of the two.
  Table t = MakeTable(10);
  auto scorer = [](const Tensor& input) -> Result<std::vector<double>> {
    return std::vector<double>(static_cast<std::size_t>(input.dim(0)), 1.0);
  };
  auto predict = std::make_unique<FusedOperator>(
      std::make_unique<ScanOperator>(&t),
      std::vector<FusedStage>{PredictStage(
          {"id"}, /*output_name=*/"v", scorer)},  // collides with the v
      "Predict");
  const ExprPtr positive = Gt(Col("v"), Lit(0));
  FusedOperator filter(std::move(predict), {FilterStage(positive)}, "Filter");
  Status open = filter.Open();
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(open.ToString().find("ambiguous"), std::string::npos)
      << open.ToString();
  EXPECT_NE(open.ToString().find("'v'"), std::string::npos)
      << open.ToString();
}

TEST(OperatorTest, Aggregate) {
  // A scalar aggregate is a GROUP BY without keys: one output row.
  Table t = MakeTable(10);
  const GroupBySpec spec{{},
                         {AggregateSpec{AggKind::kCount, "", "n"},
                          AggregateSpec{AggKind::kSum, "id", "sum_id"},
                          AggregateSpec{AggKind::kAvg, "id", "avg_id"},
                          AggregateSpec{AggKind::kMin, "v", "min_v"},
                          AggregateSpec{AggKind::kMax, "v", "max_v"}}};
  GroupByOperator agg(std::make_unique<ScanOperator>(&t), spec);
  Table out = *MaterializeAll(&agg);
  EXPECT_EQ(out.num_rows(), 1);
  EXPECT_EQ((*out.GetColumn("n"))->data[0], 10.0);
  EXPECT_EQ((*out.GetColumn("sum_id"))->data[0], 45.0);
  EXPECT_EQ((*out.GetColumn("avg_id"))->data[0], 4.5);
  EXPECT_EQ((*out.GetColumn("min_v"))->data[0], 0.0);
  EXPECT_EQ((*out.GetColumn("max_v"))->data[0], 9.0);
  // Even over empty input, where every aggregate finalizes to 0.
  const Table no_rows = MakeTable(0);
  GroupByOperator none(std::make_unique<ScanOperator>(&no_rows), spec);
  Table empty = *MaterializeAll(&none);
  ASSERT_EQ(empty.num_rows(), 1);
  for (const auto& col : empty.columns()) EXPECT_EQ(col.data[0], 0.0);
}

TEST(OperatorTest, GroupBySinksFillTheirWorkerSlot) {
  // Two sinks fill their own worker's table; the merge renders one row per
  // key in ascending order. With nothing deposited the grouped schema
  // still renders, at zero rows, and a worker id past the slots is refused.
  Table t;
  ASSERT_TRUE(t.AddNumericColumn("k", std::vector<double>(10, -0.0)).ok());
  ASSERT_TRUE(
      t.AddNumericColumn("id", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}).ok());
  const GroupBySpec spec{{"k"},
                         {AggregateSpec{AggKind::kCount, "", "n"},
                          AggregateSpec{AggKind::kMax, "id", "hi"}}};
  const Table halves[2] = {t.SliceRows(0, 5), t.SliceRows(5, 10)};
  auto shared = std::make_shared<SharedGroupByState>(spec, 2);
  for (std::int64_t w = 0; w < 2; ++w) {
    GroupByOperator sink(std::make_unique<ScanOperator>(&halves[w]), shared,
                         w);
    ASSERT_TRUE(sink.Open().ok());
    DataChunk out;
    EXPECT_FALSE(*sink.Next(&out));
  }
  Table merged = *shared->FinalTable();
  EXPECT_EQ(merged.ColumnNames(), (std::vector<std::string>{"k", "n", "hi"}));
  ASSERT_EQ(merged.num_rows(), 1);
  EXPECT_FALSE(std::signbit((*merged.GetColumn("k"))->data[0]));
  EXPECT_EQ((*merged.GetColumn("n"))->data[0], 10.0);
  EXPECT_EQ((*merged.GetColumn("hi"))->data[0], 9.0);

  SharedGroupByState empty(spec, 3);
  Table none = *empty.FinalTable();
  EXPECT_EQ(none.ColumnNames(), (std::vector<std::string>{"k", "n", "hi"}));
  EXPECT_EQ(none.num_rows(), 0);
  EXPECT_EQ(empty.slot(3), nullptr);

  GroupByOperator stray(std::make_unique<ScanOperator>(&t),
                        std::make_shared<SharedGroupByState>(spec, 1), 1);
  ASSERT_TRUE(stray.Open().ok());
  DataChunk out;
  EXPECT_EQ(stray.Next(&out).status().code(), StatusCode::kInternal);
}

TEST(CatalogTest, TablesAndModels) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("t", MakeTable(3)).ok());
  EXPECT_FALSE(catalog.RegisterTable("t", MakeTable(3)).ok());
  EXPECT_TRUE(catalog.HasTable("t"));
  EXPECT_FALSE(catalog.GetTable("missing").ok());

  ASSERT_TRUE(catalog.InsertModel("m", "script", "bytes").ok());
  EXPECT_FALSE(catalog.InsertModel("m", "s", "b").ok());
  StoredModel model = *catalog.GetModel("m");
  EXPECT_EQ(model.version, 1);
  EXPECT_EQ(*catalog.ModelCacheKey("m"), "m@v1");

  std::vector<std::string> invalidated;
  catalog.AddInvalidationListener(
      [&](const std::string& name) { invalidated.push_back(name); });
  ASSERT_TRUE(catalog.UpdateModel("m", "script2", "bytes2").ok());
  EXPECT_EQ(*catalog.ModelCacheKey("m"), "m@v2");
  EXPECT_EQ(invalidated, (std::vector<std::string>{"m"}));
  EXPECT_EQ(catalog.AuditLog().size(), 2u);
  ASSERT_TRUE(catalog.DropModel("m").ok());
  EXPECT_FALSE(catalog.GetModel("m").ok());
  EXPECT_FALSE(catalog.UpdateModel("m", "s", "b").ok());
}

TEST(CsvTest, RoundTripWithCategoricals) {
  Table t;
  (void)t.AddNumericColumn("x", {1.5, 2.5});
  (void)t.AddCategoricalColumn("c", {0, 1}, {"red", "blue"});
  const std::string path = "/tmp/raven_csv_test.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  Table back = *ReadCsv(path);
  EXPECT_EQ(back.num_rows(), 2);
  const Column* c = *back.GetColumn("c");
  EXPECT_TRUE(c->is_categorical());
  EXPECT_EQ((*c->dictionary)[0], "red");
  EXPECT_EQ((*back.GetColumn("x"))->data, (std::vector<double>{1.5, 2.5}));
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsError) {
  EXPECT_FALSE(ReadCsv("/tmp/does_not_exist_raven.csv").ok());
}

namespace {

void ExpectCsvRoundTripExact(const Table& t, const std::string& path) {
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), t.num_rows());
  ASSERT_EQ(back->num_columns(), t.num_columns());
  for (std::int64_t ci = 0; ci < t.num_columns(); ++ci) {
    const Column& a = t.columns()[ci];
    const Column& b = back->columns()[ci];
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.is_categorical(), b.is_categorical()) << a.name;
    for (std::int64_t i = 0; i < t.num_rows(); ++i) {
      if (a.is_categorical()) {
        // Compare the decoded strings: dictionaries may be re-ordered by
        // first appearance, but every cell must read back verbatim.
        const auto& da = *a.dictionary;
        const auto& db = *b.dictionary;
        ASSERT_EQ(da[static_cast<std::size_t>(a.data[i])],
                  db[static_cast<std::size_t>(b.data[i])])
            << a.name << " row " << i;
      } else {
        std::uint64_t ba, bb;
        std::memcpy(&ba, &a.data[i], 8);
        std::memcpy(&bb, &b.data[i], 8);
        ASSERT_EQ(ba, bb) << a.name << " row " << i;
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace

TEST(CsvTest, RoundTripHostileStringsAndFullPrecision) {
  Table t;
  (void)t.AddCategoricalColumn(
      "weird, name", {0, 1, 2, 3},
      {"plain", "comma, inside", "quote \" inside", "line\nbreak"});
  (void)t.AddNumericColumn(
      "x", {1.0 / 3.0, 0.1, -0.0, std::numeric_limits<double>::denorm_min()});
  (void)t.AddNumericColumn("n",
                           {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            1.7976931348623157e308});
  ExpectCsvRoundTripExact(t, "/tmp/raven_csv_hostile.csv");
}

TEST(CsvTest, RoundTripPropertyRandomTables) {
  std::mt19937_64 rng(0xC5F0BEEF);
  const std::vector<std::string> pool = {
      "a",    "b,c",   "d\"e", "f\ng", "",     " pad ",
      "-1.5", "nan",   "x,\"", "\r\n", "last", "0"};
  for (int iter = 0; iter < 20; ++iter) {
    Table t;
    const int cols = 1 + static_cast<int>(rng() % 4);
    const std::int64_t rows = 1 + static_cast<std::int64_t>(rng() % 23);
    for (int c = 0; c < cols; ++c) {
      const std::string name = "col" + std::to_string(c);
      if (rng() % 2 == 0) {
        std::vector<double> data;
        for (std::int64_t i = 0; i < rows; ++i) {
          std::uint64_t bits = rng();
          double v;
          std::memcpy(&v, &bits, 8);
          if (!std::isfinite(v)) v = static_cast<double>(bits % 1000);
          data.push_back(v);
        }
        (void)t.AddNumericColumn(name, data);
      } else {
        // Dictionary of hostile strings; ensure at least one non-empty,
        // non-numeric-looking value so the column sniffs categorical.
        std::vector<double> codes;
        std::vector<std::string> dict = {"anchor value"};
        for (std::int64_t i = 0; i < rows; ++i) {
          if (rng() % 3 == 0) {
            codes.push_back(0);
          } else {
            dict.push_back(pool[rng() % pool.size()] + "#" +
                           std::to_string(rng() % 7));
            codes.push_back(static_cast<double>(dict.size() - 1));
          }
        }
        (void)t.AddCategoricalColumn(name, codes, dict);
      }
    }
    ExpectCsvRoundTripExact(t, "/tmp/raven_csv_prop.csv");
  }
}

TEST(CsvTest, SniffingRulesArePinned) {
  const std::string path = "/tmp/raven_csv_sniff.csv";
  {
    std::ofstream out(path);
    out << "\"num\",\"padded\",\"quoted_num\",\"blank\",\"specials\"\n";
    out << "1.5,  2.5  ,\"3.5\",,nan\n";
    out << ",7,\"8\",,inf\n";
  }
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Unquoted parseable fields (whitespace-trimmed) make a numeric column;
  // an empty unquoted field is a NaN null inside it.
  const Column* num = *back->GetColumn("num");
  EXPECT_FALSE(num->is_categorical());
  EXPECT_EQ(num->data[0], 1.5);
  EXPECT_TRUE(std::isnan(num->data[1]));
  EXPECT_EQ((*back->GetColumn("padded"))->data, (std::vector<double>{2.5, 7}));
  // Any quoted field pins the whole column categorical — even "3.5".
  const Column* quoted = *back->GetColumn("quoted_num");
  ASSERT_TRUE(quoted->is_categorical());
  EXPECT_EQ((*quoted->dictionary)[static_cast<std::size_t>(quoted->data[0])],
            "3.5");
  // All-empty columns have no evidence of being numeric: categorical.
  EXPECT_TRUE((*back->GetColumn("blank"))->is_categorical());
  // nan/inf literals are numeric.
  const Column* specials = *back->GetColumn("specials");
  ASSERT_FALSE(specials->is_categorical());
  EXPECT_TRUE(std::isnan(specials->data[0]));
  EXPECT_TRUE(std::isinf(specials->data[1]));
  std::remove(path.c_str());
}

TEST(CsvTest, OutOfRangeDictionaryCodeIsError) {
  Table t;
  (void)t.AddCategoricalColumn("c", {0, 5}, {"red", "blue"});
  Status s = WriteCsv(t, "/tmp/raven_csv_badcode.csv");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("c"), std::string::npos);
}

TEST(StatisticsTest, NonFiniteValuesDoNotPoisonMinMax) {
  Column col;
  col.name = "v";
  col.data = {1.0, std::numeric_limits<double>::quiet_NaN(), 2.0,
              std::numeric_limits<double>::infinity(),
              -std::numeric_limits<double>::infinity()};
  ColumnStats stats = ComputeColumnStats(col);
  EXPECT_EQ(stats.min, 1.0);
  EXPECT_EQ(stats.max, 2.0);
  EXPECT_EQ(stats.num_rows, 5);
  EXPECT_EQ(stats.nan_count, 1);
  EXPECT_EQ(stats.non_finite_count, 3);
  EXPECT_TRUE(stats.has_non_finite);
  EXPECT_TRUE(stats.has_finite());
  EXPECT_FALSE(stats.constant.has_value());
}

TEST(StatisticsTest, AllNanAndEmptyColumns) {
  Column all_nan;
  all_nan.name = "v";
  all_nan.data = {std::numeric_limits<double>::quiet_NaN(),
                  std::numeric_limits<double>::quiet_NaN()};
  ColumnStats stats = ComputeColumnStats(all_nan);
  EXPECT_EQ(stats.nan_count, 2);
  EXPECT_FALSE(stats.has_finite());
  // NaNs collapse to one distinct value; no finite constant is reported.
  EXPECT_EQ(stats.distinct, 1);
  EXPECT_FALSE(stats.constant.has_value());

  Column empty;
  empty.name = "e";
  ColumnStats estats = ComputeColumnStats(empty);
  EXPECT_EQ(estats.num_rows, 0);
  EXPECT_FALSE(estats.has_finite());
  EXPECT_FALSE(estats.constant.has_value());
}

TEST(StatisticsTest, FiniteConstantColumnsStillReportConstant) {
  Column col;
  col.name = "c";
  col.data = {7.0, 7.0, 7.0};
  ColumnStats stats = ComputeColumnStats(col);
  EXPECT_EQ(stats.constant, std::optional<double>(7.0));
  EXPECT_EQ(stats.distinct, 1);
  EXPECT_FALSE(stats.has_non_finite);
}

}  // namespace
}  // namespace raven::relational
