#include "relational/kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/pipeline.h"
#include "ml/random_forest.h"
#include "optimizer/converters.h"
#include "relational/chunk.h"
#include "relational/expression.h"
#include "tensor/tensor.h"

namespace raven::relational {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectBitEqual(const std::vector<double>& expected,
                    const std::vector<double>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_PRED2(BitEqual, expected[i], actual[i]) << "row " << i;
  }
}

/// A chunk whose values exercise every IEEE corner the kernels can hit:
/// signed zeros, infinities, NaN, denormal-adjacent magnitudes, exact ties.
DataChunk AdversarialChunk() {
  DataChunk chunk;
  chunk.names = {"a", "b", "c"};
  chunk.cols = {
      {1.0, -1.0, 0.0, -0.0, kInf, -kInf, kNan, 1e308, 1e-308, 2.5, 7.0,
       -3.25},
      {2.0, -1.0, 0.5, 0.0, 1.0, kInf, 2.0, -1e308, 1e-308, 2.5, 0.0, 3.0},
      {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0},
  };
  return chunk;
}

/// Compiles `expr` and checks Run against the tree-walking interpreter,
/// bit-for-bit, on `chunk`.
void ExpectParityOn(const Expr& expr, const DataChunk& chunk) {
  std::vector<double> interpreted;
  ASSERT_TRUE(expr.Evaluate(chunk, &interpreted).ok()) << expr.ToString();
  auto program = KernelProgram::Compile(expr, chunk.names, "test");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::vector<double> compiled;
  ASSERT_TRUE(program->RunInto(chunk, &compiled).ok());
  ExpectBitEqual(interpreted, compiled);
}

/// ExpectParityOn over the adversarial chunk.
void ExpectParity(const Expr& expr) {
  ExpectParityOn(expr, AdversarialChunk());
}

TEST(KernelProgramTest, CompareParity) {
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    ExpectParity(*Cmp(op, Col("a"), Col("b")));
    ExpectParity(*Cmp(op, Col("a"), Lit(0.5)));
    ExpectParity(*Cmp(op, Lit(0.5), Col("b")));
  }
}

TEST(KernelProgramTest, ArithParity) {
  for (ArithOp op :
       {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul, ArithOp::kDiv}) {
    ExpectParity(*std::make_unique<ArithExpr>(op, Col("a"), Col("b")));
    ExpectParity(*std::make_unique<ArithExpr>(op, Col("a"), Lit(2.0)));
    ExpectParity(*std::make_unique<ArithExpr>(op, Lit(2.0), Col("b")));
  }
}

TEST(KernelProgramTest, DivisionByZeroMatchesIeee) {
  // x / 0 must flow through as +/-inf (or NaN for 0/0), identically in
  // both engines — this feeds the NaN-aware ORDER BY / GROUP BY paths.
  DataChunk chunk;
  chunk.names = {"x"};
  chunk.cols = {{1.0, -1.0, 0.0, -0.0, kNan}};
  auto expr = std::make_unique<ArithExpr>(ArithOp::kDiv, Col("x"), Lit(0.0));
  auto program = KernelProgram::Compile(*expr, chunk.names, "test");
  ASSERT_TRUE(program.ok());
  std::vector<double> out;
  ASSERT_TRUE(program->RunInto(chunk, &out).ok());
  EXPECT_EQ(out[0], kInf);
  EXPECT_EQ(out[1], -kInf);
  EXPECT_TRUE(std::isnan(out[2]));  // 0/0
  EXPECT_TRUE(std::isnan(out[3]));
  EXPECT_TRUE(std::isnan(out[4]));
}

TEST(KernelProgramTest, LogicalCaseInParity) {
  ExpectParity(*And(Gt(Col("a"), Lit(0.0)), Lt(Col("b"), Col("c"))));
  ExpectParity(*Or(Eq(Col("a"), Col("b")), Not(Gt(Col("c"), Lit(5.0)))));
  ExpectParity(*Not(Not(Gt(Col("a"), Col("b")))));

  std::vector<CaseWhenExpr::Arm> arms;
  arms.push_back({Gt(Col("a"), Lit(0.0)), Lit(1.0)});
  arms.push_back({Gt(Col("b"), Lit(0.0)),
                  std::make_unique<ArithExpr>(ArithOp::kMul, Col("c"),
                                              Lit(10.0))});
  ExpectParity(*std::make_unique<CaseWhenExpr>(std::move(arms), Lit(-1.0)));

  ExpectParity(*std::make_unique<InExpr>(
      Col("c"), std::vector<double>{0.0, 5.0, 11.0}));
  ExpectParity(*std::make_unique<InExpr>(Col("a"), std::vector<double>{}));
}

TEST(KernelProgramTest, CaseFirstMatchWins) {
  // Overlapping arms: row values satisfying both must take the first.
  DataChunk chunk;
  chunk.names = {"x"};
  chunk.cols = {{5.0, 15.0, 25.0}};
  std::vector<CaseWhenExpr::Arm> arms;
  arms.push_back({Gt(Col("x"), Lit(10.0)), Lit(100.0)});
  arms.push_back({Gt(Col("x"), Lit(20.0)), Lit(200.0)});
  CaseWhenExpr expr(std::move(arms), Lit(0.0));
  auto program = KernelProgram::Compile(expr, chunk.names, "test");
  ASSERT_TRUE(program.ok());
  std::vector<double> out;
  ASSERT_TRUE(program->RunInto(chunk, &out).ok());
  EXPECT_EQ(out, (std::vector<double>{0.0, 100.0, 100.0}));
}

// ---------------------------------------------------------------------------
// Decision walk (compiled CASE)
// ---------------------------------------------------------------------------

ExprPtr Case(std::vector<CaseWhenExpr::Arm> arms, ExprPtr else_expr) {
  return std::make_unique<CaseWhenExpr>(std::move(arms),
                                        std::move(else_expr));
}

std::vector<CaseWhenExpr::Arm> Arms(ExprPtr when, ExprPtr then) {
  std::vector<CaseWhenExpr::Arm> arms;
  arms.push_back({std::move(when), std::move(then)});
  return arms;
}

/// A pipeline over an identity column "x", a standardized column "s" and a
/// one-hot column "c" (codes 0..4), its featurizer fitted, plus the
/// featurized training rows and their labels.
struct TreeTrainingSet {
  ml::ModelPipeline pipeline;
  Tensor features;
  std::vector<float> labels;
};

TreeTrainingSet MakeTreeTrainingSet(std::uint64_t seed) {
  constexpr std::int64_t kRows = 4000;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> x_dist(-50.0, 50.0);
  std::normal_distribution<double> s_dist(100.0, 15.0);
  std::normal_distribution<double> noise(0.0, 0.5);
  std::vector<float> raw;
  TreeTrainingSet set;
  for (std::int64_t i = 0; i < kRows; ++i) {
    const double x = x_dist(rng);
    const double s = s_dist(rng);
    const double c = static_cast<double>(rng() % 5);
    raw.insert(raw.end(), {static_cast<float>(x), static_cast<float>(s),
                           static_cast<float>(c)});
    set.labels.push_back(static_cast<float>(std::sin(x * 0.3) + 0.05 * s +
                                            2.0 * c + noise(rng)));
  }
  set.pipeline.input_columns = {"x", "s", "c"};
  ml::FeatureBranch identity;
  identity.input_columns = {0};
  ml::FeatureBranch scaler;
  scaler.kind = ml::TransformKind::kScaler;
  scaler.input_columns = {1};
  ml::FeatureBranch onehot;
  onehot.kind = ml::TransformKind::kOneHot;
  onehot.input_columns = {2};
  set.pipeline.featurizer.AddBranch(std::move(identity));
  set.pipeline.featurizer.AddBranch(std::move(scaler));
  set.pipeline.featurizer.AddBranch(std::move(onehot));
  Tensor x = *Tensor::FromData({kRows, 3}, std::move(raw));
  EXPECT_TRUE(set.pipeline.featurizer.Fit(x).ok());
  set.features = *set.pipeline.featurizer.Transform(x);
  return set;
}

ExprPtr Inline(const ml::ModelPipeline& pipeline) {
  auto expr = optimizer::TreeToCaseExpr(pipeline);
  EXPECT_TRUE(expr.ok()) << expr.status().ToString();
  return expr.ok() ? std::move(expr).value() : nullptr;
}

/// A regression tree grown to exactly `depth` levels over x, s and c,
/// inlined by TreeToCaseExpr: identity and scaler splits become
/// `col <= threshold`, one-hot splits `c != code`.
ExprPtr InlinedTree(std::int64_t depth) {
  TreeTrainingSet set =
      MakeTreeTrainingSet(static_cast<std::uint64_t>(depth) * 7919);
  ml::TreeTrainOptions options;
  options.max_depth = depth;
  options.min_samples_leaf = 2;
  ml::DecisionTree tree;
  EXPECT_TRUE(tree.Fit(set.features, set.labels, options).ok());
  EXPECT_EQ(tree.depth(), depth);
  set.pipeline.predictor = std::move(tree);
  return Inline(set.pipeline);
}

/// A random forest of `num_trees` bagged trees at most `depth` deep over
/// x, s and c, inlined by TreeToCaseExpr into `(CASE_1 + ... + CASE_T) / T`.
ExprPtr InlinedForest(std::int64_t num_trees, std::int64_t depth) {
  TreeTrainingSet set = MakeTreeTrainingSet(
      static_cast<std::uint64_t>(num_trees * 104729 + depth));
  ml::ForestTrainOptions options;
  options.num_trees = num_trees;
  options.tree.max_depth = depth;
  options.tree.min_samples_leaf = 2;
  options.tree.max_features = set.features.dim(1);  // every tree splits
  ml::RandomForest forest;
  EXPECT_TRUE(forest.Fit(set.features, set.labels, options).ok());
  EXPECT_EQ(static_cast<std::int64_t>(forest.trees().size()), num_trees);
  for (const auto& tree : forest.trees()) EXPECT_GE(tree.depth(), 1);
  set.pipeline.predictor = std::move(forest);
  return Inline(set.pipeline);
}

/// Every literal a `column op literal` compare in `expr` tests, by column.
void CollectThresholds(const Expr& expr,
                       std::map<std::string, std::vector<double>>* out) {
  if (expr.kind() == Expr::Kind::kCompare) {
    const auto& cmp = static_cast<const CompareExpr&>(expr);
    if (cmp.lhs().kind() == Expr::Kind::kColumnRef &&
        cmp.rhs().kind() == Expr::Kind::kLiteral) {
      (*out)[static_cast<const ColumnRefExpr&>(cmp.lhs()).name()].push_back(
          static_cast<const LiteralExpr&>(cmp.rhs()).value());
    }
    return;
  }
  if (expr.kind() == Expr::Kind::kCaseWhen) {
    const auto& cw = static_cast<const CaseWhenExpr&>(expr);
    for (const auto& arm : cw.arms()) {
      CollectThresholds(*arm.when, out);
      CollectThresholds(*arm.then, out);
    }
    if (cw.else_expr() != nullptr) CollectThresholds(*cw.else_expr(), out);
  }
  if (expr.kind() == Expr::Kind::kArith) {  // a forest's sum of trees
    const auto& arith = static_cast<const ArithExpr&>(expr);
    CollectThresholds(arith.lhs(), out);
    CollectThresholds(arith.rhs(), out);
  }
}

/// An n-row chunk over x, s, c whose values mix IEEE corners (NaN, +/-inf,
/// +/-0.0), values exactly at and one ulp around `thresholds`, category
/// codes and in-range draws.
DataChunk TreeChunk(std::size_t n,
                    const std::map<std::string, std::vector<double>>& thresholds,
                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::vector<double> corners = {kNan, kInf, -kInf, 0.0, -0.0};
  DataChunk chunk;
  chunk.names = {"x", "s", "c"};
  chunk.cols.assign(3, std::vector<double>(n));
  for (std::size_t col = 0; col < 3; ++col) {
    const auto it = thresholds.find(chunk.names[col]);
    for (std::size_t i = 0; i < n; ++i) {
      double v = 0.0;
      switch (rng() % 4) {
        case 0:
          v = corners[rng() % corners.size()];
          break;
        case 1:
          if (it != thresholds.end() && !it->second.empty()) {
            v = it->second[rng() % it->second.size()];
            if (rng() % 3 == 0) v = std::nextafter(v, rng() % 2 ? kInf : -kInf);
          }
          break;
        case 2:
          v = static_cast<double>(rng() % 6);  // codes 0..4 and an unseen 5
          break;
        default:
          v = std::uniform_real_distribution<double>(-60.0, 160.0)(rng);
          break;
      }
      chunk.cols[col][i] = v;
    }
  }
  return chunk;
}

TEST(DecisionWalkTest, InlinedTreesMatchInterpreterBitForBit) {
  const std::vector<std::size_t> sizes = {
      1, static_cast<std::size_t>(kChunkSize) - 1,
      static_cast<std::size_t>(kChunkSize) + 1};
  std::set<std::string> split_columns;
  for (std::int64_t depth = 1; depth <= 12; ++depth) {
    ExprPtr tree = InlinedTree(depth);
    ASSERT_NE(tree, nullptr);
    std::map<std::string, std::vector<double>> thresholds;
    CollectThresholds(*tree, &thresholds);
    ASSERT_FALSE(thresholds.empty()) << "depth " << depth;
    for (const auto& [column, values] : thresholds) {
      split_columns.insert(column);
    }
    for (std::size_t n : sizes) {
      SCOPED_TRACE("depth " + std::to_string(depth) + ", " +
                   std::to_string(n) + " rows");
      ASSERT_NO_FATAL_FAILURE(ExpectParityOn(
          *tree, TreeChunk(n, thresholds, static_cast<std::uint64_t>(
                                              depth * 131 + n))));
    }
  }
  // Identity, scaler and one-hot splits were all exercised.
  EXPECT_EQ(split_columns, (std::set<std::string>{"c", "s", "x"}));
}

TEST(DecisionWalkTest, InlinedTreeCompilesToOneInstruction) {
  // Column/literal WHENs are tested inside the walk and every leaf is a
  // literal, so the whole tree is one instruction writing one register.
  for (std::int64_t depth = 1; depth <= 12; ++depth) {
    ExprPtr tree = InlinedTree(depth);
    ASSERT_NE(tree, nullptr);
    auto program = KernelProgram::Compile(*tree, {"x", "s", "c"}, "test");
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    EXPECT_EQ(program->num_instructions(), 1u) << "depth " << depth;
    EXPECT_EQ(program->num_registers(), 1u) << "depth " << depth;
  }
}

TEST(DecisionWalkTest, InlinedForestsMatchInterpreterBitForBit) {
  // The forest is a double sum of per-tree walks in tree order, then a
  // divide: the compiled program must round exactly as the interpreter.
  const std::vector<std::size_t> sizes = {
      1, static_cast<std::size_t>(kChunkSize) - 1,
      static_cast<std::size_t>(kChunkSize) + 1};
  for (std::int64_t num_trees : {1, 2, 10}) {
    for (std::int64_t depth = 1; depth <= 12; ++depth) {
      ExprPtr forest = InlinedForest(num_trees, depth);
      ASSERT_NE(forest, nullptr);
      std::map<std::string, std::vector<double>> thresholds;
      CollectThresholds(*forest, &thresholds);
      ASSERT_FALSE(thresholds.empty());
      for (std::size_t n : sizes) {
        SCOPED_TRACE(std::to_string(num_trees) + " trees, depth " +
                     std::to_string(depth) + ", " + std::to_string(n) +
                     " rows");
        ASSERT_NO_FATAL_FAILURE(ExpectParityOn(
            *forest,
            TreeChunk(n, thresholds,
                      static_cast<std::uint64_t>(num_trees * 1009 +
                                                 depth * 131 + n))));
      }
    }
  }
}

TEST(DecisionWalkTest, InlinedForestCompilesToWalksAddsAndDivide) {
  // T trees: one walk each, T - 1 adds chaining them in tree order and one
  // divide by T — 2T instructions, nothing per node.
  for (std::int64_t num_trees : {1, 2, 10}) {
    for (std::int64_t depth : {1, 8, 12}) {
      ExprPtr forest = InlinedForest(num_trees, depth);
      ASSERT_NE(forest, nullptr);
      auto program = KernelProgram::Compile(*forest, {"x", "s", "c"}, "test");
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      EXPECT_EQ(program->num_instructions(),
                static_cast<std::size_t>(2 * num_trees))
          << num_trees << " trees, depth " << depth;
    }
  }
}

TEST(DecisionWalkTest, CaseFormsMatchInterpreter) {
  // Multi-arm, first match wins.
  {
    std::vector<CaseWhenExpr::Arm> arms;
    arms.push_back({Gt(Col("a"), Lit(0.0)), Lit(1.0)});
    arms.push_back({Lt(Col("b"), Lit(0.0)), Lit(2.0)});
    arms.push_back({Eq(Col("c"), Lit(3.0)), Lit(3.0)});
    arms.push_back({Gt(Col("a"), Col("b")), Lit(4.0)});
    ExpectParity(*Case(std::move(arms), Lit(5.0)));
  }
  // No ELSE: unmatched rows are 0.0.
  ExpectParity(*Case(Arms(Gt(Col("a"), Lit(0.0)), Col("b")), nullptr));
  // Non-compare WHENs: a column, an arithmetic value, a logical and a
  // nested CASE, all tested against 0.0.
  ExpectParity(*Case(Arms(Col("a"), Lit(1.0)), Lit(2.0)));
  ExpectParity(*Case(
      Arms(std::make_unique<ArithExpr>(ArithOp::kSub, Col("a"), Col("b")),
           Col("c")),
      Lit(-1.0)));
  ExpectParity(*Case(Arms(And(Gt(Col("a"), Lit(0.0)), Col("b")), Lit(1.0)),
                     Lit(0.0)));
  ExpectParity(*Case(
      Arms(Case(Arms(Gt(Col("a"), Lit(0.0)), Col("b")), Col("c")), Lit(7.0)),
      Lit(8.0)));
  // Computed leaves at every depth, and a CASE compare operand.
  ExpectParity(*Case(
      Arms(Le(Col("a"), Lit(2.5)),
           Case(Arms(Cmp(CompareOp::kNe, Col("b"), Lit(0.0)),
                     std::make_unique<ArithExpr>(ArithOp::kDiv, Col("c"),
                                                 Col("b"))),
                std::make_unique<ArithExpr>(ArithOp::kMul, Col("a"),
                                            Lit(3.0)))),
      Case(Arms(Gt(Case(Arms(Col("b"), Col("a")), Col("c")), Lit(1.0)),
                Col("c")),
           std::make_unique<ArithExpr>(ArithOp::kAdd, Col("a"), Col("b")))));
  // Constant arms: false ones are skipped, a true one catches every row
  // that reaches it, and arms after it never match.
  {
    std::vector<CaseWhenExpr::Arm> arms;
    arms.push_back({Lit(0.0), Lit(9.0)});
    arms.push_back({Gt(Col("a"), Col("b")), Col("c")});
    arms.push_back({Lt(Lit(1.0), Lit(2.0)), Col("b")});
    arms.push_back(
        {Gt(std::make_unique<ArithExpr>(ArithOp::kAdd, Col("a"), Col("c")),
            Lit(0.0)),
         Lit(11.0)});
    ExpectParity(*Case(std::move(arms), Lit(12.0)));
  }
  ExpectParity(*Case(Arms(Lit(1.0), Col("a")), Lit(0.0)));
  ExpectParity(*Case(Arms(Lit(0.0), Col("a")), Col("b")));
  ExpectParity(*Case(Arms(Lit(kNan), Lit(1.0)), Lit(2.0)));
}

TEST(DecisionWalkTest, NanConditionCountsAsTrue) {
  DataChunk chunk;
  chunk.names = {"w"};
  chunk.cols = {{kNan, 0.0, -0.0, 1.0, -kInf}};
  auto expr = Case(Arms(Col("w"), Lit(1.0)), Lit(2.0));
  auto program = KernelProgram::Compile(*expr, chunk.names, "test");
  ASSERT_TRUE(program.ok());
  std::vector<double> out;
  ASSERT_TRUE(program->RunInto(chunk, &out).ok());
  EXPECT_EQ(out, (std::vector<double>{1.0, 2.0, 2.0, 1.0, 1.0}));
  ExpectParityOn(*expr, chunk);
}

TEST(DecisionWalkTest, ConstantCaseFolds) {
  std::vector<CaseWhenExpr::Arm> arms;
  arms.push_back({Gt(Lit(1.0), Lit(2.0)), Lit(3.0)});
  arms.push_back({Lit(1.0), Lit(4.0)});
  auto expr = Case(std::move(arms), Lit(5.0));
  auto program = KernelProgram::Compile(*expr, {"x"}, "test");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->num_instructions(), 0u);
  DataChunk chunk;
  chunk.names = {"x"};
  chunk.cols = {{1.0, 2.0}};
  std::vector<double> out;
  ASSERT_TRUE(program->RunInto(chunk, &out).ok());
  EXPECT_EQ(out, (std::vector<double>{4.0, 4.0}));
}

TEST(DecisionWalkTest, UnreachableArmsStillDiagnosed) {
  // A constant-true first arm makes the rest unreachable; their unknown
  // columns and unbound parameters still fail at compile (Open) time, as
  // the interpreter would fail on every chunk.
  std::vector<CaseWhenExpr::Arm> arms;
  arms.push_back({Lit(1.0), Lit(1.0)});
  arms.push_back({Gt(Col("nope"), Lit(0.0)), Lit(2.0)});
  auto unknown = Case(std::move(arms), nullptr);
  auto program = KernelProgram::Compile(*unknown, {"a"}, "Project p");
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kNotFound);
  EXPECT_NE(program.status().ToString().find("'nope'"), std::string::npos);

  auto unbound = Case(Arms(Lit(1.0), Lit(1.0)),
                      std::make_unique<ParamExpr>(1));
  auto param_program = KernelProgram::Compile(*unbound, {"a"}, "Project p");
  ASSERT_FALSE(param_program.ok());
  EXPECT_NE(param_program.status().ToString().find("?2"), std::string::npos);
}

constexpr CompareOp kAllCompareOps[] = {CompareOp::kEq, CompareOp::kNe,
                                        CompareOp::kLt, CompareOp::kLe,
                                        CompareOp::kGt, CompareOp::kGe};

TEST(DecisionWalkTest, MirroredArmsMatchInterpreter) {
  // `imm cmp col` is walked as `col cmp' imm` with less and greater
  // swapped; equal and unordered outcomes keep their meaning.
  DataChunk chunk;
  chunk.names = {"c"};
  chunk.cols = {{4.0, 5.0, 6.0, kNan, -kInf, kInf, -0.0, 0.0}};
  auto lt = Case(Arms(Lt(Lit(5.0), Col("c")), Lit(1.0)), Lit(2.0));
  auto program = KernelProgram::Compile(*lt, chunk.names, "test");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->num_instructions(), 1u);
  std::vector<double> out;
  ASSERT_TRUE(program->RunInto(chunk, &out).ok());
  EXPECT_EQ(out, (std::vector<double>{2, 2, 1, 2, 2, 1, 2, 2}));
  ExpectParityOn(*lt, chunk);
  auto ge = Case(Arms(Ge(Lit(5.0), Col("c")), Lit(1.0)), Lit(2.0));
  ASSERT_TRUE(KernelProgram::Compile(*ge, chunk.names, "test")
                  ->RunInto(chunk, &out)
                  .ok());
  EXPECT_EQ(out, (std::vector<double>{1, 1, 2, 2, 1, 2, 1, 1}));
  ExpectParityOn(*ge, chunk);
  for (CompareOp op : kAllCompareOps) {
    for (double imm : {5.0, 0.0, -0.0, kInf, kNan}) {
      SCOPED_TRACE(std::to_string(static_cast<int>(op)) + " imm " +
                   std::to_string(imm));
      ExpectParityOn(*Case(Arms(Cmp(op, Lit(imm), Col("c")), Col("c")),
                           Lit(-1.0)),
                     chunk);
      ExpectParity(*Case(Arms(Cmp(op, Lit(imm), Col("a")), Col("b")),
                         Case(Arms(Cmp(op, Col("b"), Lit(imm)), Lit(3.0)),
                              Col("c"))));
    }
  }
}

TEST(DecisionWalkTest, VectorVersusVectorArmsMatchInterpreter) {
  // A compare of two non-immediates runs ahead of the walk as one kCompare
  // register; the walk tests that register != 0.
  for (CompareOp op : kAllCompareOps) {
    SCOPED_TRACE(static_cast<int>(op));
    auto expr = Case(Arms(Cmp(op, Col("a"), Col("b")), Col("c")), Lit(-1.0));
    auto program = KernelProgram::Compile(*expr, {"a", "b", "c"}, "test");
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    EXPECT_EQ(program->num_instructions(), 2u);
    ExpectParity(*expr);
    // Nested, on both sides of an arm, and against computed operands.
    std::vector<CaseWhenExpr::Arm> arms;
    arms.push_back({Cmp(op, Col("b"), Col("a")),
                    Case(Arms(Cmp(op, Col("c"), Col("a")), Lit(1.0)),
                         Lit(2.0))});
    arms.push_back(
        {Cmp(op,
             std::make_unique<ArithExpr>(ArithOp::kMul, Col("a"), Lit(2.0)),
             Col("b")),
         Lit(3.0)});
    ExpectParity(*Case(std::move(arms), Col("a")));
  }
}

TEST(DecisionWalkTest, NonCompareWhensMatchInterpreter) {
  // Columns, registers and nested CASEs as WHENs: each is `when != 0`, so
  // NaN and infinities count as true and both zeros as false.
  ExpectParity(*Case(Arms(Col("b"), Col("a")), Col("c")));
  ExpectParity(*Case(
      Arms(std::make_unique<ArithExpr>(ArithOp::kDiv, Col("a"), Col("b")),
           Lit(1.0)),
      Lit(0.0)));
  ExpectParity(*Case(Arms(Or(Col("a"), Col("b")), Col("c")), Col("b")));
  ExpectParity(*Case(Arms(Not(Col("a")), Lit(4.0)), Lit(5.0)));
  ExpectParity(*Case(
      Arms(Case(Arms(Lt(Col("a"), Col("b")), Col("c")), Lit(0.0)), Col("a")),
      Lit(6.0)));
}

TEST(DecisionWalkTest, NanOperandsUnderEveryCompareOp) {
  // Unordered outcomes: every op but != rejects a NaN on either side, in
  // vector/immediate, immediate/vector and vector/vector arms.
  DataChunk chunk;
  chunk.names = {"x", "y"};
  chunk.cols = {{kNan, 1.0, kNan, -0.0, kInf},
                {2.0, kNan, kNan, 0.0, kNan}};
  for (CompareOp op : kAllCompareOps) {
    SCOPED_TRACE(static_cast<int>(op));
    for (double imm : {1.0, kNan}) {
      ExpectParityOn(*Case(Arms(Cmp(op, Col("x"), Lit(imm)), Lit(1.0)),
                           Lit(0.0)),
                     chunk);
      ExpectParityOn(*Case(Arms(Cmp(op, Lit(imm), Col("y")), Lit(1.0)),
                           Lit(0.0)),
                     chunk);
    }
    ExpectParityOn(*Case(Arms(Cmp(op, Col("x"), Col("y")), Lit(1.0)),
                         Lit(0.0)),
                   chunk);
    ExpectParityOn(*Case(Arms(Cmp(op, Col("y"), Col("x")), Col("x")),
                         Col("y")),
                   chunk);
  }
}

TEST(DecisionWalkTest, ColumnAndRegisterLeaves) {
  // Leaves read a column, a register or an immediate per row at the end;
  // rows that stop early keep reading their own leaf's row.
  std::vector<CaseWhenExpr::Arm> arms;
  arms.push_back({Gt(Col("c"), Lit(8.0)), Col("a")});
  arms.push_back(
      {Lt(Col("c"), Lit(3.0)),
       Case(Arms(Ge(Col("a"), Lit(0.0)),
                 std::make_unique<ArithExpr>(ArithOp::kAdd, Col("a"),
                                             Col("b"))),
            Col("b"))});
  arms.push_back({Eq(Col("c"), Lit(5.0)), Lit(7.0)});
  auto expr = Case(std::move(arms),
                   std::make_unique<ArithExpr>(ArithOp::kSub, Col("c"),
                                               Col("a")));
  ExpectParity(*expr);
  DataChunk chunk = AdversarialChunk();
  std::vector<double> out;
  auto program = KernelProgram::Compile(*expr, chunk.names, "test");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(program->RunInto(chunk, &out).ok());
  EXPECT_PRED2(BitEqual, out[11], chunk.cols[0][11]);      // c = 11 > 8
  EXPECT_PRED2(BitEqual, out[0], 1.0 + 2.0);               // c = 0, a >= 0
  EXPECT_PRED2(BitEqual, out[1], -1.0);                    // c = 1, a < 0
  EXPECT_PRED2(BitEqual, out[5], 7.0);                     // c = 5
  EXPECT_PRED2(BitEqual, out[7], 7.0 - chunk.cols[0][7]);  // ELSE
}

TEST(KernelProgramTest, RandomizedParityAgainstInterpreter) {
  // Depth-bounded random expression trees over the adversarial chunk; every
  // tree must evaluate bit-identically in both engines.
  std::mt19937_64 rng(20260807);
  std::uniform_real_distribution<double> lit(-10.0, 10.0);
  const std::vector<std::string> cols = {"a", "b", "c"};
  std::function<ExprPtr(int)> gen = [&](int depth) -> ExprPtr {
    if (depth <= 0 || rng() % 4 == 0) {
      if (rng() % 2 == 0) return Col(cols[rng() % cols.size()]);
      return Lit(lit(rng));
    }
    switch (rng() % 6) {
      case 0:
        return Cmp(static_cast<CompareOp>(rng() % 6), gen(depth - 1),
                   gen(depth - 1));
      case 1:
        return std::make_unique<ArithExpr>(static_cast<ArithOp>(rng() % 4),
                                           gen(depth - 1), gen(depth - 1));
      case 2:
        return And(gen(depth - 1), gen(depth - 1));
      case 3:
        return Or(gen(depth - 1), gen(depth - 1));
      case 4:
        return Not(gen(depth - 1));
      default: {
        std::vector<CaseWhenExpr::Arm> arms;
        const std::size_t n = 1 + rng() % 3;
        for (std::size_t i = 0; i < n; ++i) {
          arms.push_back({gen(depth - 1), gen(depth - 1)});
        }
        return std::make_unique<CaseWhenExpr>(std::move(arms),
                                              gen(depth - 1));
      }
    }
  };
  for (int i = 0; i < 200; ++i) {
    ExprPtr expr = gen(4);
    ASSERT_NO_FATAL_FAILURE(ExpectParity(*expr)) << expr->ToString();
  }
}

TEST(KernelProgramTest, ConstantSubtreesFoldToImmediates) {
  // An all-literal tree compiles to zero instructions and splats.
  auto expr = std::make_unique<ArithExpr>(
      ArithOp::kAdd, Lit(2.0),
      std::make_unique<ArithExpr>(ArithOp::kMul, Lit(3.0), Lit(4.0)));
  auto program = KernelProgram::Compile(*expr, {"x"}, "test");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->num_instructions(), 0u);
  DataChunk chunk;
  chunk.names = {"x"};
  chunk.cols = {{1.0, 2.0, 3.0}};
  std::vector<double> out;
  ASSERT_TRUE(program->RunInto(chunk, &out).ok());
  EXPECT_EQ(out, (std::vector<double>{14.0, 14.0, 14.0}));

  // A constant subtree inside a live tree folds too: one compare, not two.
  auto mixed = Gt(Col("x"), std::make_unique<ArithExpr>(ArithOp::kAdd,
                                                        Lit(1.0), Lit(1.0)));
  auto mixed_program = KernelProgram::Compile(*mixed, {"x"}, "test");
  ASSERT_TRUE(mixed_program.ok());
  EXPECT_EQ(mixed_program->num_instructions(), 1u);
}

TEST(KernelProgramTest, UnknownColumnFailsAtCompileTime) {
  auto expr = Gt(Col("nope"), Lit(1.0));
  auto program = KernelProgram::Compile(*expr, {"a", "b"}, "Filter predicate");
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kNotFound);
  EXPECT_NE(program.status().ToString().find("'nope'"), std::string::npos);
  EXPECT_NE(program.status().ToString().find("Filter predicate"),
            std::string::npos);
}

TEST(KernelProgramTest, AmbiguousColumnFailsAtCompileTime) {
  auto expr = Gt(Col("dup"), Lit(1.0));
  auto program =
      KernelProgram::Compile(*expr, {"dup", "x", "dup"}, "Filter predicate");
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(program.status().ToString().find("ambiguous"), std::string::npos);
  EXPECT_NE(program.status().ToString().find("'dup'"), std::string::npos);
}

TEST(KernelProgramTest, UnboundParamFailsAtCompileTime) {
  auto expr = Gt(Col("a"), std::make_unique<ParamExpr>(0));
  auto program = KernelProgram::Compile(*expr, {"a"}, "Filter predicate");
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.status().ToString().find("?1"), std::string::npos);
}

TEST(SharedProgramTest, CompilesOnceAndRepeatsItsResult) {
  std::atomic<std::int64_t> compiles{0};
  auto expr = Gt(Col("b"), Lit(1));
  SharedProgram shared(expr.get(), &compiles);
  auto first = shared.Get({"a", "b"}, "Filter predicate");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = shared.Get({"a", "b"}, "Filter predicate");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(compiles.load(), 1);
  // Two trees run the one program, each in its own scratch.
  DataChunk chunk;
  chunk.names = {"a", "b"};
  chunk.cols = {{1, 2, 3}, {0, 2, 1}};
  KernelProgram::Scratch one;
  KernelProgram::Scratch two;
  auto ran_one = (*first)->Run(chunk, &one);
  auto ran_two = (*first)->Run(chunk, &two);
  ASSERT_TRUE(ran_one.ok());
  ASSERT_TRUE(ran_two.ok());
  EXPECT_NE(*ran_one, *ran_two);
  EXPECT_EQ(**ran_one, (std::vector<double>{0, 1, 0}));
  EXPECT_EQ(**ran_two, **ran_one);
  EXPECT_EQ(shared.Get({"b"}, "Filter predicate").status().code(),
            StatusCode::kInternal);

  // A failed compile is repeated, not retried, and counts nothing.
  auto bad = Gt(Col("nope"), Lit(1));
  SharedProgram failing(bad.get(), &compiles);
  const Status error = failing.Get({"a"}, "Filter predicate").status();
  EXPECT_EQ(error.code(), StatusCode::kNotFound);
  EXPECT_EQ(failing.Get({"a"}, "Filter predicate").status().ToString(),
            error.ToString());
  EXPECT_EQ(compiles.load(), 1);
}

TEST(ResolveOrdinalTest, ErrorsNameColumnAndOperator) {
  auto ok = KernelProgram::ResolveOrdinal({"x", "y"}, "y", "HashJoin probe");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 1);
  auto missing =
      KernelProgram::ResolveOrdinal({"x", "y"}, "z", "HashJoin probe key");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().ToString().find("'z'"), std::string::npos);
  EXPECT_NE(missing.status().ToString().find("HashJoin probe key"),
            std::string::npos);
  auto dup = KernelProgram::ResolveOrdinal({"k", "k"}, "k", "GROUP BY key");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup.status().ToString().find("2 matches"), std::string::npos);
}

TEST(GatherSelectedTest, PlainCopyAndGather) {
  std::vector<double> out;
  GatherSelected({1, 2, 3}, {}, &out);
  EXPECT_EQ(out, (std::vector<double>{1, 2, 3}));
  GatherSelected({1, 2, 3, 4}, {0, 2}, &out);
  EXPECT_EQ(out, (std::vector<double>{1, 3}));
  GatherSelected({1, 2}, std::vector<std::int32_t>{}, &out);
  EXPECT_EQ(out, (std::vector<double>{1, 2}));
}

// ---------------------------------------------------------------------------
// ExactFloatSum
// ---------------------------------------------------------------------------

double SumOf(const std::vector<double>& values) {
  ExactFloatSum sum;
  for (double v : values) sum.Add(v);
  return sum.Round();
}

TEST(ExactFloatSumTest, CancellingMagnitudesAreExact) {
  // Naive and Kahan summation both lose the 1.0 here in some orders; the
  // expansion keeps it regardless of order.
  EXPECT_EQ(SumOf({1e16, 1.0, -1e16}), 1.0);
  EXPECT_EQ(SumOf({1.0, 1e16, -1e16}), 1.0);
  EXPECT_EQ(SumOf({-1e16, 1e16, 1.0}), 1.0);
  EXPECT_EQ(SumOf({1e100, 1.0, -1e100, 1e50, -1e50}), 1.0);
}

TEST(ExactFloatSumTest, OrderIndependentBitIdentical) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> mag(-1e15, 1e15);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    double v = mag(rng);
    // Mix in wildly different exponents.
    if (i % 7 == 0) v *= 1e-200;
    if (i % 11 == 0) v *= 1e200;
    values.push_back(v);
  }
  const double reference = SumOf(values);
  for (int shuffle = 0; shuffle < 10; ++shuffle) {
    std::shuffle(values.begin(), values.end(), rng);
    EXPECT_PRED2(BitEqual, reference, SumOf(values)) << "shuffle " << shuffle;
  }
}

TEST(ExactFloatSumTest, MergeOrderIrrelevant) {
  // Random splits into partials merged in random order reproduce the
  // straight-line sum bit-for-bit — the property the parallel aggregate
  // sinks and distributed fragments rely on.
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> mag(-1e10, 1e10);
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) values.push_back(mag(rng));
  const double reference = SumOf(values);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t parts = 1 + rng() % 8;
    std::vector<ExactFloatSum> partials(parts);
    for (double v : values) partials[rng() % parts].Add(v);
    std::shuffle(partials.begin(), partials.end(),
                 rng);  // merge in arbitrary order
    ExactFloatSum total;
    for (const auto& p : partials) total.MergeFrom(p);
    EXPECT_PRED2(BitEqual, reference, total.Round()) << "trial " << trial;
  }
}

TEST(ExactFloatSumTest, CorrectlyRoundedHalfwayCases) {
  // 1.0 + 2^-53 rounds to 1.0 (ties-to-even on the halfway bit), but
  // adding another sliver must tip it to the next representable double.
  const double ulp_half = std::ldexp(1.0, -53);
  EXPECT_EQ(SumOf({1.0, ulp_half}), 1.0);
  EXPECT_EQ(SumOf({1.0, ulp_half, std::ldexp(1.0, -100)}),
            std::nextafter(1.0, 2.0));
  EXPECT_EQ(SumOf({1.0, ulp_half, -std::ldexp(1.0, -100)}), 1.0);
}

TEST(ExactFloatSumTest, NonFiniteInputs) {
  EXPECT_EQ(SumOf({}), 0.0);
  EXPECT_FALSE(std::signbit(SumOf({})));
  EXPECT_TRUE(std::signbit(SumOf({-0.0, -0.0})));
  EXPECT_EQ(SumOf({1.0, kInf}), kInf);
  EXPECT_EQ(SumOf({-kInf, -1.0}), -kInf);
  EXPECT_TRUE(std::isnan(SumOf({kInf, -kInf})));
  EXPECT_TRUE(std::isnan(SumOf({1.0, kNan, 2.0})));
  // Finite inputs whose exact sum overflows saturate deterministically.
  EXPECT_EQ(SumOf({1e308, 1e308}), kInf);
  EXPECT_EQ(SumOf({-1e308, -1e308, 5.0}), -kInf);
}

}  // namespace
}  // namespace raven::relational
