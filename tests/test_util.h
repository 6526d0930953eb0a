#ifndef RAVEN_TESTS_TEST_UTIL_H_
#define RAVEN_TESTS_TEST_UTIL_H_

// Shared test fixtures: hospital/flight catalog builders, the paper's
// running-example query, and plan-shape snapshot helpers. Every suite that
// needs a populated catalog or asserts on plan structure goes through these
// instead of re-rolling its own copy.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "data/flight.h"
#include "data/hospital.h"
#include "frontend/analyzer.h"
#include "ir/ir.h"
#include "ml/pipeline.h"
#include "relational/catalog.h"
#include "relational/table.h"

namespace raven::test_util {

// ---------------------------------------------------------------------------
// Dataset / catalog builders
// ---------------------------------------------------------------------------

/// Registers the three hospital base tables (patient_info, blood_tests,
/// prenatal_tests) and, when `include_joined` is set, the pre-joined table
/// as "patients". Fatal assertions only abort this helper — wrap calls in
/// ASSERT_NO_FATAL_FAILURE so a failed registration also aborts SetUp.
inline void RegisterHospitalTables(relational::Catalog* catalog,
                                   const data::HospitalDataset& data,
                                   bool include_joined = true) {
  ASSERT_TRUE(catalog->RegisterTable("patient_info", data.patient_info).ok());
  ASSERT_TRUE(catalog->RegisterTable("blood_tests", data.blood_tests).ok());
  ASSERT_TRUE(
      catalog->RegisterTable("prenatal_tests", data.prenatal_tests).ok());
  if (include_joined) {
    ASSERT_TRUE(catalog->RegisterTable("patients", data.joined).ok());
  }
}

/// Trains the paper's §2 length-of-stay tree and stores it under
/// `model_name`. Returns the trained pipeline for ground-truth checks.
/// On failure, records a test failure and returns an empty pipeline (never
/// aborts the process); fixtures should end SetUp with
/// `ASSERT_FALSE(HasFailure())` so the test body is skipped.
inline ml::ModelPipeline InsertHospitalTreeModel(
    relational::Catalog* catalog, const data::HospitalDataset& data,
    std::int64_t depth, const std::string& model_name = "los") {
  auto trained = data::TrainHospitalTree(data, depth);
  if (!trained.ok()) {
    ADD_FAILURE() << "TrainHospitalTree: " << trained.status().ToString();
    return {};
  }
  ml::ModelPipeline pipeline = std::move(trained).value();
  Status inserted = catalog->InsertModel(
      model_name, data::HospitalTreeScript(), pipeline.ToBytes());
  if (!inserted.ok()) {
    ADD_FAILURE() << "InsertModel(" << model_name
                  << "): " << inserted.ToString();
  }
  return pipeline;
}

/// Registers the flight-delay table as "flights".
inline void RegisterFlightTable(relational::Catalog* catalog,
                                const data::FlightDataset& data) {
  ASSERT_TRUE(catalog->RegisterTable("flights", data.flights).ok());
}

// ---------------------------------------------------------------------------
// Canonical queries
// ---------------------------------------------------------------------------

/// The paper's §2 running example (hospital length-of-stay) against the
/// stored model `model_name`.
inline std::string RunningExampleSql(const std::string& model_name = "los") {
  return "WITH data AS (SELECT * FROM patient_info AS pi "
         "  JOIN blood_tests AS bt ON pi.id = bt.id "
         "  JOIN prenatal_tests AS pt ON bt.id = pt.id) "
         "SELECT id, length_of_stay "
         "FROM PREDICT(MODEL='" +
         model_name +
         "', DATA=data) WITH(length_of_stay float) "
         "WHERE pregnant = 1 AND length_of_stay > 7";
}

/// Analyzes `sql` against `catalog`, failing the test on error. On failure
/// it returns a harmless single-scan sentinel plan (non-null root) so a
/// caller that keeps running walks a valid tree instead of dereferencing
/// null — the recorded failure still fails the test.
inline ir::IrPlan AnalyzePlan(const relational::Catalog& catalog,
                              const std::string& sql) {
  frontend::StaticAnalyzer analyzer(&catalog);
  auto plan = analyzer.Analyze(sql);
  if (!plan.ok()) {
    ADD_FAILURE() << "Analyze failed for \"" << sql
                  << "\": " << plan.status().ToString();
    return ir::IrPlan(ir::IrNode::TableScan("__analysis_failed__"));
  }
  return std::move(plan).value();
}

// ---------------------------------------------------------------------------
// Plan-shape snapshot helpers
// ---------------------------------------------------------------------------

/// Compact structural snapshot of a plan subtree: operator kinds only, in
/// the nested form "Project(Filter(ModelPipeline(TableScan)))". Payloads
/// (predicates, column lists, model internals) are deliberately excluded so
/// snapshots stay stable across payload-level tweaks while still pinning
/// operator order — exactly what rule-chain regressions need to catch.
inline std::string PlanShape(const ir::IrNode* node) {
  if (node == nullptr) return "(null)";
  std::string out = ir::IrOpKindToString(node->kind);
  if (!node->children.empty()) {
    out += "(";
    for (std::size_t i = 0; i < node->children.size(); ++i) {
      if (i > 0) out += ", ";
      out += PlanShape(node->children[i].get());
    }
    out += ")";
  }
  return out;
}

inline std::string PlanShape(const ir::IrPlan& plan) {
  return PlanShape(plan.root());
}

/// Preorder list of operator kind names, for order-sensitive assertions
/// that don't care about arity/nesting.
inline std::vector<std::string> KindSequence(const ir::IrPlan& plan) {
  std::vector<std::string> kinds;
  ir::VisitIr(plan.root(), [&](const ir::IrNode* node) {
    kinds.emplace_back(ir::IrOpKindToString(node->kind));
  });
  return kinds;
}

/// True if any kFilter node anywhere under `root` mentions `substr` in its
/// predicate's ToString().
inline bool FilterMentions(const ir::IrNode* root, const std::string& substr) {
  bool found = false;
  ir::VisitIr(root, [&](const ir::IrNode* node) {
    if (node->kind == ir::IrOpKind::kFilter && node->predicate != nullptr &&
        node->predicate->ToString().find(substr) != std::string::npos) {
      found = true;
    }
  });
  return found;
}

/// True if a kFilter mentioning `substr` sits below ANY model node
/// (kModelPipeline / kClusteredPredict / kNnGraph) — the canonical
/// "predicate was pushed through PREDICT" check for single-model plans.
inline bool FilterBelowModelMentions(const ir::IrNode* root,
                                     const std::string& substr) {
  bool found = false;
  ir::VisitIr(root, [&](const ir::IrNode* node) {
    switch (node->kind) {
      case ir::IrOpKind::kModelPipeline:
      case ir::IrOpKind::kClusteredPredict:
      case ir::IrOpKind::kNnGraph:
        for (const auto& child : node->children) {
          if (FilterMentions(child.get(), substr)) found = true;
        }
        break;
      default:
        break;
    }
  });
  return found;
}

// ---------------------------------------------------------------------------
// Hash-join oracle
// ---------------------------------------------------------------------------

/// Nested-loop inner equi-join, the reference the hash-join tests compare
/// against: every probe row in order, tested with IEEE `==` against every
/// build row in order (so -0.0 joins +0.0 and NaN joins nothing). Columns
/// are the probe's, then the build's whose names the probe lacks — the hash
/// join's output schema. No match gives a column-less table, like a run
/// whose join emitted no chunk.
inline relational::Table NestedLoopJoin(const relational::Table& probe,
                                        const relational::Table& build,
                                        const std::string& left_key,
                                        const std::string& right_key) {
  const auto& pk = (*probe.GetColumn(left_key))->data;
  const auto& bk = (*build.GetColumn(right_key))->data;
  std::vector<const relational::Column*> emit;
  for (const auto& col : probe.columns()) emit.push_back(&col);
  const std::size_t probe_width = emit.size();
  for (const auto& col : build.columns()) {
    if (!probe.HasColumn(col.name)) emit.push_back(&col);
  }
  std::vector<std::vector<double>> out(emit.size());
  for (std::size_t p = 0; p < pk.size(); ++p) {
    for (std::size_t b = 0; b < bk.size(); ++b) {
      if (!(pk[p] == bk[b])) continue;
      for (std::size_t c = 0; c < emit.size(); ++c) {
        out[c].push_back(emit[c]->data[c < probe_width ? p : b]);
      }
    }
  }
  relational::Table result;
  if (out.empty() || out.front().empty()) return result;
  for (std::size_t c = 0; c < emit.size(); ++c) {
    EXPECT_TRUE(result.AddNumericColumn(emit[c]->name, std::move(out[c])).ok());
  }
  return result;
}

/// Byte-for-byte table equality: same columns, same order, and every value
/// with the same bit pattern (so -0.0 vs +0.0 and NaN payloads count).
inline void ExpectTablesBitIdentical(const relational::Table& expected,
                                     const relational::Table& actual) {
  ASSERT_EQ(expected.ColumnNames(), actual.ColumnNames());
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  for (std::size_t c = 0; c < expected.columns().size(); ++c) {
    const auto& e = expected.columns()[c].data;
    const auto& a = actual.columns()[c].data;
    for (std::size_t r = 0; r < e.size(); ++r) {
      if (std::memcmp(&e[r], &a[r], sizeof(double)) != 0) {
        ADD_FAILURE() << "column " << expected.columns()[c].name << " row "
                      << r << ": expected " << e[r] << ", got " << a[r];
        return;
      }
    }
  }
}

}  // namespace raven::test_util

/// Snapshot assertion: EXPECT_PLAN_SHAPE(plan, "Project(Filter(TableScan))").
/// On mismatch the full pretty-printed plan is attached for diagnosis.
#define EXPECT_PLAN_SHAPE(plan, expected)                       \
  EXPECT_EQ(raven::test_util::PlanShape(plan), (expected))      \
      << "full plan:\n"                                         \
      << (plan).ToString()

#endif  // RAVEN_TESTS_TEST_UTIL_H_
