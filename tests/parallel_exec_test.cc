// Parallel-vs-sequential equivalence for every plan shape the morsel-driven
// executor covers: scan, filter+project, hash join, aggregate, union and
// PREDICT, across parallelism in {2, 8}, plus ExecutionStats aggregation.
// Pipelines must match byte-for-byte INCLUDING row order: morsel provenance
// restores scan order, and the join build re-orders its chunks to the
// sequential build order before hashing, so even duplicate-key matches come
// out identically. Sorted comparison appears only where a test wants to be
// robust rather than to pin ordering.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "data/flight.h"
#include "data/hospital.h"
#include "obs/trace.h"
#include "optimizer/cross_optimizer.h"
#include "relational/expression.h"
#include "runtime/plan_executor.h"
#include "storage/columnar.h"
#include "test_util.h"

namespace raven::runtime {
namespace {

/// Row-major copy of a table, for order-insensitive comparison.
std::vector<std::vector<double>> SortedRows(const relational::Table& t) {
  std::vector<std::vector<double>> rows(
      static_cast<std::size_t>(t.num_rows()));
  for (auto& row : rows) row.reserve(static_cast<std::size_t>(t.num_columns()));
  for (const auto& col : t.columns()) {
    for (std::int64_t r = 0; r < t.num_rows(); ++r) {
      rows[static_cast<std::size_t>(r)].push_back(
          col.data[static_cast<std::size_t>(r)]);
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

void ExpectTablesEqualOrdered(const relational::Table& expected,
                              const relational::Table& actual) {
  ASSERT_EQ(expected.ColumnNames(), actual.ColumnNames());
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  for (std::int64_t c = 0; c < expected.num_columns(); ++c) {
    EXPECT_EQ(expected.columns()[static_cast<std::size_t>(c)].data,
              actual.columns()[static_cast<std::size_t>(c)].data)
        << "column " << expected.ColumnNames()[static_cast<std::size_t>(c)];
  }
}

void ExpectTablesEqualSorted(const relational::Table& expected,
                             const relational::Table& actual) {
  ASSERT_EQ(expected.ColumnNames(), actual.ColumnNames());
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  EXPECT_EQ(SortedRows(expected), SortedRows(actual));
}

class ParallelExecFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    hospital_ = data::MakeHospitalDataset(5000, 77);
    ASSERT_NO_FATAL_FAILURE(
        test_util::RegisterHospitalTables(&catalog_, hospital_));
    test_util::InsertHospitalTreeModel(&catalog_, hospital_, 6);
    flight_ = data::MakeFlightDataset(4000, 5);
    ASSERT_NO_FATAL_FAILURE(test_util::RegisterFlightTable(&catalog_, flight_));
    ASSERT_FALSE(HasFailure()) << "fixture setup failed";
  }

  /// Executes `plan` at the given parallelism (by default shrinking
  /// morsels so even these small tables split into many of them; 0 keeps
  /// the engine's kChunkSize-row morsels). A non-null `trace` records the
  /// execute span.
  relational::Table Run(const ir::IrPlan& plan, std::int64_t parallelism,
                        ExecutionStats* stats = nullptr,
                        std::int64_t morsel_rows = 512,
                        obs::Trace* trace = nullptr) {
    PlanExecutor executor(&catalog_, &cache_);
    ExecutionOptions options;
    options.parallelism = parallelism;
    options.morsel_rows = morsel_rows;
    options.trace = trace;
    auto result = executor.Execute(plan, options, stats);
    if (!result.ok()) {
      ADD_FAILURE() << "execution failed at parallelism " << parallelism
                    << ": " << result.status().ToString();
      return relational::Table();
    }
    return std::move(result).value();
  }

  /// Asserts parallelism ∈ {2, 8} matches parallelism 1 for `sql`.
  void CheckSqlEquivalence(const std::string& sql, bool ordered) {
    SCOPED_TRACE(sql);
    auto plan = test_util::AnalyzePlan(catalog_, sql);
    CheckPlanEquivalence(plan, ordered);
  }

  void CheckPlanEquivalence(const ir::IrPlan& plan, bool ordered) {
    relational::Table sequential = Run(plan, 1);
    for (std::int64_t n : {2, 8}) {
      SCOPED_TRACE("parallelism=" + std::to_string(n));
      relational::Table parallel = Run(plan, n);
      if (ordered) {
        ExpectTablesEqualOrdered(sequential, parallel);
      } else {
        ExpectTablesEqualSorted(sequential, parallel);
      }
    }
  }

  /// The `execute` span's detail for one traced run of `plan`.
  std::string ExecuteDetail(const ir::IrPlan& plan, std::int64_t parallelism,
                            std::int64_t morsel_rows) {
    obs::Trace trace;
    Run(plan, parallelism, nullptr, morsel_rows, &trace);
    for (const obs::TraceSpan& span : trace.Snapshot()) {
      if (span.name == "execute") return span.detail;
    }
    ADD_FAILURE() << "no execute span";
    return "";
  }

  /// Registers `name` with `rows` rows: id = row number, k = id % `keys`,
  /// and a payload column named `payload`.
  void RegisterKeyed(const std::string& name, std::int64_t rows,
                     std::int64_t keys, const std::string& payload) {
    std::vector<double> id, k, v;
    for (std::int64_t i = 0; i < rows; ++i) {
      id.push_back(static_cast<double>(i));
      k.push_back(static_cast<double>(i % keys));
      v.push_back(static_cast<double>((i * 37) % 101) * 0.5);
    }
    relational::Table t;
    ASSERT_TRUE(t.AddNumericColumn("id", std::move(id)).ok());
    ASSERT_TRUE(t.AddNumericColumn("k", std::move(k)).ok());
    ASSERT_TRUE(t.AddNumericColumn(payload, std::move(v)).ok());
    ASSERT_TRUE(catalog_.RegisterTable(name, std::move(t)).ok());
  }

  /// Asserts `plan` at dop 4 and 8 with kChunkSize-row morsels matches dop
  /// 1 byte for byte, and that the most worker trees any pipeline started
  /// is min(dop, `morsels`) (at least 1), where `morsels` is the largest
  /// morsel count of any one pipeline.
  void CheckRightSized(const ir::IrPlan& plan, std::int64_t morsels) {
    relational::Table sequential = Run(plan, 1, nullptr, 0);
    for (std::int64_t dop : {4, 8}) {
      SCOPED_TRACE("parallelism=" + std::to_string(dop));
      test_util::ExpectTablesBitIdentical(sequential,
                                          Run(plan, dop, nullptr, 0));
      const std::int64_t workers =
          std::clamp<std::int64_t>(morsels, 1, dop);
      EXPECT_NE(ExecuteDetail(plan, dop, 0)
                    .find("workers=" + std::to_string(workers)),
                std::string::npos);
    }
  }

  data::HospitalDataset hospital_;
  data::FlightDataset flight_;
  relational::Catalog catalog_;
  nnrt::SessionCache cache_{8};
};

TEST_F(ParallelExecFixture, PureScan) {
  // Star select over a base table: the plan is a bare TableScan. Parallel
  // output must be byte-identical in row order (morsel merge restores it).
  CheckSqlEquivalence("SELECT * FROM patients", /*ordered=*/true);
}

TEST_F(ParallelExecFixture, FilterProject) {
  CheckSqlEquivalence(
      "SELECT id, bp, bp * 2 + 1 AS bp2 FROM patients "
      "WHERE pregnant = 1 AND bp > 100",
      /*ordered=*/true);
}

TEST_F(ParallelExecFixture, HashJoinTwoTables) {
  CheckSqlEquivalence(
      "SELECT id, age, bp FROM patient_info AS pi "
      "JOIN blood_tests AS bt ON pi.id = bt.id WHERE age > 40",
      /*ordered=*/true);
}

TEST_F(ParallelExecFixture, HashJoinDuplicateBuildKeysDeterministic) {
  // Duplicate build-side keys: the parallel build must reproduce the
  // sequential build's row order (FinalizeBuild re-orders chunks by morsel
  // provenance and sorts row-id lists), so matches come out identically.
  relational::Table probe;
  std::vector<double> pk, pv;
  for (int i = 0; i < 3000; ++i) {
    pk.push_back(i % 7);
    pv.push_back(i);
  }
  ASSERT_TRUE(probe.AddNumericColumn("k", std::move(pk)).ok());
  ASSERT_TRUE(probe.AddNumericColumn("pv", std::move(pv)).ok());
  relational::Table build;
  std::vector<double> bk, bv;
  for (int i = 0; i < 2000; ++i) {
    bk.push_back(i % 7);  // ~286 duplicates per key
    bv.push_back(1000 + i);
  }
  ASSERT_TRUE(build.AddNumericColumn("k", std::move(bk)).ok());
  ASSERT_TRUE(build.AddNumericColumn("bv", std::move(bv)).ok());
  ASSERT_TRUE(catalog_.RegisterTable("dup_probe", std::move(probe)).ok());
  ASSERT_TRUE(catalog_.RegisterTable("dup_build", std::move(build)).ok());
  CheckSqlEquivalence(
      "SELECT * FROM dup_probe JOIN dup_build ON k = k",
      /*ordered=*/true);
}

TEST_F(ParallelExecFixture, HashJoinThreeTablesAtParallelism8) {
  // Acceptance shape: a multi-join over the hospital catalog, partitioned
  // at parallelism 8, byte-identical (sorted) vs sequential.
  auto plan = test_util::AnalyzePlan(
      catalog_,
      "SELECT id, age, bp, fetal_hr FROM patient_info AS pi "
      "JOIN blood_tests AS bt ON pi.id = bt.id "
      "JOIN prenatal_tests AS pt ON bt.id = pt.id");
  relational::Table sequential = Run(plan, 1);
  EXPECT_EQ(sequential.num_rows(), hospital_.patient_info.num_rows());
  relational::Table parallel = Run(plan, 8);
  ExpectTablesEqualOrdered(sequential, parallel);
  ExpectTablesEqualSorted(sequential, parallel);  // the acceptance check
}

TEST_F(ParallelExecFixture, Aggregate) {
  CheckSqlEquivalence(
      "SELECT COUNT(*) AS n, SUM(id) AS sum_id, MIN(bp) AS min_bp, "
      "MAX(bp) AS max_bp FROM patients WHERE pregnant = 1",
      /*ordered=*/true);
}

TEST_F(ParallelExecFixture, AggregateOverJoinFlightAndHospital) {
  // Aggregate above a join (two pipeline breakers stacked); also exercises
  // the flight catalog.
  CheckSqlEquivalence(
      "SELECT COUNT(*) AS n, MIN(age) AS min_age FROM patient_info AS pi "
      "JOIN blood_tests AS bt ON pi.id = bt.id WHERE bp > 100",
      /*ordered=*/true);
  // distance is non-integral; SUM accumulates through the order-independent
  // exact accumulator, so even this is bit-identical at every dop.
  auto plan = test_util::AnalyzePlan(
      catalog_,
      "SELECT COUNT(*) AS n, SUM(distance) AS total_distance "
      "FROM flights WHERE delayed = 1");
  relational::Table sequential = Run(plan, 1);
  for (std::int64_t n : {2, 8}) {
    SCOPED_TRACE("parallelism=" + std::to_string(n));
    ExpectTablesEqualOrdered(sequential, Run(plan, n));
  }
}

TEST_F(ParallelExecFixture, GroupByLowCardinalityKey) {
  // Grouped output is emitted in ascending key order in both modes, so even
  // ordered equality must hold.
  CheckSqlEquivalence(
      "SELECT pregnant, COUNT(*) AS n, MIN(bp) AS min_bp, MAX(bp) AS max_bp, "
      "SUM(age) AS sum_age FROM patients GROUP BY pregnant",
      /*ordered=*/true);
}

TEST_F(ParallelExecFixture, GroupByDistinct) {
  // No aggregates: SELECT DISTINCT over the keys, ascending key order.
  CheckSqlEquivalence(
      "SELECT gender, pregnant FROM patients GROUP BY gender, pregnant",
      /*ordered=*/true);
}

TEST_F(ParallelExecFixture, GroupByMultiKeyWithWhere) {
  CheckSqlEquivalence(
      "SELECT gender, pregnant, COUNT(*) AS n, AVG(age) AS mean_age "
      "FROM patients WHERE bp > 100 GROUP BY gender, pregnant",
      /*ordered=*/true);
}

TEST_F(ParallelExecFixture, GroupByHighCardinalityKey) {
  // One group per row (id is unique): stresses the growth of the
  // per-worker tables and their merge rather than a handful of hot groups.
  CheckSqlEquivalence(
      "SELECT id, COUNT(*) AS n, SUM(bp) AS sum_bp FROM patients GROUP BY id",
      /*ordered=*/true);
}

TEST_F(ParallelExecFixture, GroupByHavingAndOrderBy) {
  // AVG over the non-integer bp column: exact float aggregation makes the
  // mean bit-identical regardless of partial-merge order.
  auto plan = test_util::AnalyzePlan(
      catalog_,
      "SELECT gender, AVG(bp) AS mean_bp FROM patients "
      "GROUP BY gender HAVING COUNT(*) > 10 ORDER BY 2 DESC");
  relational::Table sequential = Run(plan, 1);
  ASSERT_GT(sequential.num_rows(), 0);
  for (std::int64_t n : {2, 8}) {
    SCOPED_TRACE("parallelism=" + std::to_string(n));
    ExpectTablesEqualOrdered(sequential, Run(plan, n));
  }
}

TEST_F(ParallelExecFixture, GroupByOverPredict) {
  // The paper's signature grouped-inference shape: per-group PREDICT score
  // distribution with a HAVING cut and a descending sort. Predictions are
  // non-integer floats and still compare bit-for-bit.
  auto plan = test_util::AnalyzePlan(
      catalog_,
      "SELECT pregnant, AVG(p) AS mean_pred, COUNT(*) AS n "
      "FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
      "GROUP BY pregnant HAVING AVG(p) > 0.5 ORDER BY 2 DESC");
  relational::Table sequential = Run(plan, 1);
  ASSERT_GT(sequential.num_rows(), 0);
  for (std::int64_t n : {2, 8}) {
    SCOPED_TRACE("parallelism=" + std::to_string(n));
    ExpectTablesEqualOrdered(sequential, Run(plan, n));
  }
}

TEST_F(ParallelExecFixture, GroupByOverJoin) {
  CheckSqlEquivalence(
      "SELECT pregnant, COUNT(*) AS n, MAX(bp) AS max_bp "
      "FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id "
      "WHERE age > 30 GROUP BY pregnant",
      /*ordered=*/true);
}

TEST_F(ParallelExecFixture, GroupByValuesMatchHandComputed) {
  // Ground truth on a tiny hand-checkable table, at every parallelism.
  relational::Table t;
  ASSERT_TRUE(t.AddNumericColumn("k", {2, 1, 2, 1, 2, 3}).ok());
  ASSERT_TRUE(t.AddNumericColumn("v", {10, 20, 30, 40, 50, 60}).ok());
  ASSERT_TRUE(catalog_.RegisterTable("tiny", std::move(t)).ok());
  auto plan = test_util::AnalyzePlan(
      catalog_,
      "SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, "
      "AVG(v) AS mean FROM tiny GROUP BY k");
  for (std::int64_t dop : {1, 2, 8}) {
    SCOPED_TRACE("parallelism=" + std::to_string(dop));
    relational::Table out = Run(plan, dop);
    ASSERT_EQ(out.num_rows(), 3);
    EXPECT_EQ((*out.GetColumn("k"))->data, (std::vector<double>{1, 2, 3}));
    EXPECT_EQ((*out.GetColumn("n"))->data, (std::vector<double>{2, 3, 1}));
    EXPECT_EQ((*out.GetColumn("s"))->data, (std::vector<double>{60, 90, 60}));
    EXPECT_EQ((*out.GetColumn("lo"))->data, (std::vector<double>{20, 10, 60}));
    EXPECT_EQ((*out.GetColumn("hi"))->data, (std::vector<double>{40, 50, 60}));
    EXPECT_EQ((*out.GetColumn("mean"))->data,
              (std::vector<double>{30, 30, 60}));
  }
}

TEST_F(ParallelExecFixture, GroupByAndOrderByWithNaNKeys) {
  // NaN key values: all NaNs form one group and sort last, at every
  // parallelism — plain operator< would be UB (no strict weak ordering).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  relational::Table t;
  std::vector<double> k, v;
  for (int i = 0; i < 3000; ++i) {
    k.push_back(i % 5 == 0 ? nan : static_cast<double>(i % 3));
    v.push_back(i);
  }
  ASSERT_TRUE(t.AddNumericColumn("k", std::move(k)).ok());
  ASSERT_TRUE(t.AddNumericColumn("v", std::move(v)).ok());
  ASSERT_TRUE(catalog_.RegisterTable("nankeys", std::move(t)).ok());
  auto plan = test_util::AnalyzePlan(
      catalog_, "SELECT k, COUNT(*) AS n FROM nankeys GROUP BY k");
  for (std::int64_t dop : {1, 2, 8}) {
    SCOPED_TRACE("parallelism=" + std::to_string(dop));
    relational::Table out = Run(plan, dop);
    ASSERT_EQ(out.num_rows(), 4);  // 0, 1, 2, NaN
    const auto& keys = (*out.GetColumn("k"))->data;
    const auto& counts = (*out.GetColumn("n"))->data;
    EXPECT_TRUE(std::isnan(keys[3]));  // NaN group sorts last
    EXPECT_EQ(counts[3], 600.0);       // every 5th row
    EXPECT_EQ(counts[0] + counts[1] + counts[2] + counts[3], 3000.0);
  }
  // NaN aggregate INPUTS: MIN/MAX/SUM/AVG over a column containing NaN
  // must be NaN at every parallelism (NaN-propagating partials), not
  // depend on which worker saw the NaN first.
  relational::Table vn;
  std::vector<double> vk, vv;
  for (int i = 0; i < 3000; ++i) {
    vk.push_back(i % 2);
    vv.push_back(i == 1701 ? nan : static_cast<double>(i));
  }
  ASSERT_TRUE(vn.AddNumericColumn("k", std::move(vk)).ok());
  ASSERT_TRUE(vn.AddNumericColumn("v", std::move(vv)).ok());
  ASSERT_TRUE(catalog_.RegisterTable("nanvals", std::move(vn)).ok());
  auto agg_plan = test_util::AnalyzePlan(
      catalog_,
      "SELECT k, MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n "
      "FROM nanvals GROUP BY k");
  for (std::int64_t dop : {1, 2, 8}) {
    SCOPED_TRACE("parallelism=" + std::to_string(dop));
    relational::Table out = Run(agg_plan, dop);
    ASSERT_EQ(out.num_rows(), 2);
    // k=0 (even rows) is NaN-free; k=1 contains the NaN at row 1701.
    EXPECT_EQ((*out.GetColumn("lo"))->data[0], 0.0);
    EXPECT_EQ((*out.GetColumn("hi"))->data[0], 2998.0);
    EXPECT_TRUE(std::isnan((*out.GetColumn("lo"))->data[1]));
    EXPECT_TRUE(std::isnan((*out.GetColumn("hi"))->data[1]));
    EXPECT_EQ((*out.GetColumn("n"))->data[1], 1500.0);
  }

  auto sorted = test_util::AnalyzePlan(
      catalog_, "SELECT k, v FROM nankeys ORDER BY k, v DESC");
  relational::Table sequential = Run(sorted, 1);
  ASSERT_EQ(sequential.num_rows(), 3000);
  EXPECT_TRUE(std::isnan((*sequential.GetColumn("k"))->data.back()));
  for (std::int64_t dop : {2, 8}) {
    SCOPED_TRACE("parallelism=" + std::to_string(dop));
    relational::Table parallel = Run(sorted, dop);
    // v is NaN-free and, with the ORDER BY v tiebreak, uniquely determines
    // row order; k needs NaN-aware equality (NaN != NaN under ==).
    EXPECT_EQ((*sequential.GetColumn("v"))->data,
              (*parallel.GetColumn("v"))->data);
    const auto& ks = (*sequential.GetColumn("k"))->data;
    const auto& kp = (*parallel.GetColumn("k"))->data;
    ASSERT_EQ(ks.size(), kp.size());
    for (std::size_t i = 0; i < ks.size(); ++i) {
      ASSERT_TRUE(ks[i] == kp[i] || (std::isnan(ks[i]) && std::isnan(kp[i])))
          << "row " << i;
    }
  }
}

TEST_F(ParallelExecFixture, GroupBySignedZeroKeysRenderPositiveZero) {
  // -0.0 and +0.0 are one group; its key renders +0.0 at every dop and
  // distributed, whichever row or worker's partial reached the group first.
  relational::Table t;
  std::vector<double> k, v;
  for (int i = 0; i < 4096; ++i) {
    k.push_back(i < 2048 ? -0.0 : 0.0);
    v.push_back(i);
  }
  ASSERT_TRUE(t.AddNumericColumn("k", std::move(k)).ok());
  ASSERT_TRUE(t.AddNumericColumn("v", std::move(v)).ok());
  ASSERT_TRUE(catalog_.RegisterTable("zerokeys", std::move(t)).ok());
  auto plan = test_util::AnalyzePlan(
      catalog_, "SELECT k, COUNT(*) AS n FROM zerokeys GROUP BY k");
  relational::Table expected;
  ASSERT_TRUE(expected.AddNumericColumn("k", {0.0}).ok());
  ASSERT_TRUE(expected.AddNumericColumn("n", {4096.0}).ok());
  for (std::int64_t dop : {1, 2, 4, 8}) {
    SCOPED_TRACE("parallelism=" + std::to_string(dop));
    for (int run = 0; run < 20; ++run) {
      test_util::ExpectTablesBitIdentical(expected,
                                          Run(plan, dop, nullptr, 64));
    }
  }
  PlanExecutor executor(&catalog_, &cache_);
  ExecutionOptions distributed;
  distributed.mode = ExecutionMode::kDistributed;
  distributed.distributed_workers = 2;
  distributed.distributed_frame_timeout_millis = 60000;
  distributed.morsel_rows = 64;
  ExecutionStats stats;
  auto out = executor.Execute(plan, distributed, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  test_util::ExpectTablesBitIdentical(expected, *out);
  EXPECT_GT(stats.frames_sent, 0);
}

/// Ordered-map oracle for `SELECT <keys>, COUNT(*) AS n, SUM(v) AS s,
/// MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS mean FROM t GROUP BY <keys>`:
/// groups under lexicographic TotalDoubleLess (every NaN one key, -0.0 and
/// +0.0 one key), keys rendered canonical (the quiet NaN, +0.0) in
/// ascending order. `v` must be NaN-free and integer-valued, so plain
/// double sums are exact and match the engine's exact SUM/AVG.
relational::Table OracleGroupBy(const relational::Table& t,
                                const std::vector<std::string>& keys) {
  struct Acc {
    double n = 0, s = 0, lo = 0, hi = 0;
  };
  const auto less = [](const std::vector<double>& a,
                       const std::vector<double>& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end(), relational::TotalDoubleLess);
  };
  std::map<std::vector<double>, Acc, decltype(less)> groups(less);
  const auto& v = (*t.GetColumn("v"))->data;
  for (std::size_t r = 0; r < v.size(); ++r) {
    std::vector<double> key;
    for (const auto& k : keys) key.push_back((*t.GetColumn(k))->data[r]);
    Acc& acc = groups[key];
    acc.lo = acc.n == 0 ? v[r] : std::min(acc.lo, v[r]);
    acc.hi = acc.n == 0 ? v[r] : std::max(acc.hi, v[r]);
    acc.s += v[r];
    acc.n += 1;
  }
  std::vector<std::vector<double>> cols(keys.size() + 5);
  for (const auto& [key, acc] : groups) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      cols[k].push_back(std::isnan(key[k])
                            ? std::numeric_limits<double>::quiet_NaN()
                        : key[k] == 0.0 ? 0.0
                                        : key[k]);
    }
    std::size_t c = keys.size();
    for (double agg : {acc.n, acc.s, acc.lo, acc.hi, acc.s / acc.n}) {
      cols[c++].push_back(agg);
    }
  }
  relational::Table out;
  std::vector<std::string> names = keys;
  for (const char* name : {"n", "s", "lo", "hi", "mean"}) {
    names.push_back(name);
  }
  for (std::size_t c = 0; c < names.size(); ++c) {
    EXPECT_TRUE(out.AddNumericColumn(names[c], std::move(cols[c])).ok());
  }
  return out;
}

TEST_F(ParallelExecFixture, GroupByEdgeKeysMatchOrderedMapOracle) {
  // The flat per-worker group tables against an ordered-map oracle, at
  // dop 1/2/8, in memory and on disk, and distributed. Keys are compared by
  // canonical bits, so NaN payloads and signs fold into one group that
  // renders as the quiet NaN and sorts last, and ±0.0 is one group.
  const auto nan_bits = [](std::uint64_t bits) {
    return std::bit_cast<double>(bits);
  };
  const std::vector<double> nans = {
      std::numeric_limits<double>::quiet_NaN(),
      nan_bits(0xfff8000000000000ULL),  // sign bit set
      nan_bits(0x7ff8000000000001ULL),  // payload
      nan_bits(0x7ff0000000000001ULL),  // signaling pattern
      nan_bits(0xffffffffffffffffULL)};
  struct Case {
    std::string name;
    std::vector<std::string> keys;
    std::int64_t rows;
    std::function<double(std::int64_t, std::size_t)> key;  // (row, key col)
  };
  const std::vector<Case> cases = {
      {"gb_nan", {"k1"}, 3000,
       [&](std::int64_t i, std::size_t) {
         return i % 7 == 0 ? nans[static_cast<std::size_t>(i / 7) % 5]
                           : static_cast<double>(i % 3);
       }},
      {"gb_zero", {"k1"}, 3000,
       [](std::int64_t i, std::size_t) {
         return i % 3 == 2 ? 1.0 : (i % 2 == 0 ? -0.0 : 0.0);
       }},
      {"gb_three", {"k1", "k2", "k3"}, 4000,
       [&](std::int64_t i, std::size_t k) {
         if (k == 0) return static_cast<double>(i % 3);
         if (k == 1) return i % 5 == 0 ? (i % 2 ? -0.0 : 0.0) : -2.5;
         return i % 4 == 0 ? nans[static_cast<std::size_t>(i) % 5]
                           : static_cast<double>(i % 2);
       }},
      {"gb_one", {"k1", "k2"}, 3000,
       [](std::int64_t, std::size_t) { return 42.0; }},
      // All distinct: every table grows several times inside one chunk (2048
      // rows sequentially, 512 per morsel) and again across chunks.
      {"gb_distinct", {"k1"}, 10000,
       [](std::int64_t i, std::size_t) {
         return (i % 2 ? -1.0 : 1.0) * static_cast<double>(i) * 1.5;
       }},
  };
  std::vector<std::string> paths;
  for (const Case& c : cases) {
    relational::Table t;
    for (std::size_t k = 0; k < c.keys.size(); ++k) {
      std::vector<double> col;
      for (std::int64_t i = 0; i < c.rows; ++i) col.push_back(c.key(i, k));
      ASSERT_TRUE(t.AddNumericColumn(c.keys[k], std::move(col)).ok());
    }
    std::vector<double> v;
    for (std::int64_t i = 0; i < c.rows; ++i) {
      v.push_back(static_cast<double>((i * 37) % 101) - 50.0);
    }
    ASSERT_TRUE(t.AddNumericColumn("v", std::move(v)).ok());
    const relational::Table expected = OracleGroupBy(t, c.keys);
    const std::string path = ::testing::TempDir() + "/" + c.name + "_" +
                             std::to_string(::getpid()) + ".rvc";
    storage::RvcWriteOptions write;
    write.block_rows = 512;
    ASSERT_TRUE(storage::WriteRvc(t, path, write).ok());
    paths.push_back(path);
    auto disk = storage::DiskTable::Open(path);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    ASSERT_TRUE(catalog_.RegisterTable(c.name, std::move(t)).ok());
    ASSERT_TRUE(catalog_.RegisterDiskTable(c.name + "_disk", *disk).ok());

    std::string keys;
    for (const auto& k : c.keys) keys += (keys.empty() ? "" : ", ") + k;
    const std::string select =
        "SELECT " + keys +
        ", COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, "
        "AVG(v) AS mean FROM ";
    for (const std::string& table : {c.name, c.name + "_disk"}) {
      auto plan = test_util::AnalyzePlan(catalog_, select + table +
                                                       " GROUP BY " + keys);
      for (std::int64_t dop : {1, 2, 8}) {
        for (std::int64_t morsel_rows : {512, 0}) {
          SCOPED_TRACE(table + " dop=" + std::to_string(dop) +
                       " morsel_rows=" + std::to_string(morsel_rows));
          test_util::ExpectTablesBitIdentical(
              expected, Run(plan, dop, nullptr, morsel_rows));
        }
      }
      PlanExecutor executor(&catalog_, &cache_);
      ExecutionOptions distributed;
      distributed.mode = ExecutionMode::kDistributed;
      distributed.distributed_workers = 2;
      distributed.distributed_frame_timeout_millis = 60000;
      distributed.morsel_rows = 256;
      auto out = executor.Execute(plan, distributed);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      SCOPED_TRACE(table + " distributed");
      test_util::ExpectTablesBitIdentical(expected, *out);
    }
  }
  // The NaN group sorts last and renders as the quiet NaN.
  auto nan_plan = test_util::AnalyzePlan(
      catalog_, "SELECT k1, COUNT(*) AS n FROM gb_nan GROUP BY k1");
  const relational::Table nan_out = Run(nan_plan, 8);
  ASSERT_EQ(nan_out.num_rows(), 4);
  EXPECT_EQ(std::bit_cast<std::uint64_t>((*nan_out.GetColumn("k1"))->data[3]),
            std::bit_cast<std::uint64_t>(
                std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ((*nan_out.GetColumn("n"))->data[3], 429.0);  // ceil(3000 / 7)

  // Empty input keeps the grouped schema: the HAVING above the group-by
  // resolves its columns against it at every dop, on disk and distributed.
  for (const std::string table : {"gb_three", "gb_three_disk"}) {
    auto empty = test_util::AnalyzePlan(
        catalog_, "SELECT k1, k2, COUNT(*) AS n FROM " + table +
                      " WHERE v > 1000 GROUP BY k1, k2 HAVING COUNT(*) > 0");
    for (std::int64_t dop : {1, 2, 8}) {
      SCOPED_TRACE(table + " empty, dop=" + std::to_string(dop));
      EXPECT_EQ(Run(empty, dop).num_rows(), 0);
    }
    PlanExecutor executor(&catalog_, &cache_);
    ExecutionOptions distributed;
    distributed.mode = ExecutionMode::kDistributed;
    distributed.distributed_workers = 2;
    distributed.distributed_frame_timeout_millis = 60000;
    auto out = executor.Execute(empty, distributed);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->num_rows(), 0);
  }
  for (const auto& path : paths) std::remove(path.c_str());
}

TEST_F(ParallelExecFixture, SelectionVectorEdgeCases) {
  // Filters mark rows in a selection vector instead of copying columns, so
  // the hairy cases are the boundaries: chunks where nothing survives,
  // tables the size of a chunk +/- 1 (final chunk holds 1 row or 0 extra),
  // empty inputs, and degenerate 1-row morsels. Every shape must be
  // byte-identical across dop {1, 2, 8}.
  auto register_sized = [&](const std::string& name, std::int64_t rows) {
    relational::Table t;
    std::vector<double> id, v;
    for (std::int64_t i = 0; i < rows; ++i) {
      id.push_back(static_cast<double>(i));
      v.push_back(static_cast<double>(i % 10));
    }
    ASSERT_TRUE(t.AddNumericColumn("id", std::move(id)).ok());
    ASSERT_TRUE(t.AddNumericColumn("v", std::move(v)).ok());
    ASSERT_TRUE(catalog_.RegisterTable(name, std::move(t)).ok());
  };
  // kChunkSize boundary sizes, plus empty and single-row tables.
  ASSERT_EQ(relational::kChunkSize, 2048);  // sizes below track this
  ASSERT_NO_FATAL_FAILURE(register_sized("sel_0", 0));
  ASSERT_NO_FATAL_FAILURE(register_sized("sel_1", 1));
  ASSERT_NO_FATAL_FAILURE(register_sized("sel_2047", 2047));
  ASSERT_NO_FATAL_FAILURE(register_sized("sel_2048", 2048));
  ASSERT_NO_FATAL_FAILURE(register_sized("sel_2049", 2049));

  auto run_with = [&](const ir::IrPlan& plan, std::int64_t dop,
                      std::int64_t morsel_rows) {
    PlanExecutor executor(&catalog_, &cache_);
    ExecutionOptions options;
    options.parallelism = dop;
    options.morsel_rows = morsel_rows;
    auto result = executor.Execute(plan, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result).value() : relational::Table();
  };

  const std::vector<std::string> shapes = {
      // All rows filtered (v < 0 never holds): empty result incl. the
      // final partial chunk.
      "SELECT id, v FROM $T WHERE v < 0",
      // Everything survives: selection is all-rows on every chunk.
      "SELECT id, v + 1 AS w FROM $T WHERE v >= 0",
      // Sparse survivors: exercises gather-compaction through projection.
      "SELECT id, v * 2 AS w FROM $T WHERE v = 7",
      // Selection feeding an aggregate (iterates sel instead of copying).
      "SELECT COUNT(*) AS n, SUM(v) AS s FROM $T WHERE v >= 5",
      // Selection feeding a sort.
      "SELECT id, v FROM $T WHERE v = 3 ORDER BY id DESC",
  };
  for (const std::string table :
       {"sel_0", "sel_1", "sel_2047", "sel_2048", "sel_2049"}) {
    for (const std::string& shape : shapes) {
      std::string sql = shape;
      sql.replace(sql.find("$T"), 2, table);
      SCOPED_TRACE(sql);
      auto plan = test_util::AnalyzePlan(catalog_, sql);
      relational::Table sequential = run_with(plan, 1, 512);
      for (std::int64_t dop : {2, 8}) {
        SCOPED_TRACE("parallelism=" + std::to_string(dop));
        ExpectTablesEqualOrdered(sequential, run_with(plan, dop, 512));
      }
      // Degenerate single-row morsels at dop 8.
      SCOPED_TRACE("morsel_rows=1");
      if (table != "sel_2047" && table != "sel_2049") {
        // (bounded: 1-row morsels over the large tables are covered by
        // sel_2048; skipping two sizes keeps the test fast without losing
        // a distinct boundary)
        ExpectTablesEqualOrdered(sequential, run_with(plan, 8, 1));
      }
    }
  }
  // COUNT/SUM over the empty table still yields the aggregate identity row
  // (0, +0.0) — and +0.0, not -0.0, from the exact accumulator.
  auto agg = test_util::AnalyzePlan(
      catalog_, "SELECT COUNT(*) AS n, SUM(v) AS s FROM sel_0");
  for (std::int64_t dop : {1, 2, 8}) {
    relational::Table out = run_with(agg, dop, 512);
    ASSERT_EQ(out.num_rows(), 1);
    EXPECT_EQ((*out.GetColumn("n"))->data[0], 0.0);
    const double s = (*out.GetColumn("s"))->data[0];
    EXPECT_EQ(s, 0.0);
    EXPECT_FALSE(std::signbit(s));
  }
}

TEST_F(ParallelExecFixture, DivisionByZeroFlowsThroughOrderByAndGroupBy) {
  // x / 0 produces +inf, -inf or NaN (0/0) per IEEE-754 and each must flow
  // through downstream operators instead of faulting: ORDER BY places
  // infinities at the extremes and NaN last; GROUP BY normalizes every NaN
  // into one group. Identical at every dop.
  relational::Table t;
  std::vector<double> x, d;
  for (int i = 0; i < 3000; ++i) {
    // x cycles through negative/zero/positive; every 3rd divisor is 0.
    x.push_back(static_cast<double>((i % 7) - 3));
    d.push_back(i % 3 == 0 ? 0.0 : static_cast<double>((i % 5) + 1));
  }
  ASSERT_TRUE(t.AddNumericColumn("x", std::move(x)).ok());
  ASSERT_TRUE(t.AddNumericColumn("d", std::move(d)).ok());
  ASSERT_TRUE(catalog_.RegisterTable("divzero", std::move(t)).ok());

  // ORDER BY over the quotient: -inf rows first, NaN rows (0/0) last.
  auto sorted = test_util::AnalyzePlan(
      catalog_,
      "SELECT x, d, x / d AS q FROM divzero ORDER BY q, x, d");
  relational::Table sequential = Run(sorted, 1);
  ASSERT_EQ(sequential.num_rows(), 3000);
  const auto& q = (*sequential.GetColumn("q"))->data;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(q.front(), -inf);
  EXPECT_TRUE(std::isnan(q.back()));  // NaN sorts last
  EXPECT_GT(std::count(q.begin(), q.end(), inf), 0);  // x > 0, d == 0 rows
  for (std::int64_t dop : {2, 8}) {
    SCOPED_TRACE("parallelism=" + std::to_string(dop));
    relational::Table parallel = Run(sorted, dop);
    const auto& qs = (*parallel.GetColumn("q"))->data;
    ASSERT_EQ(q.size(), qs.size());
    for (std::size_t i = 0; i < q.size(); ++i) {
      ASSERT_TRUE(q[i] == qs[i] || (std::isnan(q[i]) && std::isnan(qs[i])))
          << "row " << i;
    }
    // x and d are NaN-free, so plain vector equality pins the row order.
    EXPECT_EQ((*sequential.GetColumn("x"))->data,
              (*parallel.GetColumn("x"))->data);
    EXPECT_EQ((*sequential.GetColumn("d"))->data,
              (*parallel.GetColumn("d"))->data);
  }

  // GROUP BY over the quotient: +/-inf are ordinary keys, all NaNs
  // (whatever their payload) collapse into a single group that sorts last.
  // GROUP BY keys must be bare columns, so materialize the engine-computed
  // quotient as a table first (the division above already ran per dop).
  relational::Table qt;
  ASSERT_TRUE(qt.AddNumericColumn("q", q).ok());
  ASSERT_TRUE(catalog_.RegisterTable("divzero_q", std::move(qt)).ok());
  auto grouped = test_util::AnalyzePlan(
      catalog_, "SELECT q, COUNT(*) AS n FROM divzero_q GROUP BY q");
  relational::Table gseq = Run(grouped, 1);
  const auto& gq = (*gseq.GetColumn("q"))->data;
  const auto& gn = (*gseq.GetColumn("n"))->data;
  ASSERT_GT(gseq.num_rows(), 3);
  EXPECT_EQ(gq.front(), -inf);
  EXPECT_TRUE(std::isnan(gq.back()));
  // Count NaN rows by hand: x % 7 == 3 (x == 0) AND i % 3 == 0 (d == 0).
  double expected_nan = 0;
  for (int i = 0; i < 3000; ++i) {
    if ((i % 7) - 3 == 0 && i % 3 == 0) ++expected_nan;
  }
  EXPECT_EQ(gn.back(), expected_nan);
  for (std::int64_t dop : {2, 8}) {
    SCOPED_TRACE("parallelism=" + std::to_string(dop));
    relational::Table parallel = Run(grouped, dop);
    const auto& pq = (*parallel.GetColumn("q"))->data;
    ASSERT_EQ(gq.size(), pq.size());
    for (std::size_t i = 0; i < gq.size(); ++i) {
      ASSERT_TRUE(gq[i] == pq[i] || (std::isnan(gq[i]) && std::isnan(pq[i])))
          << "key row " << i;
    }
    EXPECT_EQ(gn, (*parallel.GetColumn("n"))->data);
  }
}

TEST_F(ParallelExecFixture, OrderByRestoresDeterministicOrder) {
  // Multi-key sort with ties (pregnant is binary): the stable sort must
  // break ties by sequential row order, making parallel output identical.
  CheckSqlEquivalence(
      "SELECT id, age, pregnant FROM patients ORDER BY pregnant DESC, age",
      /*ordered=*/true);
  // Sort over a star select (no projection above the scan).
  CheckSqlEquivalence("SELECT * FROM patients ORDER BY bp DESC",
                      /*ordered=*/true);
}

TEST_F(ParallelExecFixture, OrderByIsActuallySorted) {
  auto plan = test_util::AnalyzePlan(
      catalog_, "SELECT id, bp FROM patients ORDER BY bp DESC");
  relational::Table out = Run(plan, 8);
  const auto& bp = (*out.GetColumn("bp"))->data;
  ASSERT_EQ(out.num_rows(), hospital_.joined.num_rows());
  for (std::size_t i = 1; i < bp.size(); ++i) {
    ASSERT_GE(bp[i - 1], bp[i]) << "row " << i;
  }
}

TEST_F(ParallelExecFixture, OrderByWithLimitRunsSequential) {
  // Top-N: LIMIT still pins sequential execution; result is the sorted
  // prefix either way.
  auto plan = test_util::AnalyzePlan(
      catalog_, "SELECT id, age FROM patients ORDER BY age DESC LIMIT 10");
  ExecutionStats stats;
  relational::Table out = Run(plan, 8, &stats);
  EXPECT_EQ(out.num_rows(), 10);
  EXPECT_EQ(stats.partitions_used, 1);
  ExpectTablesEqualOrdered(Run(plan, 1), out);
}

TEST_F(ParallelExecFixture, AvgMatchesBitIdentical) {
  // AVG folds per-worker exact partials in worker order; integer and
  // non-integer columns alike must match bit-for-bit.
  for (const std::string sql :
       {"SELECT AVG(age) AS mean_age, COUNT(*) AS n FROM patient_info",
        "SELECT AVG(distance) AS mean_distance, SUM(distance) AS s "
        "FROM flights"}) {
    SCOPED_TRACE(sql);
    auto plan = test_util::AnalyzePlan(catalog_, sql);
    relational::Table sequential = Run(plan, 1);
    relational::Table parallel = Run(plan, 8);
    ExpectTablesEqualOrdered(sequential, parallel);
  }
}

TEST_F(ParallelExecFixture, JoinWithUnionBuildSideKeepsArrivalOrder) {
  // Build side = union of two >kChunkSize scans: both branches reuse
  // (source 0, morsel 0..) in sequential mode, so the owning join re-tags
  // chunks with arrival indices — without that, FinalizeBuild's provenance
  // sort would interleave the branches and reorder duplicate-key matches.
  auto make_keyed = [&](const std::string& name, double offset) {
    relational::Table t;
    std::vector<double> k, v;
    for (int i = 0; i < 2500; ++i) {
      k.push_back(i % 50);
      v.push_back(offset + i);
    }
    ASSERT_TRUE(t.AddNumericColumn("k", std::move(k)).ok());
    ASSERT_TRUE(t.AddNumericColumn("v", std::move(v)).ok());
    ASSERT_TRUE(catalog_.RegisterTable(name, std::move(t)).ok());
  };
  make_keyed("ub_a", 10000);
  make_keyed("ub_b", 20000);
  relational::Table probe;
  std::vector<double> pk, pv;
  for (int i = 0; i < 100; ++i) {
    pk.push_back(i % 50);
    pv.push_back(i);
  }
  ASSERT_TRUE(probe.AddNumericColumn("k", std::move(pk)).ok());
  ASSERT_TRUE(probe.AddNumericColumn("pv", std::move(pv)).ok());
  ASSERT_TRUE(catalog_.RegisterTable("ub_probe", std::move(probe)).ok());

  std::vector<ir::IrNodePtr> branches;
  branches.push_back(ir::IrNode::TableScan("ub_a"));
  branches.push_back(ir::IrNode::TableScan("ub_b"));
  ir::IrPlan plan(ir::IrNode::Join(ir::IrNode::TableScan("ub_probe"),
                                   ir::IrNode::UnionAll(std::move(branches)),
                                   "k", "k"));
  // Sequential output must list all ub_a matches before ub_b matches per
  // probe row (arrival order), and parallel must match it exactly.
  relational::Table sequential = Run(plan, 1);
  const auto& v = (*sequential.GetColumn("v"))->data;
  ASSERT_EQ(sequential.num_rows(), 100 * 100);
  EXPECT_LT(v[0], 20000);                       // first match from ub_a
  EXPECT_GE(v[99], 20000);                      // later matches from ub_b
  CheckPlanEquivalence(plan, /*ordered=*/true);
}

TEST_F(ParallelExecFixture, HashJoinEdgeCasesMatchNestedLoopOracle) {
  // Each case runs at dop 1 (owning join), 4 and 8 (morsel-parallel build,
  // probe-only joins) and must equal the nested-loop oracle bit for bit,
  // output order included. Tables span many 512-row morsels.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto register_table = [&](const std::string& name, const std::string& key,
                            std::vector<double> keys,
                            const std::string& payload, double base) {
    relational::Table t;
    std::vector<double> values;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      values.push_back(base + static_cast<double>(i));
    }
    ASSERT_TRUE(t.AddNumericColumn(key, std::move(keys)).ok());
    ASSERT_TRUE(t.AddNumericColumn(payload, std::move(values)).ok());
    ASSERT_TRUE(catalog_.RegisterTable(name, std::move(t)).ok());
  };
  auto keys_of = [](int n, const std::function<double(int)>& key) {
    std::vector<double> keys;
    for (int i = 0; i < n; ++i) keys.push_back(key(i));
    return keys;
  };
  register_table("zero_probe", "pk",
                 keys_of(1500, [](int i) { return i % 2 ? -0.0 : 0.0; }),
                 "p", 0);
  register_table("zero_build", "bk",
                 keys_of(1200, [](int i) {
                   return i % 3 == 0 ? -0.0 : (i % 3 == 1 ? 0.0 : 1.0 + i);
                 }),
                 "b", 10000);
  register_table("nan_probe", "k",
                 keys_of(2000, [&](int i) { return i % 3 ? nan : i % 11; }),
                 "p", 0);
  register_table("nan_build", "k",
                 keys_of(1800, [&](int i) { return i % 2 ? nan : i % 13; }),
                 "b", 10000);
  register_table("empty_build", "k", {}, "b", 10000);
  register_table("miss_build", "k",
                 keys_of(1000, [](int i) { return -1.0 - i; }), "b", 10000);
  register_table("dup_probe2", "k",
                 keys_of(3000, [](int i) {
                   return i % 4 == 0 ? i % 6 : 100.0 + 0.5 * ((i * 7) % 5000);
                 }),
                 "p", 0);
  register_table("dup_build2", "k",
                 keys_of(4000, [](int i) {
                   return i % 3 == 0 ? i % 5 : 100.0 + 0.5 * i;
                 }),
                 "b", 10000);
  register_table("union_a", "k", keys_of(1500, [](int i) { return i % 30; }),
                 "b", 10000);
  register_table("union_b", "k", keys_of(1500, [](int i) { return i % 30; }),
                 "b", 20000);
  register_table("union_probe", "k",
                 keys_of(700, [](int i) { return i % 35; }), "p", 0);

  using ir::IrNode;
  auto scan = [](const std::string& name) { return IrNode::TableScan(name); };
  auto table = [&](const std::string& name) {
    return **catalog_.GetTable(name);
  };
  struct Case {
    std::string name;
    ir::IrNodePtr probe;
    ir::IrNodePtr build;
    relational::Table probe_rows;  // the probe side's logical rows
    relational::Table build_rows;
    std::string left_key;
    std::string right_key;
  };
  std::vector<Case> cases;
  cases.push_back({"signed zeros", scan("zero_probe"), scan("zero_build"),
                   table("zero_probe"), table("zero_build"), "pk", "bk"});
  cases.push_back({"NaN keys", scan("nan_probe"), scan("nan_build"),
                   table("nan_probe"), table("nan_build"), "k", "k"});
  cases.push_back({"empty build", scan("dup_probe2"), scan("empty_build"),
                   table("dup_probe2"), table("empty_build"), "k", "k"});
  cases.push_back({"all miss", scan("dup_probe2"), scan("miss_build"),
                   table("dup_probe2"), table("miss_build"), "k", "k"});
  cases.push_back({"duplicates and collisions", scan("dup_probe2"),
                   scan("dup_build2"), table("dup_probe2"),
                   table("dup_build2"), "k", "k"});
  {
    // A filter dropping the key-0 rows (one in twelve) leaves a selection
    // vector on the probe chunks: dense survivors are marked, not copied.
    relational::Table kept;
    const auto& k = (*catalog_.GetTable("dup_probe2"))->columns()[0].data;
    const auto& p = (*catalog_.GetTable("dup_probe2"))->columns()[1].data;
    std::vector<double> kept_k, kept_p;
    for (std::size_t i = 0; i < k.size(); ++i) {
      if (!(k[i] > 0.5)) continue;
      kept_k.push_back(k[i]);
      kept_p.push_back(p[i]);
    }
    ASSERT_TRUE(kept.AddNumericColumn("k", std::move(kept_k)).ok());
    ASSERT_TRUE(kept.AddNumericColumn("p", std::move(kept_p)).ok());
    auto keep = relational::Gt(relational::Col("k"), relational::Lit(0.5));
    cases.push_back({"filtered probe", IrNode::Filter(scan("dup_probe2"),
                                                      std::move(keep)),
                     scan("dup_build2"), std::move(kept), table("dup_build2"),
                     "k", "k"});
  }
  {
    std::vector<ir::IrNodePtr> branches;
    branches.push_back(scan("union_a"));
    branches.push_back(scan("union_b"));
    cases.push_back({"union build", scan("union_probe"),
                     IrNode::UnionAll(std::move(branches)),
                     table("union_probe"),
                     *relational::ConcatTables(
                         {table("union_a"), table("union_b")}),
                     "k", "k"});
  }

  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    const relational::Table expected = test_util::NestedLoopJoin(
        c.probe_rows, c.build_rows, c.left_key, c.right_key);
    ir::IrPlan plan(IrNode::Join(std::move(c.probe), std::move(c.build),
                                 c.left_key, c.right_key));
    for (std::int64_t dop : {1, 4, 8}) {
      SCOPED_TRACE("parallelism=" + std::to_string(dop));
      test_util::ExpectTablesBitIdentical(expected, Run(plan, dop));
    }
  }
}

TEST_F(ParallelExecFixture, UnionAll) {
  // No UNION in the SQL dialect; build the IR directly, as the model-query
  // splitting rule does.
  using relational::Col;
  using relational::Gt;
  using relational::Lit;
  auto make_plan = [] {
    std::vector<ir::IrNodePtr> branches;
    branches.push_back(ir::IrNode::Filter(ir::IrNode::TableScan("patients"),
                                          Gt(Col("bp"), Lit(120))));
    branches.push_back(ir::IrNode::Filter(
        ir::IrNode::TableScan("patients"),
        relational::Not(Gt(Col("bp"), Lit(120)))));
    return ir::IrPlan(ir::IrNode::UnionAll(std::move(branches)));
  };
  // Union children drain in child order per worker and each branch keeps
  // its own morsel ordering, so even ordered equality holds.
  CheckPlanEquivalence(make_plan(), /*ordered=*/true);
}

TEST_F(ParallelExecFixture, PredictPipeline) {
  CheckSqlEquivalence(
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
      "WHERE p > 5",
      /*ordered=*/true);
}

TEST_F(ParallelExecFixture, PredictOverJoinAtParallelism8) {
  // The paper's running example: 3-way join feeding PREDICT, fully
  // partitioned.
  auto plan =
      test_util::AnalyzePlan(catalog_, test_util::RunningExampleSql());
  relational::Table sequential = Run(plan, 1);
  EXPECT_GT(sequential.num_rows(), 0);
  relational::Table parallel = Run(plan, 8);
  ExpectTablesEqualOrdered(sequential, parallel);
}

TEST_F(ParallelExecFixture, LimitPlansFallBackToSequential) {
  auto plan = test_util::AnalyzePlan(
      catalog_, "SELECT id FROM patients WHERE bp > 100 LIMIT 25");
  ExecutionStats stats;
  relational::Table out = Run(plan, 8, &stats);
  EXPECT_EQ(out.num_rows(), 25);
  EXPECT_EQ(stats.partitions_used, 1);  // LIMIT pins sequential execution
  ExpectTablesEqualOrdered(Run(plan, 1), out);
}

TEST_F(ParallelExecFixture, StatsAggregateAcrossWorkers) {
  auto plan = test_util::AnalyzePlan(
      catalog_,
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float)");
  ExecutionStats stats;
  relational::Table out = Run(plan, 4, &stats);
  ASSERT_EQ(out.num_rows(), hospital_.joined.num_rows());

  EXPECT_EQ(stats.partitions_used, 4);
  // 5000 rows at 512-row morsels -> 10 morsels dispensed for the one scan.
  EXPECT_EQ(stats.morsels, 10);
  EXPECT_GT(stats.predict_batches, 0);
  EXPECT_EQ(stats.rows_out, hospital_.joined.num_rows());

  // Per-operator counters: every operator of the plan reports, and the
  // worker-summed row counts are consistent with the table sizes.
  ASSERT_FALSE(stats.operators.empty());
  auto find_op = [&](const std::string& prefix) -> const OperatorStats* {
    for (const auto& op : stats.operators) {
      if (op.op.rfind(prefix, 0) == 0) return &op;
    }
    return nullptr;
  };
  const OperatorStats* scan = find_op("Scan(");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->rows, hospital_.joined.num_rows());
  EXPECT_EQ(scan->chunks, 10);  // one chunk per morsel
  // The PREDICT and the projection above it fuse into one operator; the
  // stats row carries the fused label and the chain's final row count.
  const OperatorStats* predict = find_op("Fused[Predict(");
  ASSERT_NE(predict, nullptr);
  EXPECT_EQ(predict->rows, hospital_.joined.num_rows());
  EXPECT_GE(predict->wall_micros, 0.0);
  EXPECT_EQ(stats.fused_chains, 1);

  // The same query sequentially reports the same totals (work is invariant
  // to the worker count).
  ExecutionStats seq_stats;
  Run(plan, 1, &seq_stats);
  EXPECT_EQ(seq_stats.partitions_used, 1);
  EXPECT_EQ(seq_stats.rows_out, stats.rows_out);
}

TEST_F(ParallelExecFixture, ParallelJoinBuildsAreChargedInclusively) {
  // A parallel build runs as its own pipeline before the probe's workers
  // open the join, yet the stats must read as a sequential run's would: a
  // join's Open time holds its build (so it is at least the build child's
  // busy time), and every operator above a join includes the join's time.
  auto plan = test_util::AnalyzePlan(
      catalog_,
      "SELECT id, age, bp, fetal_hr FROM patient_info AS pi "
      "JOIN blood_tests AS bt ON pi.id = bt.id "
      "JOIN prenatal_tests AS pt ON bt.id = pt.id");
  for (std::int64_t dop : {1, 4}) {
    SCOPED_TRACE("parallelism=" + std::to_string(dop));
    ExecutionStats stats;
    Run(plan, dop, &stats);
    auto busy = [&](const ir::IrNode* node) {
      double total = 0.0;
      for (const auto& op : stats.operators) {
        if (op.node == node) total += op.open_micros + op.wall_micros;
      }
      return total;
    };
    auto has_slot = [&](const ir::IrNode* node) {
      for (const auto& op : stats.operators) {
        if (op.node == node) return true;
      }
      return false;
    };
    int joins = 0;
    ir::VisitIr(plan.root(), [&](const ir::IrNode* node) {
      if (!has_slot(node)) return;
      for (const auto& child : node->children) {
        EXPECT_GE(busy(node), busy(child.get()))
            << ir::IrOpKindToString(node->kind) << " over "
            << ir::IrOpKindToString(child->kind);
      }
      if (node->kind != ir::IrOpKind::kJoin) return;
      ++joins;
      for (const auto& op : stats.operators) {
        if (op.node == node) {
          EXPECT_GE(op.open_micros, busy(node->children[1].get()));
        }
      }
    });
    EXPECT_EQ(joins, 2);
  }
}

// Right-sizing: each pipeline starts one worker tree per morsel of its scan
// queues, capped at the dop, and a one-morsel pipeline drains on the
// calling thread. None of that may change a result bit.
TEST_F(ParallelExecFixture, RightSizedAroundMorselBoundaries) {
  using relational::kChunkSize;
  for (std::int64_t rows :
       {std::int64_t{0}, std::int64_t{1}, kChunkSize, kChunkSize + 1,
        4 * kChunkSize + 1}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    const std::string name = "rs_" + std::to_string(rows);
    ASSERT_NO_FATAL_FAILURE(RegisterKeyed(name, rows, 7, "v"));
    CheckRightSized(test_util::AnalyzePlan(
                        catalog_, "SELECT id, v * 2 + 1 AS w FROM " + name +
                                      " WHERE v > 3"),
                    (rows + kChunkSize - 1) / kChunkSize);
  }
}

TEST_F(ParallelExecFixture, RightSizedUnionOfOneMorselScans) {
  ASSERT_NO_FATAL_FAILURE(RegisterKeyed("rs_a", 1500, 7, "v"));
  ASSERT_NO_FATAL_FAILURE(RegisterKeyed("rs_b", 900, 7, "v"));
  std::vector<ir::IrNodePtr> branches;
  branches.push_back(ir::IrNode::TableScan("rs_a"));
  branches.push_back(ir::IrNode::TableScan("rs_b"));
  // One morsel per branch: the pipeline has two, so two workers.
  CheckRightSized(ir::IrPlan(ir::IrNode::UnionAll(std::move(branches))), 2);
}

TEST_F(ParallelExecFixture, RightSizedJoinBuildAndProbe) {
  // 500 unique build keys against 5000 probe rows (3 morsels), both ways
  // round: the one-morsel side runs inline, the other on three workers.
  ASSERT_NO_FATAL_FAILURE(RegisterKeyed("rs_small", 500, 500, "s"));
  ASSERT_NO_FATAL_FAILURE(RegisterKeyed("rs_big", 5000, 500, "b"));
  auto join = [](const std::string& probe, const std::string& build) {
    return ir::IrPlan(ir::IrNode::ProjectColumns(
        ir::IrNode::Join(ir::IrNode::TableScan(probe),
                         ir::IrNode::TableScan(build), "k", "k"),
        {"k", "s", "b"}));
  };
  {
    SCOPED_TRACE("one-morsel build, three-morsel probe");
    CheckRightSized(join("rs_big", "rs_small"), 3);
  }
  {
    SCOPED_TRACE("three-morsel build, one-morsel probe");
    CheckRightSized(join("rs_small", "rs_big"), 3);
  }
}

TEST_F(ParallelExecFixture, RightSizedRescanOfSmallMaterializedResult) {
  // The breaker's pipeline scans 5000 rows (3 morsels); the root pipeline
  // above it rescans a result of a few hundred rows (one morsel).
  ASSERT_NO_FATAL_FAILURE(RegisterKeyed("rs_rows", 5000, 300, "v"));
  {
    SCOPED_TRACE("GROUP BY ... HAVING");
    auto plan = test_util::AnalyzePlan(
        catalog_,
        "SELECT k, SUM(v) AS s, COUNT(*) AS n "
        "FROM rs_rows GROUP BY k HAVING SUM(v) > 100");
    ASSERT_NE(plan.root()->kind, ir::IrOpKind::kGroupBy);  // a rescan above
    CheckRightSized(plan, 3);
  }
  {
    SCOPED_TRACE("ORDER BY under a projection");
    CheckRightSized(
        ir::IrPlan(ir::IrNode::ProjectColumns(
            ir::IrNode::OrderBy(
                ir::IrNode::Filter(ir::IrNode::TableScan("rs_rows"),
                                   relational::Lt(relational::Col("id"),
                                                  relational::Lit(700))),
                {ir::SortKey{"v", true}}),
            {"id", "v"})),
        3);
  }
}

TEST_F(ParallelExecFixture, RightSizedOneBlockDiskTable) {
  ASSERT_NO_FATAL_FAILURE(RegisterKeyed("rs_mem", 3000, 7, "v"));
  const std::string path = ::testing::TempDir() + "/right_sized_" +
                           std::to_string(::getpid()) + ".rvc";
  ASSERT_TRUE(
      storage::WriteRvc(**catalog_.GetTable("rs_mem"), path).ok());
  auto disk = storage::DiskTable::Open(path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ASSERT_EQ((*disk)->num_blocks(), 1);
  ASSERT_TRUE(catalog_.RegisterDiskTable("rs_disk", *disk).ok());
  CheckRightSized(
      test_util::AnalyzePlan(
          catalog_, "SELECT id, v * 2 AS w FROM rs_disk WHERE v > 10"),
      1);
  std::remove(path.c_str());
}

TEST_F(ParallelExecFixture, ExecuteSpanReportsWorkersStarted) {
  // A 2048-row statement is one morsel: dop 4 starts one worker tree. The
  // 5000-row patients table at 512-row morsels is ten: dop 4 starts four.
  // partitions_used keeps reporting the dop either way.
  ASSERT_NO_FATAL_FAILURE(
      RegisterKeyed("rs_2k", relational::kChunkSize, 7, "v"));
  auto small = test_util::AnalyzePlan(
      catalog_, "SELECT id, v * 2 AS w FROM rs_2k WHERE v > 3");
  EXPECT_EQ(ExecuteDetail(small, 4, 0), "mode=parallel dop=4 workers=1");
  auto large = test_util::AnalyzePlan(
      catalog_, "SELECT id, bp * 2 AS w FROM patients WHERE bp > 100");
  EXPECT_EQ(ExecuteDetail(large, 4, 512), "mode=parallel dop=4 workers=4");
  ExecutionStats stats;
  Run(small, 4, &stats, 0);
  EXPECT_EQ(stats.partitions_used, 4);
}

TEST_F(ParallelExecFixture, AggregateOverNonKeyJoinSurvivesOptimizer) {
  // Regression: join elimination must not fire below an aggregate. With a
  // build side matching only half the probe rows, dropping the join (its
  // columns are unreferenced by COUNT(*)) would return 4 instead of 2.
  relational::Table a;
  ASSERT_TRUE(a.AddNumericColumn("id", {1, 2, 3, 4}).ok());
  relational::Table b;
  ASSERT_TRUE(b.AddNumericColumn("bid", {1, 2}).ok());
  ASSERT_TRUE(catalog_.RegisterTable("probe4", std::move(a)).ok());
  ASSERT_TRUE(catalog_.RegisterTable("build2", std::move(b)).ok());

  auto plan = test_util::AnalyzePlan(
      catalog_,
      "SELECT COUNT(*) AS n FROM probe4 JOIN build2 ON id = bid");
  optimizer::CrossOptimizer optimizer(&catalog_, optimizer::OptimizerOptions());
  ASSERT_TRUE(optimizer.Optimize(&plan).ok());
  EXPECT_EQ(plan.CountKind(ir::IrOpKind::kJoin), 1u);  // join survived

  for (std::int64_t n : {1, 8}) {
    relational::Table out = Run(plan, n);
    ASSERT_EQ(out.num_rows(), 1);
    EXPECT_EQ((*out.GetColumn("n"))->data[0], 2.0) << "parallelism " << n;
  }
}

/// Filter predicates plus projection items in `plan`: the expressions its
/// operators compile.
std::int64_t ExpressionCount(const ir::IrPlan& plan) {
  std::int64_t count = 0;
  ir::VisitIr(plan.root(), [&count](const ir::IrNode* node) {
    if (node->kind == ir::IrOpKind::kFilter) ++count;
    if (node->kind == ir::IrOpKind::kProject) {
      count += static_cast<std::int64_t>(node->proj_exprs.size());
    }
  });
  return count;
}

TEST_F(ParallelExecFixture, EachExpressionCompilesOnceAtAnyDop) {
  // Worker trees share their statement's compiled programs: one compile
  // per expression whether 1 or 8 trees open it, in memory and on disk.
  const std::string path = ::testing::TempDir() + "/compile_once_" +
                           std::to_string(::getpid()) + ".rvc";
  storage::RvcWriteOptions write;
  write.block_rows = 512;
  ASSERT_TRUE(storage::WriteRvc(hospital_.joined, path, write).ok());
  auto disk = storage::DiskTable::Open(path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ASSERT_TRUE(catalog_.RegisterDiskTable("patients_disk", *disk).ok());
  optimizer::CrossOptimizer optimizer(&catalog_, optimizer::OptimizerOptions());
  for (const std::string table : {"patients", "patients_disk"}) {
    for (const std::string& sql :
         {"SELECT id, p FROM PREDICT(MODEL='los', DATA=" + table +
              ") WITH(p float) WHERE bp > 120",
          "SELECT gender, COUNT(*) AS n, AVG(p) AS mean_p FROM PREDICT("
          "MODEL='los', DATA=" + table + ") WITH(p float) WHERE age > 30 "
          "GROUP BY gender HAVING COUNT(*) > 1",
          "SELECT id, bp * 2 + age AS w, bp - 1 AS v FROM " + table +
              " WHERE bp > 100 AND age < 60"}) {
      SCOPED_TRACE(sql);
      auto plan = test_util::AnalyzePlan(catalog_, sql);
      ASSERT_TRUE(optimizer.Optimize(&plan).ok());
      const std::int64_t expressions = ExpressionCount(plan);
      ASSERT_GT(expressions, 0) << plan.ToString();
      for (std::int64_t dop : {1, 2, 4, 8}) {
        SCOPED_TRACE("parallelism=" + std::to_string(dop));
        ExecutionStats stats;
        Run(plan, dop, &stats);
        EXPECT_EQ(stats.programs_compiled, expressions);
        // Several trees really opened the programs.
        if (dop > 1) {
          EXPECT_GE(stats.morsels, dop);
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(ParallelExecFixture, OpenTimeDiagnosticsReadTheSameAtAnyDop) {
  using relational::Col;
  using relational::Gt;
  using relational::Lit;
  auto unknown_filter = [] {
    return ir::IrPlan(ir::IrNode::Filter(ir::IrNode::TableScan("patients"),
                                         Gt(Col("nope"), Lit(1))));
  };
  auto unknown_projection = [] {
    std::vector<relational::ExprPtr> exprs;
    exprs.push_back(Col("nope"));
    return ir::IrPlan(ir::IrNode::Project(ir::IrNode::TableScan("patients"),
                                          std::move(exprs), {"n"}));
  };
  auto ambiguous = [] {
    std::vector<relational::ExprPtr> exprs;
    exprs.push_back(Col("bp"));
    exprs.push_back(Col("age"));
    return ir::IrPlan(ir::IrNode::Filter(
        ir::IrNode::Project(ir::IrNode::TableScan("patients"),
                            std::move(exprs), {"x", "x"}),
        Gt(Col("x"), Lit(0))));
  };
  auto unbound = [this] {
    return test_util::AnalyzePlan(
        catalog_, "SELECT id, bp FROM patients WHERE bp > ?");
  };
  const std::vector<std::pair<std::function<ir::IrPlan()>, std::string>>
      cases = {
          {unknown_filter, "column 'nope' not found (resolving Filter "
                           "predicate)"},
          {unknown_projection, "column 'nope' not found (resolving Project "
                               "expression 'n')"},
          {ambiguous, "column 'x' is ambiguous (2 matches, resolving "
                      "Fused[Project+Filter] filter predicate)"},
          {unbound, "unbound prepared-statement parameter ?1"},
      };
  PlanExecutor executor(&catalog_, &cache_);
  for (const auto& [make_plan, message] : cases) {
    SCOPED_TRACE(message);
    const ir::IrPlan plan = make_plan();
    ExecutionOptions options;
    options.morsel_rows = 512;
    ExecutionStats sequential_stats;
    auto sequential = executor.Execute(plan, options, &sequential_stats);
    ASSERT_FALSE(sequential.ok());
    EXPECT_NE(sequential.status().ToString().find(message), std::string::npos)
        << sequential.status().ToString();
    for (std::int64_t dop : {4, 8}) {
      options.parallelism = dop;
      ExecutionStats stats;
      auto parallel = executor.Execute(plan, options, &stats);
      ASSERT_FALSE(parallel.ok());
      EXPECT_EQ(parallel.status().ToString(), sequential.status().ToString())
          << "parallelism " << dop;
      EXPECT_EQ(stats.programs_compiled, sequential_stats.programs_compiled);
    }
  }
}

TEST_F(ParallelExecFixture, DroppedSelectListsKeepZeroRowResults) {
  // The optimizer drops a select list of exactly its child's columns.
  // Putting it back changes no result, zero-row ones included (those
  // render column-less either way), at dop 1 and 4.
  optimizer::CrossOptimizer optimizer(&catalog_, optimizer::OptimizerOptions());
  for (const std::string where : {"bp > 100", "bp > 1000000"}) {
    for (const std::string& sql :
         {"SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) "
          "WITH(p float) WHERE " + where,
          "SELECT gender, pregnant, COUNT(*) AS n, AVG(p) AS mean_p FROM "
          "PREDICT(MODEL='los', DATA=patients) WITH(p float) WHERE " +
              where + " GROUP BY gender, pregnant"}) {
      SCOPED_TRACE(sql);
      auto dropped = test_util::AnalyzePlan(catalog_, sql);
      ASSERT_TRUE(optimizer.Optimize(&dropped).ok());
      const auto columns =
          ir::IrPlan::ComputeSchema(*dropped.root(), catalog_);
      ASSERT_TRUE(columns.ok()) << columns.status().ToString();
      EXPECT_EQ(*columns, (sql.rfind("SELECT id", 0) == 0
                               ? std::vector<std::string>{"id", "p"}
                               : std::vector<std::string>{
                                     "gender", "pregnant", "n", "mean_p"}));
      const ir::IrPlan kept(
          ir::IrNode::ProjectColumns(dropped.root()->Clone(), *columns));
      for (std::int64_t dop : {1, 4}) {
        SCOPED_TRACE("parallelism=" + std::to_string(dop));
        const relational::Table got = Run(dropped, dop);
        test_util::ExpectTablesBitIdentical(Run(kept, dop), got);
        if (where == "bp > 1000000") {
          EXPECT_EQ(got.num_rows(), 0);
        }
      }
    }
  }
}

TEST_F(ParallelExecFixture, ParallelErrorPropagates) {
  // A plan whose scorer fails mid-run must surface the error, not hang or
  // return partial results: model input column removed from the table.
  auto plan = test_util::AnalyzePlan(
      catalog_,
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float)");
  // Corrupt the plan: point the model at a column that doesn't exist.
  ir::VisitIr(plan.root(), [](const ir::IrNode* node) {
    auto* mutable_node = const_cast<ir::IrNode*>(node);
    if (mutable_node->kind == ir::IrOpKind::kModelPipeline) {
      mutable_node->model_input_columns.push_back("no_such_column");
    }
  });
  PlanExecutor executor(&catalog_, &cache_);
  ExecutionOptions options;
  options.parallelism = 4;
  auto result = executor.Execute(plan, options);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace raven::runtime
