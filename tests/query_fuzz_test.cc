// Randomized differential test harness for the morsel-parallel AND
// distributed executors: a seeded random query generator over the hospital
// and flight catalogs composes scan / filter / project / join / aggregate /
// GROUP BY / HAVING / ORDER BY / LIMIT / PREDICT shapes, runs every
// generated query through the full CrossOptimizer chain, and differentially
// compares
//   - in-process parallelism 1 against {2, 8} (ISSUE 3),
//   - in-process dop {1, 8} against distributed execution over warm worker
//     pools of {2, 4} processes (ISSUE 4) — real raven_worker children,
//     real fragment serialization, real pipes, and
//   - in-process dop 1 against the same 200 queries served over a real
//     socket by a QueryServer to 4 concurrent clients, twice each for
//     plan-cache coverage (ISSUE 5),
// order-insensitive multiset comparison by default, order-sensitive when
// the query has an ORDER BY.
//
// The suite is deterministic: the seed defaults to kDefaultFuzzSeed and is
// printed (with the query text) on every failure. Reproduce a failing run
// with  RAVEN_FUZZ_SEED=<seed> ./query_fuzz_test.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/trace.h"
#include "data/flight.h"
#include "data/hospital.h"
#include "frontend/analyzer.h"
#include "optimizer/cross_optimizer.h"
#include "raven/raven.h"
#include "runtime/codegen.h"
#include "runtime/plan_executor.h"
#include "server/client.h"
#include "server/query_server.h"
#include "storage/columnar.h"
#include "test_util.h"

namespace raven::runtime {
namespace {

constexpr std::uint64_t kDefaultFuzzSeed = 0xC1DB2020ULL;
constexpr int kNumQueries = 200;

std::uint64_t FuzzSeed() {
  if (const char* env = std::getenv("RAVEN_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return kDefaultFuzzSeed;
}

/// Value range of a column, for generating predicates/HAVING thresholds
/// that are neither vacuous nor empty.
struct ColumnRange {
  double lo = 0.0;
  double hi = 1.0;
};

/// One FROM-clause the generator can build on.
struct SourceSpec {
  std::string from;                       // SQL text after FROM
  std::vector<std::string> columns;       // full output schema
  std::vector<std::string> group_cols;    // low-cardinality key candidates
  std::vector<std::string> numeric_cols;  // aggregation/predicate targets
};

/// Exact scalar equality (with NaN == NaN). Aggregates accumulate through
/// the order-independent ExactFloatSum, so SUM/AVG are bit-identical at
/// every dop and under distributed execution — no tolerance is needed, and
/// reintroducing one would mask exactly the regressions this harness is
/// meant to catch.
bool ExactEqual(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

std::vector<std::vector<double>> Rows(const relational::Table& t) {
  std::vector<std::vector<double>> rows(
      static_cast<std::size_t>(t.num_rows()));
  for (auto& row : rows) {
    row.reserve(static_cast<std::size_t>(t.num_columns()));
  }
  for (const auto& col : t.columns()) {
    for (std::int64_t r = 0; r < t.num_rows(); ++r) {
      rows[static_cast<std::size_t>(r)].push_back(
          col.data[static_cast<std::size_t>(r)]);
    }
  }
  return rows;
}

void ExpectRowsMatch(const std::vector<std::vector<double>>& expected,
                     const std::vector<std::vector<double>>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(expected[r].size(), actual[r].size());
    for (std::size_t c = 0; c < expected[r].size(); ++c) {
      ASSERT_PRED2(ExactEqual, expected[r][c], actual[r][c])
          << "row " << r << " col " << c;
    }
  }
}

/// Differential comparator: schema + row multiset (sorted rows) by default,
/// exact row order when `ordered`.
void ExpectTablesMatch(const relational::Table& expected,
                       const relational::Table& actual, bool ordered) {
  ASSERT_EQ(expected.ColumnNames(), actual.ColumnNames());
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  auto lhs = Rows(expected);
  auto rhs = Rows(actual);
  if (!ordered) {
    std::sort(lhs.begin(), lhs.end());
    std::sort(rhs.begin(), rhs.end());
  }
  ExpectRowsMatch(lhs, rhs);
}

class QueryFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hospital_ = data::MakeHospitalDataset(3000, 11);
    ASSERT_NO_FATAL_FAILURE(
        test_util::RegisterHospitalTables(&catalog_, hospital_));
    test_util::InsertHospitalTreeModel(&catalog_, hospital_, 5);
    flight_ = data::MakeFlightDataset(2000, 7);
    ASSERT_NO_FATAL_FAILURE(
        test_util::RegisterFlightTable(&catalog_, flight_));
    auto logreg = data::TrainFlightLogreg(flight_, 0.01);
    ASSERT_TRUE(logreg.ok()) << logreg.status().ToString();
    ASSERT_TRUE(catalog_
                    .InsertModel("delay", data::FlightLogregScript(),
                                 logreg->ToBytes())
                    .ok());
    BuildSources();
    ASSERT_FALSE(HasFailure()) << "fixture setup failed";
  }

  void BuildSources() {
    auto add = [&](std::string from, std::vector<std::string> columns,
                   std::vector<std::string> group_cols,
                   std::vector<std::string> numeric_cols) {
      sources_.push_back(SourceSpec{std::move(from), std::move(columns),
                                    std::move(group_cols),
                                    std::move(numeric_cols)});
    };
    const std::vector<std::string> patients_cols = {
        "id",        "age",      "weight",   "bp",     "hematocrit",
        "glucose",   "platelets", "fetal_hr", "gender", "pregnant",
        "amnio",     "length_of_stay"};
    add("patients", patients_cols, {"gender", "pregnant", "amnio"},
        {"id", "age", "weight", "bp", "glucose", "fetal_hr"});
    add("patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id",
        {"id", "age", "gender", "pregnant", "weight", "bp", "hematocrit",
         "glucose", "platelets"},
        {"gender", "pregnant"}, {"id", "age", "weight", "bp", "glucose"});
    add("flights",
        {"id", "dep_hour", "distance", "day_of_week", "airline", "origin",
         "dest", "delayed"},
        {"airline", "day_of_week", "delayed"},
        {"id", "dep_hour", "distance"});
    {
      auto columns = patients_cols;
      columns.push_back("p");
      add("PREDICT(MODEL='los', DATA=patients) WITH(p float)", columns,
          {"gender", "pregnant", "amnio"},
          {"age", "bp", "fetal_hr", "p"});
    }
    add("PREDICT(MODEL='delay', DATA=flights) WITH(p float)",
        {"id", "dep_hour", "distance", "day_of_week", "airline", "origin",
         "dest", "delayed", "p"},
        {"airline", "day_of_week", "delayed"}, {"distance", "dep_hour", "p"});

    // Data-driven literal ranges, so predicates/HAVING thresholds land in
    // the populated part of each column's domain.
    for (const auto& name : {"patients", "patient_info", "blood_tests",
                             "prenatal_tests", "flights"}) {
      auto table = catalog_.GetTable(name);
      ASSERT_TRUE(table.ok());
      for (const auto& col : (*table)->columns()) {
        const auto [lo, hi] =
            std::minmax_element(col.data.begin(), col.data.end());
        if (lo != col.data.end()) {
          ranges_[col.name] = ColumnRange{*lo, *hi};
        }
      }
    }
    ranges_["p"] = ColumnRange{0.0, 10.0};  // prediction outputs
  }

  ColumnRange RangeOf(const std::string& column) const {
    auto it = ranges_.find(column);
    return it == ranges_.end() ? ColumnRange{0.0, 100.0} : it->second;
  }

  template <typename T>
  const T& PickFrom(Rng& rng, const std::vector<T>& options) {
    return options[static_cast<std::size_t>(rng.NextUint(options.size()))];
  }

  std::string Literal(double v) {
    // Round to keep the SQL text short and the lexer happy.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return buf;
  }

  std::string RandomPredicate(Rng& rng, const SourceSpec& source) {
    static const std::vector<std::string> kOps = {"<", "<=", ">", ">=", "<>"};
    const int conjuncts = static_cast<int>(rng.UniformInt(1, 2));
    std::string out;
    for (int i = 0; i < conjuncts; ++i) {
      if (i > 0) out += " AND ";
      const std::string& col = PickFrom(rng, source.numeric_cols);
      const ColumnRange range = RangeOf(col);
      out += col + " " + PickFrom(rng, kOps) + " " +
             Literal(rng.Uniform(range.lo, range.hi));
    }
    return out;
  }

  struct AggChoice {
    std::string sql;  // e.g. "AVG(bp) AS a1"
    std::string name;
  };

  AggChoice RandomAggregate(Rng& rng, const SourceSpec& source, int index) {
    static const std::vector<std::string> kFuncs = {"COUNT", "SUM", "AVG",
                                                    "MIN", "MAX"};
    const std::string& func = PickFrom(rng, kFuncs);
    AggChoice choice;
    choice.name = "a" + std::to_string(index);
    if (func == "COUNT" && rng.NextBool()) {
      choice.sql = "COUNT(*) AS " + choice.name;
    } else {
      choice.sql = func + "(" + PickFrom(rng, source.numeric_cols) + ") AS " +
                   choice.name;
    }
    return choice;
  }

  /// One random query; `ordered` reports whether it carries an ORDER BY.
  std::string GenerateQuery(Rng& rng, bool* ordered) {
    const SourceSpec& source = PickFrom(rng, sources_);
    *ordered = false;
    std::string select;
    std::vector<std::string> output_names;
    bool grouped = false;
    std::string tail;

    const double shape = rng.NextDouble();
    if (shape < 0.15) {
      select = "*";
      output_names = source.columns;
    } else if (shape < 0.35) {
      // Plain projection, possibly with an arithmetic expression item.
      // Columns are picked without replacement: duplicate output names
      // cannot materialize into a table.
      const int n = static_cast<int>(rng.UniformInt(1, 3));
      std::vector<std::string> chosen;
      while (static_cast<int>(chosen.size()) < n &&
             chosen.size() < source.columns.size()) {
        const std::string& col = PickFrom(rng, source.columns);
        if (std::find(chosen.begin(), chosen.end(), col) == chosen.end()) {
          chosen.push_back(col);
        }
      }
      for (std::size_t i = 0; i < chosen.size(); ++i) {
        if (i > 0) select += ", ";
        if (rng.NextBool(0.2)) {
          select += chosen[i] + " * 2 + 1 AS e" + std::to_string(i);
          output_names.push_back("e" + std::to_string(i));
        } else {
          select += chosen[i];
          output_names.push_back(chosen[i]);
        }
      }
    } else if (shape < 0.55) {
      // Scalar aggregates.
      const int n = static_cast<int>(rng.UniformInt(1, 3));
      for (int i = 0; i < n; ++i) {
        if (i > 0) select += ", ";
        AggChoice agg = RandomAggregate(rng, source, i);
        select += agg.sql;
        output_names.push_back(agg.name);
      }
    } else {
      // GROUP BY (the tentpole shape).
      grouped = true;
      const int keys = static_cast<int>(
          rng.UniformInt(1, std::min<std::int64_t>(
                                2, static_cast<std::int64_t>(
                                       source.group_cols.size()))));
      std::vector<std::string> chosen;
      while (static_cast<int>(chosen.size()) < keys) {
        const std::string& key = PickFrom(rng, source.group_cols);
        if (std::find(chosen.begin(), chosen.end(), key) == chosen.end()) {
          chosen.push_back(key);
        }
      }
      for (const auto& key : chosen) {
        if (!select.empty()) select += ", ";
        select += key;
        output_names.push_back(key);
      }
      // 0 aggregates = SELECT DISTINCT over the keys.
      const int n = static_cast<int>(rng.UniformInt(0, 3));
      for (int i = 0; i < n; ++i) {
        select += ", ";
        AggChoice agg = RandomAggregate(rng, source, i);
        select += agg.sql;
        output_names.push_back(agg.name);
      }
      tail = " GROUP BY ";
      for (std::size_t i = 0; i < chosen.size(); ++i) {
        if (i > 0) tail += ", ";
        tail += chosen[i];
      }
      if (rng.NextBool(0.4)) {
        tail += " HAVING ";
        if (rng.NextBool()) {
          tail += "COUNT(*) > " + std::to_string(rng.UniformInt(1, 30));
        } else {
          const std::string& col = PickFrom(rng, source.numeric_cols);
          const ColumnRange range = RangeOf(col);
          tail += "AVG(" + col + ") " +
                  std::string(rng.NextBool() ? ">" : "<=") + " " +
                  Literal(rng.Uniform(range.lo, range.hi));
        }
      }
    }

    std::string sql = "SELECT " + select + " FROM " + source.from;
    if (rng.NextBool(0.5)) {
      sql += " WHERE " + RandomPredicate(rng, source);
    }
    sql += tail;

    if (rng.NextBool(grouped ? 0.5 : 0.35)) {
      *ordered = true;
      sql += " ORDER BY ";
      const int n = static_cast<int>(rng.UniformInt(1, 2));
      for (int i = 0; i < n; ++i) {
        if (i > 0) sql += ", ";
        if (select != "*" && rng.NextBool(0.4)) {
          sql += std::to_string(
              rng.UniformInt(1,
                             static_cast<std::int64_t>(output_names.size())));
        } else {
          sql += PickFrom(rng, output_names);
        }
        sql += rng.NextBool() ? " DESC" : " ASC";
      }
      if (rng.NextBool(0.2)) {
        sql += " LIMIT " + std::to_string(rng.UniformInt(1, 50));
      }
    }
    return sql;
  }

  Result<relational::Table> Run(const ir::IrPlan& plan,
                                std::int64_t parallelism) {
    PlanExecutor executor(&catalog_, &cache_);
    ExecutionOptions options;
    options.parallelism = parallelism;
    options.morsel_rows = 256;  // many morsels even on these small tables
    return executor.Execute(plan, options);
  }

  /// Single-threaded run with an explicit NNRT kernel backend (the
  /// session-cache key includes the backend, so runs never share sessions
  /// across backends).
  Result<relational::Table> RunWithBackend(const ir::IrPlan& plan,
                                           nnrt::BackendKind backend) {
    PlanExecutor executor(&catalog_, &cache_);
    ExecutionOptions options;
    options.parallelism = 1;
    options.morsel_rows = 256;
    options.nn_backend = backend;
    return executor.Execute(plan, options);
  }

  /// Distributed run against `executor`'s warm worker pool.
  Result<relational::Table> RunDistributed(PlanExecutor* executor,
                                           const ir::IrPlan& plan,
                                           std::int64_t workers,
                                           ExecutionStats* stats) {
    ExecutionOptions options;
    options.mode = ExecutionMode::kDistributed;
    options.distributed_workers = workers;
    options.distributed_frame_timeout_millis = 60000;  // TSan headroom
    return executor->Execute(plan, options, stats);
  }

  /// Writes every fixture table to a temp `.rvc` file and registers the
  /// opened DiskTables under the SAME names in `disk_catalog` (with the
  /// same deterministically-trained models), so the identical SQL corpus
  /// runs against on-disk storage. block_rows=512 gives the 3000/2000-row
  /// tables several blocks each — real block boundaries, real zone maps.
  void BuildDiskCatalog(relational::Catalog* disk_catalog,
                        std::vector<std::string>* cleanup) {
    storage::RvcWriteOptions opts;
    opts.block_rows = 512;
    for (const char* name : {"patients", "patient_info", "blood_tests",
                             "prenatal_tests", "flights"}) {
      auto table = catalog_.GetTable(name);
      ASSERT_TRUE(table.ok()) << name;
      const std::string path = "/tmp/raven_fuzz_" +
                               std::to_string(::getpid()) + "_" + name +
                               ".rvc";
      ASSERT_TRUE(storage::WriteRvc(**table, path, opts).ok()) << name;
      cleanup->push_back(path);
      auto disk = storage::DiskTable::Open(path);
      ASSERT_TRUE(disk.ok()) << disk.status().ToString();
      ASSERT_TRUE(disk_catalog->RegisterDiskTable(name, disk.value()).ok());
    }
    test_util::InsertHospitalTreeModel(disk_catalog, hospital_, 5);
    auto logreg = data::TrainFlightLogreg(flight_, 0.01);
    ASSERT_TRUE(logreg.ok());
    ASSERT_TRUE(disk_catalog
                    ->InsertModel("delay", data::FlightLogregScript(),
                                  logreg->ToBytes())
                    .ok());
  }

  Result<relational::Table> RunOn(relational::Catalog* catalog,
                                  const ir::IrPlan& plan,
                                  std::int64_t parallelism,
                                  ExecutionStats* stats) {
    PlanExecutor executor(catalog, &cache_);
    ExecutionOptions options;
    options.parallelism = parallelism;
    options.morsel_rows = 256;  // disk scans use block-aligned queues anyway
    return executor.Execute(plan, options, stats);
  }

  data::HospitalDataset hospital_;
  data::FlightDataset flight_;
  relational::Catalog catalog_;
  nnrt::SessionCache cache_{8};
  std::vector<SourceSpec> sources_;
  std::map<std::string, ColumnRange> ranges_;
};

TEST_F(QueryFuzzTest, DifferentialParallelism200Queries) {
  const std::uint64_t seed = FuzzSeed();
  Rng rng(seed);
  frontend::StaticAnalyzer analyzer(&catalog_);
  optimizer::CrossOptimizer optimizer(&catalog_,
                                      optimizer::OptimizerOptions());
  int executed = 0;
  for (int q = 0; q < kNumQueries; ++q) {
    bool ordered = false;
    const std::string sql = GenerateQuery(rng, &ordered);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query#" +
                 std::to_string(q) + (ordered ? " [ordered] " : " ") + sql);
    auto plan = analyzer.Analyze(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(optimizer.Optimize(&plan.value()).ok());
    auto sequential = Run(*plan, 1);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
    for (std::int64_t dop : {2, 8}) {
      SCOPED_TRACE("parallelism=" + std::to_string(dop));
      auto parallel = Run(*plan, dop);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ASSERT_NO_FATAL_FAILURE(
          ExpectTablesMatch(*sequential, *parallel, ordered));
    }
    ++executed;
  }
  EXPECT_EQ(executed, kNumQueries);
}

TEST_F(QueryFuzzTest, SimdBackendDifferential200Queries) {
  // The SIMD backend promises the scalar kernels' exact per-element
  // rounding, so the whole fuzz corpus — PREDICT shapes included — must be
  // byte-identical to the reference backend, not approximately equal.
  const std::uint64_t seed = FuzzSeed();
  Rng rng(seed);
  frontend::StaticAnalyzer analyzer(&catalog_);
  optimizer::CrossOptimizer optimizer(&catalog_,
                                      optimizer::OptimizerOptions());
  int executed = 0;
  for (int q = 0; q < kNumQueries; ++q) {
    bool ordered = false;
    const std::string sql = GenerateQuery(rng, &ordered);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query#" +
                 std::to_string(q) + (ordered ? " [ordered] " : " ") + sql);
    auto plan = analyzer.Analyze(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(optimizer.Optimize(&plan.value()).ok());
    auto reference = RunWithBackend(*plan, nnrt::BackendKind::kReference);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    auto simd = RunWithBackend(*plan, nnrt::BackendKind::kSimd);
    ASSERT_TRUE(simd.ok()) << simd.status().ToString();
    ASSERT_NO_FATAL_FAILURE(ExpectTablesMatch(*reference, *simd, ordered));
    ++executed;
  }
  EXPECT_EQ(executed, kNumQueries);
}

TEST_F(QueryFuzzTest, DifferentialDistributed200Queries) {
  // Same generator, same seed, so the same 200 queries as the in-process
  // differential leg — now compared against distributed execution. One
  // executor per pool size keeps each pool warm across all 200 queries,
  // which is exactly the production shape (and what makes this leg fast
  // enough to run in tier 1).
  const std::uint64_t seed = FuzzSeed();
  Rng rng(seed);
  frontend::StaticAnalyzer analyzer(&catalog_);
  optimizer::CrossOptimizer optimizer(&catalog_,
                                      optimizer::OptimizerOptions());
  PlanExecutor dist2(&catalog_, &cache_);
  PlanExecutor dist4(&catalog_, &cache_);
  const std::vector<std::pair<std::int64_t, PlanExecutor*>> pools = {
      {2, &dist2}, {4, &dist4}};
  int executed = 0;
  for (int q = 0; q < kNumQueries; ++q) {
    bool ordered = false;
    const std::string sql = GenerateQuery(rng, &ordered);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query#" +
                 std::to_string(q) + (ordered ? " [ordered] " : " ") + sql);
    auto plan = analyzer.Analyze(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(optimizer.Optimize(&plan.value()).ok());
    auto sequential = Run(*plan, 1);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
    auto parallel8 = Run(*plan, 8);
    ASSERT_TRUE(parallel8.ok()) << parallel8.status().ToString();
    for (const auto& [workers, executor] : pools) {
      SCOPED_TRACE("distributed workers=" + std::to_string(workers));
      ExecutionStats stats;
      auto distributed = RunDistributed(executor, *plan, workers, &stats);
      ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
      // A silently missing pool would make this leg vacuous: every plan
      // the generator emits contains at least one distributable fragment
      // (its leaf scans), so frames must actually have shipped.
      ASSERT_NE(executor->worker_pool(), nullptr)
          << "worker pool failed to start";
      ASSERT_GT(stats.frames_sent, 0) << "nothing was distributed";
      ASSERT_EQ(stats.worker_restarts, 0);
      ASSERT_NO_FATAL_FAILURE(
          ExpectTablesMatch(*sequential, *distributed, ordered));
      ASSERT_NO_FATAL_FAILURE(
          ExpectTablesMatch(*parallel8, *distributed, ordered));
    }
    ++executed;
  }
  EXPECT_EQ(executed, kNumQueries);
}

TEST_F(QueryFuzzTest, DiskTableDifferential200Queries) {
  // The same 200 seeded queries, this time with every table served from
  // `.rvc` files: a twin catalog holds DiskTables under the fixture names,
  // and each query's on-disk result — at dop 1 AND dop 8 (block-aligned
  // morsel queues) — must be byte-identical to the in-memory dop-1 run.
  relational::Catalog disk_catalog;
  std::vector<std::string> cleanup;
  ASSERT_NO_FATAL_FAILURE(BuildDiskCatalog(&disk_catalog, &cleanup));
  const std::uint64_t seed = FuzzSeed();
  Rng rng(seed);
  frontend::StaticAnalyzer analyzer(&catalog_);
  optimizer::CrossOptimizer optimizer(&catalog_,
                                      optimizer::OptimizerOptions());
  frontend::StaticAnalyzer disk_analyzer(&disk_catalog);
  optimizer::CrossOptimizer disk_optimizer(&disk_catalog,
                                           optimizer::OptimizerOptions());
  std::int64_t blocks_scanned_total = 0;
  std::int64_t blocks_skipped_total = 0;
  int column_subset_scans = 0;
  int executed = 0;
  for (int q = 0; q < kNumQueries; ++q) {
    bool ordered = false;
    const std::string sql = GenerateQuery(rng, &ordered);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query#" +
                 std::to_string(q) + (ordered ? " [ordered] " : " ") + sql);
    auto plan = analyzer.Analyze(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(optimizer.Optimize(&plan.value()).ok());
    auto sequential = Run(*plan, 1);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
    auto disk_plan = disk_analyzer.Analyze(sql);
    ASSERT_TRUE(disk_plan.ok()) << disk_plan.status().ToString();
    ASSERT_TRUE(disk_optimizer.Optimize(&disk_plan.value()).ok());
    // Each disk scan reports "columns: <decoded> of <total> (...)".
    std::istringstream storage(
        runtime::DescribeStorageScans(*disk_plan->root(), disk_catalog));
    for (std::string line; std::getline(storage, line);) {
      int decoded = 0;
      int total = 0;
      if (std::sscanf(line.c_str(), "  columns: %d of %d", &decoded,
                      &total) == 2 &&
          decoded < total) {
        ++column_subset_scans;
      }
    }
    for (std::int64_t dop : {1, 8}) {
      SCOPED_TRACE("disk parallelism=" + std::to_string(dop));
      ExecutionStats stats;
      auto disk_result = RunOn(&disk_catalog, *disk_plan, dop, &stats);
      ASSERT_TRUE(disk_result.ok()) << disk_result.status().ToString();
      ASSERT_NO_FATAL_FAILURE(
          ExpectTablesMatch(*sequential, *disk_result, ordered));
      blocks_scanned_total += stats.blocks_scanned;
      blocks_skipped_total += stats.blocks_skipped;
    }
    ++executed;
  }
  EXPECT_EQ(executed, kNumQueries);
  // Both counters must move across the corpus, or this leg silently fell
  // back to something other than zone-mapped disk scans.
  EXPECT_GT(blocks_scanned_total, 0);
  EXPECT_GT(blocks_skipped_total, 0);
  // And at least one query must decode a strict subset of a table's
  // columns, or the projected-read path went untested by this leg.
  EXPECT_GT(column_subset_scans, 0);
  for (const auto& path : cleanup) std::remove(path.c_str());
}

TEST_F(QueryFuzzTest, DiskSelectiveScanSkipsBlocksAndExplains) {
  // End-to-end through the RavenContext facade: a selective predicate over
  // the sequential id column must actually skip blocks (non-vacuous zone
  // maps), EXPLAIN must surface the storage section, and SET
  // zone_map_skipping-style disabling via execution options must not
  // change the answer.
  RavenContext ctx;
  std::vector<std::string> cleanup;
  {
    storage::RvcWriteOptions opts;
    opts.block_rows = 512;
    auto patients = catalog_.GetTable("patients");
    ASSERT_TRUE(patients.ok());
    const std::string path = "/tmp/raven_fuzz_" +
                             std::to_string(::getpid()) + "_ctx.rvc";
    ASSERT_TRUE(storage::WriteRvc(**patients, path, opts).ok());
    cleanup.push_back(path);
    auto disk = storage::DiskTable::Open(path);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    ASSERT_TRUE(ctx.RegisterDiskTable("patients", disk.value()).ok());
  }
  test_util::InsertHospitalTreeModel(&ctx.catalog(), hospital_, 5);

  const std::string sql = "SELECT id, age FROM patients WHERE id < 5";
  auto explain = ctx.Explain(sql);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("=== Storage ==="), std::string::npos) << *explain;
  EXPECT_NE(explain->find("DiskScan(patients)"), std::string::npos);
  EXPECT_NE(explain->find("zone-map conjuncts"), std::string::npos);
  // The scan decodes only the two columns the query reads.
  const std::int64_t table_columns =
      (*catalog_.GetTable("patients"))->num_columns();
  EXPECT_NE(explain->find("\n    columns: 2 of " +
                          std::to_string(table_columns) + " (id, age)\n"),
            std::string::npos)
      << *explain;

  // Ground truth from the in-memory fixture catalog.
  frontend::StaticAnalyzer analyzer(&catalog_);
  optimizer::CrossOptimizer optimizer(&catalog_,
                                      optimizer::OptimizerOptions());
  auto plan = analyzer.Analyze(sql);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(optimizer.Optimize(&plan.value()).ok());
  auto expected = Run(*plan, 1);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(expected->num_rows(), 5);

  auto result = ctx.Query(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // 3000 rows in 6 blocks of 512; only block 0 can hold id < 5.
  EXPECT_GT(result->execution.blocks_skipped, 0);
  EXPECT_GT(result->execution.blocks_scanned, 0);
  ASSERT_NO_FATAL_FAILURE(
      ExpectTablesMatch(*expected, result->table, /*ordered=*/false));

  // Skipping off: same rows, nothing skipped (the filter still runs).
  ctx.execution_options().zone_map_skipping = false;
  auto unskipped = ctx.Query(sql);
  ASSERT_TRUE(unskipped.ok()) << unskipped.status().ToString();
  EXPECT_EQ(unskipped->execution.blocks_skipped, 0);
  ASSERT_NO_FATAL_FAILURE(
      ExpectTablesMatch(*expected, unskipped->table, /*ordered=*/false));
  for (const auto& path : cleanup) std::remove(path.c_str());
}

TEST_F(QueryFuzzTest, CorruptedDiskTableFailsCleanlyNeverWrongAnswer) {
  // Bit-flip inside the data region of a valid `.rvc`: Open still succeeds
  // (the meta checksum is intact), but any query touching the poisoned
  // block must fail its payload checksum — a clean error, never rows.
  const std::string path = "/tmp/raven_fuzz_" + std::to_string(::getpid()) +
                           "_corrupt.rvc";
  {
    storage::RvcWriteOptions opts;
    opts.block_rows = 512;
    auto patients = catalog_.GetTable("patients");
    ASSERT_TRUE(patients.ok());
    ASSERT_TRUE(storage::WriteRvc(**patients, path, opts).ok());
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() - 9] = static_cast<char>(bytes[bytes.size() - 9] ^ 0x55);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  relational::Catalog disk_catalog;
  auto disk = storage::DiskTable::Open(path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ASSERT_TRUE(disk_catalog.RegisterDiskTable("patients", disk.value()).ok());

  frontend::StaticAnalyzer analyzer(&disk_catalog);
  optimizer::CrossOptimizer optimizer(&disk_catalog,
                                      optimizer::OptimizerOptions());
  // No WHERE clause: nothing can be zone-map skipped, so the poisoned
  // block is guaranteed to be read.
  auto plan = analyzer.Analyze("SELECT SUM(id) AS s FROM patients");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(optimizer.Optimize(&plan.value()).ok());
  for (std::int64_t dop : {1, 8}) {
    ExecutionStats stats;
    auto result = RunOn(&disk_catalog, *plan, dop, &stats);
    ASSERT_FALSE(result.ok()) << "dop " << dop;
    EXPECT_NE(result.status().ToString().find("checksum"), std::string::npos)
        << result.status().ToString();
  }
  std::remove(path.c_str());
}

TEST_F(QueryFuzzTest, ServerDifferential200QueriesBy4ConcurrentClients) {
  // The same 200 seeded queries, this time served over a real socket: one
  // QueryServer (sessions default to dop 4) takes 4 concurrent clients,
  // which split the queries round-robin and run TWO passes — the second
  // pass must be all plan-cache hits. Every result is compared against the
  // in-process dop-1 ground truth computed up front.
  const std::uint64_t seed = FuzzSeed();
  Rng rng(seed);
  frontend::StaticAnalyzer analyzer(&catalog_);
  optimizer::CrossOptimizer optimizer(&catalog_,
                                      optimizer::OptimizerOptions());
  struct Case {
    std::string sql;
    bool ordered = false;
    relational::Table expected;
  };
  std::vector<Case> cases(kNumQueries);
  for (int q = 0; q < kNumQueries; ++q) {
    Case& c = cases[static_cast<std::size_t>(q)];
    c.sql = GenerateQuery(rng, &c.ordered);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query#" +
                 std::to_string(q) + " " + c.sql);
    auto plan = analyzer.Analyze(c.sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(optimizer.Optimize(&plan.value()).ok());
    auto sequential = Run(*plan, 1);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
    c.expected = std::move(sequential).value();
  }

  // A second context backs the server, loaded with the same deterministic
  // datasets and models as the fixture catalog.
  RavenContext server_ctx;
  ASSERT_NO_FATAL_FAILURE(
      test_util::RegisterHospitalTables(&server_ctx.catalog(), hospital_));
  test_util::InsertHospitalTreeModel(&server_ctx.catalog(), hospital_, 5);
  ASSERT_NO_FATAL_FAILURE(
      test_util::RegisterFlightTable(&server_ctx.catalog(), flight_));
  {
    auto logreg = data::TrainFlightLogreg(flight_, 0.01);
    ASSERT_TRUE(logreg.ok());
    ASSERT_TRUE(server_ctx.catalog()
                    .InsertModel("delay", data::FlightLogregScript(),
                                 logreg->ToBytes())
                    .ok());
  }
  ASSERT_FALSE(HasFailure());

  server::QueryServerOptions options;
  options.unix_socket_path = "/tmp/raven_fuzz_server_" +
                             std::to_string(::getpid()) + ".sock";
  options.plan_cache_capacity = 512;  // all 200 shapes stay resident
  options.admission.max_concurrent = 4;
  options.default_execution.parallelism = 4;
  // Cross-query micro-batching ON: the fuzzed shapes' PREDICT rows may
  // coalesce across the 4 clients, and every differential comparison below
  // still demands the in-process (unbatched, dop=1) result bit-for-bit.
  options.default_execution.predict_batch_window_micros = 1000;
  options.default_execution.predict_max_batch_rows = 256;
  options.default_execution.morsel_rows = 128;
  server::QueryServer server(&server_ctx, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  std::atomic<std::int64_t> second_pass_hits{0};
  std::atomic<int> pass_barrier{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int tid = 0; tid < kClients; ++tid) {
    clients.emplace_back([&, tid] {
      // Arrival is owed even when an ASSERT bails out of this lambda
      // early — otherwise the surviving threads would spin at the barrier
      // until the ctest timeout instead of reporting the real failure.
      struct BarrierArrival {
        std::atomic<int>* barrier;
        bool arrived = false;
        void Arrive() {
          if (!arrived) {
            arrived = true;
            barrier->fetch_add(1);
          }
        }
        ~BarrierArrival() { Arrive(); }
      } arrival{&pass_barrier};
      server::ServerClient client;
      Status connected = client.ConnectUnix(server.unix_socket_path());
      ASSERT_TRUE(connected.ok()) << connected.ToString();
      for (int pass = 0; pass < 2; ++pass) {
        if (pass == 1) {
          // Barrier: pass 2 reads entries OTHER clients planted in pass 1,
          // so nobody starts it until every client finished planting.
          arrival.Arrive();
          while (pass_barrier.load() < kClients) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        // Rotate the assignment between passes so the cache-hit pass reads
        // entries another client planted.
        for (int q = (tid + pass) % kClients; q < kNumQueries;
             q += kClients) {
          const Case& c = cases[static_cast<std::size_t>(q)];
          SCOPED_TRACE("seed=" + std::to_string(seed) + " query#" +
                       std::to_string(q) + " pass=" + std::to_string(pass) +
                       (c.ordered ? " [ordered] " : " ") + c.sql);
          auto response = client.Query(c.sql);
          ASSERT_TRUE(response.ok()) << response.status().ToString();
          ASSERT_EQ(response->kind, server::ServerResponseKind::kTable)
              << response->message;
          if (pass == 1) {
            second_pass_hits.fetch_add(response->plan_cache_hit ? 1 : 0);
          }
          ASSERT_NO_FATAL_FAILURE(
              ExpectTablesMatch(c.expected, response->table, c.ordered));
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  // Pass 2 re-issued all 200 queries against a warm cache.
  EXPECT_EQ(second_pass_hits.load(), kNumQueries);
  const server::PlanCacheStats stats = server.plan_cache().stats();
  EXPECT_GE(stats.hits, kNumQueries);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.invalidations, 0);
  server.Stop();
}

TEST_F(QueryFuzzTest, TraceOnOffDifferential200Queries) {
  // Observation must never change results: the same 200 seeded queries run
  // untraced (dop 1 ground truth) and with a live obs::Trace arena at dop
  // {1, 8} and under distributed execution — every traced result must be
  // byte-identical, and every trace must actually have recorded the run
  // (an empty arena would make this leg vacuous).
  const std::uint64_t seed = FuzzSeed();
  Rng rng(seed);
  frontend::StaticAnalyzer analyzer(&catalog_);
  optimizer::CrossOptimizer optimizer(&catalog_,
                                      optimizer::OptimizerOptions());
  PlanExecutor dist(&catalog_, &cache_);  // warm pool across all queries
  int executed = 0;
  for (int q = 0; q < kNumQueries; ++q) {
    bool ordered = false;
    const std::string sql = GenerateQuery(rng, &ordered);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query#" +
                 std::to_string(q) + (ordered ? " [ordered] " : " ") + sql);
    auto plan = analyzer.Analyze(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(optimizer.Optimize(&plan.value()).ok());
    auto untraced = Run(*plan, 1);
    ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();
    for (std::int64_t dop : {1, 8}) {
      SCOPED_TRACE("traced parallelism=" + std::to_string(dop));
      obs::Trace trace;
      PlanExecutor executor(&catalog_, &cache_);
      ExecutionOptions options;
      options.parallelism = dop;
      options.morsel_rows = 256;
      options.trace = &trace;
      auto traced = executor.Execute(plan.value(), options);
      ASSERT_TRUE(traced.ok()) << traced.status().ToString();
      ASSERT_NO_FATAL_FAILURE(
          ExpectTablesMatch(*untraced, *traced, ordered));
      ASSERT_FALSE(trace.empty()) << "trace recorded nothing";
    }
    {
      SCOPED_TRACE("traced distributed workers=2");
      obs::Trace trace;
      ExecutionOptions options;
      options.mode = ExecutionMode::kDistributed;
      options.distributed_workers = 2;
      options.distributed_frame_timeout_millis = 60000;
      options.trace = &trace;
      auto traced = dist.Execute(plan.value(), options);
      ASSERT_TRUE(traced.ok()) << traced.status().ToString();
      ASSERT_NO_FATAL_FAILURE(
          ExpectTablesMatch(*untraced, *traced, ordered));
      bool saw_exchange = false;
      for (const auto& span : trace.Snapshot()) {
        if (span.name == "exchange") saw_exchange = true;
      }
      ASSERT_TRUE(saw_exchange) << "no exchange span in distributed trace";
    }
    ++executed;
  }
  EXPECT_EQ(executed, kNumQueries);
}

TEST_F(QueryFuzzTest, ExplainAnalyzeDifferential200Queries) {
  // EXPLAIN ANALYZE really executes the statement, and its result table —
  // not just its report — must be byte-identical to the plain run at every
  // execution mode: dop 1, dop 8, distributed over a warm pool, and with
  // every table served from on-disk `.rvc` storage.
  RavenContext ctx;
  ASSERT_NO_FATAL_FAILURE(
      test_util::RegisterHospitalTables(&ctx.catalog(), hospital_));
  test_util::InsertHospitalTreeModel(&ctx.catalog(), hospital_, 5);
  ASSERT_NO_FATAL_FAILURE(
      test_util::RegisterFlightTable(&ctx.catalog(), flight_));
  {
    auto logreg = data::TrainFlightLogreg(flight_, 0.01);
    ASSERT_TRUE(logreg.ok());
    ASSERT_TRUE(ctx.catalog()
                    .InsertModel("delay", data::FlightLogregScript(),
                                 logreg->ToBytes())
                    .ok());
  }
  RavenContext disk_ctx;
  std::vector<std::string> cleanup;
  ASSERT_NO_FATAL_FAILURE(BuildDiskCatalog(&disk_ctx.catalog(), &cleanup));

  ExecutionOptions exec1;
  exec1.parallelism = 1;
  exec1.morsel_rows = 256;
  ExecutionOptions exec8 = exec1;
  exec8.parallelism = 8;
  ExecutionOptions execd;
  execd.mode = ExecutionMode::kDistributed;
  execd.distributed_workers = 2;
  execd.distributed_frame_timeout_millis = 60000;

  const std::uint64_t seed = FuzzSeed();
  Rng rng(seed);
  frontend::StaticAnalyzer analyzer(&catalog_);
  optimizer::CrossOptimizer optimizer(&catalog_,
                                      optimizer::OptimizerOptions());
  int executed = 0;
  for (int q = 0; q < kNumQueries; ++q) {
    bool ordered = false;
    const std::string sql = GenerateQuery(rng, &ordered);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query#" +
                 std::to_string(q) + (ordered ? " [ordered] " : " ") + sql);
    auto plan = analyzer.Analyze(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(optimizer.Optimize(&plan.value()).ok());
    auto expected = Run(*plan, 1);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    auto ctx_plan = ctx.Prepare(sql);
    ASSERT_TRUE(ctx_plan.ok()) << ctx_plan.status().ToString();
    for (const auto& [label, exec] :
         std::vector<std::pair<const char*, const ExecutionOptions*>>{
             {"dop=1", &exec1}, {"dop=8", &exec8}, {"distributed", &execd}}) {
      SCOPED_TRACE(label);
      auto analyzed = ctx.ExplainAnalyzePlan(*ctx_plan, *exec);
      ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
      ASSERT_NE(analyzed->text.find("=== EXPLAIN ANALYZE ==="),
                std::string::npos);
      ASSERT_NO_FATAL_FAILURE(
          ExpectTablesMatch(*expected, analyzed->table, ordered));
    }
    {
      SCOPED_TRACE("disk dop=8");
      auto disk_plan = disk_ctx.Prepare(sql);
      ASSERT_TRUE(disk_plan.ok()) << disk_plan.status().ToString();
      auto analyzed = disk_ctx.ExplainAnalyzePlan(*disk_plan, exec8);
      ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
      ASSERT_NO_FATAL_FAILURE(
          ExpectTablesMatch(*expected, analyzed->table, ordered));
    }
    ++executed;
  }
  EXPECT_EQ(executed, kNumQueries);
  for (const auto& path : cleanup) std::remove(path.c_str());
}

TEST_F(QueryFuzzTest, TruncatedQueriesFailWithDiagnosableErrors) {
  // Chopping a valid query at a random byte either still parses (a valid
  // prefix) or fails; parse failures must carry a byte offset so fuzz
  // findings are diagnosable.
  const std::uint64_t seed = FuzzSeed() ^ 0x5EEDULL;
  Rng rng(seed);
  frontend::StaticAnalyzer analyzer(&catalog_);
  for (int q = 0; q < 50; ++q) {
    bool ordered = false;
    const std::string sql = GenerateQuery(rng, &ordered);
    const std::size_t cut =
        static_cast<std::size_t>(rng.UniformInt(1,
                                                static_cast<std::int64_t>(
                                                    sql.size() - 1)));
    const std::string truncated = sql.substr(0, cut);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query#" +
                 std::to_string(q) + " cut=" + std::to_string(cut) + " " +
                 truncated);
    auto plan = analyzer.Analyze(truncated);
    if (plan.ok()) continue;
    if (plan.status().code() == StatusCode::kParseError) {
      EXPECT_NE(plan.status().message().find("byte offset"),
                std::string::npos)
          << plan.status().ToString();
    }
  }
}

// A WHERE clause no row satisfies (the logreg score p is in [0, 1]) leaves
// the GROUP BY with zero groups, so the HAVING filter above it opens over
// an empty intermediate. Open-time kernel compilation still needs that
// intermediate to carry the grouped schema — the old per-chunk interpreter
// never resolved columns it never saw, which masked the empty-schema bug
// this test pins down. All execution modes must succeed and agree.
TEST_F(QueryFuzzTest, HavingOverFullyFilteredGroupByResolvesAtOpen) {
  frontend::StaticAnalyzer analyzer(&catalog_);
  optimizer::CrossOptimizer optimizer(&catalog_,
                                      optimizer::OptimizerOptions());
  const std::string sql =
      "SELECT delayed, day_of_week FROM PREDICT(MODEL='delay', "
      "DATA=flights) WITH(p float) WHERE p > 7.5184 AND p <> 5.9465 "
      "GROUP BY delayed, day_of_week HAVING COUNT(*) > 6";
  auto plan = analyzer.Analyze(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(optimizer.Optimize(&plan.value()).ok());
  auto seq = Run(*plan, 1);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(seq->num_rows(), 0);
  for (std::int64_t dop : {2, 8}) {
    auto par = Run(*plan, dop);
    ASSERT_TRUE(par.ok()) << "dop " << dop << ": "
                          << par.status().ToString();
    ASSERT_NO_FATAL_FAILURE(
        ExpectTablesMatch(*seq, *par, /*ordered=*/false))
        << "dop " << dop;
  }
  PlanExecutor executor(&catalog_, &cache_);
  ExecutionStats stats;
  auto dist = RunDistributed(&executor, *plan, 2, &stats);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  ASSERT_NO_FATAL_FAILURE(
      ExpectTablesMatch(*seq, *dist, /*ordered=*/false));
}

}  // namespace
}  // namespace raven::runtime
