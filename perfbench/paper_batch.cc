// paper_batch: one in-process session scoring the paper's Fig 2/3
// statement shapes over 100k hospital rows stored as id-clustered .rvc
// files. See README.md for the sizing rationale.

#include <malloc.h>
#include <sys/stat.h>

#include <memory>
#include <string>
#include <vector>

#include "data/hospital.h"
#include "raven/raven.h"
#include "storage/columnar.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::int64_t kRows = 100000;
/// Models are trained on a separate, smaller draw: training is set-up
/// work, and its size does not change what the statements cost.
constexpr std::int64_t kTrainRows = 10000;
/// Seeded variants per statement shape (the pool holds 5x this many).
constexpr int kVariants = 12;
/// Rows per .rvc block. The block is also the morsel, so the forest's
/// id-range slice covers exactly `kForestBlocks` whole blocks: always the
/// same parallelism, whatever range the seed picks.
constexpr std::int64_t kBlockRows = 512;
constexpr std::int64_t kForestBlocks = 4;
constexpr std::int64_t kForestSlice = kForestBlocks * kBlockRows;
/// The running-example join's three source tables hold the first this many
/// patients (the pre-joined `patients` table holds all kRows): a full-size
/// 3-way join would take half of every rotation on its own.
constexpr std::int64_t kJoinRows = 30000;

enum Shape { kTree, kForest, kMlp, kJoin, kGroupBy, kNumShapes };

struct Models {
  raven::ml::ModelPipeline tree;
  raven::ml::ModelPipeline forest;
  raven::ml::ModelPipeline mlp;
};

struct Statement {
  std::string sql;
  int shape = 0;
};

/// The seeded statement pool, shapes interleaved so one rotation visits
/// every shape kVariants times.
std::vector<Statement> MakePool(std::uint64_t seed) {
  Rng rng(seed * 0x9E37u + 17);
  std::vector<Statement> pool;
  for (int v = 0; v < kVariants; ++v) {
    pool.push_back(
        {"SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
         "WHERE bp > " +
             std::to_string(rng.Int(150, 165)),
         kTree});
    const std::int64_t lo =
        rng.Int(0, kRows / kBlockRows - kForestBlocks) * kBlockRows;
    pool.push_back({"SELECT id, p FROM PREDICT(MODEL='los_rf', DATA=patients) "
                    "WITH(p float) WHERE id >= " +
                        std::to_string(lo) + " AND id < " +
                        std::to_string(lo + kForestSlice),
                    kForest});
    pool.push_back({"SELECT id, p FROM PREDICT(MODEL='los_mlp', DATA=patients) "
                    "WITH(p float) WHERE p > " +
                        std::to_string(rng.Int(9, 11)),
                    kMlp});
    pool.push_back(
        {"WITH data AS (SELECT * FROM patient_info AS pi "
         "JOIN blood_tests AS bt ON pi.id = bt.id "
         "JOIN prenatal_tests AS pt ON bt.id = pt.id) "
         "SELECT id, length_of_stay FROM PREDICT(MODEL='los', DATA=data) "
         "WITH(length_of_stay float) WHERE pregnant = 1 AND length_of_stay > " +
             std::to_string(rng.Int(5, 8)),
         kJoin});
    pool.push_back(
        {"SELECT gender, pregnant, COUNT(*) AS n, AVG(p) AS mean_p "
         "FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) WHERE age > " +
             std::to_string(rng.Int(30, 40)) + " GROUP BY gender, pregnant",
         kGroupBy});
  }
  return pool;
}

void InsertModels(raven::RavenContext* ctx, const Models& models) {
  MustOk(ctx->InsertModel("los", raven::data::HospitalTreeScript(),
                          models.tree),
         "insert los");
  MustOk(ctx->InsertModel("los_rf", raven::data::HospitalForestScript(),
                          models.forest),
         "insert los_rf");
  MustOk(ctx->InsertModel("los_mlp", raven::data::HospitalMlpScript(),
                          models.mlp),
         "insert los_mlp");
}

struct Instance {
  /// In-memory tables: written to .rvc at set-up and read by the reference
  /// path, then freed before the measured loop.
  raven::data::HospitalDataset data;
  Models models;
  std::unique_ptr<raven::RavenContext> ctx;
};

/// One timed set-up: data generation, training, .rvc writes + attach,
/// model inserts, and a warm-up pass over one statement of every shape.
std::unique_ptr<Instance> SetUp(const Options& options,
                                const std::vector<Statement>& pool) {
  auto inst = std::make_unique<Instance>();
  inst->data = raven::data::MakeHospitalDataset(kRows, options.seed);
  for (raven::relational::Table* t :
       {&inst->data.patient_info, &inst->data.blood_tests,
        &inst->data.prenatal_tests}) {
    *t = t->SliceRows(0, kJoinRows);
  }
  const raven::data::HospitalDataset train =
      raven::data::MakeHospitalDataset(kTrainRows, kModelSeed);
  inst->models.tree = Must(raven::data::TrainHospitalTree(train, 8), "tree");
  inst->models.forest =
      Must(raven::data::TrainHospitalForest(train, 10, 8), "forest");
  inst->models.mlp = Must(raven::data::TrainHospitalMlp(train), "mlp");

  raven::RavenOptions ro;
  ro.execution.parallelism = options.dop;
  inst->ctx = std::make_unique<raven::RavenContext>(ro);
  const std::pair<const char*, const raven::relational::Table*> tables[] = {
      {"patients", &inst->data.joined},
      {"patient_info", &inst->data.patient_info},
      {"blood_tests", &inst->data.blood_tests},
      {"prenatal_tests", &inst->data.prenatal_tests}};
  for (const auto& [name, table] : tables) {
    // Generated rows are in id order, so each file is id-clustered and the
    // zone maps on id are disjoint ranges.
    const std::string path = options.work_dir + "/" + name + ".rvc";
    raven::storage::RvcWriteOptions write;
    write.block_rows = kBlockRows;
    MustOk(raven::storage::WriteRvc(*table, path, write), "write " + path);
    auto disk = Must(raven::storage::DiskTable::Open(path), "open " + path);
    MustOk(inst->ctx->RegisterDiskTable(name, disk), "attach " + path);
  }
  InsertModels(inst->ctx.get(), inst->models);
  // Warm-up: the pool interleaves shapes, so its first kNumShapes
  // statements are one of each (NNRT sessions compiled, files mapped).
  for (int i = 0; i < kNumShapes; ++i) {
    Must(inst->ctx->Query(pool[static_cast<std::size_t>(i)].sql), "warm-up");
  }
  return inst;
}

/// References on a different path: in-memory tables, dop 1.
std::vector<std::string> ComputeReferences(const Instance& inst,
                                           const std::vector<Statement>& pool) {
  raven::RavenContext ref;
  MustOk(ref.RegisterTable("patients", inst.data.joined), "ref patients");
  MustOk(ref.RegisterTable("patient_info", inst.data.patient_info), "ref");
  MustOk(ref.RegisterTable("blood_tests", inst.data.blood_tests), "ref");
  MustOk(ref.RegisterTable("prenatal_tests", inst.data.prenatal_tests), "ref");
  InsertModels(&ref, inst.models);
  std::vector<std::string> refs;
  refs.reserve(pool.size());
  for (const Statement& s : pool) {
    refs.push_back(TableBytes(Must(ref.Query(s.sql), "reference").table));
  }
  return refs;
}

void RecordResult(const std::string& got, const std::string& want,
                  LoopTally* tally) {
  if (got != want) {
    ++tally->failed;
    ++tally->wrong;
    if (tally->first_error.empty()) tally->first_error = "result mismatch";
  }
}

}  // namespace

int RunPaperBatch(const Options& options) {
  mkdir(options.work_dir.c_str(), 0755);
  const std::vector<Statement> pool = MakePool(options.seed);

  std::vector<double> setup_samples;
  std::unique_ptr<Instance> inst;
  for (int rep = 0; rep < options.setup_reps; ++rep) {
    inst.reset();
    const double t0 = NowMicros();
    inst = SetUp(options, pool);
    setup_samples.push_back((NowMicros() - t0) * 1e-6);
  }
  std::vector<std::string> refs = ComputeReferences(*inst, pool);
  if (options.corrupt_reference) refs[0][refs[0].size() / 2] ^= 0x5a;
  // The engine reads the .rvc files from here on; the driver's in-memory
  // copy would only inflate peak_rss_mb.
  inst->data = raven::data::HospitalDataset();
  malloc_trim(0);

  raven::RavenContext& ctx = *inst->ctx;
  const std::size_t n = pool.size();
  LoopTally tally;
  SpanLog spans;
  Report report;

  // Untraced closed loop: RavenContext::Query, the public one-call path,
  // rotating through the pool.
  std::size_t next = 0;
  auto run_untraced = [&](double seconds, LoopTally* out,
                          std::vector<PhaseSample>* samples) {
    const double start = NowMicros();
    double end = start;
    while (end - start < seconds * 1e6) {
      const Statement& s = pool[next % n];
      const std::string& want = refs[next % n];
      ++next;
      const double t0 = NowMicros();
      ++out->attempted;
      auto result = ctx.Query(s.sql);
      if (!result.ok()) {
        ++out->failed;
        if (out->first_error.empty()) {
          out->first_error = result.status().ToString();
        }
        end = NowMicros();
        continue;
      }
      const std::int64_t failed_before = out->failed;
      RecordResult(TableBytes(result->table), want, out);
      end = NowMicros();
      if (out->failed == failed_before) {
        out->Verified(t0, end);
        samples->push_back({s.shape, (end - t0) * 1e-3});
      }
    }
  };

  // Load warm-up, unmeasured: results verified, failures counted.
  {
    LoopTally warm;
    std::vector<PhaseSample> ignored;
    run_untraced(kLoadWarmSeconds, &warm, &ignored);
    warm.latency_ms.clear();
    warm.done_us.clear();
    tally.Merge(warm);
  }
  ResetPeakRss();
  // A traced run spends 40% of its time untraced for the overhead baseline.
  std::vector<PhaseSample> untraced;
  HostSampler host;
  host.Start();
  run_untraced(options.trace ? 0.4 * options.seconds : options.seconds,
               &tally, &untraced);
  host.Stop();

  if (!options.trace) {
    AddEndToEnd(tally, Median(setup_samples), host, &report);
    return Finish(options, report, tally, setup_samples, spans);
  }

  // Traced phase: the three calls Query makes, one span around each.
  LayerTotals totals;
  std::vector<PhaseSample> traced;
  const raven::nnrt::SessionCacheStats nn0 = ctx.session_cache().stats();
  const double traced_start = NowMicros();
  while (NowMicros() - traced_start < 0.6 * options.seconds * 1e6) {
    const Statement& s = pool[next % n];
    const std::string& want = refs[next % n];
    const auto stmt = static_cast<std::int64_t>(next++);
    ++tally.attempted;
    const double t0 = NowMicros();
    const int root = spans.Add("statement", t0, t0, -1, stmt);
    raven::frontend::AnalysisStats analysis;
    auto plan = ctx.analyzer().Analyze(s.sql, &analysis);
    const double t1 = NowMicros();
    spans.Add("frontend.analyze", t0, t1, root, stmt);
    raven::optimizer::OptimizationReport opt;
    raven::Status optimized =
        plan.ok() ? ctx.cross_optimizer().Optimize(&plan.value(), &opt)
                  : plan.status();
    const double t2 = NowMicros();
    spans.Add("optimizer.optimize", t1, t2, root, stmt);
    if (!optimized.ok()) {
      ++tally.failed;
      if (tally.first_error.empty()) tally.first_error = optimized.ToString();
      continue;
    }
    const std::string generated = raven::runtime::GenerateSql(*plan->root());
    const double t3 = NowMicros();
    spans.Add("runtime.generate_sql", t2, t3, root, stmt);
    raven::runtime::ExecutionStats exec;
    const double c0 = CpuSeconds();
    auto table = ctx.executor().Execute(*plan, ctx.execution_options(), &exec);
    const double c1 = CpuSeconds();
    const double t4 = NowMicros();
    spans.Add("runtime.execute", t3, t4, root, stmt);
    if (!table.ok()) {
      ++tally.failed;
      if (tally.first_error.empty()) {
        tally.first_error = table.status().ToString();
      }
      continue;
    }
    const std::int64_t failed_before = tally.failed;
    RecordResult(TableBytes(*table), want, &tally);
    const double t5 = NowMicros();
    spans.Add("bench.verify", t4, t5, root, stmt);
    spans.SetEnd(root, t5);
    if (tally.failed != failed_before) continue;
    tally.Verified(t0, t5);
    traced.push_back({s.shape, (t5 - t0) * 1e-3});

    ++totals.statements;
    totals.analyze_us += t1 - t0;
    totals.optimize_us += t2 - t1;
    totals.rules_fired += static_cast<double>(opt.TotalApplications());
    totals.execute_ms += (t4 - t3) * 1e-3;
    totals.execute_busy_s += c1 - c0;
    totals.execute_wall_dop_s += (t4 - t3) * 1e-6 * options.dop;
    AccumulateExecution(*plan->root(), exec, &totals);
  }
  const raven::nnrt::SessionCacheStats nn1 = ctx.session_cache().stats();
  totals.session_hits = static_cast<std::int64_t>(nn1.hits - nn0.hits);
  totals.session_misses = static_cast<std::int64_t>(nn1.misses - nn0.misses);
  totals.compiles = static_cast<std::int64_t>(nn1.compiles - nn0.compiles);
  const Coverage coverage = ComputeCoverage(spans);
  totals.statement_us = coverage.statement_us;
  totals.unattributed_us = coverage.unattributed_us;
  totals.planning_share =
      coverage.statement_us > 0
          ? (totals.analyze_us + totals.optimize_us) / coverage.statement_us
          : 0.0;
  SetOverhead(untraced, traced, &totals);
  AddPerLayer(totals, &report);
  return Finish(options, report, tally, setup_samples, spans);
}

}  // namespace perfbench
