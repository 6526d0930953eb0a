// serve_point and serve_adhoc: an in-process QueryServer on a unix socket,
// configured like `raven_serve` with no flags, driven by closed-loop
// ServerClient threads. See README.md for the sizing rationale.

#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "data/flight.h"
#include "data/hospital.h"
#include "raven/raven.h"
#include "server/client.h"
#include "server/query_server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using raven::server::ServerResponseKind;

constexpr std::int64_t kPointRows = 20000;
constexpr std::int64_t kAdhocRows = 2000;
/// Seeded (model, id) lookups per point workload run.
constexpr int kPointPool = 512;
/// Distinct ad-hoc statements, far above the 128-entry plan cache.
constexpr int kAdhocPool = 1000;
/// Share of ad-hoc operations that are model redeploys.
constexpr double kRedeployShare = 0.01;
/// Missed statements re-planned after a traced run to count rules fired.
constexpr std::size_t kRulesSample = 200;

enum class Kind { kPoint, kAdhoc };

/// One statement of the pool. Point entries run as EXECUTE of a prepared
/// template; `sql` is then the same lookup with the literal inlined, which
/// is what the reference path runs.
struct Entry {
  std::string sql;
  std::string prepared;  ///< point: prepared statement name
  double param = 0.0;
  int shape = 0;
};

struct Model {
  std::string name;
  std::string script;
  raven::ml::ModelPipeline pipeline;
  std::string bytes;  ///< what a redeploy writes back
};

const char* const kLosLookup =
    "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
    "WHERE id = ?";
const char* const kDelayLookup =
    "SELECT id, p FROM PREDICT(MODEL='delay', DATA=flights) WITH(p float) "
    "WHERE id = ?";

std::string Inline(const std::string& sql, std::int64_t value) {
  std::string out = sql;
  out.replace(out.find('?'), 1, std::to_string(value));
  return out;
}

std::vector<Entry> MakePointPool(std::uint64_t seed) {
  Rng rng(seed * 0x51ED + 3);
  std::vector<Entry> pool;
  for (int i = 0; i < kPointPool; ++i) {
    const bool los = i % 2 == 0;
    const std::int64_t id = rng.Int(0, kPointRows - 1);
    Entry e;
    e.prepared = los ? "p_los" : "p_delay";
    e.param = static_cast<double>(id);
    e.sql = Inline(los ? kLosLookup : kDelayLookup, id);
    e.shape = los ? 0 : 1;
    pool.push_back(std::move(e));
  }
  return pool;
}

std::vector<Entry> MakeAdhocPool(std::uint64_t seed) {
  Rng rng(seed * 0xAD0C + 5);
  auto lit = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::to_string(rng.Int(lo, hi));
  };
  std::vector<Entry> pool;
  std::unordered_set<std::string> seen;
  for (int k = 0; static_cast<int>(pool.size()) < kAdhocPool; ++k) {
    const int shape = k % 7;
    std::string sql;
    switch (shape) {
      case 0:
        sql = "SELECT id, age, bp FROM patients WHERE bp > " + lit(100, 150) +
              " AND age < " + lit(40, 90);
        break;
      case 1:
        sql = "SELECT gender, pregnant, COUNT(*) AS n, MAX(bp) AS max_bp "
              "FROM patients WHERE age > " +
              lit(18, 60) + " AND bp < " + lit(130, 190) +
              " GROUP BY gender, pregnant";
        break;
      case 2:
        sql = "SELECT airline, COUNT(*) AS n, AVG(distance) AS mean_distance "
              "FROM flights WHERE dep_hour >= " +
              lit(5, 15) + " AND distance > " + lit(150, 1500) +
              " GROUP BY airline";
        break;
      case 3:
        sql = "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) "
              "WITH(p float) WHERE bp > " +
              lit(130, 165) + " AND age > " + lit(40, 75);
        break;
      case 4:
        sql = "SELECT id, p FROM PREDICT(MODEL='los_mlp', DATA=patients) "
              "WITH(p float) WHERE age > " +
              lit(50, 80) + " AND weight < " + lit(70, 95);
        break;
      case 5:
        sql = "SELECT id, p FROM PREDICT(MODEL='delay', DATA=flights) "
              "WITH(p float) WHERE distance > " +
              lit(1200, 2400) + " AND dep_hour < " + lit(8, 20);
        break;
      default:
        sql = "WITH data AS (SELECT * FROM patient_info AS pi "
              "JOIN blood_tests AS bt ON pi.id = bt.id "
              "JOIN prenatal_tests AS pt ON bt.id = pt.id) "
              "SELECT id, length_of_stay FROM PREDICT(MODEL='los', DATA=data) "
              "WITH(length_of_stay float) WHERE pregnant = 1 AND age < " +
              lit(30, 50) + " AND length_of_stay > " + lit(2, 6);
        break;
    }
    if (!seen.insert(sql).second) continue;
    Entry e;
    e.sql = std::move(sql);
    e.shape = shape;
    pool.push_back(std::move(e));
  }
  return pool;
}

struct Instance {
  /// In-memory tables: registered with the server's context and read by
  /// the reference path, then freed before the measured loop.
  std::vector<std::pair<std::string, raven::relational::Table>> tables;
  std::vector<Model> models;
  std::unique_ptr<raven::RavenContext> ctx;
  std::unique_ptr<raven::server::QueryServer> server;
  std::vector<std::unique_ptr<raven::server::ServerClient>> clients;
  raven::runtime::ExecutionOptions exec;  ///< the sessions' defaults

  ~Instance() {
    clients.clear();
    if (server != nullptr) server->Stop();
  }
};

Model MakeModel(const std::string& name, const std::string& script,
                raven::Result<raven::ml::ModelPipeline> trained) {
  Model m{name, script, Must(std::move(trained), "train " + name), ""};
  m.bytes = m.pipeline.ToBytes();
  return m;
}

/// One timed set-up: data generation, training, server start, client
/// connects (+ PREPAREs) and a warm-up pass.
std::unique_ptr<Instance> SetUp(Kind kind, const Options& options,
                                const std::vector<Entry>& pool) {
  auto inst = std::make_unique<Instance>();
  const std::int64_t rows = kind == Kind::kPoint ? kPointRows : kAdhocRows;
  raven::data::HospitalDataset hospital =
      raven::data::MakeHospitalDataset(rows, options.seed);
  raven::data::FlightDataset flight =
      raven::data::MakeFlightDataset(rows, options.seed + 7);
  const raven::data::HospitalDataset hospital_train =
      raven::data::MakeHospitalDataset(rows, kModelSeed);
  const raven::data::FlightDataset flight_train =
      raven::data::MakeFlightDataset(rows, kModelSeed);
  inst->models.push_back(
      MakeModel("los", raven::data::HospitalTreeScript(),
                raven::data::TrainHospitalTree(hospital_train, 5)));
  inst->models.push_back(
      MakeModel("delay", raven::data::FlightLogregScript(),
                raven::data::TrainFlightLogreg(flight_train, 0.01)));
  if (kind == Kind::kAdhoc) {
    inst->models.push_back(
        MakeModel("los_mlp", raven::data::HospitalMlpScript(),
                  raven::data::TrainHospitalMlp(hospital_train)));
    inst->tables.emplace_back("patient_info", hospital.patient_info);
    inst->tables.emplace_back("blood_tests", hospital.blood_tests);
    inst->tables.emplace_back("prenatal_tests", hospital.prenatal_tests);
  }
  inst->tables.emplace_back("patients", std::move(hospital.joined));
  inst->tables.emplace_back("flights", std::move(flight.flights));

  inst->ctx = std::make_unique<raven::RavenContext>();
  for (const auto& [name, table] : inst->tables) {
    MustOk(inst->ctx->RegisterTable(name, table), "register " + name);
  }
  for (const Model& m : inst->models) {
    MustOk(inst->ctx->InsertModel(m.name, m.script, m.pipeline),
           "insert " + m.name);
  }

  // raven_serve's defaults (admission 4 slots / 16 queued, 128-entry plan
  // cache, no batch window), with its default dop of 4 capped at nproc.
  raven::server::QueryServerOptions so;
  so.unix_socket_path = options.work_dir + "/serve-" +
                        std::to_string(::getpid()) + ".sock";
  so.default_execution.parallelism = options.dop;
  inst->exec = so.default_execution;
  inst->server = std::make_unique<raven::server::QueryServer>(inst->ctx.get(),
                                                              so);
  MustOk(inst->server->Start(), "server start");

  for (int c = 0; c < options.clients; ++c) {
    auto client = std::make_unique<raven::server::ServerClient>();
    MustOk(client->ConnectUnix(so.unix_socket_path), "connect");
    if (kind == Kind::kPoint) {
      for (const char* name : {"p_los", "p_delay"}) {
        const char* sql = std::string(name) == "p_los" ? kLosLookup
                                                       : kDelayLookup;
        auto prepared = client->Query("PREPARE " + std::string(name) +
                                      " AS " + sql);
        if (!prepared.ok() || prepared->kind != ServerResponseKind::kAck) {
          Die("prepare", prepared.ok()
                             ? raven::Status::Internal(prepared->message)
                             : prepared.status());
        }
      }
    }
    inst->clients.push_back(std::move(client));
  }
  // Warm-up: every client runs one entry of each shape (NNRT sessions
  // compiled, prepared plans bound).
  for (auto& client : inst->clients) {
    std::vector<bool> warmed(8, false);
    for (const Entry& e : pool) {
      if (warmed[static_cast<std::size_t>(e.shape)]) continue;
      warmed[static_cast<std::size_t>(e.shape)] = true;
      auto r = e.prepared.empty() ? client->Query(e.sql)
                                  : client->ExecutePrepared(e.prepared,
                                                            {e.param});
      if (!r.ok() || r->kind != ServerResponseKind::kTable) {
        Die("warm-up", r.ok() ? raven::Status::Internal(r->message)
                              : r.status());
      }
    }
  }
  return inst;
}

/// References on a different path: a fresh context over in-memory copies
/// of the same tables and models, dop 1, no server, literal statements.
std::vector<std::string> ComputeReferences(const Instance& inst,
                                           const std::vector<Entry>& pool) {
  raven::RavenContext ref;
  for (const auto& [name, table] : inst.tables) {
    MustOk(ref.RegisterTable(name, table), "ref " + name);
  }
  for (const Model& m : inst.models) {
    MustOk(ref.InsertModel(m.name, m.script, m.pipeline), "ref " + m.name);
  }
  std::vector<std::string> refs;
  refs.reserve(pool.size());
  for (const Entry& e : pool) {
    refs.push_back(TableBytes(Must(ref.Query(e.sql), "reference").table));
  }
  return refs;
}

/// One verified round trip of the traced phase, with the span tree the
/// server recorded for it (SHOW TRACE text, fetched after the round trip).
struct Record {
  int idx = 0;
  double t0 = 0.0;  ///< send
  double t1 = 0.0;  ///< response decoded
  double t2 = 0.0;  ///< result verified
  double total_ms = 0.0;
  double queue_us = 0.0;
  bool hit = false;
  std::string trace;
};

struct ClientResult {
  LoopTally tally;
  std::vector<Record> records;
  std::vector<PhaseSample> samples;
};

struct Phase {
  Kind kind;
  const std::vector<Entry>* pool;
  const std::vector<std::string>* refs;
  Instance* inst;
  std::uint64_t seed;
  double deadline_us;
  bool traced;  ///< sessions run with SET trace = on; keep Records
  /// 0 warm-up, 1 untraced, 2 traced: each draws its own sequence.
  int index;
};

void Fail(LoopTally* tally, const std::string& why) {
  ++tally->failed;
  if (tally->first_error.empty()) tally->first_error = why;
}

void ClientLoop(const Phase& phase, int tid, ClientResult* out) {
  raven::server::ServerClient& client =
      *phase.inst->clients[static_cast<std::size_t>(tid)];
  Rng rng(phase.seed * 1000003 + static_cast<std::uint64_t>(tid) * 7919 +
          static_cast<std::uint64_t>(phase.index));
  const std::vector<Entry>& pool = *phase.pool;
  LoopTally& tally = out->tally;
  // Client 0's first statement of the first phase is pool entry 0, the one
  // --corrupt-reference damages.
  bool first = phase.index == 0 && tid == 0;
  while (NowMicros() < phase.deadline_us) {
    if (phase.kind == Kind::kAdhoc && !first && rng.Unit() < kRedeployShare) {
      // A redeploy: same bytes, new catalog version.
      const Model& m = phase.inst->models[static_cast<std::size_t>(
          rng.Int(0, static_cast<std::int64_t>(phase.inst->models.size()) -
                         1))];
      ++tally.attempted;
      raven::Status updated =
          phase.inst->ctx->catalog().UpdateModel(m.name, m.script, m.bytes);
      if (!updated.ok()) Fail(&tally, updated.ToString());
      continue;
    }
    const int idx =
        first ? 0
              : static_cast<int>(
                    rng.Int(0, static_cast<std::int64_t>(pool.size()) - 1));
    first = false;
    const Entry& e = pool[static_cast<std::size_t>(idx)];
    ++tally.attempted;
    Record r;
    r.idx = idx;
    r.t0 = NowMicros();
    auto response = e.prepared.empty()
                        ? client.Query(e.sql)
                        : client.ExecutePrepared(e.prepared, {e.param});
    r.t1 = NowMicros();
    if (!response.ok()) {
      Fail(&tally, response.status().ToString());
      continue;
    }
    if (response->kind != ServerResponseKind::kTable) {
      Fail(&tally, response->message);
      continue;
    }
    if (TableBytes(response->table) !=
        (*phase.refs)[static_cast<std::size_t>(idx)]) {
      ++tally.wrong;
      Fail(&tally, "result mismatch");
      continue;
    }
    r.t2 = NowMicros();
    r.total_ms = response->total_millis;
    r.queue_us = response->queue_wait_micros;
    r.hit = response->plan_cache_hit;
    tally.Verified(r.t0, r.t2);
    out->samples.push_back({e.shape, (r.t2 - r.t0) * 1e-3});
    if (!phase.traced) continue;
    // The server's span tree for this statement, read outside t0..t2.
    auto shown = client.Query("SHOW TRACE");
    if (!shown.ok() || shown->kind != ServerResponseKind::kAck) {
      Fail(&tally, "SHOW TRACE: " + (shown.ok() ? shown->message
                                                 : shown.status().ToString()));
      continue;
    }
    r.trace = std::move(shown->message);
    out->records.push_back(std::move(r));
  }
}

/// Runs `clients` load threads until `seconds` have passed.
std::vector<ClientResult> RunPhase(const Phase& base, int clients,
                                   double seconds) {
  Phase phase = base;
  phase.deadline_us = NowMicros() + seconds * 1e6;
  std::vector<ClientResult> results(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back(ClientLoop, std::cref(phase), t,
                         &results[static_cast<std::size_t>(t)]);
  }
  for (auto& t : threads) t.join();
  return results;
}

/// One line of SHOW TRACE's tree: "<2 spaces per depth><name>
/// start=<N>us dur=<N>us[  <detail>]". Times are the server trace's own
/// offsets from the statement's start.
struct ServerSpan {
  std::string name;
  std::size_t depth = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::string detail;
};

std::vector<ServerSpan> ParseTraceTree(const std::string& text) {
  std::vector<ServerSpan> spans;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t at = line.find("  start=");
    if (at == std::string::npos) continue;
    ServerSpan span;
    span.depth = line.find_first_not_of(' ') / 2;
    span.name = line.substr(span.depth * 2, at - span.depth * 2);
    char* end = nullptr;
    span.start_us = std::strtod(line.c_str() + at + 8, &end);
    const std::size_t dur = line.find("dur=", at);
    if (dur == std::string::npos) continue;
    span.dur_us = std::strtod(line.c_str() + dur + 4, &end);
    const std::size_t detail = line.find("  ", dur);
    if (detail != std::string::npos) span.detail = line.substr(detail + 2);
    spans.push_back(std::move(span));
  }
  return spans;
}

/// The integer after "<key>=" in a span's detail (0 when absent).
std::int64_t DetailInt(const std::string& detail, const std::string& key) {
  const std::size_t at = detail.find(key + "=");
  return at == std::string::npos
             ? 0
             : std::strtoll(detail.c_str() + at + key.size() + 1, nullptr,
                            10);
}

/// Operator spans arrive in slot-creation order, which is the physical
/// plan's post-order: scans and materialized rescans are leaves, a hash
/// join has two children, every other operator one. A parent's self time is
/// its busy time minus its children's, as in paper_batch.
void AccumulateOperatorSpans(const std::vector<const ServerSpan*>& ops,
                             LayerTotals* t) {
  std::vector<double> subtree_busy;
  for (const ServerSpan* op : ops) {
    const std::string name = op->name.substr(3);  // strip "op:"
    const bool rescan = StartsWith(name, "Materialized(");
    const bool leaf =
        rescan || StartsWith(name, "Scan(") || StartsWith(name, "DiskScan(");
    std::size_t arity = leaf ? 0 : (name == "HashJoin" ? 2 : 1);
    double below = 0.0;
    for (; arity > 0 && !subtree_busy.empty(); --arity) {
      below += subtree_busy.back();
      subtree_busy.pop_back();
    }
    const double self =
        rescan ? op->dur_us : std::max(0.0, op->dur_us - below);
    const std::int64_t rows = DetailInt(op->detail, "rows");
    const std::int64_t chunks = DetailInt(op->detail, "chunks");
    AddOperatorSelfTime(name, self, rows, t);
    t->execute_busy_s += self * 1e-6;
    if (leaf && !rescan) t->morsels += static_cast<double>(chunks);
    if (StartsWith(name, "Fused[")) t->fused_chains += 1;
    if (name.find("Predict(") != std::string::npos) {
      t->rows_scored += static_cast<double>(rows);
      t->predict_calls += static_cast<double>(chunks);
    }
    subtree_busy.push_back(op->dur_us);
  }
}

/// The server's counters, read before and after the traced phase.
struct ServerCounters {
  raven::server::ServerStats server;
  raven::server::PredictBatcher::Stats batcher;
  raven::nnrt::SessionCacheStats nn;
  double nn_op_us = 0.0;
};

ServerCounters ReadCounters(Instance& inst) {
  ServerCounters c;
  c.server = inst.server->Snapshot();
  c.batcher = inst.server->batcher().stats();
  c.nn = inst.ctx->session_cache().stats();
  c.nn_op_us = inst.ctx->session_cache().profiler().total_micros();
  return c;
}

/// Rules fired per planned statement: a sample of the distinct statements
/// that missed the plan cache, re-planned in-process after the traced phase
/// (the server's trace times planning but does not report rule counts).
double MeanRulesFired(const Options& options, raven::RavenContext& ctx,
                      const std::vector<Entry>& pool,
                      const std::vector<Record>& records) {
  std::vector<int> missed;
  std::unordered_set<int> seen;
  for (const Record& r : records) {
    if (!r.hit && seen.insert(r.idx).second) missed.push_back(r.idx);
  }
  Rng rng(options.seed * 31 + 9);
  const std::size_t n = std::min(kRulesSample, missed.size());
  if (n == 0) return 0.0;
  // The server plans under the session's costing targets.
  ctx.optimizer_options().target_parallelism = options.dop;
  ctx.optimizer_options().target_distributed_workers = 0;
  double rules = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.Int(static_cast<std::int64_t>(i),
                static_cast<std::int64_t>(missed.size()) - 1));
    std::swap(missed[i], missed[j]);
    const Entry& e = pool[static_cast<std::size_t>(missed[i])];
    auto plan = Must(ctx.analyzer().Analyze(e.sql), "replay analyze");
    raven::optimizer::OptimizationReport report;
    MustOk(ctx.cross_optimizer().Optimize(&plan, &report), "replay optimize");
    rules += static_cast<double>(report.TotalApplications());
  }
  return rules / static_cast<double>(n);
}

/// Traced-run accounting, from the span tree the server recorded for each
/// statement, the reply fields, and the server's counters.
void Attribute(const Options& options, Instance& inst,
               const std::vector<Entry>& pool,
               const std::vector<Record>& records, const ServerCounters& c0,
               const ServerCounters& c1, LayerTotals* t, SpanLog* spans) {
  t->statements = static_cast<std::int64_t>(records.size());
  t->plan_evictions =
      c1.server.plan_cache.evictions - c0.server.plan_cache.evictions;
  t->plan_invalidations =
      c1.server.plan_cache.invalidations - c0.server.plan_cache.invalidations;
  t->shed = c1.server.admission.shed - c0.server.admission.shed;
  t->epoll_wakeups = c1.server.epoll_wakeups - c0.server.epoll_wakeups;
  t->blocks_scanned = static_cast<double>(c1.server.blocks_scanned -
                                          c0.server.blocks_scanned);
  t->blocks_skipped = static_cast<double>(c1.server.blocks_skipped -
                                          c0.server.blocks_skipped);
  t->batcher_rows_flushed = c1.batcher.rows_flushed - c0.batcher.rows_flushed;
  t->batcher_batches = c1.batcher.batches_flushed - c0.batcher.batches_flushed;
  t->batcher_rows_coalesced =
      c1.batcher.rows_coalesced - c0.batcher.rows_coalesced;
  t->batcher_rows_submitted =
      c1.batcher.rows_submitted - c0.batcher.rows_submitted;
  t->session_hits = static_cast<std::int64_t>(c1.nn.hits - c0.nn.hits);
  t->session_misses = static_cast<std::int64_t>(c1.nn.misses - c0.nn.misses);
  t->compiles = static_cast<std::int64_t>(c1.nn.compiles - c0.nn.compiles);
  t->score_us = c1.nn_op_us - c0.nn_op_us;

  double server_us = 0.0;
  std::int64_t stmt = 0;
  for (const Record& r : records) {
    t->plan_hits += r.hit ? 1 : 0;
    t->server_statement_ms += r.total_ms;
    t->queue_wait_us.push_back(r.queue_us);

    // The server's spans become children of the round trip. Their offsets
    // are from the server trace's start, which the client cannot see; they
    // are placed from the send time. Accounting uses only durations.
    const int root = spans->Add("statement", r.t0, r.t2, -1, stmt);
    const std::vector<ServerSpan> tree = ParseTraceTree(r.trace);
    std::vector<int> open;  // span index per depth
    std::vector<const ServerSpan*> ops;
    double extent = 0.0;
    for (const ServerSpan& s : tree) {
      open.resize(std::min(open.size(), s.depth));
      const int parent = open.empty() ? root : open.back();
      open.push_back(spans->Add("server." + s.name, r.t0 + s.start_us,
                                r.t0 + s.start_us + s.dur_us, parent, stmt));
      if (s.depth == 0) extent = std::max(extent, s.start_us + s.dur_us);
      if (s.name == "plan_cache.lookup") t->normalize_us += s.dur_us;
      if (s.name == "parse") t->analyze_us += s.dur_us;
      if (s.name == "optimize") t->optimize_us += s.dur_us;
      if (s.name == "execute") {
        t->execute_ms += s.dur_us * 1e-3;
        t->execute_wall_dop_s += s.dur_us * 1e-6 * options.dop;
      }
      if (StartsWith(s.name, "op:")) ops.push_back(&s);
    }
    AccumulateOperatorSpans(ops, t);
    spans->Add("bench.verify", r.t1, r.t2, root, stmt);
    t->transport_us += (r.t1 - r.t0) - extent;
    server_us += extent;
    ++stmt;
  }
  t->rules_fired =
      MeanRulesFired(options, *inst.ctx, pool, records) *
      static_cast<double>(t->statements - t->plan_hits);

  const Coverage coverage = ComputeCoverage(*spans);
  t->statement_us = coverage.statement_us;
  t->unattributed_us = coverage.unattributed_us;
  // Frontend + optimizer share of the server-side time of the statements.
  t->planning_share =
      server_us > 0
          ? (t->normalize_us + t->analyze_us + t->optimize_us) / server_us
          : 0.0;
}

int RunServed(Kind kind, const Options& options) {
  mkdir(options.work_dir.c_str(), 0755);
  const std::vector<Entry> pool = kind == Kind::kPoint
                                      ? MakePointPool(options.seed)
                                      : MakeAdhocPool(options.seed);
  std::vector<double> setup_samples;
  std::unique_ptr<Instance> inst;
  for (int rep = 0; rep < options.setup_reps; ++rep) {
    inst.reset();
    const double t0 = NowMicros();
    inst = SetUp(kind, options, pool);
    setup_samples.push_back((NowMicros() - t0) * 1e-6);
  }
  std::vector<std::string> refs = ComputeReferences(*inst, pool);
  if (options.corrupt_reference) refs[0][refs[0].size() / 2] ^= 0x5a;
  // The server holds its own copies; the driver's would only inflate
  // peak_rss_mb.
  inst->tables.clear();
  malloc_trim(0);

  Phase phase{kind, &pool, &refs, inst.get(), options.seed, 0.0, false, 0};
  LoopTally tally;
  SpanLog spans;
  Report report;

  // Load warm-up: the closed loop itself, unmeasured; its results are
  // still verified and its failures still count.
  for (const ClientResult& r :
       RunPhase(phase, options.clients, kLoadWarmSeconds)) {
    tally.attempted += r.tally.attempted;
    tally.failed += r.tally.failed;
    tally.wrong += r.tally.wrong;
    if (tally.first_error.empty()) tally.first_error = r.tally.first_error;
  }
  phase.index = 1;
  ResetPeakRss();

  const double untraced_s =
      options.trace ? 0.4 * options.seconds : options.seconds;
  HostSampler host;
  host.Start();
  const std::vector<ClientResult> untraced =
      RunPhase(phase, options.clients, untraced_s);
  host.Stop();
  std::vector<PhaseSample> untraced_samples;
  for (const ClientResult& r : untraced) {
    tally.Merge(r.tally);
    untraced_samples.insert(untraced_samples.end(), r.samples.begin(),
                            r.samples.end());
  }
  if (!options.trace) {
    AddEndToEnd(tally, Median(setup_samples), host, &report);
    return Finish(options, report, tally, setup_samples, spans);
  }

  for (auto& client : inst->clients) {
    auto on = client->Query("SET trace = on");
    if (!on.ok() || on->kind != ServerResponseKind::kAck) {
      Die("SET trace", on.ok() ? raven::Status::Internal(on->message)
                               : on.status());
    }
  }
  const ServerCounters c0 = ReadCounters(*inst);
  phase.traced = true;
  phase.index = 2;
  std::vector<ClientResult> traced =
      RunPhase(phase, options.clients, 0.6 * options.seconds);
  const ServerCounters c1 = ReadCounters(*inst);

  std::vector<Record> records;
  std::vector<PhaseSample> traced_samples;
  for (ClientResult& r : traced) {
    tally.Merge(r.tally);
    std::move(r.records.begin(), r.records.end(), std::back_inserter(records));
    traced_samples.insert(traced_samples.end(), r.samples.begin(),
                          r.samples.end());
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.t0 < b.t0; });
  LayerTotals totals;
  Attribute(options, *inst, pool, records, c0, c1, &totals, &spans);
  SetOverhead(untraced_samples, traced_samples, &totals);
  AddPerLayer(totals, &report);
  return Finish(options, report, tally, setup_samples, spans);
}

}  // namespace

int RunServePoint(const Options& options) {
  return RunServed(Kind::kPoint, options);
}

int RunServeAdhoc(const Options& options) {
  return RunServed(Kind::kAdhoc, options);
}

}  // namespace perfbench
