// Suite for the concurrent query server (src/server): protocol round
// trips, plan-cache and admission-controller units, end-to-end statement
// handling over real sockets, hostile-client handling (disconnect
// mid-query, malformed frames, oversized statements), and the TSan soak —
// 8 concurrent clients of mixed SELECT / PREDICT / prepared-statement
// traffic whose results must be byte-identical to in-process execution
// while a ninth client disconnects mid-query and the admission queue
// fills and sheds.

#include <gtest/gtest.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "data/flight.h"
#include "data/hospital.h"
#include "raven/raven.h"
#include "runtime/worker_protocol.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/plan_cache.h"
#include "server/query_server.h"
#include "server/server_protocol.h"
#include "test_util.h"

namespace raven::server {
namespace {

using relational::Table;

std::string UniqueSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/raven_server_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

std::vector<std::vector<double>> TableRows(const Table& t) {
  std::vector<std::vector<double>> rows(
      static_cast<std::size_t>(t.num_rows()));
  for (const auto& col : t.columns()) {
    for (std::int64_t r = 0; r < t.num_rows(); ++r) {
      rows[static_cast<std::size_t>(r)].push_back(
          col.data[static_cast<std::size_t>(r)]);
    }
  }
  return rows;
}

/// Bitwise-exact table comparison; row order ignored unless `ordered`
/// (sorting both sides). The soak's byte-identical acceptance bar.
void ExpectTablesIdentical(const Table& expected, const Table& actual,
                           bool ordered) {
  ASSERT_EQ(expected.ColumnNames(), actual.ColumnNames());
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  auto lhs = TableRows(expected);
  auto rhs = TableRows(actual);
  if (!ordered) {
    std::sort(lhs.begin(), lhs.end());
    std::sort(rhs.begin(), rhs.end());
  }
  EXPECT_EQ(lhs, rhs);
}

// ---------------------------------------------------------------------------
// Protocol round trips
// ---------------------------------------------------------------------------

TEST(ServerProtocolTest, ClientRequestRoundTrip) {
  ClientRequest request;
  request.command = ClientCommand::kExecute;
  request.sql = "SELECT 1";
  request.statement_name = "hot";
  request.params = {1.5, -3.0, 42.0};
  auto decoded = DecodeClientRequest(EncodeClientRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->command, ClientCommand::kExecute);
  EXPECT_EQ(decoded->sql, "SELECT 1");
  EXPECT_EQ(decoded->statement_name, "hot");
  EXPECT_EQ(decoded->params, request.params);
}

TEST(ServerProtocolTest, ResponseRoundTripAllKinds) {
  {
    ServerResponse response;
    response.kind = ServerResponseKind::kTable;
    Table table;
    ASSERT_TRUE(table.AddNumericColumn("x", {1.0, 2.0, 3.0}).ok());
    response.table = std::move(table);
    response.plan_cache_hit = true;
    response.queue_wait_micros = 12.5;
    response.total_millis = 3.25;
    auto decoded = DecodeServerResponse(EncodeServerResponse(response));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->kind, ServerResponseKind::kTable);
    EXPECT_EQ(decoded->table.num_rows(), 3);
    EXPECT_TRUE(decoded->plan_cache_hit);
    EXPECT_DOUBLE_EQ(decoded->queue_wait_micros, 12.5);
  }
  {
    ServerResponse response;
    response.kind = ServerResponseKind::kError;
    response.code = StatusCode::kParseError;
    response.message = "boom";
    auto decoded = DecodeServerResponse(EncodeServerResponse(response));
    ASSERT_TRUE(decoded.ok());
    Status status = ResponseStatus(decoded.value());
    EXPECT_EQ(status.code(), StatusCode::kParseError);
    EXPECT_EQ(status.message(), "boom");
  }
  {
    ServerResponse response;
    response.kind = ServerResponseKind::kBusy;
    response.message = "later";
    auto decoded = DecodeServerResponse(EncodeServerResponse(response));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(ResponseStatus(decoded.value()).code(),
              StatusCode::kServerBusy);
  }
  {
    ServerResponse response;
    response.kind = ServerResponseKind::kStats;
    response.stats = {{"hits", 3}, {"misses", 7}};
    auto decoded = DecodeServerResponse(EncodeServerResponse(response));
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded->stats.size(), 2u);
    EXPECT_EQ(decoded->stats[0].first, "hits");
    EXPECT_EQ(decoded->stats[1].second, 7);
  }
}

TEST(ServerProtocolTest, MalformedPayloadsFailCleanly) {
  EXPECT_FALSE(DecodeClientRequest("").ok());
  EXPECT_FALSE(DecodeClientRequest("\xff").ok());
  EXPECT_FALSE(DecodeServerResponse("\xff").ok());
  // Truncation anywhere must error, never crash.
  ClientRequest request;
  request.command = ClientCommand::kQuery;
  request.sql = "SELECT * FROM patients";
  const std::string encoded = EncodeClientRequest(request);
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_FALSE(DecodeClientRequest(encoded.substr(0, cut)).ok())
        << "cut=" << cut;
  }
  // Trailing garbage is rejected too.
  EXPECT_FALSE(DecodeClientRequest(encoded + "x").ok());
}

// ---------------------------------------------------------------------------
// Plan cache unit
// ---------------------------------------------------------------------------

std::shared_ptr<const CachedPlan> MakePlan(const std::string& table) {
  auto plan = std::make_shared<CachedPlan>();
  plan->plan = std::make_shared<const ir::IrPlan>(
      ir::IrPlan(ir::IrNode::TableScan(table)));
  plan->fingerprint = ir::PlanFingerprint(*plan->plan->root());
  return plan;
}

TEST(PlanCacheTest, HitMissEvictInvalidate) {
  PlanCache cache(2);
  EXPECT_EQ(cache.Get("a", 1), nullptr);  // miss
  cache.Put("a", 1, MakePlan("t1"));
  auto hit = cache.Get("a", 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->fingerprint, MakePlan("t1")->fingerprint);

  // Same key at a newer catalog version: the entry is stale — dropped and
  // counted as an invalidation.
  EXPECT_EQ(cache.Get("a", 2), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1);
  EXPECT_EQ(cache.stats().entries, 0);

  // LRU eviction at capacity 2: touching "b" makes "c" the LRU victim.
  cache.Put("b", 2, MakePlan("t2"));
  cache.Put("c", 2, MakePlan("t3"));
  ASSERT_NE(cache.Get("b", 2), nullptr);
  cache.Put("d", 2, MakePlan("t4"));  // evicts c
  EXPECT_EQ(cache.Get("c", 2), nullptr);
  ASSERT_NE(cache.Get("b", 2), nullptr);
  ASSERT_NE(cache.Get("d", 2), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);

  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.Get("b", 2), nullptr);
}

TEST(PlanCacheTest, DistinctFingerprintsForDistinctPlans) {
  EXPECT_NE(MakePlan("alpha")->fingerprint, MakePlan("beta")->fingerprint);
  EXPECT_EQ(MakePlan("alpha")->fingerprint, MakePlan("alpha")->fingerprint);
}

// ---------------------------------------------------------------------------
// Admission controller unit
// ---------------------------------------------------------------------------

TEST(AdmissionTest, ShedsWhenSlotsAndQueueFull) {
  AdmissionOptions options;
  options.max_concurrent = 2;
  options.max_queue = 0;
  AdmissionController admission(options);
  auto t1 = admission.Admit();
  auto t2 = admission.Admit();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  auto t3 = admission.Admit();
  ASSERT_FALSE(t3.ok());
  EXPECT_EQ(t3.status().code(), StatusCode::kServerBusy);
  EXPECT_EQ(admission.stats().shed, 1);
  EXPECT_EQ(admission.stats().active, 2);
  { auto release = std::move(t1).value(); }  // free one slot
  auto t4 = admission.Admit();
  EXPECT_TRUE(t4.ok());
  EXPECT_EQ(admission.stats().active, 2);
}

TEST(AdmissionTest, QueueTimeoutSheds) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 1;
  options.queue_timeout_millis = 50;
  AdmissionController admission(options);
  auto held = admission.Admit();
  ASSERT_TRUE(held.ok());
  auto queued = admission.Admit();  // waits 50 ms, then sheds
  ASSERT_FALSE(queued.ok());
  EXPECT_EQ(queued.status().code(), StatusCode::kServerBusy);
  EXPECT_EQ(admission.stats().timeouts, 1);
  EXPECT_EQ(admission.stats().ever_queued, 1);
}

TEST(AdmissionTest, QueuedCallerWakesOnRelease) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 4;
  options.queue_timeout_millis = 30000;
  AdmissionController admission(options);
  auto held = admission.Admit();
  ASSERT_TRUE(held.ok());
  std::atomic<bool> admitted{false};
  std::thread waiter([&admission, &admitted] {
    auto ticket = admission.Admit();
    EXPECT_TRUE(ticket.ok());
    if (ticket.ok()) {
      EXPECT_GT(ticket->queue_wait_micros(), 0.0);
    }
    admitted.store(true);
  });
  // Give the waiter time to enqueue, then free the slot.
  while (admission.stats().queued == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(admitted.load());
  { auto release = std::move(held).value(); }
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(admission.stats().peak_queued, 1);
}

// ---------------------------------------------------------------------------
// End-to-end fixture
// ---------------------------------------------------------------------------

class QueryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hospital_ = data::MakeHospitalDataset(1500, 11);
    ASSERT_NO_FATAL_FAILURE(
        test_util::RegisterHospitalTables(&ctx_.catalog(), hospital_));
    test_util::InsertHospitalTreeModel(&ctx_.catalog(), hospital_, 5);
    flight_ = data::MakeFlightDataset(1000, 7);
    ASSERT_NO_FATAL_FAILURE(
        test_util::RegisterFlightTable(&ctx_.catalog(), flight_));
    auto logreg = data::TrainFlightLogreg(flight_, 0.01);
    ASSERT_TRUE(logreg.ok()) << logreg.status().ToString();
    ASSERT_TRUE(ctx_.catalog()
                    .InsertModel("delay", data::FlightLogregScript(),
                                 logreg->ToBytes())
                    .ok());
    ASSERT_FALSE(HasFailure()) << "fixture setup failed";
  }

  /// In-process ground truth: a single-threaded run at the context's own
  /// execution options (dop 1).
  Table Expected(const std::string& sql) {
    auto result = ctx_.Query(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result.ok() ? std::move(result).value().table : Table();
  }

  QueryServerOptions DefaultOptions() {
    QueryServerOptions options;
    options.unix_socket_path = UniqueSocketPath();
    options.default_execution.parallelism = 4;
    return options;
  }

  data::HospitalDataset hospital_;
  data::FlightDataset flight_;
  RavenContext ctx_;
};

TEST_F(QueryServerTest, StatementsMatchInProcessExecution) {
  const std::vector<std::pair<std::string, bool>> cases = {
      {"SELECT id, age, bp FROM patients WHERE bp > 95 ORDER BY id LIMIT 50",
       true},
      {"SELECT gender, COUNT(*) AS n, MIN(age) AS youngest FROM patients "
       "GROUP BY gender",
       false},
      {"SELECT pi.id, bp FROM patient_info AS pi JOIN blood_tests AS bt "
       "ON pi.id = bt.id WHERE age > 40",
       false},
      {"SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) "
       "WITH(p float) WHERE p > 6",
       false},
  };
  std::vector<Table> expected;
  expected.reserve(cases.size());
  for (const auto& [sql, ordered] : cases) {
    (void)ordered;
    expected.push_back(Expected(sql));
  }
  ASSERT_FALSE(HasFailure());

  QueryServer server(&ctx_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  ServerClient client;
  ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].first);
    auto response = client.Query(cases[i].first);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->kind, ServerResponseKind::kTable)
        << response->message;
    ASSERT_NO_FATAL_FAILURE(ExpectTablesIdentical(
        expected[i], response->table, cases[i].second));
  }
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(QueryServerTest, TcpListenerServes) {
  QueryServerOptions options = DefaultOptions();
  options.unix_socket_path.clear();
  options.tcp_port = 0;  // kernel-assigned
  const Table expected = Expected("SELECT COUNT(*) AS n FROM flights");
  QueryServer server(&ctx_, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.tcp_port(), 0);
  ServerClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.tcp_port()).ok());
  auto response = client.Query("SELECT COUNT(*) AS n FROM flights");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->kind, ServerResponseKind::kTable);
  ExpectTablesIdentical(expected, response->table, true);
}

TEST_F(QueryServerTest, PlanCacheHitsAcrossSessionsAndSpellings) {
  QueryServer server(&ctx_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  ServerClient first;
  ASSERT_TRUE(first.ConnectUnix(server.unix_socket_path()).ok());
  const std::string sql = "SELECT COUNT(*) AS n FROM patients WHERE age > 30";
  auto cold = first.Query(sql);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->kind, ServerResponseKind::kTable) << cold->message;
  EXPECT_FALSE(cold->plan_cache_hit);
  auto warm = first.Query(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
  // Normalization: whitespace, newlines, and comments hit the same entry —
  // and so does a different connection.
  ServerClient second;
  ASSERT_TRUE(second.ConnectUnix(server.unix_socket_path()).ok());
  auto respelled = second.Query(
      "SELECT   COUNT(*) AS n\n FROM patients -- comment\n WHERE age > 30");
  ASSERT_TRUE(respelled.ok());
  ASSERT_EQ(respelled->kind, ServerResponseKind::kTable)
      << respelled->message;
  EXPECT_TRUE(respelled->plan_cache_hit);
  ExpectTablesIdentical(cold->table, respelled->table, true);
  const PlanCacheStats stats = server.plan_cache().stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);
}

TEST_F(QueryServerTest, ConcurrentPlanningAcrossSessionDops) {
  // Four sessions at different dops plan distinct statements (every one a
  // plan-cache miss) at the same time while a fifth loops EXPLAIN: nothing
  // serializes planning, yet every result matches a single-threaded run,
  // EXPLAIN keeps costing at the server default dop, and the plan-cache
  // key keeps the dops apart.
  constexpr int kSessions = 4;
  constexpr int kStatements = 9;
  const std::int64_t dops[kSessions] = {1, 2, 4, 8};
  auto statement = [](int session, int i) {
    const int v = session * kStatements + i;
    switch (i % 3) {
      case 0:
        return "SELECT id, bp FROM patients WHERE bp > " +
               std::to_string(60 + v);
      case 1:
        return "SELECT gender, COUNT(*) AS n, MIN(age) AS a FROM patients "
               "WHERE age > " +
               std::to_string(18 + v) + " GROUP BY gender";
      default:
        return "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) "
               "WITH(p float) WHERE p > " +
               std::to_string(3.0 + v * 0.125);
    }
  };
  std::vector<std::vector<Table>> expected(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    for (int i = 0; i < kStatements; ++i) {
      expected[static_cast<std::size_t>(s)].push_back(
          Expected(statement(s, i)));
    }
  }
  const std::string shared_sql =
      "SELECT COUNT(*) AS n FROM patients WHERE age > 30";
  const Table shared_expected = Expected(shared_sql);
  ASSERT_FALSE(HasFailure());

  QueryServer server(&ctx_, DefaultOptions());  // default dop 4
  ASSERT_TRUE(server.Start().ok());
  std::atomic<int> planning{kSessions};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      ServerClient client;
      ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());
      auto set = client.Query("SET parallelism = " +
                              std::to_string(dops[s]));
      ASSERT_TRUE(set.ok() && set->kind == ServerResponseKind::kAck);
      for (int i = 0; i < kStatements; ++i) {
        SCOPED_TRACE(statement(s, i));
        auto response = client.Query(statement(s, i));
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        ASSERT_EQ(response->kind, ServerResponseKind::kTable)
            << response->message;
        EXPECT_FALSE(response->plan_cache_hit);
        ASSERT_NO_FATAL_FAILURE(ExpectTablesIdentical(
            expected[static_cast<std::size_t>(s)]
                    [static_cast<std::size_t>(i)],
            response->table, /*ordered=*/true));
      }
      // Same text at a different dop: a miss for this session's profile,
      // then a hit.
      for (bool hit : {false, true}) {
        auto shared = client.Query(shared_sql);
        ASSERT_TRUE(shared.ok()) << shared.status().ToString();
        ASSERT_EQ(shared->kind, ServerResponseKind::kTable);
        EXPECT_EQ(shared->plan_cache_hit, hit);
        ExpectTablesIdentical(shared_expected, shared->table, true);
      }
      planning.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    ServerClient client;
    ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());
    int explained = 0;
    while (planning.load() > 0 || explained < 3) {
      auto response = client.Query(
          "EXPLAIN SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) "
          "WITH(p float) WHERE p > 6");
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response->kind, ServerResponseKind::kAck);
      EXPECT_NE(response->message.find("parallel(dop=4)"), std::string::npos)
          << response->message;
      for (const char* other : {"dop=2)", "dop=8)"}) {
        EXPECT_EQ(response->message.find(other), std::string::npos)
            << response->message;
      }
      ++explained;
    }
  });
  for (auto& thread : threads) thread.join();
  const PlanCacheStats stats = server.plan_cache().stats();
  EXPECT_EQ(stats.misses, kSessions * kStatements + kSessions);
  EXPECT_EQ(stats.entries, kSessions * kStatements + kSessions);
  EXPECT_EQ(stats.hits, kSessions);
  server.Stop();
}

TEST_F(QueryServerTest, CatalogChangeInvalidatesCachedPlans) {
  QueryServer server(&ctx_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  ServerClient client;
  ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());
  const std::string sql = "SELECT COUNT(*) AS n FROM patients";
  ASSERT_TRUE(client.Query(sql).ok());
  auto warm = client.Query(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
  // Any catalog mutation (here: a transactional model update) must stop
  // the cached plan from being served.
  auto stored = ctx_.catalog().GetModel("los");
  ASSERT_TRUE(stored.ok());
  ASSERT_TRUE(ctx_.catalog()
                  .UpdateModel("los", stored->script, stored->pipeline_bytes)
                  .ok());
  auto replanned = client.Query(sql);
  ASSERT_TRUE(replanned.ok());
  ASSERT_EQ(replanned->kind, ServerResponseKind::kTable)
      << replanned->message;
  EXPECT_FALSE(replanned->plan_cache_hit);
  EXPECT_GE(server.plan_cache().stats().invalidations, 1);
}

TEST_F(QueryServerTest, PreparedStatementsBindAndMatchLiterals) {
  const Table expected5 = Expected(
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
      "WHERE p > 5 ORDER BY id");
  const Table expected75 = Expected(
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
      "WHERE p > 7.5 ORDER BY id");
  ASSERT_FALSE(HasFailure());
  QueryServer server(&ctx_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  ServerClient client;
  ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());

  auto prepared = client.Query(
      "PREPARE hot AS SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) "
      "WITH(p float) WHERE p > ? ORDER BY id");
  ASSERT_TRUE(prepared.ok());
  ASSERT_EQ(prepared->kind, ServerResponseKind::kAck) << prepared->message;

  // SQL-level EXECUTE and the binary fast path must agree with the
  // literal-substituted in-process query, for every binding.
  auto via_sql = client.Query("EXECUTE hot (5)");
  ASSERT_TRUE(via_sql.ok());
  ASSERT_EQ(via_sql->kind, ServerResponseKind::kTable) << via_sql->message;
  EXPECT_TRUE(via_sql->plan_cache_hit);  // parse+optimize skipped
  ExpectTablesIdentical(expected5, via_sql->table, true);

  auto via_binary = client.ExecutePrepared("hot", {7.5});
  ASSERT_TRUE(via_binary.ok());
  ASSERT_EQ(via_binary->kind, ServerResponseKind::kTable)
      << via_binary->message;
  ExpectTablesIdentical(expected75, via_binary->table, true);

  // Arity and name errors are diagnosable, and the connection survives.
  auto wrong_arity = client.ExecutePrepared("hot", {1.0, 2.0});
  ASSERT_TRUE(wrong_arity.ok());
  EXPECT_EQ(wrong_arity->kind, ServerResponseKind::kError);
  auto unknown = client.ExecutePrepared("nope", {});
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->kind, ServerResponseKind::kError);
  // A bare statement with placeholders is rejected with a pointer to
  // PREPARE.
  auto unbound = client.Query("SELECT id FROM patients WHERE age > ?");
  ASSERT_TRUE(unbound.ok());
  ASSERT_EQ(unbound->kind, ServerResponseKind::kError);
  EXPECT_NE(unbound->message.find("PREPARE"), std::string::npos);
  // A SET that changes the planning profile re-plans the template on the
  // next EXECUTE (same answers, fresh costing targets).
  ASSERT_EQ(client.Query("SET parallelism = 2")->kind,
            ServerResponseKind::kAck);
  auto after_set = client.ExecutePrepared("hot", {5.0});
  ASSERT_TRUE(after_set.ok());
  ASSERT_EQ(after_set->kind, ServerResponseKind::kTable)
      << after_set->message;
  ExpectTablesIdentical(expected5, after_set->table, true);
}

TEST_F(QueryServerTest, SessionKnobsApplyPerSession) {
  const Table expected = Expected(
      "SELECT gender, COUNT(*) AS n FROM patients GROUP BY gender");
  ASSERT_FALSE(HasFailure());
  QueryServer server(&ctx_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  ServerClient client;
  ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());
  for (const char* knob : {"SET parallelism = 8", "SET morsel_rows = 128"}) {
    auto set = client.Query(knob);
    ASSERT_TRUE(set.ok());
    ASSERT_EQ(set->kind, ServerResponseKind::kAck) << set->message;
  }
  auto response = client.Query(
      "SELECT gender, COUNT(*) AS n FROM patients GROUP BY gender");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->kind, ServerResponseKind::kTable) << response->message;
  ExpectTablesIdentical(expected, response->table, false);
  // Bad knobs and values error without dropping the session.
  auto bad_knob = client.Query("SET warp_drive = 9");
  ASSERT_TRUE(bad_knob.ok());
  EXPECT_EQ(bad_knob->kind, ServerResponseKind::kError);
  auto bad_value = client.Query("SET parallelism = purple");
  ASSERT_TRUE(bad_value.ok());
  EXPECT_EQ(bad_value->kind, ServerResponseKind::kError);
  // Disabling the wedged-worker guard remotely is not a session knob.
  auto no_guard =
      client.Query("SET distributed_frame_timeout_millis = -1");
  ASSERT_TRUE(no_guard.ok());
  EXPECT_EQ(no_guard->kind, ServerResponseKind::kError);
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(QueryServerTest, DistributedModeServesThroughWorkerPool) {
  const Table expected = Expected(
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
      "WHERE p > 6");
  ASSERT_FALSE(HasFailure());
  QueryServer server(&ctx_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  ServerClient client;
  ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());
  ASSERT_TRUE(client.Query("SET mode = distributed").ok());
  ASSERT_TRUE(client.Query("SET distributed_workers = 2").ok());
  auto response = client.Query(
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
      "WHERE p > 6");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->kind, ServerResponseKind::kTable) << response->message;
  ExpectTablesIdentical(expected, response->table, false);
  // The distributed run went through the real pool (or degraded cleanly
  // in-process if the worker binary were missing — in this build it isn't).
  EXPECT_NE(ctx_.executor().worker_pool(), nullptr);
}

TEST_F(QueryServerTest, TempViewsAreSessionScoped) {
  const Table expected = Expected(
      "SELECT COUNT(*) AS n FROM flights WHERE distance > 500");
  ASSERT_FALSE(HasFailure());
  QueryServer server(&ctx_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  ServerClient first;
  ASSERT_TRUE(first.ConnectUnix(server.unix_socket_path()).ok());
  auto created = first.Query(
      "CREATE VIEW long_haul AS SELECT * FROM flights WHERE distance > 500");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->kind, ServerResponseKind::kAck) << created->message;
  auto through_view = first.Query("SELECT COUNT(*) AS n FROM long_haul");
  ASSERT_TRUE(through_view.ok());
  ASSERT_EQ(through_view->kind, ServerResponseKind::kTable)
      << through_view->message;
  ExpectTablesIdentical(expected, through_view->table, true);

  // Views can stack on earlier views.
  ASSERT_EQ(first.Query("CREATE VIEW long_haul_am AS SELECT * FROM "
                        "long_haul WHERE dep_hour < 12")
                ->kind,
            ServerResponseKind::kAck);
  EXPECT_EQ(first.Query("SELECT COUNT(*) AS n FROM long_haul_am")->kind,
            ServerResponseKind::kTable);

  // Another session does not see them.
  ServerClient second;
  ASSERT_TRUE(second.ConnectUnix(server.unix_socket_path()).ok());
  auto other = second.Query("SELECT COUNT(*) AS n FROM long_haul");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->kind, ServerResponseKind::kError);

  // DROP removes it; a broken body never sticks.
  ASSERT_EQ(first.Query("DROP VIEW long_haul_am")->kind,
            ServerResponseKind::kAck);
  EXPECT_EQ(first.Query("SELECT COUNT(*) AS n FROM long_haul_am")->kind,
            ServerResponseKind::kError);
  EXPECT_EQ(first.Query("CREATE VIEW broken AS SELECT nope FROM nowhere")
                ->kind,
            ServerResponseKind::kError);
  EXPECT_EQ(first.Query("SELECT COUNT(*) AS n FROM broken")->kind,
            ServerResponseKind::kError);
  // Hostile names fail at CREATE (they would otherwise poison every later
  // statement once spliced in as a CTE).
  EXPECT_EQ(first.Query("CREATE VIEW 9bad AS SELECT id FROM flights")->kind,
            ServerResponseKind::kError);
  EXPECT_EQ(first.Query("CREATE VIEW select AS SELECT id FROM flights")
                ->kind,
            ServerResponseKind::kError);
  // ...and the session keeps working afterwards.
  EXPECT_EQ(first.Query("SELECT COUNT(*) AS n FROM flights")->kind,
            ServerResponseKind::kTable);
}

TEST_F(QueryServerTest, ShowStatsReportsServingCounters) {
  QueryServer server(&ctx_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  ServerClient client;
  ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());
  ASSERT_TRUE(client.Query("SELECT COUNT(*) AS n FROM patients").ok());
  ASSERT_TRUE(client.Query("SELECT COUNT(*) AS n FROM patients").ok());
  auto stats = client.Query("SHOW STATS");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->kind, ServerResponseKind::kStats);
  std::map<std::string, std::int64_t> by_key(stats->stats.begin(),
                                             stats->stats.end());
  EXPECT_EQ(by_key["queries_served"], 2);
  EXPECT_EQ(by_key["plan_cache_hits"], 1);
  EXPECT_EQ(by_key["plan_cache_misses"], 1);
  EXPECT_EQ(by_key["sessions_active"], 1);
  EXPECT_GE(by_key["catalog_version"], 1);
  EXPECT_EQ(by_key["queries_shed"], 0);
}

TEST_F(QueryServerTest, ResultRowCapSheddsOversizedResults) {
  QueryServerOptions options = DefaultOptions();
  options.admission.max_result_rows = 10;
  QueryServer server(&ctx_, options);
  ASSERT_TRUE(server.Start().ok());
  ServerClient client;
  ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());
  auto capped = client.Query("SELECT id FROM patients");
  ASSERT_TRUE(capped.ok());
  ASSERT_EQ(capped->kind, ServerResponseKind::kError);
  EXPECT_NE(capped->message.find("cap"), std::string::npos);
  auto under_cap = client.Query("SELECT id FROM patients LIMIT 5");
  ASSERT_TRUE(under_cap.ok());
  EXPECT_EQ(under_cap->kind, ServerResponseKind::kTable);
}

TEST_F(QueryServerTest, OversizedAndHostileStatementsRejected) {
  QueryServer server(&ctx_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  ServerClient client;
  ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());
  // Over the frontend's statement-length cap: clean parse error. The
  // padding is a comment (trailing whitespace would be trimmed away).
  std::string huge = "SELECT id FROM patients WHERE age > 1 --";
  huge.append(2u << 20, 'x');
  auto too_long = client.Query(huge);
  ASSERT_TRUE(too_long.ok());
  ASSERT_EQ(too_long->kind, ServerResponseKind::kError);
  EXPECT_EQ(too_long->code, StatusCode::kParseError);
  EXPECT_NE(too_long->message.find("limit"), std::string::npos);
  // Deep nesting: clean parse error, no stack blowout.
  std::string deep = "SELECT id FROM patients WHERE ";
  deep.append(5000, '(');
  deep += "age > 1";
  deep.append(5000, ')');
  auto too_deep = client.Query(deep);
  ASSERT_TRUE(too_deep.ok());
  ASSERT_EQ(too_deep->kind, ServerResponseKind::kError);
  EXPECT_EQ(too_deep->code, StatusCode::kParseError);
  EXPECT_NE(too_deep->message.find("nesting"), std::string::npos);
  // A garbage frame over a raw socket gets an error response — frames are
  // length-delimited, so the stream stays in sync and the connection
  // remains usable.
  const int raw = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, server.unix_socket_path().c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_TRUE(runtime::WriteFrame(raw, "\xffgarbage payload").ok());
  auto garbage_reply = runtime::ReadFrame(raw, 30000);
  ASSERT_TRUE(garbage_reply.ok()) << garbage_reply.status().ToString();
  auto decoded = DecodeServerResponse(garbage_reply.value());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, ServerResponseKind::kError);
  ClientRequest ping;
  ping.command = ClientCommand::kPing;
  ASSERT_TRUE(runtime::WriteFrame(raw, EncodeClientRequest(ping)).ok());
  auto ping_reply = runtime::ReadFrame(raw, 30000);
  ASSERT_TRUE(ping_reply.ok());
  auto pong = DecodeServerResponse(ping_reply.value());
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->kind, ServerResponseKind::kAck);
  ::close(raw);

  auto after = client.Query("SELECT COUNT(*) AS n FROM patients");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->kind, ServerResponseKind::kTable);
}

TEST_F(QueryServerTest, OversizedFrameHeaderRejectedBeforeAllocation) {
  QueryServer server(&ctx_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  const int raw = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, server.unix_socket_path().c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // Header claims half a GiB — over the server's request cap. The server
  // must refuse without allocating the claimed buffer, answer with an
  // error frame, and hang up (the unread payload desyncs the stream).
  const std::uint32_t huge = 512u << 20;
  char header[4];
  std::memcpy(header, &huge, 4);
  ASSERT_EQ(::write(raw, header, 4), 4);
  auto reply = runtime::ReadFrame(raw, 30000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto decoded = DecodeServerResponse(reply.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, ServerResponseKind::kError);
  EXPECT_NE(decoded->message.find("cap"), std::string::npos)
      << decoded->message;
  ::close(raw);
  // Other clients are unaffected.
  ServerClient survivor;
  ASSERT_TRUE(survivor.ConnectUnix(server.unix_socket_path()).ok());
  EXPECT_TRUE(survivor.Ping().ok());
}

TEST_F(QueryServerTest, IdleConnectionsAreDroppedAfterTimeout) {
  QueryServerOptions options = DefaultOptions();
  // Window sized with sanitizer headroom: pings spaced well inside it
  // must survive, silence well past it must not.
  options.idle_timeout_millis = 400;
  QueryServer server(&ctx_, options);
  ASSERT_TRUE(server.Start().ok());
  ServerClient idler;
  ASSERT_TRUE(idler.ConnectUnix(server.unix_socket_path()).ok());
  // Say nothing past the idle window: the server reclaims the slot, so a
  // later request fails at the transport (idle sockets cannot pin
  // max_connections slots forever).
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  auto late = idler.Ping();
  EXPECT_FALSE(late.ok());
  // An active client chatting within the window is unaffected.
  ServerClient chatty;
  ASSERT_TRUE(chatty.ConnectUnix(server.unix_socket_path()).ok());
  for (int i = 0; i < 5; ++i) {
    auto pong = chatty.Ping();
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong->kind, ServerResponseKind::kAck);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

TEST_F(QueryServerTest, ConnectionLimitTurnsExtrasAwayWithBusy) {
  QueryServerOptions options = DefaultOptions();
  options.max_connections = 2;
  QueryServer server(&ctx_, options);
  ASSERT_TRUE(server.Start().ok());
  ServerClient first;
  ServerClient second;
  ASSERT_TRUE(first.ConnectUnix(server.unix_socket_path()).ok());
  ASSERT_TRUE(second.ConnectUnix(server.unix_socket_path()).ok());
  ASSERT_TRUE(first.Ping().ok());
  ASSERT_TRUE(second.Ping().ok());
  // The third connection is greeted with a busy frame and closed.
  ServerClient extra;
  ASSERT_TRUE(extra.ConnectUnix(server.unix_socket_path()).ok());
  auto turned_away = extra.Ping();
  // Either our ping crossed the busy frame in flight (we read the busy
  // response) or the socket was already closed (transport error); both
  // are acceptable — what matters is that a slot frees up afterwards.
  if (turned_away.ok()) {
    EXPECT_EQ(turned_away->kind, ServerResponseKind::kBusy);
  }
  first.Close();
  // The freed slot admits a new connection (poll loop reaps within a tick).
  ServerClient replacement;
  bool admitted = false;
  for (int attempt = 0; attempt < 50 && !admitted; ++attempt) {
    replacement.Close();
    if (!replacement.ConnectUnix(server.unix_socket_path()).ok()) break;
    auto ping = replacement.Ping();
    admitted = ping.ok() && ping->kind == ServerResponseKind::kAck;
    if (!admitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(admitted);
}

TEST_F(QueryServerTest, DeterministicShedAndRecovery) {
  QueryServerOptions options = DefaultOptions();
  options.admission.max_concurrent = 1;
  options.admission.max_queue = 0;
  QueryServer server(&ctx_, options);
  ASSERT_TRUE(server.Start().ok());
  ServerClient client;
  ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());
  {
    // Occupy the only execution slot from inside the process: every client
    // query during this window must shed with kBusy — deterministically.
    auto slot = server.admission().Admit();
    ASSERT_TRUE(slot.ok());
    auto shed = client.Query("SELECT COUNT(*) AS n FROM patients");
    ASSERT_TRUE(shed.ok());
    ASSERT_EQ(shed->kind, ServerResponseKind::kBusy) << shed->message;
    EXPECT_EQ(ResponseStatus(shed.value()).code(), StatusCode::kServerBusy);
  }
  // Slot released: the same session recovers without reconnecting.
  auto recovered = client.Query("SELECT COUNT(*) AS n FROM patients");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->kind, ServerResponseKind::kTable)
      << recovered->message;
  EXPECT_GE(server.admission().stats().shed, 1);
}

TEST_F(QueryServerTest, DisconnectMidQueryLeavesServerHealthy) {
  QueryServer server(&ctx_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  for (int round = 0; round < 5; ++round) {
    ServerClient doomed;
    ASSERT_TRUE(doomed.ConnectUnix(server.unix_socket_path()).ok());
    ClientRequest request;
    request.command = ClientCommand::kQuery;
    request.sql =
        "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) "
        "WITH(p float) WHERE p > 2";
    ASSERT_TRUE(doomed.Send(request).ok());
    // Vanish without reading the response — sometimes before the server
    // even parses, sometimes mid-execution.
    if (round % 2 == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(round));
    }
    doomed.Abort();
  }
  ServerClient survivor;
  ASSERT_TRUE(survivor.ConnectUnix(server.unix_socket_path()).ok());
  auto response = survivor.Query("SELECT COUNT(*) AS n FROM patients");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->kind, ServerResponseKind::kTable);
  server.Stop();  // joins every connection thread without hanging
}

// ---------------------------------------------------------------------------
// Soak: the acceptance bar. 8 concurrent clients of mixed traffic, all
// results byte-identical to in-process execution, while client 9
// disconnects mid-query in a loop and the admission queue fills and sheds.
// Runs TSan-clean (ctest label `server` is part of the tsan CI leg).
// ---------------------------------------------------------------------------

TEST_F(QueryServerTest, SoakMixedTrafficEightClients) {
  struct SoakCase {
    std::string sql;
    bool ordered;
    Table expected;
  };
  // No SUM/AVG: their float partials merge in dop-dependent order, and the
  // bar here is bitwise identity. COUNT/MIN/MAX are exact at any dop.
  std::vector<SoakCase> cases = {
      {"SELECT id, age, bp FROM patients WHERE bp > 95 ORDER BY id LIMIT 50",
       true, Table()},
      {"SELECT gender, COUNT(*) AS n, MIN(age) AS youngest, MAX(bp) AS peak "
       "FROM patients GROUP BY gender",
       false, Table()},
      {"SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
       "WHERE p > 6",
       false, Table()},
      {"SELECT pi.id, bp FROM patient_info AS pi JOIN blood_tests AS bt ON "
       "pi.id = bt.id WHERE age > 40",
       false, Table()},
      {"SELECT airline, day_of_week, COUNT(*) AS n FROM flights WHERE "
       "distance > 300 GROUP BY airline, day_of_week HAVING COUNT(*) > 2",
       false, Table()},
      {"SELECT dest, MIN(distance) AS shortest FROM flights GROUP BY dest "
       "ORDER BY 2 DESC LIMIT 10",
       true, Table()},
  };
  for (auto& soak_case : cases) {
    soak_case.expected = Expected(soak_case.sql);
  }
  const std::string prepared_sql =
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
      "WHERE p > ? ORDER BY id";
  const std::vector<double> param_values = {5.0, 7.5};
  std::vector<Table> prepared_expected;
  prepared_expected.push_back(Expected(
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
      "WHERE p > 5 ORDER BY id"));
  prepared_expected.push_back(Expected(
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
      "WHERE p > 7.5 ORDER BY id"));
  ASSERT_FALSE(HasFailure());

  QueryServerOptions options = DefaultOptions();
  // Two slots against 8 clients keeps the queue busy; depth 6 holds all
  // waiting soak clients, so sheds come from the deliberate slot-pinning
  // window and the chaos client — pressure without starving the traffic.
  options.admission.max_concurrent = 2;
  options.admission.max_queue = 6;
  options.admission.queue_timeout_millis = 120000;
  // Cross-query micro-batching ON for the whole soak: the byte-identity
  // bar below also proves coalesced PREDICT rows scatter back exactly.
  options.default_execution.predict_batch_window_micros = 1000;
  options.default_execution.predict_max_batch_rows = 256;
  QueryServer server(&ctx_, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  constexpr int kIterations = 30;
  std::atomic<std::int64_t> comparisons{0};
  std::atomic<std::int64_t> busy{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int tid = 0; tid < kClients; ++tid) {
    clients.emplace_back([&, tid] {
      ServerClient client;
      Status connected = client.ConnectUnix(server.unix_socket_path());
      EXPECT_TRUE(connected.ok()) << connected.ToString();
      if (!connected.ok()) return;
      auto prep = client.Query("PREPARE soak AS " + prepared_sql);
      EXPECT_TRUE(prep.ok() && prep->kind == ServerResponseKind::kAck);
      const int shapes = static_cast<int>(cases.size()) +
                         static_cast<int>(param_values.size());
      for (int iter = 0; iter < kIterations; ++iter) {
        const int pick = (tid + iter) % shapes;
        const Table* expected = nullptr;
        bool ordered = false;
        bool compared = false;
        // A real client backs off and retries on kBusy; shed responses are
        // still counted, but sustained pressure (sanitizer slowdowns, the
        // 150 ms pinned-slot window) must not starve the soak of
        // comparisons — so the retry budget is wall time, not attempts.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (std::chrono::steady_clock::now() < deadline) {
          Result<ServerResponse> response = Status::Internal("unset");
          if (pick < static_cast<int>(cases.size())) {
            response =
                client.Query(cases[static_cast<std::size_t>(pick)].sql);
            expected = &cases[static_cast<std::size_t>(pick)].expected;
            ordered = cases[static_cast<std::size_t>(pick)].ordered;
          } else {
            const std::size_t p =
                static_cast<std::size_t>(pick) - cases.size();
            response = client.ExecutePrepared("soak", {param_values[p]});
            expected = &prepared_expected[p];
            ordered = true;
          }
          ASSERT_TRUE(response.ok()) << response.status().ToString();
          if (response->kind == ServerResponseKind::kBusy) {
            busy.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            continue;
          }
          ASSERT_EQ(response->kind, ServerResponseKind::kTable)
              << response->message;
          ASSERT_NO_FATAL_FAILURE(
              ExpectTablesIdentical(*expected, response->table, ordered));
          comparisons.fetch_add(1);
          compared = true;
          break;
        }
        ASSERT_TRUE(compared) << "kBusy sheds for 30 s straight";
      }
    });
  }

  // Client 9: connects, fires a PREDICT, and vanishes mid-flight — over
  // and over. The server must stay healthy throughout.
  std::thread chaos([&server] {
    for (int round = 0; round < 10; ++round) {
      ServerClient doomed;
      if (!doomed.ConnectUnix(server.unix_socket_path()).ok()) continue;
      ClientRequest request;
      request.command = ClientCommand::kQuery;
      request.sql =
          "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) "
          "WITH(p float) WHERE p > 1";
      (void)doomed.Send(request);
      std::this_thread::sleep_for(std::chrono::milliseconds(round % 4));
      doomed.Abort();
    }
  });

  // Pin the execution slots for a moment mid-soak so arrivals must queue —
  // and, with the queue this small, shed. This exercises the queue-full
  // path deterministically rather than hoping for the right interleaving.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    auto slot_a = server.admission().Admit();
    auto slot_b = server.admission().Admit();
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  }

  for (auto& client : clients) client.join();
  chaos.join();

  // The soak only proves something if real traffic flowed and compared:
  // with retry-on-busy, every iteration must eventually land.
  EXPECT_EQ(comparisons.load(), kClients * kIterations);
  const AdmissionController::Stats admission = server.admission().stats();
  EXPECT_GT(admission.ever_queued + admission.shed, 0)
      << "admission never saw pressure — the soak was vacuous";
  EXPECT_EQ(admission.active, 0);
  EXPECT_EQ(admission.queued, 0);
  // The chaos client's shed responses never reach it, so the soak clients
  // can only have observed a subset of the sheds admission counted.
  EXPECT_LE(busy.load(), admission.shed);

  // And the server is still fully functional.
  ServerClient survivor;
  ASSERT_TRUE(survivor.ConnectUnix(server.unix_socket_path()).ok());
  auto stats = survivor.Query("SHOW STATS");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->kind, ServerResponseKind::kStats);
  std::map<std::string, std::int64_t> by_key(stats->stats.begin(),
                                             stats->stats.end());
  EXPECT_GT(by_key["queries_served"], 0);
  EXPECT_GT(by_key["plan_cache_hits"], 0);
  EXPECT_GT(by_key["prepared_executions"], 0);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Cross-query inference micro-batching
// ---------------------------------------------------------------------------

TEST_F(QueryServerTest, BatchedPredictsCoalesceAcrossQueriesByteIdentically) {
  // 'delay' is the NNRT-lowered model ('los' is a small tree the optimizer
  // inlines into a CASE projection — nothing to batch there).
  const std::string sql =
      "SELECT id, p FROM PREDICT(MODEL='delay', DATA=flights) WITH(p float) "
      "WHERE p > 0.5";
  const Table expected = Expected(sql);
  ASSERT_FALSE(HasFailure());

  QueryServerOptions options = DefaultOptions();
  options.default_execution.predict_batch_window_micros = 3000;
  options.default_execution.predict_max_batch_rows = 512;
  // Small morsels: each scorer submission stays under max_batch_rows, so
  // concurrent queries' morsels are eligible to share NNRT calls.
  options.default_execution.morsel_rows = 64;
  QueryServer server(&ctx_, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 6;
  constexpr int kIterations = 5;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int tid = 0; tid < kClients; ++tid) {
    clients.emplace_back([&] {
      ServerClient client;
      Status connected = client.ConnectUnix(server.unix_socket_path());
      ASSERT_TRUE(connected.ok()) << connected.ToString();
      for (int i = 0; i < kIterations; ++i) {
        auto response = client.Query(sql);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        ASSERT_EQ(response->kind, ServerResponseKind::kTable)
            << response->message;
        ASSERT_NO_FATAL_FAILURE(
            ExpectTablesIdentical(expected, response->table, false));
      }
    });
  }
  for (auto& client : clients) client.join();

  // Identity held above; now prove the sharing actually happened (6
  // clients x dop-4 morsel pipelines against one model cannot all have
  // flown solo).
  const ServerStats stats = server.Snapshot();
  EXPECT_GT(stats.batches_flushed, 0);
  EXPECT_GT(stats.rows_coalesced, 0)
      << "no cross-query coalescing happened — concurrent PREDICT morsels "
         "never shared an NNRT call";
  EXPECT_GT(stats.batch_occupancy, 100);  // > 1 row per physical call, x100
  EXPECT_GT(stats.epoll_wakeups, 0);
  server.Stop();
}

TEST_F(QueryServerTest, ExplainReportsBatchEligiblePredicts) {
  QueryServerOptions options = DefaultOptions();
  QueryServer server(&ctx_, options);
  ASSERT_TRUE(server.Start().ok());
  ServerClient client;
  ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());
  auto plain = client.Query(
      "EXPLAIN SELECT id, p FROM PREDICT(MODEL='delay', DATA=flights) "
      "WITH(p float) WHERE p > 0.5");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_EQ(plain->kind, ServerResponseKind::kAck) << plain->message;
  EXPECT_NE(plain->message.find("batch-eligible: Predict(delay)"),
            std::string::npos)
      << plain->message;
  EXPECT_NE(plain->message.find("batch_window_micros = 0"),
            std::string::npos)
      << plain->message;
  // The knob report tracks the session's SET state.
  auto set = client.Query("SET batch_window_micros = 500");
  ASSERT_TRUE(set.ok() && set->kind == ServerResponseKind::kAck)
      << set->message;
  auto tuned = client.Query(
      "EXPLAIN SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) "
      "WITH(p float) WHERE p > 6");
  ASSERT_TRUE(tuned.ok());
  ASSERT_EQ(tuned->kind, ServerResponseKind::kAck);
  EXPECT_NE(tuned->message.find("batch_window_micros = 500"),
            std::string::npos)
      << tuned->message;
  // A model-free statement has nothing to batch — and says nothing.
  auto scan = client.Query("EXPLAIN SELECT id FROM patients WHERE age > 40");
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->kind, ServerResponseKind::kAck);
  EXPECT_EQ(scan->message.find("batch-eligible"), std::string::npos);
}

TEST_F(QueryServerTest, StopUnderBatchedLoadDrainsPendingPredicts) {
  QueryServerOptions options = DefaultOptions();
  // Long windows and a cap groups never reach: without the Stop-path
  // batcher drain, in-flight PREDICT morsels would each sit out their full
  // window during shutdown.
  options.default_execution.predict_batch_window_micros = 500000;
  options.default_execution.predict_max_batch_rows = 65536;
  options.default_execution.morsel_rows = 64;
  QueryServer server(&ctx_, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 6;
  std::atomic<std::int64_t> completed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int tid = 0; tid < kClients; ++tid) {
    clients.emplace_back([&] {
      ServerClient client;
      if (!client.ConnectUnix(server.unix_socket_path()).ok()) return;
      for (int i = 0; i < 50; ++i) {
        auto response = client.Query(
            "SELECT id, p FROM PREDICT(MODEL='delay', DATA=flights) "
            "WITH(p float) WHERE p > 0.5");
        // Stop() severs connections; transport errors are the expected
        // way out. Any response that does arrive must be well-formed.
        if (!response.ok()) return;
        if (response->kind != ServerResponseKind::kTable) return;
        completed.fetch_add(1);
      }
    });
  }
  // Let real batched load build up, then stop under it.
  while (completed.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto stop_start = std::chrono::steady_clock::now();
  server.Stop();
  const auto stop_elapsed = std::chrono::steady_clock::now() - stop_start;
  for (auto& client : clients) client.join();

  // Stop waited only for in-flight statements (which drain their batch
  // groups immediately), never a full 500 ms window per pending morsel —
  // and no PREDICT waiter was left blocked, or the joins above would hang.
  EXPECT_LT(stop_elapsed, std::chrono::seconds(30));
  EXPECT_GT(completed.load(), 0);
  EXPECT_FALSE(server.running());
}

// ---------------------------------------------------------------------------
// Batch-occupancy rounding, NNRT knobs/stats, and the artifact cold start
// ---------------------------------------------------------------------------

TEST(ServerStatsTest, BatchOccupancyRoundsHalfUpAndZeroIsExplicit) {
  // Zero batches is explicitly 0 — not a division fault, not stale data.
  EXPECT_EQ(ServerStats::BatchOccupancyX100(0, 0), 0);
  EXPECT_EQ(ServerStats::BatchOccupancyX100(5, 0), 0);
  EXPECT_EQ(ServerStats::BatchOccupancyX100(0, 5), 0);
  // Round half-up, not truncate: 1/3 rows per batch is 33.33 -> 33,
  // 2/3 is 66.67 -> 67 (truncation used to report 66).
  EXPECT_EQ(ServerStats::BatchOccupancyX100(1, 3), 33);
  EXPECT_EQ(ServerStats::BatchOccupancyX100(2, 3), 67);
  // Exactly .5 rounds up: 1/8 rows per batch = 12.5 -> 13.
  EXPECT_EQ(ServerStats::BatchOccupancyX100(1, 8), 13);
  // Whole ratios stay exact.
  EXPECT_EQ(ServerStats::BatchOccupancyX100(5, 2), 250);
  EXPECT_EQ(ServerStats::BatchOccupancyX100(64, 1), 6400);
}

TEST_F(QueryServerTest, NnBackendAndSessionCacheKnobs) {
  const std::string sql =
      "SELECT id, p FROM PREDICT(MODEL='delay', DATA=flights) WITH(p float) "
      "WHERE p > 0.5";
  const Table expected = Expected(sql);
  ASSERT_FALSE(HasFailure());
  QueryServer server(&ctx_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  ServerClient client;
  ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());

  // The SIMD backend is bit-identical to reference, so the result must be
  // byte-identical to in-process execution.
  auto set_simd = client.Query("SET nn_backend = simd");
  ASSERT_TRUE(set_simd.ok());
  ASSERT_EQ(set_simd->kind, ServerResponseKind::kAck) << set_simd->message;
  auto simd_result = client.Query(sql);
  ASSERT_TRUE(simd_result.ok());
  ASSERT_EQ(simd_result->kind, ServerResponseKind::kTable)
      << simd_result->message;
  ExpectTablesIdentical(expected, simd_result->table, false);

  // EXPLAIN reports the session's backend, and fp16 carries its accuracy
  // caveat.
  auto set_fp16 = client.Query("SET nn_backend = fp16");
  ASSERT_TRUE(set_fp16.ok());
  ASSERT_EQ(set_fp16->kind, ServerResponseKind::kAck) << set_fp16->message;
  auto explained = client.Query("EXPLAIN " + sql);
  ASSERT_TRUE(explained.ok());
  ASSERT_EQ(explained->kind, ServerResponseKind::kAck);
  EXPECT_NE(explained->message.find("nn_backend = fp16"), std::string::npos)
      << explained->message;
  EXPECT_NE(explained->message.find("rounded to fp16"), std::string::npos)
      << explained->message;

  // Bad values error without dropping the session.
  auto bad_backend = client.Query("SET nn_backend = avx512");
  ASSERT_TRUE(bad_backend.ok());
  EXPECT_EQ(bad_backend->kind, ServerResponseKind::kError);

  // The session-cache capacity knob is server-wide and bounded.
  auto set_cap = client.Query("SET nn_session_cache_capacity = 16");
  ASSERT_TRUE(set_cap.ok());
  EXPECT_EQ(set_cap->kind, ServerResponseKind::kAck) << set_cap->message;
  EXPECT_EQ(ctx_.session_cache().capacity(), 16u);
  auto cap_negative = client.Query("SET nn_session_cache_capacity = -1");
  ASSERT_TRUE(cap_negative.ok());
  EXPECT_EQ(cap_negative->kind, ServerResponseKind::kError);
  auto cap_huge = client.Query("SET nn_session_cache_capacity = 100000");
  ASSERT_TRUE(cap_huge.ok());
  EXPECT_EQ(cap_huge->kind, ServerResponseKind::kError);
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(QueryServerTest, ShowStatsReportsNnCounters) {
  QueryServer server(&ctx_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  ServerClient client;
  ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());
  const std::string sql =
      "SELECT id, p FROM PREDICT(MODEL='delay', DATA=flights) WITH(p float) "
      "WHERE p > 0.5";
  ASSERT_TRUE(client.Query(sql).ok());
  ASSERT_TRUE(client.Query(sql).ok());
  auto stats = client.Query("SHOW STATS");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->kind, ServerResponseKind::kStats);
  std::map<std::string, std::int64_t> by_key(stats->stats.begin(),
                                             stats->stats.end());
  ASSERT_TRUE(by_key.count("nn_session_hits"));
  ASSERT_TRUE(by_key.count("nn_artifact_rejects"));
  EXPECT_GE(by_key["nn_session_misses"], 1);
  EXPECT_GE(by_key["nn_session_hits"], 1);
  EXPECT_GE(by_key["nn_session_entries"], 1);
  EXPECT_GE(by_key["nn_graph_optimizations"], 1);
  // Per-op profiling feeds SHOW STATS through the shared profiler.
  EXPECT_GT(by_key["nn_ops_profiled"], 0);
  // No artifact dir attached here.
  EXPECT_EQ(by_key["nn_artifact_hits"], 0);
  EXPECT_EQ(by_key["nn_artifact_writes"], 0);
}

// ---------------------------------------------------------------------------
// Observability: tracing, the slow-query log, metrics, EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

/// Minimal HTTP/1.0 GET against the loopback metrics listener; returns the
/// raw response (status line, headers, body).
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::write(fd, request.data(), request.size());
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(QueryServerTest, TraceKnobAndVerbRecordSessionScopedSpanTrees) {
  QueryServer server(&ctx_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  ServerClient client;
  ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());

  auto before = client.Query("SHOW TRACE");
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->kind, ServerResponseKind::kAck);
  EXPECT_NE(before->message.find("(no trace recorded"), std::string::npos)
      << before->message;

  ASSERT_EQ(client.Query("SET trace = on")->kind, ServerResponseKind::kAck);
  auto traced = client.Query("SELECT COUNT(*) AS n FROM flights");
  ASSERT_TRUE(traced.ok());
  ASSERT_EQ(traced->kind, ServerResponseKind::kTable) << traced->message;
  auto tree = client.Query("SHOW TRACE");
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->kind, ServerResponseKind::kAck);
  for (const char* span : {"plan_cache.lookup", "parse", "optimize",
                           "admission.wait", "execute", "op:"}) {
    EXPECT_NE(tree->message.find(span), std::string::npos)
        << "missing span '" << span << "' in:\n"
        << tree->message;
  }

  // TRACE <statement> really executes the statement and answers with the
  // tree instead of the rows; its plan probe shows up as a cache hit.
  auto verb = client.Query("TRACE SELECT COUNT(*) AS n FROM flights");
  ASSERT_TRUE(verb.ok());
  ASSERT_EQ(verb->kind, ServerResponseKind::kAck) << verb->message;
  EXPECT_NE(verb->message.find("execute"), std::string::npos)
      << verb->message;
  EXPECT_NE(verb->message.find("hit"), std::string::npos) << verb->message;

  // Errors pass through; a bare TRACE is rejected.
  EXPECT_EQ(client.Query("TRACE")->kind, ServerResponseKind::kError);
  EXPECT_EQ(client.Query("TRACE SELECT nope FROM missing")->kind,
            ServerResponseKind::kError);

  // The recorded tree is session state, not server state.
  ServerClient other;
  ASSERT_TRUE(other.ConnectUnix(server.unix_socket_path()).ok());
  auto fresh = other.Query("SHOW TRACE");
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh->message.find("(no trace recorded"), std::string::npos);
}

TEST_F(QueryServerTest, SlowQueryLogAppendsJsonSpanTreesOverThreshold) {
  const std::string log_path = "/tmp/raven_server_test_slow_" +
                               std::to_string(::getpid()) + ".jsonl";
  std::remove(log_path.c_str());
  QueryServerOptions options = DefaultOptions();
  options.slow_query_log_path = log_path;
  QueryServer server(&ctx_, options);
  ASSERT_TRUE(server.Start().ok());
  ServerClient client;
  ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());

  // No threshold set: nothing logs, however slow the statement.
  ASSERT_EQ(client.Query("SELECT COUNT(*) AS n FROM flights")->kind,
            ServerResponseKind::kTable);
  {
    std::FILE* f = std::fopen(log_path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << "log not opened at Start";
    std::fseek(f, 0, SEEK_END);
    EXPECT_EQ(std::ftell(f), 0) << "logged without a threshold";
    std::fclose(f);
  }

  // Threshold 1 ms; a many-to-many self join is reliably over it.
  ASSERT_EQ(client.Query("SET slow_query_millis = 1")->kind,
            ServerResponseKind::kAck);
  const std::string heavy =
      "SELECT COUNT(*) AS n FROM flights AS f "
      "JOIN flights AS g ON f.airline = g.airline";
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(client.Query(heavy)->kind, ServerResponseKind::kTable);
  }

  auto stats = client.Query("SHOW STATS");
  ASSERT_TRUE(stats.ok());
  std::map<std::string, std::int64_t> by_key(stats->stats.begin(),
                                             stats->stats.end());
  ASSERT_TRUE(by_key.count("slow_queries"));
  EXPECT_GE(by_key["slow_queries"], 1);

  server.Stop();  // flushes and closes the log
  std::ifstream log(log_path);
  ASSERT_TRUE(log.good());
  std::string line;
  int json_lines = 0;
  while (std::getline(log, line)) {
    EXPECT_NE(line.find("\"query\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"total_micros\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"spans\":["), std::string::npos) << line;
    EXPECT_NE(line.find("\"name\":\"execute\""), std::string::npos) << line;
    ++json_lines;
  }
  EXPECT_GE(json_lines, 1);
  EXPECT_EQ(json_lines, by_key["slow_queries"]);
  std::remove(log_path.c_str());
}

TEST_F(QueryServerTest, ShowMetricsAndHttpScrapeExportTheSameRegistry) {
  QueryServerOptions options = DefaultOptions();
  options.metrics_port = 0;  // kernel-assigned
  QueryServer server(&ctx_, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.metrics_tcp_port(), 0);
  ServerClient client;
  ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());

  const std::string sql = "SELECT COUNT(*) AS n FROM flights";
  ASSERT_EQ(client.Query(sql)->kind, ServerResponseKind::kTable);
  ASSERT_EQ(client.Query(sql)->kind, ServerResponseKind::kTable);
  EXPECT_EQ(server.query_latency_histogram().Count(), 2);

  auto shown = client.Query("SHOW METRICS");
  ASSERT_TRUE(shown.ok());
  ASSERT_EQ(shown->kind, ServerResponseKind::kAck);
  const std::string& text = shown->message;
  EXPECT_NE(text.find("# TYPE raven_queries_served_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("raven_queries_served_total 2\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("raven_plan_cache_hits_total 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("raven_sessions_active 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE raven_query_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("raven_query_latency_seconds_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(text.find("raven_query_latency_seconds_count 2\n"),
            std::string::npos)
      << text;

  // The HTTP endpoint serves the same registry in the same format.
  const std::string scraped = HttpGet(server.metrics_tcp_port(), "/metrics");
  EXPECT_EQ(scraped.rfind("HTTP/1.0 200 OK", 0), 0u) << scraped;
  EXPECT_NE(scraped.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos)
      << scraped;
  EXPECT_NE(scraped.find("raven_queries_served_total 2\n"),
            std::string::npos)
      << scraped;
  EXPECT_NE(scraped.find("raven_query_latency_seconds_count 2\n"),
            std::string::npos);

  // Anything but /metrics is a 404, and scrapes never count as queries.
  const std::string missing = HttpGet(server.metrics_tcp_port(), "/bogus");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;
  EXPECT_EQ(server.Snapshot().queries_served, 2);
}

TEST_F(QueryServerTest, ExplainAnalyzeExecutesUnderTheSessionPlanCache) {
  QueryServer server(&ctx_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  ServerClient client;
  ASSERT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());

  const std::string sql =
      "SELECT airline, COUNT(*) AS n FROM flights GROUP BY airline";
  auto cold = client.Query("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->kind, ServerResponseKind::kAck) << cold->message;
  EXPECT_FALSE(cold->plan_cache_hit);
  EXPECT_NE(cold->message.find("=== EXPLAIN ANALYZE ==="), std::string::npos)
      << cold->message;
  EXPECT_NE(cold->message.find("result_rows="), std::string::npos);
  EXPECT_NE(cold->message.find("[Scan(flights):"), std::string::npos)
      << cold->message;

  // The statement body shares the cache with its plain spelling.
  ASSERT_EQ(client.Query(sql)->kind, ServerResponseKind::kTable);
  auto warm = client.Query("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->kind, ServerResponseKind::kAck);
  EXPECT_TRUE(warm->plan_cache_hit);

  // It executes for real: three of the served statements were ours.
  EXPECT_EQ(server.Snapshot().queries_served, 3);

  EXPECT_EQ(client.Query("EXPLAIN ANALYZE")->kind,
            ServerResponseKind::kError);
  auto params = client.Query(
      "EXPLAIN ANALYZE SELECT id FROM flights WHERE distance > ?");
  ASSERT_TRUE(params.ok());
  ASSERT_EQ(params->kind, ServerResponseKind::kError);
  EXPECT_NE(params->message.find("cannot bind"), std::string::npos)
      << params->message;
}

/// Boots a server over a fresh RavenContext pointed at `artifact_dir`,
/// serves `sql` once, and returns (SHOW STATS map, result table).
std::pair<std::map<std::string, std::int64_t>, Table> ServeOnceWithArtifacts(
    const std::string& artifact_dir, const data::FlightDataset& flight,
    const std::string& sql) {
  RavenOptions raven_options;
  raven_options.artifact_dir = artifact_dir;
  RavenContext ctx(raven_options);
  test_util::RegisterFlightTable(&ctx.catalog(), flight);
  auto logreg = data::TrainFlightLogreg(flight, 0.01);
  EXPECT_TRUE(logreg.ok());
  EXPECT_TRUE(ctx.catalog()
                  .InsertModel("delay", data::FlightLogregScript(),
                               logreg->ToBytes())
                  .ok());
  QueryServerOptions options;
  options.unix_socket_path = UniqueSocketPath();
  QueryServer server(&ctx, options);
  EXPECT_TRUE(server.Start().ok());
  ServerClient client;
  EXPECT_TRUE(client.ConnectUnix(server.unix_socket_path()).ok());
  auto response = client.Query(sql);
  EXPECT_TRUE(response.ok());
  Table table;
  if (response.ok()) {
    EXPECT_EQ(response->kind, ServerResponseKind::kTable)
        << response->message;
    table = response->table;
  }
  auto stats = client.Query("SHOW STATS");
  EXPECT_TRUE(stats.ok());
  std::map<std::string, std::int64_t> by_key;
  if (stats.ok()) {
    by_key.insert(stats->stats.begin(), stats->stats.end());
  }
  server.Stop();
  return {std::move(by_key), std::move(table)};
}

TEST(ServerArtifactTest, WarmColdStartSkipsOptimizerAndSurvivesCorruption) {
  char tmpl[] = "/tmp/raven_server_artifact_XXXXXX";
  const char* made = ::mkdtemp(tmpl);
  ASSERT_NE(made, nullptr);
  const std::string dir = made;
  const data::FlightDataset flight = data::MakeFlightDataset(500, 7);
  const std::string sql =
      "SELECT id, p FROM PREDICT(MODEL='delay', DATA=flights) WITH(p float) "
      "WHERE p > 0.5";

  // Server #1: cold compile, artifacts written.
  auto [cold, cold_table] = ServeOnceWithArtifacts(dir, flight, sql);
  ASSERT_FALSE(::testing::Test::HasFailure());
  EXPECT_GE(cold["nn_graph_optimizations"], 1);
  EXPECT_GE(cold["nn_artifact_writes"], 1);
  EXPECT_EQ(cold["nn_artifact_hits"], 0);

  // Server #2 (a process restart, modeled as a fresh context): the whole
  // point of the artifact cache — zero graph optimizations on cold start.
  auto [warm, warm_table] = ServeOnceWithArtifacts(dir, flight, sql);
  ASSERT_FALSE(::testing::Test::HasFailure());
  EXPECT_EQ(warm["nn_graph_optimizations"], 0)
      << "warm-artifact cold start re-ran the graph optimizer";
  EXPECT_GE(warm["nn_artifact_hits"], 1);
  ExpectTablesIdentical(cold_table, warm_table, false);

  // Corrupt every artifact on disk; serving must fall back to a fresh
  // compile (no query error) and rewrite the artifacts.
  int corrupted = 0;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      std::FILE* f = std::fopen((dir + "/" + name).c_str(), "wb");
      ASSERT_NE(f, nullptr);
      std::fputs("garbage", f);
      std::fclose(f);
      ++corrupted;
    }
    ::closedir(d);
  }
  ASSERT_GT(corrupted, 0);
  auto [rescued, rescued_table] = ServeOnceWithArtifacts(dir, flight, sql);
  ASSERT_FALSE(::testing::Test::HasFailure());
  EXPECT_GE(rescued["nn_artifact_rejects"], 1);
  EXPECT_GE(rescued["nn_graph_optimizations"], 1);
  ExpectTablesIdentical(cold_table, rescued_table, false);

  // And the rewrite healed the cache: one more restart warm-starts again.
  auto [healed, healed_table] = ServeOnceWithArtifacts(dir, flight, sql);
  ASSERT_FALSE(::testing::Test::HasFailure());
  EXPECT_EQ(healed["nn_graph_optimizations"], 0);
  EXPECT_GE(healed["nn_artifact_hits"], 1);
  ExpectTablesIdentical(cold_table, healed_table, false);

  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") {
        ::unlink((dir + "/" + name).c_str());
      }
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace raven::server
