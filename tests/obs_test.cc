// Observability-layer tests: the obs::Trace span arena (nesting, worker
// splicing, the wire round trip, the 4096-span cap), the obs metrics
// primitives (counters, gauges, log-bucket histograms, quantile
// interpolation, Prometheus text rendering), and the EXPLAIN ANALYZE /
// StatsCollector accounting contract — fused chains own exactly one slot
// on the chain head, aggregates surface sink + rescan as separate slots,
// and instrumented execution returns byte-identical results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/hospital.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "raven/raven.h"
#include "test_util.h"

namespace raven::obs {
namespace {

const TraceSpan* FindSpan(const std::vector<TraceSpan>& spans,
                          const std::string& name) {
  for (const TraceSpan& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST(TraceTest, StartEndSpanRecordsNestingAndDetail) {
  Trace trace;
  EXPECT_TRUE(trace.empty());
  const std::int64_t outer = trace.StartSpan("parse");
  const std::int64_t inner = trace.StartSpan("lex", outer);
  EXPECT_EQ(outer, 1);
  EXPECT_EQ(inner, 2);
  trace.EndSpan(inner, "tokens=7");
  trace.EndSpan(outer);

  const std::vector<TraceSpan> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_FALSE(trace.empty());
  EXPECT_EQ(spans[0].name, "parse");
  EXPECT_EQ(spans[0].parent, 0);
  EXPECT_GE(spans[0].duration_micros, 0);
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[1].detail, "tokens=7");
  // The child closed before the parent, so it cannot outlast it.
  EXPECT_LE(spans[1].start_micros + spans[1].duration_micros,
            spans[0].start_micros + spans[0].duration_micros);
}

TEST(TraceTest, UnclosedSpanStaysOpenAndUnknownEndIsIgnored) {
  Trace trace;
  const std::int64_t id = trace.StartSpan("execute");
  trace.EndSpan(0);    // "no span" handle from a capped arena
  trace.EndSpan(999);  // never handed out
  const std::vector<TraceSpan> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].id, id);
  EXPECT_EQ(spans[0].duration_micros, -1) << "open spans carry -1";
}

TEST(TraceTest, AddSpanStoresExplicitTiming) {
  Trace trace;
  const std::int64_t id =
      trace.AddSpan("op:Scan(patients)", 0, 120, 340, "rows=600");
  const std::vector<TraceSpan> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].id, id);
  EXPECT_EQ(spans[0].start_micros, 120);
  EXPECT_EQ(spans[0].duration_micros, 340);
  EXPECT_EQ(spans[0].detail, "rows=600");
}

TEST(TraceTest, SpliceOffsetsIdsAndRebasesWorkerTimes) {
  Trace trace;
  const std::int64_t exchange = trace.StartSpan("exchange");

  // A worker-local tree: ids 1..2, times relative to the worker's start.
  std::vector<TraceSpan> worker(2);
  worker[0] = TraceSpan{1, 0, "execute", 5, 100, "mode=sequential"};
  worker[1] = TraceSpan{2, 1, "fragment.decode", 6, 10, ""};
  trace.Splice(exchange, 1000, worker);
  trace.EndSpan(exchange);

  const std::vector<TraceSpan> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  const TraceSpan* grafted = FindSpan(spans, "execute");
  const TraceSpan* decode = FindSpan(spans, "fragment.decode");
  ASSERT_NE(grafted, nullptr);
  ASSERT_NE(decode, nullptr);
  // Worker-local roots hang off the exchange; internal links are
  // preserved through the id offset; times re-base onto coordinator time.
  EXPECT_EQ(grafted->parent, exchange);
  EXPECT_EQ(decode->parent, grafted->id);
  EXPECT_EQ(grafted->start_micros, 1005);
  EXPECT_EQ(decode->start_micros, 1006);
  EXPECT_EQ(grafted->duration_micros, 100);
  // Ids handed out after the splice do not collide with grafted ones.
  const std::int64_t next = trace.StartSpan("after");
  EXPECT_GT(next, decode->id);
}

TEST(TraceTest, ArenaCapsAtMaxSpansAndReportsDrops) {
  Trace trace;
  for (std::size_t i = 0; i < Trace::kMaxSpans; ++i) {
    ASSERT_GT(trace.AddSpan("s", 0, 0, 1), 0);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(trace.AddSpan("overflow", 0, 0, 1), 0);
    EXPECT_EQ(trace.StartSpan("overflow"), 0);
  }
  EXPECT_EQ(trace.Snapshot().size(), Trace::kMaxSpans);
  const std::string json = trace.RenderJsonLine("q", 1);
  EXPECT_NE(json.find("\"dropped_spans\":20"), std::string::npos) << json;
}

TEST(TraceTest, SerializeDeserializeRoundTrip) {
  std::vector<TraceSpan> spans(3);
  spans[0] = TraceSpan{1, 0, "execute", 0, 500, "mode=parallel dop=4"};
  spans[1] = TraceSpan{2, 1, "op:Fused[Filter+Project]", 3, 90, "rows=12"};
  spans[2] =
      TraceSpan{3, 1, std::string("odd\0name", 8), -7, 0, "detail \"q\""};
  const std::string bytes = Trace::SerializeSpans(spans);

  auto decoded = Trace::DeserializeSpans(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ((*decoded)[i].id, spans[i].id);
    EXPECT_EQ((*decoded)[i].parent, spans[i].parent);
    EXPECT_EQ((*decoded)[i].name, spans[i].name);
    EXPECT_EQ((*decoded)[i].start_micros, spans[i].start_micros);
    EXPECT_EQ((*decoded)[i].duration_micros, spans[i].duration_micros);
    EXPECT_EQ((*decoded)[i].detail, spans[i].detail);
  }
  // Truncation anywhere is a clean error, never a partial parse.
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{1}}) {
    EXPECT_FALSE(Trace::DeserializeSpans(bytes.substr(0, cut)).ok())
        << "cut=" << cut;
  }
}

TEST(TraceTest, JsonEscapeCoversQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(TraceTest, RenderJsonLineEmitsEscapedSpans) {
  Trace trace;
  trace.AddSpan("exec\"ute", 0, 3, 40, "k=\"v\"");
  const std::string json =
      trace.RenderJsonLine("SELECT \"x\"\nFROM t", 12345);
  EXPECT_NE(json.find("\"query\":\"SELECT \\\"x\\\"\\nFROM t\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"total_micros\":12345"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"exec\\\"ute\""), std::string::npos);
  EXPECT_NE(json.find("\"start_micros\":3"), std::string::npos);
  EXPECT_NE(json.find("\"duration_micros\":40"), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"k=\\\"v\\\"\""), std::string::npos);
  EXPECT_EQ(json.find("dropped_spans"), std::string::npos)
      << "no drops => no dropped_spans key";
  EXPECT_EQ(json.find('\n'), std::string::npos) << "one line, always";
}

TEST(TraceTest, RenderTreeIndentsByParentage) {
  Trace trace;
  const std::int64_t execute = trace.AddSpan("execute", 0, 0, 100);
  trace.AddSpan("op:Scan(t)", execute, 0, 20, "rows=5");
  trace.AddSpan("parse", 0, 0, 3);
  const std::string tree = trace.RenderTree();
  EXPECT_NE(tree.find("execute  start=0us dur=100us"), std::string::npos)
      << tree;
  EXPECT_NE(tree.find("\n  op:Scan(t)  start=0us dur=20us  rows=5"),
            std::string::npos)
      << tree;
  EXPECT_NE(tree.find("\nparse"), std::string::npos) << tree;
}

TEST(TraceTest, ScopedSpanIsNoOpOnNullTrace) {
  {
    ScopedSpan null_span(nullptr, "anything");
    EXPECT_EQ(null_span.id(), 0);
    null_span.SetDetail("ignored");
  }
  Trace trace;
  {
    ScopedSpan span(&trace, "admission.wait");
    EXPECT_GT(span.id(), 0);
    span.SetDetail("wait_micros=0");
  }
  const std::vector<TraceSpan> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "admission.wait");
  EXPECT_EQ(spans[0].detail, "wait_micros=0");
  EXPECT_GE(spans[0].duration_micros, 0);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAddsAndSets) {
  Counter c;
  c.Add(3);
  c.Add(4);
  EXPECT_EQ(c.Value(), 7);
  c.Set(100);  // scrape-time fill from a lifetime source
  EXPECT_EQ(c.Value(), 100);
}

TEST(MetricsTest, GaugeHoldsPointInTimeValue) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(2.5);
  EXPECT_EQ(g.Value(), 2.5);
}

TEST(MetricsTest, LogBucketsGrowGeometrically) {
  const std::vector<double> bounds = LogBuckets(0.5, 2.0, 4);
  EXPECT_EQ(bounds, (std::vector<double>{0.5, 1.0, 2.0, 4.0}));
}

TEST(MetricsTest, HistogramObservesIntoLeInclusiveBuckets) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);  // bucket le=1
  h.Observe(1.0);  // le is inclusive: still bucket le=1
  h.Observe(3.0);  // bucket le=4
  h.Observe(99.0);  // +Inf
  EXPECT_EQ(h.Count(), 4);
  EXPECT_EQ(h.Sum(), 103.5);
  EXPECT_EQ(h.BucketCount(0), 2);
  EXPECT_EQ(h.BucketCount(1), 0);
  EXPECT_EQ(h.BucketCount(2), 1);
  EXPECT_EQ(h.BucketCount(3), 1) << "+Inf bucket";
}

TEST(MetricsTest, QuantileInterpolatesInsideContainingBucket) {
  Histogram empty({1.0, 2.0});
  EXPECT_EQ(empty.Quantile(0.5), 0.0);

  Histogram h({10.0, 20.0});
  h.Observe(5.0);
  // One observation in [0, 10): the median interpolates to mid-bucket and
  // the max clamps to the bucket's upper bound.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 10.0);

  // Everything in +Inf: the conservative answer is the last finite bound.
  Histogram overflow({10.0});
  overflow.Observe(1e9);
  EXPECT_DOUBLE_EQ(overflow.Quantile(0.5), 10.0);
}

TEST(MetricsTest, RegistryRendersPrometheusTextFormat) {
  MetricsRegistry registry;
  Counter* served = registry.AddCounter("test_served_total",
                                        "Statements served.");
  Gauge* ratio = registry.AddGauge("test_hit_ratio", "Cache hit ratio.");
  Histogram* lat = registry.AddHistogram("test_latency_seconds",
                                         "Latency.", {0.0005, 0.001});
  served->Add(3);
  ratio->Set(0.0005);  // exercises shortest-round-trip float rendering
  lat->Observe(0.0004);
  lat->Observe(0.001);
  lat->Observe(5.0);

  const std::string out = registry.Render();
  EXPECT_NE(out.find("# HELP test_served_total Statements served.\n"
                     "# TYPE test_served_total counter\n"
                     "test_served_total 3\n"),
            std::string::npos)
      << out;
  // No %.17g artifacts: the bound renders as written.
  EXPECT_NE(out.find("test_hit_ratio 0.0005\n"), std::string::npos) << out;
  EXPECT_NE(out.find("# TYPE test_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(out.find("test_latency_seconds_bucket{le=\"0.0005\"} 1\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("test_latency_seconds_bucket{le=\"0.001\"} 2\n"),
            std::string::npos)
      << "buckets are cumulative";
  EXPECT_NE(out.find("test_latency_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("test_latency_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(out.find("test_latency_seconds_sum "), std::string::npos);
}

TEST(MetricsTest, LabeledSeriesShareOneFamilyHeader) {
  MetricsRegistry registry;
  registry.AddCounter("test_backend_total", "Per-backend.",
                      "backend=\"simd\"")
      ->Add(1);
  registry.AddCounter("test_backend_total", "Per-backend.",
                      "backend=\"reference\"")
      ->Add(2);
  const std::string out = registry.Render();
  std::size_t headers = 0;
  for (std::size_t pos = out.find("# TYPE test_backend_total");
       pos != std::string::npos;
       pos = out.find("# TYPE test_backend_total", pos + 1)) {
    ++headers;
  }
  EXPECT_EQ(headers, 1u) << out;
  EXPECT_NE(out.find("test_backend_total{backend=\"simd\"} 1\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("test_backend_total{backend=\"reference\"} 2\n"),
            std::string::npos)
      << out;
}

}  // namespace
}  // namespace raven::obs

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE / StatsCollector accounting contract
// ---------------------------------------------------------------------------

namespace raven {
namespace {

void ExpectTablesIdentical(const relational::Table& expected,
                           const relational::Table& actual) {
  ASSERT_EQ(expected.ColumnNames(), actual.ColumnNames());
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  for (std::int64_t c = 0; c < expected.num_columns(); ++c) {
    const auto& lhs = expected.columns()[static_cast<std::size_t>(c)].data;
    const auto& rhs = actual.columns()[static_cast<std::size_t>(c)].data;
    for (std::size_t r = 0; r < lhs.size(); ++r) {
      ASSERT_TRUE(lhs[r] == rhs[r] ||
                  (std::isnan(lhs[r]) && std::isnan(rhs[r])))
          << "col " << c << " row " << r << ": " << lhs[r]
          << " != " << rhs[r];
    }
  }
}

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hospital_ = data::MakeHospitalDataset(600, 13);
    ASSERT_NO_FATAL_FAILURE(
        test_util::RegisterHospitalTables(&ctx_.catalog(), hospital_));
    test_util::InsertHospitalTreeModel(&ctx_.catalog(), hospital_, 4);
    ASSERT_FALSE(HasFailure()) << "fixture setup failed";
  }

  data::HospitalDataset hospital_;
  RavenContext ctx_;
};

TEST_F(ExplainAnalyzeTest, FusedChainOwnsOneSlotOnTheChainHead) {
  auto analyzed =
      ctx_.ExplainAnalyze("SELECT id, age FROM patients WHERE age > 40");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  ASSERT_GE(analyzed->stats.fused_chains, 1) << analyzed->text;

  std::int64_t fused_slots = 0;
  for (const auto& op : analyzed->stats.operators) {
    EXPECT_NE(op.node, nullptr) << op.op << " lost its IR node identity";
    if (op.op.rfind("Fused[", 0) == 0) ++fused_slots;
    // Swallowed chain stages never own a slot of their own: the fused
    // operator is one pass per chunk, so per-stage counters cannot exist.
    EXPECT_NE(op.op, "Filter") << analyzed->text;
  }
  EXPECT_EQ(fused_slots, analyzed->stats.fused_chains) << analyzed->text;
  EXPECT_NE(analyzed->text.find("[Fused["), std::string::npos)
      << analyzed->text;
  EXPECT_NE(analyzed->text.find("[in Fused["), std::string::npos)
      << analyzed->text;
}

TEST_F(ExplainAnalyzeTest, OneNodeRunsKeepTheirPlainLabelAndAreNoChain) {
  // A lone projection under a grouped aggregate and a lone HAVING filter
  // above it run as one-stage fused operators, but render, count and slot
  // under their plain names: neither is a fused chain.
  for (std::int64_t dop : {1, 4}) {
    SCOPED_TRACE("dop=" + std::to_string(dop));
    ctx_.execution_options().parallelism = dop;
    auto analyzed = ctx_.ExplainAnalyze(
        "SELECT gender, pregnant, COUNT(*) AS n FROM patients "
        "GROUP BY gender, pregnant HAVING COUNT(*) > 0");
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    const std::string& text = analyzed->text;
    EXPECT_NE(text.find("[Project: rows=600 "), std::string::npos) << text;
    EXPECT_NE(text.find("[Filter: "), std::string::npos) << text;
    EXPECT_EQ(text.find("Fused["), std::string::npos) << text;
    EXPECT_NE(text.find(" fused_chains=0 "), std::string::npos) << text;
    EXPECT_EQ(analyzed->stats.fused_chains, 0);
    std::int64_t fused_slots = 0;
    for (const auto& op : analyzed->stats.operators) {
      if (op.op.rfind("Fused[", 0) == 0) ++fused_slots;
    }
    EXPECT_EQ(fused_slots, analyzed->stats.fused_chains) << text;
  }
}

TEST_F(ExplainAnalyzeTest, AggregateSurfacesSinkAndRescanAsSeparateSlots) {
  // Parallel execution materializes the grouped aggregate between
  // pipelines; sequential runs keep it in one pass and the rescan slot
  // never exists — the two-slot contract is a parallel-plan property.
  // The HAVING filter reads the GroupBy's result (a bare GROUP BY is the
  // plan root, whose materialized result is the answer, never rescanned).
  ctx_.execution_options().parallelism = 4;
  auto analyzed = ctx_.ExplainAnalyze(
      "SELECT gender, COUNT(*) AS n, AVG(age) AS a FROM patients "
      "GROUP BY gender HAVING COUNT(*) > 0");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();

  // One IR node, two physical operators: the grouped sink and the later
  // scan of its materialized result must not share counters.
  bool two_slot_node = false;
  const auto& ops = analyzed->stats.operators;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (std::size_t j = i + 1; j < ops.size(); ++j) {
      if (ops[i].node == ops[j].node && ops[i].op != ops[j].op) {
        two_slot_node = true;
      }
    }
  }
  EXPECT_TRUE(two_slot_node) << analyzed->text;
  EXPECT_NE(analyzed->text.find("[GroupBy:"), std::string::npos)
      << analyzed->text;
  EXPECT_NE(analyzed->text.find("[Materialized(GroupBy):"),
            std::string::npos)
      << analyzed->text;
}

TEST_F(ExplainAnalyzeTest, ScanCountersReportActualRowsAndOpenMicros) {
  auto analyzed = ctx_.ExplainAnalyze("SELECT id FROM patients");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const runtime::OperatorStats* scan = nullptr;
  for (const auto& op : analyzed->stats.operators) {
    if (op.op.rfind("Scan(", 0) == 0) scan = &op;
  }
  ASSERT_NE(scan, nullptr) << analyzed->text;
  EXPECT_EQ(scan->rows, 600);
  EXPECT_GT(scan->chunks, 0);
  EXPECT_GE(scan->open_micros, 0.0);
  EXPECT_GE(scan->wall_micros, 0.0);
}

TEST_F(ExplainAnalyzeTest, ResultTableIsByteIdenticalToPlainExecution) {
  const std::string sql =
      "SELECT id, age, bp FROM patients WHERE bp > 90 ORDER BY id";
  for (std::int64_t dop : {1, 8}) {
    SCOPED_TRACE("dop=" + std::to_string(dop));
    ctx_.execution_options().parallelism = dop;
    auto plain = ctx_.Query(sql);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    auto analyzed = ctx_.ExplainAnalyze(sql);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    ASSERT_NO_FATAL_FAILURE(
        ExpectTablesIdentical(plain->table, analyzed->table));
  }
}

TEST_F(ExplainAnalyzeTest, TotalsReportModeResultRowsAndPredictScoring) {
  // Keep a real Predict operator in the plan: inlining would compile the
  // small tree model into CASE expressions and score nothing via NNRT.
  ctx_.optimizer_options().model_inlining = false;
  auto analyzed = ctx_.ExplainAnalyze(
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) "
      "WITH(p float) WHERE p > 5");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const std::string& text = analyzed->text;
  EXPECT_NE(text.find("=== EXPLAIN ANALYZE ==="), std::string::npos);
  EXPECT_NE(text.find("=== Execution totals ==="), std::string::npos);
  EXPECT_NE(text.find("mode="), std::string::npos);
  EXPECT_NE(text.find("result_rows=" +
                      std::to_string(analyzed->table.num_rows())),
            std::string::npos)
      << text;
  // The PREDICT line distinguishes rows *scored* from rows returned: the
  // model sees every patient; the WHERE prunes afterwards.
  EXPECT_EQ(analyzed->stats.rows_out, 600);
  EXPECT_NE(text.find("rows_scored=600"), std::string::npos) << text;
  EXPECT_NE(text.find("predict_batches="), std::string::npos) << text;
  EXPECT_NE(text.find("total_millis="), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, TraceRecordsExecuteSpanWithOperatorAggregates) {
  obs::Trace trace;
  ctx_.execution_options().trace = &trace;
  auto result =
      ctx_.Query("SELECT gender, COUNT(*) AS n FROM patients GROUP BY gender");
  ctx_.execution_options().trace = nullptr;
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const std::vector<obs::TraceSpan> spans = trace.Snapshot();
  const obs::TraceSpan* execute = nullptr;
  std::int64_t op_spans = 0;
  for (const auto& s : spans) {
    if (s.name == "execute") execute = &s;
  }
  ASSERT_NE(execute, nullptr);
  EXPECT_NE(execute->detail.find("mode="), std::string::npos)
      << execute->detail;
  for (const auto& s : spans) {
    if (s.name.rfind("op:", 0) == 0) {
      ++op_spans;
      EXPECT_EQ(s.parent, execute->id) << s.name;
      EXPECT_NE(s.detail.find("rows="), std::string::npos) << s.name;
    }
  }
  EXPECT_GT(op_spans, 0);
}

}  // namespace
}  // namespace raven
