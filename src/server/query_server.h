#ifndef RAVEN_SERVER_QUERY_SERVER_H_
#define RAVEN_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <cstdio>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "raven/raven.h"
#include "server/admission.h"
#include "server/event_loop.h"
#include "server/plan_cache.h"
#include "server/predict_batcher.h"
#include "server/server_protocol.h"
#include "server/session.h"

namespace raven::server {

/// Server configuration. Exactly one listener comes up: the Unix-domain
/// socket when `unix_socket_path` is set, otherwise TCP on 127.0.0.1 when
/// `tcp_port` >= 0 (0 lets the kernel pick; see tcp_port() after Start).
struct QueryServerOptions {
  std::string unix_socket_path;
  int tcp_port = -1;
  std::size_t plan_cache_capacity = 128;
  AdmissionOptions admission;
  /// Initial execution knobs of every new session (SET overrides
  /// per-session).
  runtime::ExecutionOptions default_execution;
  /// Simultaneous connections; arrivals beyond this are answered with a
  /// kBusy frame and closed. With the epoll core an idle connection costs a
  /// registered fd plus its Session — not a thread — so this bounds fds and
  /// per-connection state (the dispatch pool is sized from the admission
  /// knobs instead).
  std::int64_t max_connections = 256;
  /// Request frames larger than this are rejected before their payload
  /// buffer is allocated: a hostile header cannot cost the server the
  /// claimed allocation. Statements are capped at frontend::kMaxSqlLength
  /// anyway; the default leaves headroom for large EXECUTE param vectors.
  std::uint32_t max_request_frame_bytes = 8u << 20;
  /// A connection with no complete request for this long is dropped
  /// (<= 0: never). Without it, max_connections idle sockets would pin
  /// every slot forever — the cheapest possible denial of service.
  int idle_timeout_millis = 300000;
  /// When >= 0, a second loopback TCP listener serves `GET /metrics` in
  /// Prometheus text format on this port (0 lets the kernel pick; see
  /// metrics_tcp_port() after Start). Plain HTTP/1.0, connection per
  /// request, served off an http-mode EventLoop.
  int metrics_port = -1;
  /// When non-empty, statements that finish at or over their session's
  /// `SET slow_query_millis` threshold append their span tree to this file
  /// as one JSON line each (opened for append at Start).
  std::string slow_query_log_path;
};

/// Aggregate serving counters (SHOW STATS renders these).
struct ServerStats {
  PlanCacheStats plan_cache;
  AdmissionController::Stats admission;
  std::int64_t queries_served = 0;
  std::int64_t statements_prepared = 0;
  std::int64_t prepared_executions = 0;
  std::int64_t sessions_opened = 0;
  std::int64_t sessions_active = 0;
  std::int64_t worker_restarts = 0;
  std::int64_t catalog_version = 0;
  /// Columnar-storage scans: blocks read vs. blocks zone maps pruned
  /// (DiskScanOperator; both 0 unless disk tables are attached).
  std::int64_t blocks_scanned = 0;
  std::int64_t blocks_skipped = 0;
  /// Cross-query inference batching (PredictBatcher).
  std::int64_t batches_flushed = 0;
  std::int64_t rows_coalesced = 0;
  /// Mean rows per physical NNRT call, x100 (integer stats table): 100 =
  /// no coalescing, 6400 = 64 rows/batch.
  std::int64_t batch_occupancy = 0;
  /// Event-loop wakeups with >= 1 ready fd (EventLoopStats).
  std::int64_t epoll_wakeups = 0;
  /// NNRT session cache (nnrt::SessionCacheStats) + artifact tier.
  std::int64_t nn_session_hits = 0;
  std::int64_t nn_session_misses = 0;
  std::int64_t nn_session_evictions = 0;
  std::int64_t nn_session_entries = 0;
  /// Fresh compiles that ran the graph optimizer; stays 0 across a
  /// warm-artifact cold start (the CI assertion for the artifact cache).
  std::int64_t nn_graph_optimizations = 0;
  std::int64_t nn_artifact_hits = 0;
  std::int64_t nn_artifact_writes = 0;
  std::int64_t nn_artifact_rejects = 0;
  /// Per-op backend profiling (OpProfiler totals; EXPLAIN shows the
  /// per-op-type breakdown).
  std::int64_t nn_ops_profiled = 0;
  std::int64_t nn_op_micros = 0;
  /// Statements that crossed their session's slow_query_millis threshold
  /// (each also wrote one JSON line to the slow-query log when configured).
  std::int64_t slow_queries = 0;

  /// The SHOW STATS key/value pairs, in render order.
  std::vector<std::pair<std::string, std::int64_t>> ToPairs() const;

  /// Mean rows per flushed batch x100, rounded half-up; 0 when nothing
  /// flushed yet. Exposed for the unit test pinning the rounding.
  static std::int64_t BatchOccupancyX100(std::int64_t rows_flushed,
                                         std::int64_t batches_flushed);
};

/// A long-lived concurrent query service over a RavenContext: accepts
/// clients on a Unix-domain or TCP socket speaking the length-prefixed
/// frame protocol of server_protocol.h, gives each connection a Session
/// (execution knobs, temp views, prepared statements), routes statements
/// through the shared PlanCache (normalized SQL + catalog version ->
/// optimized IR), and bounds concurrent execution with the
/// AdmissionController. Connections live on an epoll EventLoop (idle
/// sockets cost a registered fd, not a thread); complete request frames
/// are executed on the loop's dispatch pool through the context's shared
/// PlanExecutor, whose pipelines fan out on the process-wide ThreadPool.
/// PREDICT scorers of all sessions share one PredictBatcher, so
/// concurrently in-flight queries against the same model coalesce their
/// inference rows into shared NNRT calls (SET batch_window_micros > 0 to
/// enable). Statement verbs handled server-side:
///
///   PREPARE <name> AS <select with ? placeholders>
///   EXECUTE <name> [( v1, v2, ... )]
///   SET <knob> = <value>
///   CREATE VIEW <name> AS <select>       -- session-scoped temp view
///   DROP VIEW <name>
///   SHOW STATS
///   SHOW METRICS                         -- Prometheus text exposition
///   SHOW TRACE                           -- last recorded span tree
///   TRACE <select>                       -- execute traced, return the tree
///   EXPLAIN <select>                     -- plan text, batch-eligible nodes
///   EXPLAIN ANALYZE <select>             -- execute + actual-counter tree
///
/// Everything else is analyzed as an inference query. The embedding
/// process must not change the context's options while the server runs
/// (RavenContext's option setters are not synchronized); direct
/// catalog/model mutations are fine and invalidate cached plans via the
/// catalog version.
class QueryServer {
 public:
  QueryServer(RavenContext* ctx, QueryServerOptions options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and starts the event loop + dispatch pool.
  Status Start();
  /// Stops accepting, drains the inference batcher (pending batched rows
  /// flush immediately — no PREDICT waiter is left blocked on a window),
  /// severs every live connection (in-flight statements finish first —
  /// execution is not interruptible), and joins all threads. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Bound TCP port (ephemeral port resolved), or -1 for a Unix listener.
  int tcp_port() const { return bound_tcp_port_; }
  /// Bound metrics port (ephemeral port resolved), or -1 when disabled.
  int metrics_tcp_port() const { return bound_metrics_port_; }
  const std::string& unix_socket_path() const {
    return options_.unix_socket_path;
  }

  ServerStats Snapshot() const;
  PlanCache& plan_cache() { return plan_cache_; }
  AdmissionController& admission() { return admission_; }
  PredictBatcher& batcher() { return *batcher_; }
  /// The Prometheus text exposition: fills the scrape-time counters/gauges
  /// from Snapshot(), then renders every registered series (SHOW METRICS
  /// and the /metrics endpoint both come through here).
  std::string RenderMetrics();
  /// The metrics histograms, for bench/test quantile reads.
  const obs::Histogram& query_latency_histogram() const {
    return *h_query_latency_;
  }

 private:
  ServerResponse HandleRequest(Session* session, const ClientRequest& request);
  ServerResponse HandleStatement(Session* session, const std::string& sql);
  ServerResponse HandlePrepare(Session* session, const std::string& rest);
  ServerResponse HandleExecute(Session* session, const std::string& name,
                               const std::vector<double>& params);
  ServerResponse HandleSet(Session* session, const std::string& rest);
  ServerResponse HandleCreateView(Session* session, const std::string& rest);
  ServerResponse HandleExplain(Session* session, const std::string& body);
  ServerResponse HandleExplainAnalyze(Session* session,
                                      const std::string& body);
  ServerResponse HandleTrace(Session* session, const std::string& rest);
  ServerResponse RunStatement(Session* session, const std::string& sql,
                              bool force_trace = false);
  ServerResponse ShowStats() const;

  /// Builds one raw HTTP response for the metrics listener (GET /metrics;
  /// anything else is 404).
  std::string HandleMetricsHttp(const std::string& request);

  /// Renders + stores the statement's trace in the session, and appends
  /// the JSON line to the slow-query log when the statement crossed the
  /// session's slow_query_millis threshold.
  void FinishTrace(Session* session, const std::string& sql,
                   double total_millis, obs::Trace* trace);

  /// Parse + optimize `sql` (already view-rewritten) for the session's
  /// planning profile, going through the shared plan cache. `cache_hit`
  /// reports whether parse+optimize were skipped. A non-null `trace`
  /// records the lookup/parse/optimize spans.
  Result<std::shared_ptr<const CachedPlan>> PlanStatement(
      Session* session, const std::string& sql, bool* cache_hit,
      obs::Trace* trace = nullptr);
  /// The uncached slow path: analyze, then optimize. Runs concurrently
  /// across sessions: the shared CrossOptimizer is only read, and the
  /// session's costing targets never reach it (no report is requested).
  Result<std::shared_ptr<const CachedPlan>> PlanFresh(const std::string& sql,
                                                      obs::Trace* trace);

  /// Admission-gated execution of an optimized plan; fills the response's
  /// table and serving stats, feeds the latency/queue-wait histograms, and
  /// (with a non-null trace) records the admission-wait span and threads
  /// the trace into the executor.
  ServerResponse ExecutePlan(Session* session, const ir::IrPlan& plan,
                             bool cache_hit, obs::Trace* trace = nullptr);

  static ServerResponse ErrorResponse(const Status& status);

  RavenContext* ctx_;
  QueryServerOptions options_;
  PlanCache plan_cache_;
  AdmissionController admission_;
  /// Shared by every session's PREDICT scorers (injected through
  /// ExecutionOptions::predict_batcher); outlives the event loop.
  std::shared_ptr<PredictBatcher> batcher_;
  std::unique_ptr<EventLoop> event_loop_;

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int bound_tcp_port_ = -1;
  /// Metrics endpoint: its own listener + http-mode loop so a scraper can
  /// never occupy a query connection slot (and vice versa).
  std::unique_ptr<EventLoop> metrics_loop_;
  int metrics_listen_fd_ = -1;
  int bound_metrics_port_ = -1;

  /// Slow-query log sink (append; one JSON span-tree line per statement
  /// over threshold). Guarded by slow_log_mu_ — emission is rare.
  std::mutex slow_log_mu_;
  std::FILE* slow_log_ = nullptr;

  /// Metric series live for the server's lifetime; push-style histograms
  /// observe on the query path, scrape-time counters/gauges fill from
  /// Snapshot() under scrape_mu_ in RenderMetrics.
  obs::MetricsRegistry metrics_;
  std::mutex scrape_mu_;
  obs::Histogram* h_query_latency_ = nullptr;
  obs::Histogram* h_queue_wait_ = nullptr;
  obs::Histogram* h_query_rows_ = nullptr;
  obs::Counter* c_queries_served_ = nullptr;
  obs::Counter* c_plan_cache_hits_ = nullptr;
  obs::Counter* c_plan_cache_misses_ = nullptr;
  obs::Counter* c_queries_shed_ = nullptr;
  obs::Counter* c_sessions_opened_ = nullptr;
  obs::Counter* c_worker_restarts_ = nullptr;
  obs::Counter* c_blocks_scanned_ = nullptr;
  obs::Counter* c_blocks_skipped_ = nullptr;
  /// Bumped on the query path (no ServerStats source to copy from).
  obs::Counter* c_programs_compiled_ = nullptr;
  obs::Counter* c_batches_flushed_ = nullptr;
  obs::Counter* c_rows_coalesced_ = nullptr;
  obs::Counter* c_nn_session_hits_ = nullptr;
  obs::Counter* c_nn_session_misses_ = nullptr;
  obs::Counter* c_nn_op_micros_ = nullptr;
  obs::Counter* c_epoll_wakeups_ = nullptr;
  obs::Counter* c_slow_queries_ = nullptr;
  obs::Gauge* g_sessions_active_ = nullptr;
  obs::Gauge* g_queries_active_ = nullptr;
  obs::Gauge* g_queries_queued_ = nullptr;
  obs::Gauge* g_plan_cache_entries_ = nullptr;
  obs::Gauge* g_plan_cache_hit_ratio_ = nullptr;
  obs::Gauge* g_batch_occupancy_ = nullptr;
  obs::Gauge* g_connections_open_ = nullptr;

  std::atomic<std::int64_t> next_session_id_{1};
  std::atomic<std::int64_t> queries_served_{0};
  std::atomic<std::int64_t> statements_prepared_{0};
  std::atomic<std::int64_t> prepared_executions_{0};
  std::atomic<std::int64_t> sessions_opened_{0};
  std::atomic<std::int64_t> sessions_active_{0};
  std::atomic<std::int64_t> worker_restarts_{0};
  std::atomic<std::int64_t> blocks_scanned_{0};
  std::atomic<std::int64_t> blocks_skipped_{0};
  std::atomic<std::int64_t> slow_queries_{0};
};

}  // namespace raven::server

#endif  // RAVEN_SERVER_QUERY_SERVER_H_
