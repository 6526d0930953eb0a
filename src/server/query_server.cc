#include "server/query_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "frontend/sql_parser.h"

namespace raven::server {
namespace {

/// Scans one identifier-shaped word starting at `*pos` (skipping leading
/// whitespace); empty when the text is exhausted or starts with a
/// non-identifier character.
std::string NextWord(const std::string& text, std::size_t* pos) {
  while (*pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[*pos]))) {
    ++*pos;
  }
  const std::size_t begin = *pos;
  while (*pos < text.size() &&
         (std::isalnum(static_cast<unsigned char>(text[*pos])) ||
          text[*pos] == '_')) {
    ++*pos;
  }
  return text.substr(begin, *pos - begin);
}

std::string RestFrom(const std::string& text, std::size_t pos) {
  return TrimString(text.substr(std::min(pos, text.size())));
}

/// Valid CTE/view name: identifier-shaped (no leading digit) and not a
/// grammar keyword. Anything else would parse at CREATE but poison every
/// later statement once spliced in as `WITH <name> AS (...)`.
Status ValidateViewName(const std::string& name) {
  if (name.empty() || (!std::isalpha(static_cast<unsigned char>(name[0])) &&
                       name[0] != '_')) {
    return Status::InvalidArgument(
        "view name '" + name +
        "' must start with a letter or underscore");
  }
  static const char* kReserved[] = {
      "SELECT", "FROM",  "WHERE", "GROUP",   "BY",    "HAVING", "ORDER",
      "LIMIT",  "JOIN",  "ON",    "AS",      "WITH",  "PREDICT", "MODEL",
      "DATA",   "AND",   "OR",    "NOT",     "IN",    "ASC",    "DESC",
      "COUNT",  "SUM",   "AVG",   "MIN",     "MAX"};
  const std::string upper = ToUpper(name);
  for (const char* keyword : kReserved) {
    if (upper == keyword) {
      return Status::InvalidArgument("view name '" + name +
                                     "' is a reserved word");
    }
  }
  return Status::OK();
}

/// Parses the optional `( v1, v2, ... )` parameter list of a SQL-level
/// EXECUTE. Values are plain doubles (the engine is numeric end to end).
Result<std::vector<double>> ParseParamList(const std::string& rest) {
  std::vector<double> params;
  if (rest.empty()) return params;
  if (rest.front() != '(' || rest.back() != ')') {
    return Status::ParseError(
        "EXECUTE parameters must be parenthesized: EXECUTE name (1, 2.5)");
  }
  const std::string inner = TrimString(rest.substr(1, rest.size() - 2));
  if (inner.empty()) return params;
  for (const std::string& part : SplitString(inner, ',')) {
    const std::string value = TrimString(part);
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      return Status::ParseError("EXECUTE parameter '" + value +
                                "' is not a number");
    }
    params.push_back(parsed);
  }
  return params;
}

/// Binds and listens on 127.0.0.1:`port` (0 = kernel-picked); on success
/// returns the fd and stores the resolved port in `bound_port`.
Result<int> ListenLoopbackTcp(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket(AF_INET) failed: " +
                           std::string(std::strerror(errno)));
  }
  const int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind(127.0.0.1:" + std::to_string(port) +
                           ") failed: " + error);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    *bound_port = static_cast<int>(ntohs(bound.sin_port));
  }
  if (::listen(fd, 16) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("listen failed: " + error);
  }
  return fd;
}

}  // namespace

std::vector<std::pair<std::string, std::int64_t>> ServerStats::ToPairs()
    const {
  return {
      {"plan_cache_hits", plan_cache.hits},
      {"plan_cache_misses", plan_cache.misses},
      {"plan_cache_evictions", plan_cache.evictions},
      {"plan_cache_invalidations", plan_cache.invalidations},
      {"plan_cache_entries", plan_cache.entries},
      {"queries_active", admission.active},
      {"queries_queued", admission.queued},
      {"queries_admitted", admission.admitted},
      {"queries_ever_queued", admission.ever_queued},
      {"queries_shed", admission.shed},
      {"queue_timeouts", admission.timeouts},
      {"peak_active", admission.peak_active},
      {"peak_queued", admission.peak_queued},
      {"queries_served", queries_served},
      {"statements_prepared", statements_prepared},
      {"prepared_executions", prepared_executions},
      {"sessions_opened", sessions_opened},
      {"sessions_active", sessions_active},
      {"worker_restarts", worker_restarts},
      {"catalog_version", catalog_version},
      {"blocks_scanned", blocks_scanned},
      {"blocks_skipped", blocks_skipped},
      {"batches_flushed", batches_flushed},
      {"rows_coalesced", rows_coalesced},
      {"batch_occupancy_x100", batch_occupancy},
      {"epoll_wakeups", epoll_wakeups},
      {"nn_session_hits", nn_session_hits},
      {"nn_session_misses", nn_session_misses},
      {"nn_session_evictions", nn_session_evictions},
      {"nn_session_entries", nn_session_entries},
      {"nn_graph_optimizations", nn_graph_optimizations},
      {"nn_artifact_hits", nn_artifact_hits},
      {"nn_artifact_writes", nn_artifact_writes},
      {"nn_artifact_rejects", nn_artifact_rejects},
      {"nn_ops_profiled", nn_ops_profiled},
      {"nn_op_micros", nn_op_micros},
      {"slow_queries", slow_queries},
  };
}

std::int64_t ServerStats::BatchOccupancyX100(std::int64_t rows_flushed,
                                             std::int64_t batches_flushed) {
  // Round half-up rather than truncate: 1 row over 3 batches is 33, not 66
  // truncated from intermediate math, and 5/3 rounds to 167 not 166. No
  // batches yet is an explicit 0, not "skip the stat".
  if (batches_flushed <= 0) return 0;
  return (rows_flushed * 100 + batches_flushed / 2) / batches_flushed;
}

QueryServer::QueryServer(RavenContext* ctx, QueryServerOptions options)
    : ctx_(ctx),
      options_(std::move(options)),
      plan_cache_(options_.plan_cache_capacity),
      admission_(options_.admission),
      batcher_(std::make_shared<PredictBatcher>()) {
  // Every session's PREDICT scorers route through the shared batcher (the
  // window/row-cap knobs stay per-session SET state; with the default
  // window of 0 the scorer never consults it).
  options_.default_execution.predict_batcher = batcher_;
  // Sessions inherit the context's extra worker args (notably
  // --artifact-dir=..., appended by RavenContext when an artifact cache is
  // attached) so out-of-process/distributed children of server sessions
  // warm-start from the same compiled-graph artifacts.
  for (const std::string& arg :
       ctx_->execution_options().external.worker_args) {
    auto& args = options_.default_execution.external.worker_args;
    if (std::find(args.begin(), args.end(), arg) == args.end()) {
      args.push_back(arg);
    }
  }
  // Metric series register once here and stay immutable; values update
  // push-style on the query path (histograms) or at scrape time from
  // Snapshot() (counters/gauges whose lifetime sources live elsewhere).
  h_query_latency_ = metrics_.AddHistogram(
      "raven_query_latency_seconds",
      "Server-side statement latency (admission wait included)",
      obs::LogBuckets(0.0005, 2.0, 16));
  h_queue_wait_ = metrics_.AddHistogram(
      "raven_queue_wait_seconds",
      "Wall time queued in the admission controller before execution",
      obs::LogBuckets(0.0001, 2.0, 18));
  h_query_rows_ = metrics_.AddHistogram(
      "raven_query_rows", "Result rows per executed statement",
      obs::LogBuckets(1.0, 4.0, 10));
  c_queries_served_ = metrics_.AddCounter(
      "raven_queries_served_total", "Statements executed to completion");
  c_plan_cache_hits_ = metrics_.AddCounter(
      "raven_plan_cache_hits_total", "Plan cache lookups that skipped "
      "parse+optimize");
  c_plan_cache_misses_ = metrics_.AddCounter(
      "raven_plan_cache_misses_total", "Plan cache lookups that planned "
      "fresh");
  c_queries_shed_ = metrics_.AddCounter(
      "raven_queries_shed_total", "Statements rejected by admission "
      "control");
  c_sessions_opened_ = metrics_.AddCounter("raven_sessions_opened_total",
                                           "Connections accepted");
  c_worker_restarts_ = metrics_.AddCounter(
      "raven_worker_restarts_total",
      "Distributed pool workers replaced after a failed exchange");
  c_blocks_scanned_ = metrics_.AddCounter(
      "raven_blocks_scanned_total", "Columnar storage blocks decoded");
  c_blocks_skipped_ = metrics_.AddCounter(
      "raven_blocks_skipped_total",
      "Columnar storage blocks pruned by zone maps");
  c_programs_compiled_ = metrics_.AddCounter(
      "raven_programs_compiled_total",
      "Expression programs compiled: one per filter predicate or "
      "projection item per executed statement, at any dop");
  c_batches_flushed_ = metrics_.AddCounter(
      "raven_predict_batches_flushed_total",
      "Cross-query inference batches flushed");
  c_rows_coalesced_ = metrics_.AddCounter(
      "raven_predict_rows_coalesced_total",
      "PREDICT rows that shared another query's NNRT call");
  c_nn_session_hits_ = metrics_.AddCounter(
      "raven_nn_session_hits_total", "NNRT session cache hits");
  c_nn_session_misses_ = metrics_.AddCounter(
      "raven_nn_session_misses_total", "NNRT session cache misses");
  c_nn_op_micros_ = metrics_.AddCounter(
      "raven_nn_op_micros_total",
      "Cumulative NNRT kernel wall time across all backends, micros");
  c_epoll_wakeups_ = metrics_.AddCounter(
      "raven_epoll_wakeups_total", "Event-loop wakeups with ready fds");
  c_slow_queries_ = metrics_.AddCounter(
      "raven_slow_queries_total",
      "Statements at or over their session's slow_query_millis");
  g_sessions_active_ =
      metrics_.AddGauge("raven_sessions_active", "Open client sessions");
  g_queries_active_ = metrics_.AddGauge(
      "raven_queries_active", "Statements holding an admission slot");
  g_queries_queued_ = metrics_.AddGauge(
      "raven_queries_queued", "Statements waiting in the admission queue");
  g_plan_cache_entries_ = metrics_.AddGauge("raven_plan_cache_entries",
                                            "Cached optimized plans");
  g_plan_cache_hit_ratio_ = metrics_.AddGauge(
      "raven_plan_cache_hit_ratio",
      "Lifetime plan-cache hits / lookups (0 before the first lookup)");
  g_batch_occupancy_ = metrics_.AddGauge(
      "raven_batch_occupancy_x100",
      "Mean PREDICT rows per flushed NNRT batch, x100");
  g_connections_open_ = metrics_.AddGauge("raven_connections_open",
                                          "Registered connection fds");
}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server is already running");
  }
  // Batcher Shutdown is permanent, so a restarted server gets a fresh
  // (open) one; Snapshot between Stop and the next Start still reads the
  // finished run's counters.
  batcher_ = std::make_shared<PredictBatcher>();
  options_.default_execution.predict_batcher = batcher_;
  // A client that disappears mid-response must surface as EPIPE on the
  // connection, not kill the server (same rationale as WorkerClient).
  ::signal(SIGPIPE, SIG_IGN);
  if (!options_.unix_socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     options_.unix_socket_path);
    }
    std::strncpy(addr.sun_path, options_.unix_socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IoError("socket(AF_UNIX) failed: " +
                             std::string(std::strerror(errno)));
    }
    ::unlink(options_.unix_socket_path.c_str());  // stale socket file
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const std::string error = std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::IoError("bind(" + options_.unix_socket_path +
                             ") failed: " + error);
    }
  } else if (options_.tcp_port >= 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IoError("socket(AF_INET) failed: " +
                             std::string(std::strerror(errno)));
    }
    const int reuse = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const std::string error = std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::IoError("bind(127.0.0.1:" +
                             std::to_string(options_.tcp_port) +
                             ") failed: " + error);
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) == 0) {
      bound_tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  } else {
    return Status::InvalidArgument(
        "configure either unix_socket_path or tcp_port");
  }
  if (::listen(listen_fd_, 128) != 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen failed: " + error);
  }

  EventLoopOptions loop;
  loop.max_connections = options_.max_connections;
  loop.max_request_frame_bytes = options_.max_request_frame_bytes;
  loop.idle_timeout_millis = options_.idle_timeout_millis;
  // Every admission slot and queue seat must be occupiable at once, or the
  // dispatch pool — not the admission controller — would become the real
  // shed/queue policy; the slack covers control traffic (SET, SHOW STATS,
  // pings) arriving while all admission seats are taken.
  loop.dispatch_threads = static_cast<int>(options_.admission.max_concurrent +
                                           options_.admission.max_queue + 4);
  loop.busy_payload = EncodeServerResponse(ErrorResponse(Status::ServerBusy(
      "connection limit (" + std::to_string(options_.max_connections) +
      ") reached; retry later")));
  loop.oversize_payload = EncodeServerResponse(ErrorResponse(
      Status::OutOfRange("request frame is over the cap of " +
                         std::to_string(options_.max_request_frame_bytes) +
                         " bytes")));
  event_loop_ = std::make_unique<EventLoop>(
      std::move(loop),
      [this]() -> void* {
        sessions_opened_.fetch_add(1, std::memory_order_relaxed);
        sessions_active_.fetch_add(1, std::memory_order_relaxed);
        return new Session(
            next_session_id_.fetch_add(1, std::memory_order_relaxed),
            options_.default_execution, &ctx_->session_cache());
      },
      [this](void* conn_ctx, std::string payload) -> std::string {
        ServerResponse response;
        auto request = DecodeClientRequest(payload);
        if (!request.ok()) {
          // Frames are length-delimited, so a malformed payload does not
          // desynchronize the stream; answer the error and keep serving.
          response = ErrorResponse(request.status());
        } else {
          response = HandleRequest(static_cast<Session*>(conn_ctx),
                                   request.value());
        }
        return EncodeServerResponse(response);
      },
      [this](void* conn_ctx) {
        delete static_cast<Session*>(conn_ctx);
        sessions_active_.fetch_sub(1, std::memory_order_relaxed);
      });
  Status started = event_loop_->Start(listen_fd_);
  if (!started.ok()) {
    event_loop_.reset();
    ::close(listen_fd_);
    listen_fd_ = -1;
    return started;
  }
  // Running from here on: the optional listeners below roll everything
  // back through Stop() on failure.
  running_.store(true, std::memory_order_release);
  if (!options_.slow_query_log_path.empty()) {
    std::lock_guard<std::mutex> lock(slow_log_mu_);
    slow_log_ = std::fopen(options_.slow_query_log_path.c_str(), "a");
    if (slow_log_ == nullptr) {
      const std::string error = std::strerror(errno);
      Stop();
      return Status::IoError("open slow-query log " +
                             options_.slow_query_log_path + ": " + error);
    }
  }
  if (options_.metrics_port >= 0) {
    auto fd = ListenLoopbackTcp(options_.metrics_port, &bound_metrics_port_);
    if (!fd.ok()) {
      Stop();
      return Status(fd.status().code(),
                    "metrics listener: " + fd.status().message());
    }
    metrics_listen_fd_ = fd.value();
    EventLoopOptions mloop;
    mloop.http_mode = true;
    mloop.max_connections = 32;
    mloop.max_request_frame_bytes = 64u << 10;
    mloop.idle_timeout_millis = 10000;
    mloop.dispatch_threads = 2;
    metrics_loop_ = std::make_unique<EventLoop>(
        std::move(mloop), []() -> void* { return nullptr; },
        [this](void*, std::string request) -> std::string {
          return HandleMetricsHttp(request);
        },
        [](void*) {});
    Status metrics_started = metrics_loop_->Start(metrics_listen_fd_);
    if (!metrics_started.ok()) {
      Stop();
      return metrics_started;
    }
  }
  return Status::OK();
}

void QueryServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Drain the batcher FIRST: pending leaders wake and flush their groups
  // immediately, and later submissions run solo — so the in-flight
  // statements the loop is about to wait on can never be parked on a batch
  // window waiting for company that will not arrive. No PREDICT waiter is
  // dropped: drained batches run normally, they just stop waiting.
  batcher_->Shutdown();
  // Severs connections, finishes in-flight handlers, joins every thread.
  if (event_loop_ != nullptr) event_loop_->Stop();
  if (metrics_loop_ != nullptr) {
    metrics_loop_->Stop();
    metrics_loop_.reset();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (metrics_listen_fd_ >= 0) {
    ::close(metrics_listen_fd_);
    metrics_listen_fd_ = -1;
    bound_metrics_port_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(slow_log_mu_);
    if (slow_log_ != nullptr) {
      std::fclose(slow_log_);
      slow_log_ = nullptr;
    }
  }
  if (!options_.unix_socket_path.empty()) {
    ::unlink(options_.unix_socket_path.c_str());
  }
}

ServerResponse QueryServer::ErrorResponse(const Status& status) {
  ServerResponse response;
  response.kind = status.code() == StatusCode::kServerBusy
                      ? ServerResponseKind::kBusy
                      : ServerResponseKind::kError;
  response.code = status.code();
  response.message = status.message();
  return response;
}

ServerResponse QueryServer::HandleRequest(Session* session,
                                          const ClientRequest& request) {
  switch (request.command) {
    case ClientCommand::kPing: {
      ServerResponse response;
      response.kind = ServerResponseKind::kAck;
      response.message = "pong";
      return response;
    }
    case ClientCommand::kExecute:
      return HandleExecute(session, request.statement_name, request.params);
    case ClientCommand::kQuery:
      return HandleStatement(session, request.sql);
  }
  return ErrorResponse(Status::InvalidArgument("unhandled client command"));
}

ServerResponse QueryServer::HandleStatement(Session* session,
                                            const std::string& sql) {
  std::string text = TrimString(sql);
  while (!text.empty() && text.back() == ';') {
    text.pop_back();
    text = TrimString(text);
  }
  if (text.empty()) {
    return ErrorResponse(Status::ParseError("empty statement"));
  }
  std::size_t pos = 0;
  const std::string verb = ToUpper(NextWord(text, &pos));
  if (verb == "PREPARE") {
    return HandlePrepare(session, RestFrom(text, pos));
  }
  if (verb == "EXECUTE") {
    const std::string name = NextWord(text, &pos);
    if (name.empty()) {
      return ErrorResponse(
          Status::ParseError("EXECUTE expects a statement name"));
    }
    auto params = ParseParamList(RestFrom(text, pos));
    if (!params.ok()) return ErrorResponse(params.status());
    return HandleExecute(session, name, params.value());
  }
  if (verb == "SET") {
    return HandleSet(session, RestFrom(text, pos));
  }
  if (verb == "EXPLAIN") {
    std::size_t peek = pos;
    if (ToUpper(NextWord(text, &peek)) == "ANALYZE") {
      return HandleExplainAnalyze(session, RestFrom(text, peek));
    }
    return HandleExplain(session, RestFrom(text, pos));
  }
  if (verb == "TRACE") {
    return HandleTrace(session, RestFrom(text, pos));
  }
  if (verb == "SHOW") {
    const std::string what = ToUpper(NextWord(text, &pos));
    if (what == "STATS") return ShowStats();
    if (what == "METRICS") {
      ServerResponse response;
      response.kind = ServerResponseKind::kAck;
      response.message = RenderMetrics();
      return response;
    }
    if (what == "TRACE") {
      ServerResponse response;
      response.kind = ServerResponseKind::kAck;
      response.message =
          session->last_trace_tree().empty()
              ? "(no trace recorded; SET trace = on or TRACE <statement>)"
              : session->last_trace_tree();
      return response;
    }
    return ErrorResponse(Status::ParseError(
        "expected SHOW STATS, SHOW METRICS, or SHOW TRACE"));
  }
  if (verb == "CREATE") {
    return HandleCreateView(session, RestFrom(text, pos));
  }
  if (verb == "DROP") {
    const std::string what = ToUpper(NextWord(text, &pos));
    const std::string name = NextWord(text, &pos);
    if (what != "VIEW" || name.empty()) {
      return ErrorResponse(Status::ParseError("expected DROP VIEW <name>"));
    }
    Status dropped = session->DropView(name);
    if (!dropped.ok()) return ErrorResponse(dropped);
    ServerResponse response;
    response.kind = ServerResponseKind::kAck;
    response.message = "dropped view '" + name + "'";
    return response;
  }
  return RunStatement(session, text);
}

ServerResponse QueryServer::HandleSet(Session* session,
                                      const std::string& rest) {
  // Accept `SET key = value` and `SET key value`.
  std::string key;
  std::string value;
  const std::size_t eq = rest.find('=');
  if (eq != std::string::npos) {
    key = TrimString(rest.substr(0, eq));
    value = TrimString(rest.substr(eq + 1));
  } else {
    std::size_t pos = 0;
    key = NextWord(rest, &pos);
    value = RestFrom(rest, pos);
  }
  if (key.empty() || value.empty()) {
    return ErrorResponse(Status::ParseError("expected SET <knob> = <value>"));
  }
  Status applied = session->ApplySet(key, value);
  if (!applied.ok()) return ErrorResponse(applied);
  ServerResponse response;
  response.kind = ServerResponseKind::kAck;
  response.message = "SET " + ToLower(key) + " = " + value;
  return response;
}

ServerResponse QueryServer::HandleCreateView(Session* session,
                                             const std::string& rest) {
  std::size_t pos = 0;
  std::string word = ToUpper(NextWord(rest, &pos));
  if (word == "TEMP" || word == "TEMPORARY") {
    word = ToUpper(NextWord(rest, &pos));
  }
  if (word != "VIEW") {
    return ErrorResponse(
        Status::ParseError("expected CREATE [TEMP] VIEW <name> AS <select>"));
  }
  const std::string name = NextWord(rest, &pos);
  const std::string as = ToUpper(NextWord(rest, &pos));
  const std::string body = RestFrom(rest, pos);
  if (name.empty() || as != "AS" || body.empty()) {
    return ErrorResponse(
        Status::ParseError("expected CREATE [TEMP] VIEW <name> AS <select>"));
  }
  Status valid_name = ValidateViewName(name);
  if (!valid_name.ok()) return ErrorResponse(valid_name);
  // Validate the body now (against the session's existing views) so a
  // broken view fails its CREATE, not every later statement that uses it.
  bool cache_hit = false;
  auto planned =
      PlanStatement(session, session->RewriteWithViews(body), &cache_hit);
  if (!planned.ok()) return ErrorResponse(planned.status());
  if ((*planned)->param_count > 0) {
    return ErrorResponse(Status::InvalidArgument(
        "views cannot contain ? placeholders (prepare a statement instead)"));
  }
  session->PutView(name, body);
  ServerResponse response;
  response.kind = ServerResponseKind::kAck;
  response.message = "created view '" + name + "'";
  return response;
}

ServerResponse QueryServer::HandlePrepare(Session* session,
                                          const std::string& rest) {
  std::size_t pos = 0;
  const std::string name = NextWord(rest, &pos);
  const std::string as = ToUpper(NextWord(rest, &pos));
  const std::string body = RestFrom(rest, pos);
  if (name.empty() || as != "AS" || body.empty()) {
    return ErrorResponse(
        Status::ParseError("expected PREPARE <name> AS <select>"));
  }
  const std::string rewritten = session->RewriteWithViews(body);
  // Version read BEFORE planning: if the catalog mutates mid-plan, the
  // template looks stale on the next EXECUTE and re-plans — never the
  // other way around (a stale plan that looks permanently fresh).
  const std::int64_t planned_version = ctx_->catalog().version();
  bool cache_hit = false;
  auto planned = PlanStatement(session, rewritten, &cache_hit);
  if (!planned.ok()) return ErrorResponse(planned.status());
  PreparedStatement prepared;
  prepared.name = name;
  prepared.sql = rewritten;
  prepared.plan = (*planned)->plan;
  prepared.param_count = (*planned)->param_count;
  prepared.fingerprint = (*planned)->fingerprint;
  prepared.catalog_version = planned_version;
  prepared.profile = session->PlanProfile();
  session->prepared()[name] = std::move(prepared);
  statements_prepared_.fetch_add(1, std::memory_order_relaxed);
  ServerResponse response;
  response.kind = ServerResponseKind::kAck;
  response.message = "prepared '" + name + "' (" +
                     std::to_string((*planned)->param_count) +
                     " parameters)";
  return response;
}

ServerResponse QueryServer::HandleExecute(Session* session,
                                          const std::string& name,
                                          const std::vector<double>& params) {
  auto it = session->prepared().find(name);
  if (it == session->prepared().end()) {
    return ErrorResponse(
        Status::NotFound("no prepared statement named '" + name + "'"));
  }
  PreparedStatement& prepared = it->second;
  // Prepared executions trace like plain statements (re-plan spans
  // included) when the session asked for tracing.
  std::unique_ptr<obs::Trace> trace;
  if (session->trace_enabled() || session->slow_query_millis() > 0) {
    trace = std::make_unique<obs::Trace>();
  }
  Timer timer;
  bool cache_hit = true;
  if (prepared.catalog_version != ctx_->catalog().version() ||
      prepared.profile != session->PlanProfile()) {
    // The template went stale: the catalog moved since PREPARE (model
    // update, new table) or a SET changed the costing targets it was
    // optimized for. Re-plan from the stored text — same policy as the
    // plan cache, applied to the session-pinned template. Version read
    // before planning, same staleness direction as HandlePrepare.
    const std::int64_t planned_version = ctx_->catalog().version();
    auto replanned =
        PlanStatement(session, prepared.sql, &cache_hit, trace.get());
    if (!replanned.ok()) return ErrorResponse(replanned.status());
    prepared.plan = (*replanned)->plan;
    prepared.param_count = (*replanned)->param_count;
    prepared.fingerprint = (*replanned)->fingerprint;
    prepared.catalog_version = planned_version;
    prepared.profile = session->PlanProfile();
  }
  if (static_cast<std::int64_t>(params.size()) != prepared.param_count) {
    return ErrorResponse(Status::InvalidArgument(
        "prepared statement '" + name + "' takes " +
        std::to_string(prepared.param_count) + " parameters, got " +
        std::to_string(params.size())));
  }
  prepared_executions_.fetch_add(1, std::memory_order_relaxed);
  ServerResponse response;
  if (prepared.param_count == 0) {
    response = ExecutePlan(session, *prepared.plan, cache_hit, trace.get());
  } else {
    auto bound = ir::BindPlanParameters(*prepared.plan->root(), params);
    if (!bound.ok()) return ErrorResponse(bound.status());
    const ir::IrPlan bound_plan(std::move(bound).value());
    response = ExecutePlan(session, bound_plan, cache_hit, trace.get());
  }
  if (trace != nullptr) {
    FinishTrace(session, "EXECUTE " + name, timer.ElapsedMillis(),
                trace.get());
  }
  return response;
}

ServerResponse QueryServer::HandleExplain(Session* session,
                                          const std::string& body) {
  if (body.empty()) {
    return ErrorResponse(Status::ParseError("EXPLAIN expects a statement"));
  }
  // Explain re-runs analyze + optimize (never cached — it is a diagnostic,
  // not a hot path). Costing targets come from the server's default
  // execution options, not the session.
  auto explained = ctx_->Explain(session->RewriteWithViews(body),
                                 options_.default_execution);
  if (!explained.ok()) return ErrorResponse(explained.status());
  std::string text = std::move(explained).value();
  // The plan text reports which PREDICT nodes are batch-eligible; whether
  // they actually coalesce is this session's knob state — append it so one
  // round trip answers both questions.
  const runtime::ExecutionOptions& exec = session->execution();
  text += "=== Session batching knobs ===\n";
  text += "  batch_window_micros = " +
          std::to_string(exec.predict_batch_window_micros);
  if (exec.predict_batch_window_micros <= 0) {
    text += "  (0: batch-eligible nodes run per-morsel, uncoalesced)";
  }
  text += "\n  max_batch_rows = " +
          std::to_string(exec.predict_max_batch_rows) + "\n";
  // Backend selection + profiling: which kernel set this session's PREDICT
  // sessions bind, the fp16 accuracy caveat, and the cumulative per-op cost
  // breakdown the profiling hooks have gathered so far (cache-wide).
  text += "=== NNRT backend ===\n";
  text += "  nn_backend = ";
  text += nnrt::BackendKindToString(exec.nn_backend);
  if (exec.nn_backend == nnrt::BackendKind::kFp16) {
    text +=
        "  (outputs rounded to fp16 per op: faster dense math, "
        "approximate scores — see docs/OPERATIONS.md for the tolerance)";
  }
  text += "\n";
  const std::vector<nnrt::OpProfile> ops =
      ctx_->session_cache().profiler().Snapshot();
  if (!ops.empty()) {
    text += "  per-op profile (cumulative, all sessions):\n";
    std::size_t shown = 0;
    for (const nnrt::OpProfile& op : ops) {
      if (++shown > 8) break;
      text += "    " + op.op_type + ": calls=" + std::to_string(op.calls) +
              " micros=" + std::to_string(static_cast<std::int64_t>(
                               op.wall_micros)) +
              " flops=" +
              std::to_string(static_cast<std::int64_t>(op.flops)) + "\n";
    }
  }
  ServerResponse response;
  response.kind = ServerResponseKind::kAck;
  response.message = std::move(text);
  return response;
}

ServerResponse QueryServer::RunStatement(Session* session,
                                         const std::string& sql,
                                         bool force_trace) {
  std::unique_ptr<obs::Trace> trace;
  if (force_trace || session->trace_enabled() ||
      session->slow_query_millis() > 0) {
    trace = std::make_unique<obs::Trace>();
  }
  Timer timer;
  const std::int64_t rewrite_span =
      trace != nullptr ? trace->StartSpan("rewrite_views") : 0;
  const std::string rewritten = session->RewriteWithViews(sql);
  if (trace != nullptr) trace->EndSpan(rewrite_span);
  bool cache_hit = false;
  auto planned = PlanStatement(session, rewritten, &cache_hit, trace.get());
  if (!planned.ok()) return ErrorResponse(planned.status());
  if ((*planned)->param_count > 0) {
    return ErrorResponse(Status::InvalidArgument(
        "statement has ? placeholders; use PREPARE/EXECUTE to bind them"));
  }
  ServerResponse response =
      ExecutePlan(session, *(*planned)->plan, cache_hit, trace.get());
  if (trace != nullptr) {
    FinishTrace(session, sql, timer.ElapsedMillis(), trace.get());
  }
  return response;
}

ServerResponse QueryServer::HandleTrace(Session* session,
                                        const std::string& rest) {
  if (rest.empty()) {
    return ErrorResponse(Status::ParseError("TRACE expects a statement"));
  }
  // Execute exactly like the plain statement (same plan cache, admission,
  // knobs) with the trace forced on; the response is the span tree, not
  // the result rows — TRACE is the diagnostic form of the statement.
  ServerResponse executed = RunStatement(session, rest, /*force_trace=*/true);
  if (executed.kind == ServerResponseKind::kError ||
      executed.kind == ServerResponseKind::kBusy) {
    return executed;
  }
  ServerResponse response;
  response.kind = ServerResponseKind::kAck;
  response.message = session->last_trace_tree();
  return response;
}

ServerResponse QueryServer::HandleExplainAnalyze(Session* session,
                                                 const std::string& body) {
  if (body.empty()) {
    return ErrorResponse(
        Status::ParseError("EXPLAIN ANALYZE expects a statement"));
  }
  bool cache_hit = false;
  auto planned =
      PlanStatement(session, session->RewriteWithViews(body), &cache_hit);
  if (!planned.ok()) return ErrorResponse(planned.status());
  if ((*planned)->param_count > 0) {
    return ErrorResponse(Status::InvalidArgument(
        "EXPLAIN ANALYZE cannot bind ? placeholders; inline the values"));
  }
  // EXPLAIN ANALYZE really executes, so it takes an admission slot like
  // any statement and its counters feed the serving totals.
  auto ticket = admission_.Admit();
  if (!ticket.ok()) return ErrorResponse(ticket.status());
  auto analyzed =
      ctx_->ExplainAnalyzePlan(*(*planned)->plan, session->execution());
  if (!analyzed.ok()) return ErrorResponse(analyzed.status());
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  blocks_scanned_.fetch_add(analyzed->stats.blocks_scanned,
                            std::memory_order_relaxed);
  blocks_skipped_.fetch_add(analyzed->stats.blocks_skipped,
                            std::memory_order_relaxed);
  c_programs_compiled_->Add(analyzed->stats.programs_compiled);
  worker_restarts_.fetch_add(analyzed->stats.worker_restarts,
                             std::memory_order_relaxed);
  ServerResponse response;
  response.kind = ServerResponseKind::kAck;
  response.message = std::move(analyzed->text);
  response.plan_cache_hit = cache_hit;
  return response;
}

void QueryServer::FinishTrace(Session* session, const std::string& sql,
                              double total_millis, obs::Trace* trace) {
  const std::string json = trace->RenderJsonLine(
      sql, static_cast<std::int64_t>(total_millis * 1000.0));
  const std::int64_t threshold = session->slow_query_millis();
  if (threshold > 0 && total_millis >= static_cast<double>(threshold)) {
    slow_queries_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(slow_log_mu_);
    if (slow_log_ != nullptr) {
      std::fputs(json.c_str(), slow_log_);
      std::fputc('\n', slow_log_);
      std::fflush(slow_log_);
    }
  }
  session->SetLastTrace(trace->RenderTree(), json);
}

std::string QueryServer::RenderMetrics() {
  const ServerStats s = Snapshot();
  std::lock_guard<std::mutex> lock(scrape_mu_);
  c_queries_served_->Set(s.queries_served);
  c_plan_cache_hits_->Set(s.plan_cache.hits);
  c_plan_cache_misses_->Set(s.plan_cache.misses);
  c_queries_shed_->Set(s.admission.shed);
  c_sessions_opened_->Set(s.sessions_opened);
  c_worker_restarts_->Set(s.worker_restarts);
  c_blocks_scanned_->Set(s.blocks_scanned);
  c_blocks_skipped_->Set(s.blocks_skipped);
  c_batches_flushed_->Set(s.batches_flushed);
  c_rows_coalesced_->Set(s.rows_coalesced);
  c_nn_session_hits_->Set(s.nn_session_hits);
  c_nn_session_misses_->Set(s.nn_session_misses);
  c_nn_op_micros_->Set(s.nn_op_micros);
  c_epoll_wakeups_->Set(s.epoll_wakeups);
  c_slow_queries_->Set(s.slow_queries);
  g_sessions_active_->Set(static_cast<double>(s.sessions_active));
  g_queries_active_->Set(static_cast<double>(s.admission.active));
  g_queries_queued_->Set(static_cast<double>(s.admission.queued));
  g_plan_cache_entries_->Set(static_cast<double>(s.plan_cache.entries));
  const std::int64_t lookups = s.plan_cache.hits + s.plan_cache.misses;
  g_plan_cache_hit_ratio_->Set(
      lookups > 0 ? static_cast<double>(s.plan_cache.hits) /
                        static_cast<double>(lookups)
                  : 0.0);
  g_batch_occupancy_->Set(static_cast<double>(s.batch_occupancy));
  if (event_loop_ != nullptr) {
    g_connections_open_->Set(
        static_cast<double>(event_loop_->stats().connections_open));
  }
  return metrics_.Render();
}

std::string QueryServer::HandleMetricsHttp(const std::string& request) {
  // Request line: METHOD SP PATH SP VERSION. Anything that is not a GET of
  // /metrics is a 404 — the endpoint is a scrape target, not a web server.
  std::string path;
  const std::size_t sp1 = request.find(' ');
  if (sp1 != std::string::npos) {
    const std::size_t sp2 = request.find(' ', sp1 + 1);
    if (sp2 != std::string::npos) path = request.substr(sp1 + 1, sp2 - sp1 - 1);
  }
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  std::string status_line = "HTTP/1.0 404 Not Found";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body = "not found; scrape /metrics\n";
  if (path == "/metrics" || path == "/metrics/") {
    status_line = "HTTP/1.0 200 OK";
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = RenderMetrics();
  }
  return status_line + "\r\nContent-Type: " + content_type +
         "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n" + body;
}

Result<std::shared_ptr<const CachedPlan>> QueryServer::PlanStatement(
    Session* session, const std::string& sql, bool* cache_hit,
    obs::Trace* trace) {
  const std::int64_t lookup_span =
      trace != nullptr ? trace->StartSpan("plan_cache.lookup") : 0;
  auto normalized_or = frontend::NormalizeSql(sql);
  if (!normalized_or.ok()) return normalized_or.status();
  const std::string normalized = std::move(normalized_or).value();
  // The profile is the LAST \x1f-delimited segment and is machine-generated
  // (Session::PlanProfile must never emit \x1f): however the SQL segment
  // re-segments — string literals CAN carry arbitrary bytes — the final
  // separator still delimits the profile unambiguously, so two different
  // (sql, profile) pairs can't produce the same key.
  const std::string key = normalized + '\x1f' + session->PlanProfile();
  const std::int64_t version = ctx_->catalog().version();
  if (auto cached = plan_cache_.Get(key, version)) {
    *cache_hit = true;
    if (trace != nullptr) trace->EndSpan(lookup_span, "hit");
    return cached;
  }
  *cache_hit = false;
  if (trace != nullptr) trace->EndSpan(lookup_span, "miss");
  RAVEN_ASSIGN_OR_RETURN(std::shared_ptr<const CachedPlan> fresh,
                         PlanFresh(sql, trace));
  plan_cache_.Put(key, version, fresh);
  return fresh;
}

Result<std::shared_ptr<const CachedPlan>> QueryServer::PlanFresh(
    const std::string& sql, obs::Trace* trace) {
  // The analyzer is stateless, the catalog thread-safe and the optimizer
  // read-only once set up, so planning runs concurrently across sessions.
  // Optimize never reads the costing targets (the only options that
  // depend on the session); only EXPLAIN costs plans.
  const std::int64_t parse_span =
      trace != nullptr ? trace->StartSpan("parse") : 0;
  RAVEN_ASSIGN_OR_RETURN(ir::IrPlan plan, ctx_->analyzer().Analyze(sql));
  if (trace != nullptr) trace->EndSpan(parse_span);
  const std::int64_t optimize_span =
      trace != nullptr ? trace->StartSpan("optimize") : 0;
  RAVEN_RETURN_IF_ERROR(ctx_->cross_optimizer().Optimize(&plan));
  if (trace != nullptr) trace->EndSpan(optimize_span);
  auto cached = std::make_shared<CachedPlan>();
  cached->param_count = ir::PlanParamCount(*plan.root());
  cached->fingerprint = ir::PlanFingerprint(*plan.root());
  cached->plan = std::make_shared<const ir::IrPlan>(std::move(plan));
  return std::shared_ptr<const CachedPlan>(std::move(cached));
}

ServerResponse QueryServer::ExecutePlan(Session* session,
                                        const ir::IrPlan& plan,
                                        bool cache_hit, obs::Trace* trace) {
  Timer timer;
  const std::int64_t admit_span =
      trace != nullptr ? trace->StartSpan("admission.wait") : 0;
  auto ticket = admission_.Admit();
  if (trace != nullptr) {
    trace->EndSpan(admit_span,
                   ticket.ok() ? "wait_micros=" +
                                     std::to_string(static_cast<std::int64_t>(
                                         ticket->queue_wait_micros()))
                               : "shed");
  }
  if (!ticket.ok()) return ErrorResponse(ticket.status());
  runtime::ExecutionStats stats;
  runtime::ExecutionOptions exec = session->execution();
  exec.trace = trace;
  auto result = ctx_->executor().Execute(plan, exec, &stats);
  // The serving-path fields of ExecutionStats are filled here — the
  // response below is built FROM the stats, so an embedder reading the
  // stats and a client reading the response see the same numbers.
  stats.plan_cache_hit = cache_hit;
  stats.queue_wait_micros = ticket->queue_wait_micros();
  worker_restarts_.fetch_add(stats.worker_restarts,
                             std::memory_order_relaxed);
  blocks_scanned_.fetch_add(stats.blocks_scanned, std::memory_order_relaxed);
  blocks_skipped_.fetch_add(stats.blocks_skipped, std::memory_order_relaxed);
  c_programs_compiled_->Add(stats.programs_compiled);
  if (!result.ok()) return ErrorResponse(result.status());
  const std::int64_t row_cap = options_.admission.max_result_rows;
  if (row_cap > 0 && result->num_rows() > row_cap) {
    return ErrorResponse(Status::ExecutionError(
        "result has " + std::to_string(result->num_rows()) +
        " rows, over the per-query cap of " + std::to_string(row_cap)));
  }
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  ServerResponse response;
  response.kind = ServerResponseKind::kTable;
  response.table = std::move(result).value();
  response.plan_cache_hit = stats.plan_cache_hit;
  response.queue_wait_micros = stats.queue_wait_micros;
  response.total_millis = timer.ElapsedMillis();
  // Push-style latency observations: histograms can't be reconstructed at
  // scrape time from totals, so they're fed on the query path (lock-free
  // bucket increments — the only metrics work the hot path does).
  h_query_latency_->Observe(response.total_millis / 1000.0);
  h_queue_wait_->Observe(stats.queue_wait_micros / 1e6);
  h_query_rows_->Observe(static_cast<double>(response.table.num_rows()));
  return response;
}

ServerResponse QueryServer::ShowStats() const {
  ServerResponse response;
  response.kind = ServerResponseKind::kStats;
  response.stats = Snapshot().ToPairs();
  return response;
}

ServerStats QueryServer::Snapshot() const {
  ServerStats stats;
  stats.plan_cache = plan_cache_.stats();
  stats.admission = admission_.stats();
  stats.queries_served = queries_served_.load(std::memory_order_relaxed);
  stats.statements_prepared =
      statements_prepared_.load(std::memory_order_relaxed);
  stats.prepared_executions =
      prepared_executions_.load(std::memory_order_relaxed);
  stats.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  stats.sessions_active = sessions_active_.load(std::memory_order_relaxed);
  stats.worker_restarts = worker_restarts_.load(std::memory_order_relaxed);
  stats.blocks_scanned = blocks_scanned_.load(std::memory_order_relaxed);
  stats.blocks_skipped = blocks_skipped_.load(std::memory_order_relaxed);
  stats.catalog_version = ctx_->catalog().version();
  const PredictBatcher::Stats batcher = batcher_->stats();
  stats.batches_flushed = batcher.batches_flushed;
  stats.rows_coalesced = batcher.rows_coalesced;
  stats.batch_occupancy = ServerStats::BatchOccupancyX100(
      batcher.rows_flushed, batcher.batches_flushed);
  if (event_loop_ != nullptr) {
    stats.epoll_wakeups = event_loop_->stats().epoll_wakeups;
  }
  const nnrt::SessionCacheStats nn = ctx_->session_cache().stats();
  stats.nn_session_hits = static_cast<std::int64_t>(nn.hits);
  stats.nn_session_misses = static_cast<std::int64_t>(nn.misses);
  stats.nn_session_evictions = static_cast<std::int64_t>(nn.evictions);
  stats.nn_session_entries = static_cast<std::int64_t>(nn.entries);
  stats.nn_graph_optimizations =
      static_cast<std::int64_t>(nn.graph_optimizations);
  stats.nn_artifact_hits = static_cast<std::int64_t>(nn.artifact_hits);
  stats.nn_artifact_writes = static_cast<std::int64_t>(nn.artifact_writes);
  stats.nn_artifact_rejects = static_cast<std::int64_t>(nn.artifact_rejects);
  const nnrt::OpProfiler& profiler = ctx_->session_cache().profiler();
  stats.nn_ops_profiled = profiler.total_calls();
  stats.nn_op_micros =
      static_cast<std::int64_t>(profiler.total_micros());
  stats.slow_queries = slow_queries_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace raven::server
