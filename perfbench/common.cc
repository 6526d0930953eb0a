#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>

#include "common/serialize.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double NowMicros() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) {
    std::fprintf(stderr, "perfbench: cannot reset peak RSS; peak_rss_mb "
                         "covers the whole process\n");
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void Die(const std::string& what, const raven::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::int64_t Rng::Int(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<std::int64_t>(Next() % span);
}

std::string TableBytes(const raven::relational::Table& table) {
  raven::BinaryWriter writer;
  table.Serialize(&writer);
  return writer.Release();
}

int SpanLog::Add(std::string name, double start_us, double end_us, int parent,
                 std::int64_t stmt) {
  spans_.push_back(Span{std::move(name), start_us, end_us, parent, stmt});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::Append(const SpanLog& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
}

bool SpanLog::WriteTsv(const std::string& path,
                       const std::string& header) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "# " << header << "\n";
  out << "name\tstart_us\tend_us\tparent\tstmt\n";
  for (const Span& span : spans_) {
    out << span.name << '\t' << span.start_us << '\t' << span.end_us << '\t'
        << span.parent << '\t' << span.stmt << '\n';
  }
  return static_cast<bool>(out);
}

Coverage ComputeCoverage(const SpanLog& log) {
  // Child intervals of one parent never overlap in this driver (they are
  // sequential calls or disjoint server-side parts), so a parent's covered
  // time is the sum of its direct children's durations.
  const std::vector<Span>& spans = log.spans();
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_us[static_cast<std::size_t>(span.parent)] +=
          span.end_us - span.start_us;
    }
  }
  Coverage coverage;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    const double wall = spans[i].end_us - spans[i].start_us;
    coverage.statement_us += wall;
    coverage.unattributed_us += std::max(0.0, wall - child_us[i]);
  }
  return coverage;
}

HostSampler::Sample HostSampler::Read() {
  // "cpu  user nice system idle iowait irq softirq steal ..." in jiffies.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  Sample sample{NowMicros(), 0.0, 0.0, perfbench::CpuSeconds()};
  for (int field = 0; field < 8; ++field) {
    double jiffies = 0.0;
    if (!(stat >> jiffies)) break;
    sample.total += jiffies;
    if (field == 7) sample.steal = jiffies;
  }
  return sample;
}

void HostSampler::Start() {
  samples_.push_back(Read());
  thread_ = std::thread([this] {
    const auto origin = std::chrono::steady_clock::now();
    const auto period = std::chrono::microseconds(
        static_cast<std::int64_t>(kWindowMicros));
    for (int k = 1; !stop_.load(); ++k) {
      // Short sleeps so Stop() returns promptly.
      const auto due = origin + k * period;
      while (!stop_.load() && std::chrono::steady_clock::now() < due) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      samples_.push_back(Read());
    }
  });
}

void HostSampler::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true);
  thread_.join();
}

void LoopTally::Merge(const LoopTally& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  done_us.insert(done_us.end(), other.done_us.begin(), other.done_us.end());
  attempted += other.attempted;
  failed += other.failed;
  wrong += other.wrong;
  if (first_error.empty()) first_error = other.first_error;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

namespace {

using raven::runtime::OperatorStats;

using SlotMap =
    std::map<const void*, std::vector<const OperatorStats*>>;

double Busy(const OperatorStats& op) { return op.wall_micros + op.open_micros; }

/// Time of the operators directly below `node` in the physical plan: the
/// nearest descendants that own stats slots. A materialized subtree is read
/// back through its rescan slot, so only that slot counts for the parent.
double ChildBusy(const raven::ir::IrNode& node, const SlotMap& slots) {
  double total = 0.0;
  for (const auto& child : node.children) {
    auto it = slots.find(child.get());
    if (it == slots.end()) {
      total += ChildBusy(*child, slots);
      continue;
    }
    const OperatorStats* rescan = nullptr;
    for (const OperatorStats* op : it->second) {
      if (StartsWith(op->op, "Materialized(")) rescan = op;
    }
    if (rescan != nullptr) {
      total += Busy(*rescan);
    } else {
      for (const OperatorStats* op : it->second) total += Busy(*op);
    }
  }
  return total;
}

void AccumulateSelfTimes(const raven::ir::IrNode& node, const SlotMap& slots,
                         LayerTotals* t) {
  auto it = slots.find(&node);
  if (it != slots.end()) {
    const double below = ChildBusy(node, slots);
    for (const OperatorStats* op : it->second) {
      const bool rescan = StartsWith(op->op, "Materialized(");
      AddOperatorSelfTime(
          op->op, rescan ? Busy(*op) : std::max(0.0, Busy(*op) - below),
          op->rows, t);
    }
  }
  for (const auto& child : node.children) {
    AccumulateSelfTimes(*child, slots, t);
  }
}

}  // namespace

void AddOperatorSelfTime(const std::string& op, double self_us,
                         std::int64_t rows, LayerTotals* t) {
  if (StartsWith(op, "Materialized(") || StartsWith(op, "Scan(")) {
    t->scan_us += self_us;
  } else if (StartsWith(op, "DiskScan(")) {
    t->scan_us += self_us;
    t->disk_scan_us += self_us;
    t->disk_scan_rows += static_cast<double>(rows);
  } else if (StartsWith(op, "Fused[")) {
    t->fused_us += self_us;
  } else if (op == "HashJoin") {
    t->join_us += self_us;
  } else if (op == "GroupBy" || op == "Aggregate") {
    t->groupby_us += self_us;
  } else if (op == "Sort") {
    t->sort_us += self_us;
  } else {
    t->other_us += self_us;
  }
}

void AccumulateExecution(const raven::ir::IrNode& root,
                         const raven::runtime::ExecutionStats& stats,
                         LayerTotals* t) {
  SlotMap slots;
  for (const OperatorStats& op : stats.operators) {
    slots[op.node].push_back(&op);
  }
  AccumulateSelfTimes(root, slots, t);
  t->morsels += static_cast<double>(stats.morsels);
  t->fused_chains += static_cast<double>(stats.fused_chains);
  t->score_us += stats.nn_wall_micros;
  t->rows_scored += static_cast<double>(stats.rows_out);
  t->predict_calls += static_cast<double>(stats.predict_batches);
  t->blocks_scanned += static_cast<double>(stats.blocks_scanned);
  t->blocks_skipped += static_cast<double>(stats.blocks_skipped);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
}

std::string Report::Json(bool correct, std::int64_t attempted,
                         std::int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, entry] : metrics_) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.17g", entry.first);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           entry.second + "\"}";
  }
  out += "}}";
  return out;
}

void AddEndToEnd(const LoopTally& tally, double setup_s,
                 const HostSampler& host, Report* report) {
  // On a shared host, other guests' bursts of CPU steal slow this program
  // several times more than the stolen share (a statement waits for all of
  // its morsel workers and for the optimizer lock). The metrics come from
  // the loop's quietest windows, so that a neighbour's burst moves them
  // less than a change to the program does. A window is the span between
  // two consecutive samples; a last one under half the period is dropped.
  using Sample = HostSampler::Sample;
  const std::vector<Sample>& samples = host.samples();
  std::vector<std::pair<double, std::size_t>> by_steal;  // (steal share, i)
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    const Sample& a = samples[i];
    const Sample& b = samples[i + 1];
    if (b.at_us - a.at_us < kWindowMicros / 2) continue;
    by_steal.push_back(
        {b.total > a.total ? (b.steal - a.steal) / (b.total - a.total) : 0.0,
         i});
  }
  std::stable_sort(by_steal.begin(), by_steal.end());
  by_steal.resize(static_cast<std::size_t>(
      std::ceil(kKeptWindowShare * static_cast<double>(by_steal.size()))));
  std::vector<bool> keep(samples.size(), false);
  double kept_s = 0.0;
  double cpu_s = 0.0;
  double kept_steal = 0.0;
  for (const auto& [steal, i] : by_steal) {
    keep[i] = true;
    kept_s += (samples[i + 1].at_us - samples[i].at_us) * 1e-6;
    cpu_s += samples[i + 1].cpu_s - samples[i].cpu_s;
    kept_steal += steal / static_cast<double>(by_steal.size());
  }
  std::vector<double> latency_ms;
  for (std::size_t j = 0; j < tally.done_us.size(); ++j) {
    // The window whose span holds the completion time.
    const auto after = std::upper_bound(
        samples.begin(), samples.end(), tally.done_us[j],
        [](double t, const Sample& s) { return t < s.at_us; });
    if (after == samples.begin() || after == samples.end()) continue;
    if (keep[static_cast<std::size_t>(after - samples.begin()) - 1]) {
      latency_ms.push_back(tally.latency_ms[j]);
    }
  }
  const double all_steal =
      samples.size() > 1 && samples.back().total > samples.front().total
          ? (samples.back().steal - samples.front().steal) /
                (samples.back().total - samples.front().total)
          : 0.0;
  std::printf(
      "perfbench windows {\"windows\": %zu, \"kept\": %zu, "
      "\"steal_share\": %.4f, \"kept_steal_share\": %.4f, "
      "\"latency_samples\": %zu}\n",
      samples.empty() ? 0 : samples.size() - 1, by_steal.size(), all_steal,
      kept_steal, latency_ms.size());

  const double done = static_cast<double>(latency_ms.size());
  report->Add("throughput_qps", kept_s > 0 ? done / kept_s : 0.0, "stmt/s");
  report->Add("latency_p50_ms", Percentile(latency_ms, 0.50), "ms");
  report->Add("latency_p95_ms", Percentile(latency_ms, 0.95), "ms");
  report->Add("cpu_ms_per_stmt", done > 0 ? cpu_s * 1e3 / done : 0.0, "ms");
  report->Add("setup_s", setup_s, "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void AddPerLayer(const LayerTotals& t, Report* report) {
  const double n = t.statements > 0 ? static_cast<double>(t.statements) : 1.0;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  report->Add("frontend.analyze_us", t.analyze_us / n, "us");
  report->Add("frontend.normalize_us", t.normalize_us / n, "us");
  report->Add("optimizer.optimize_us", t.optimize_us / n, "us");
  report->Add("optimizer.rules_fired", t.rules_fired / n, "count");

  report->Add("server.plan_cache.hit_ratio",
              ratio(static_cast<double>(t.plan_hits), n), "ratio");
  report->Add("server.plan_cache.evictions_per_kstmt",
              1000.0 * static_cast<double>(t.plan_evictions) / n, "1/kstmt");
  report->Add("server.plan_cache.invalidations_per_kstmt",
              1000.0 * static_cast<double>(t.plan_invalidations) / n,
              "1/kstmt");
  report->Add("server.statement_ms", t.server_statement_ms / n, "ms");
  report->Add("server.transport_us", t.transport_us / n, "us");
  report->Add("server.queue_wait_us_p50", Percentile(t.queue_wait_us, 0.50),
              "us");
  report->Add("server.queue_wait_us_p95", Percentile(t.queue_wait_us, 0.95),
              "us");
  report->Add("server.admission.shed", static_cast<double>(t.shed), "count");
  report->Add("server.epoll_wakeups_per_stmt",
              static_cast<double>(t.epoll_wakeups) / n, "count");
  report->Add("server.batcher.rows_per_flush",
              ratio(static_cast<double>(t.batcher_rows_flushed),
                    static_cast<double>(t.batcher_batches)),
              "rows");
  report->Add("server.batcher.coalesced_ratio",
              ratio(static_cast<double>(t.batcher_rows_coalesced),
                    static_cast<double>(t.batcher_rows_submitted)),
              "ratio");

  report->Add("runtime.execute_ms", t.execute_ms / n, "ms");
  report->Add("runtime.parallel_efficiency",
              ratio(t.execute_busy_s, t.execute_wall_dop_s), "ratio");
  report->Add("runtime.morsels", t.morsels / n, "count");
  report->Add("runtime.fused_chains", t.fused_chains / n, "count");

  report->Add("relational.scan_us", t.scan_us / n, "us");
  report->Add("relational.fused_us", t.fused_us / n, "us");
  report->Add("relational.join_us", t.join_us / n, "us");
  report->Add("relational.groupby_us", t.groupby_us / n, "us");
  report->Add("relational.sort_us", t.sort_us / n, "us");
  report->Add("relational.other_us", t.other_us / n, "us");

  report->Add("nnrt.score_us", t.score_us / n, "us");
  report->Add("nnrt.us_per_row", ratio(t.score_us, t.rows_scored), "us");
  report->Add("nnrt.rows_per_call", ratio(t.rows_scored, t.predict_calls),
              "rows");
  report->Add("nnrt.session_cache.hit_ratio",
              ratio(static_cast<double>(t.session_hits),
                    static_cast<double>(t.session_hits + t.session_misses)),
              "ratio");
  report->Add("nnrt.compiles_per_kstmt",
              1000.0 * static_cast<double>(t.compiles) / n, "1/kstmt");

  report->Add("storage.blocks_skipped_ratio",
              ratio(t.blocks_skipped, t.blocks_scanned + t.blocks_skipped),
              "ratio");
  report->Add("storage.blocks_scanned", t.blocks_scanned / n, "count");
  report->Add("storage.scan_rows_per_s",
              ratio(t.disk_scan_rows, t.disk_scan_us * 1e-6), "rows/s");

  report->Add("trace.overhead_frac",
              ratio(t.traced_mean_ms - t.untraced_mean_ms, t.untraced_mean_ms),
              "ratio");
  report->Add("trace.unattributed_frac",
              ratio(t.unattributed_us, t.statement_us), "ratio");
  report->Add("trace.planning_frac", t.planning_share, "ratio");
}

void SetOverhead(const std::vector<PhaseSample>& untraced,
                 const std::vector<PhaseSample>& traced, LayerTotals* totals) {
  std::map<int, std::pair<double, double>> before;  // shape -> (sum, n)
  std::map<int, std::pair<double, double>> after;
  for (const PhaseSample& s : untraced) {
    before[s.shape].first += s.latency_ms;
    before[s.shape].second += 1;
  }
  for (const PhaseSample& s : traced) {
    after[s.shape].first += s.latency_ms;
    after[s.shape].second += 1;
  }
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  double weight = 0.0;
  for (const auto& [shape, sum_n] : after) {
    auto it = before.find(shape);
    if (it == before.end()) continue;
    untraced_ms += sum_n.second * it->second.first / it->second.second;
    traced_ms += sum_n.first;
    weight += sum_n.second;
  }
  if (weight > 0) {
    totals->untraced_mean_ms = untraced_ms / weight;
    totals->traced_mean_ms = traced_ms / weight;
  }
}

namespace {

std::string HostLine(const Options& options, double setup_s,
                     const std::vector<double>& setup_samples,
                     std::int64_t latency_samples) {
  std::string samples;
  char buf[64];
  for (double s : setup_samples) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", samples.empty() ? "" : ", ", s);
    samples += buf;
  }
  std::snprintf(buf, sizeof(buf), "%.4f", setup_s);
  std::string line = "perfbench host {";
  line += "\"workload\": \"" + options.workload + "\"";
  line += ", \"seed\": " + std::to_string(options.seed);
  line += ", \"trace\": " + std::string(options.trace ? "true" : "false");
  line += ", \"nproc\": " + std::to_string(options.nproc);
  line += ", \"clients\": " + std::to_string(options.clients);
  line += ", \"dop\": " + std::to_string(options.dop);
  const std::string capped = options.nproc < kLoadThreads ? "true" : "false";
  line += ", \"clients_capped\": " + capped;
  line += ", \"dop_capped\": " + capped;
  line += ", \"build_type\": \"" + std::string(PERFBENCH_BUILD_TYPE) + "\"";
  line += ", \"compiler\": \"" + std::string(__VERSION__) + "\"";
  line += ", \"git_sha\": \"" + options.git_sha + "\"";
  line += ", \"setup_s_samples\": [" + samples + "]";
  line += ", \"setup_s\": " + std::string(buf);
  line += ", \"latency_samples\": " + std::to_string(latency_samples);
  line += "}";
  return line;
}

}  // namespace

int Finish(const Options& options, const Report& report,
           const LoopTally& tally, const std::vector<double>& setup_samples,
           const SpanLog& spans) {
  const double setup_s = Median(setup_samples);
  const std::string host =
      HostLine(options, setup_s, setup_samples,
               static_cast<std::int64_t>(tally.latency_ms.size()));
  std::printf("%s\n", host.c_str());
  if (options.trace) {
    const std::string path = options.work_dir + "/spans-" + options.workload +
                             ".tsv";
    if (!spans.WriteTsv(path, host)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    } else {
      std::printf("perfbench spans: %zu written to %s\n",
                  spans.spans().size(), path.c_str());
    }
  }
  const bool correct = tally.wrong == 0 && tally.failed == 0;
  if (!correct) {
    std::fprintf(stderr,
                 "perfbench: %lld of %lld operations failed (%lld wrong "
                 "results); first: %s\n",
                 static_cast<long long>(tally.failed),
                 static_cast<long long>(tally.attempted),
                 static_cast<long long>(tally.wrong),
                 tally.first_error.c_str());
  }
  std::printf("%s\n", report.Json(correct, tally.attempted, tally.failed)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
