#ifndef RAVEN_PERFBENCH_COMMON_H_
#define RAVEN_PERFBENCH_COMMON_H_

// Shared pieces of the benchmark driver: run options and host caps, the
// in-memory span log, result verification against references, closed-loop
// statistics, per-layer accumulation, and the metric report printed as the
// driver's last line. See README.md for what each metric means.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ir/ir.h"
#include "raven/raven.h"
#include "relational/table.h"
#include "runtime/codegen.h"

namespace perfbench {

/// Seed of the draw every model is trained on. Models are fixed artifacts,
/// the same in every run; --seed varies the data they score and the
/// statements, so a seed cannot change what a model costs to evaluate.
inline constexpr std::uint64_t kModelSeed = 20200112;

/// The measured loop is cut into windows of this length, and the end-to-end
/// metrics come from the kKeptWindowShare of them with the least host steal
/// (see AddEndToEnd).
inline constexpr double kWindowMicros = 2.5e5;
inline constexpr double kKeptWindowShare = 1.0 / 6.0;

/// Unmeasured closed-loop seconds before the measured phase: throughput
/// climbs for about a second after the load starts (allocator arenas,
/// caches, thread wake-up paths), and that ramp is not steady state.
inline constexpr double kLoadWarmSeconds = 2.0;

/// Load threads (served workloads) and execution dop before the
/// oversubscription cap: min(kLoadThreads, nproc) is what runs.
inline constexpr int kLoadThreads = 4;

/// Command-line options after the oversubscription caps were applied.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Load threads (served workloads) and execution dop, both
  /// min(kLoadThreads, nproc).
  int clients = kLoadThreads;
  int dop = kLoadThreads;
  int nproc = 1;
  /// Set-up repetitions timed for setup_s (the last one is measured).
  int setup_reps = 9;
  /// Scratch directory for .rvc files, the unix socket and the span dump.
  std::string work_dir = ".bench_build/work";
  /// Flip one byte of reference 0 (the first statement client 0 issues):
  /// the self-test's proof that verification catches a wrong result.
  bool corrupt_reference = false;
  /// Free-form provenance passed in by run.py (git sha, compiler).
  std::string git_sha = "unknown";
};

/// Monotonic microseconds since the first call (steady clock).
double NowMicros();
/// Process CPU time (user + system) in seconds, from getrusage.
double CpuSeconds();
/// Restarts the process's peak-RSS count from the current RSS (writes 5 to
/// /proc/self/clear_refs), so PeakRssMb() then covers only what follows.
/// Where the kernel does not allow it, says so on stderr.
void ResetPeakRss();
/// Process peak resident set size in MB since the last ResetPeakRss() (or
/// since start): VmHWM from /proc/self/status.
double PeakRssMb();

inline bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Exits the process with a message (set-up failures are not measurable).
[[noreturn]] void Die(const std::string& what, const raven::Status& status);

template <typename T>
T Must(raven::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}
inline void MustOk(const raven::Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

/// Deterministic 64-bit generator (splitmix64); one per thread.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform integer in [lo, hi].
  std::int64_t Int(std::int64_t lo, std::int64_t hi);
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// The verification key of a result: its bytes in the engine's own
/// serialization (column names, dictionaries and every double bit-exact).
std::string TableBytes(const raven::relational::Table& table);

/// One recorded interval. Spans of one statement share `stmt`; `parent` is
/// an index into the same log (-1 for the statement's root span).
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  std::int64_t stmt = 0;
};

/// Append-only span log owned by one thread; logs are merged and written
/// out when the run ends, never during it.
class SpanLog {
 public:
  int Add(std::string name, double start_us, double end_us, int parent,
          std::int64_t stmt);
  /// Closes a span opened with a provisional end (roots are added before
  /// their children so the children can name them).
  void SetEnd(int index, double end_us) {
    spans_[static_cast<std::size_t>(index)].end_us = end_us;
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Append(const SpanLog& other);
  /// Writes one tab-separated line per span (name, start, end, parent,
  /// statement) after a `# ` header line carrying `header`.
  bool WriteTsv(const std::string& path, const std::string& header) const;

 private:
  std::vector<Span> spans_;
};

/// Sum of root-span durations and of the parts no child span covers.
struct Coverage {
  double statement_us = 0.0;
  double unattributed_us = 0.0;
};
Coverage ComputeCoverage(const SpanLog& log);

/// Samples the host's CPU counters (/proc/stat) and this process's CPU
/// time on a background thread, once per kWindowMicros, while a loop runs;
/// consecutive samples bound the loop's windows. Steal is CPU time the
/// hypervisor gave to other guests: on a shared host it, not the program,
/// explains a wall time far above the CPU time.
class HostSampler {
 public:
  struct Sample {
    double at_us;  ///< NowMicros()
    double steal;  ///< host jiffies
    double total;  ///< host jiffies
    double cpu_s;  ///< this process
  };

  ~HostSampler() { Stop(); }
  void Start();
  /// Takes the last sample and joins the thread.
  void Stop();
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  static Sample Read();
  std::vector<Sample> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Per-thread closed-loop tally.
struct LoopTally {
  std::vector<double> latency_ms;  ///< verified statements only
  std::vector<double> done_us;     ///< their completion times (NowMicros)
  std::int64_t attempted = 0;      ///< statements + writes issued
  std::int64_t failed = 0;         ///< errors, busy/shed, wrong results
  std::int64_t wrong = 0;          ///< subset of failed: result mismatches
  std::string first_error;
  /// Records one verified statement that ran from `start_us` to `end_us`.
  void Verified(double start_us, double end_us) {
    latency_ms.push_back((end_us - start_us) * 1e-3);
    done_us.push_back(end_us);
  }
  void Merge(const LoopTally& other);
};

/// Exact percentile (nearest rank) of an unsorted sample.
double Percentile(std::vector<double> values, double p);

/// Per-layer accumulators filled by the traced phase (sums over the traced
/// statements; divided into per-statement figures at report time).
struct LayerTotals {
  std::int64_t statements = 0;
  double statement_us = 0.0;  ///< client-side wall of the traced statements
  // frontend / optimizer
  double analyze_us = 0.0;
  double normalize_us = 0.0;
  double optimize_us = 0.0;
  double rules_fired = 0.0;
  // server
  std::int64_t plan_hits = 0;
  std::int64_t plan_evictions = 0;
  std::int64_t plan_invalidations = 0;
  double server_statement_ms = 0.0;
  double transport_us = 0.0;
  std::vector<double> queue_wait_us;
  std::int64_t shed = 0;
  std::int64_t epoll_wakeups = 0;
  std::int64_t batcher_rows_flushed = 0;
  std::int64_t batcher_batches = 0;
  std::int64_t batcher_rows_coalesced = 0;
  std::int64_t batcher_rows_submitted = 0;
  // runtime (execute wall; busy time during Execute: process CPU in
  // paper_batch, operator self time in the served workloads; dop-scaled
  // execute wall)
  double execute_ms = 0.0;
  double execute_busy_s = 0.0;
  double execute_wall_dop_s = 0.0;
  double morsels = 0.0;
  double fused_chains = 0.0;
  // relational self times
  double scan_us = 0.0;
  double fused_us = 0.0;
  double join_us = 0.0;
  double groupby_us = 0.0;
  double sort_us = 0.0;
  double other_us = 0.0;
  // nnrt
  double score_us = 0.0;
  double rows_scored = 0.0;
  double predict_calls = 0.0;
  std::int64_t session_hits = 0;
  std::int64_t session_misses = 0;
  std::int64_t compiles = 0;
  // storage
  double blocks_scanned = 0.0;
  double blocks_skipped = 0.0;
  double disk_scan_rows = 0.0;
  double disk_scan_us = 0.0;
  // bench
  double untraced_mean_ms = 0.0;
  double traced_mean_ms = 0.0;
  double unattributed_us = 0.0;
  double planning_share = 0.0;
};

/// Adds one operator's self time (and, for disk scans, its rows) to the
/// relational/storage totals of its operator kind.
void AddOperatorSelfTime(const std::string& op, double self_us,
                         std::int64_t rows, LayerTotals* totals);

/// Adds one execution's counters (runtime, relational self times, nnrt
/// scoring, storage).
void AccumulateExecution(const raven::ir::IrNode& root,
                         const raven::runtime::ExecutionStats& stats,
                         LayerTotals* totals);

/// Ordered name -> (value, unit) list printed as the final JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// The driver's last stdout line.
  std::string Json(bool correct, std::int64_t attempted,
                   std::int64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// End-to-end metrics from the untraced closed loop, which `host` sampled
/// from start to end. Prints the window line.
void AddEndToEnd(const LoopTally& tally, double setup_s,
                 const HostSampler& host, Report* report);

/// Every per-layer metric, per statement unless its unit says otherwise.
void AddPerLayer(const LayerTotals& t, Report* report);

/// Median of a sample (setup repetitions).
double Median(std::vector<double> values);

/// A statement's latency tagged with its shape, for the tracing-overhead
/// comparison between the untraced and traced phases of a traced run.
struct PhaseSample {
  int shape = 0;
  double latency_ms = 0.0;
};

/// Tracing overhead from per-shape latency means, weighted by the traced
/// phase's shape counts, so a phase that happened to draw more slow shapes
/// does not read as overhead.
void SetOverhead(const std::vector<PhaseSample>& untraced,
                 const std::vector<PhaseSample>& traced, LayerTotals* totals);

/// Shared tail of every workload: prints the host line, writes the span
/// dump (traced runs), prints the result line, and returns the exit code.
/// `report` must already hold the end-to-end or per-layer metrics.
int Finish(const Options& options, const Report& report,
           const LoopTally& tally, const std::vector<double>& setup_samples,
           const SpanLog& spans);

}  // namespace perfbench

#endif  // RAVEN_PERFBENCH_COMMON_H_
