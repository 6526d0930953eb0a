#ifndef RAVEN_NNRT_SESSION_H_
#define RAVEN_NNRT_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "nnrt/artifact_cache.h"
#include "nnrt/backend.h"
#include "nnrt/device.h"
#include "nnrt/executor.h"
#include "nnrt/graph.h"
#include "nnrt/graph_optimizer.h"

namespace raven::nnrt {

/// Options controlling session construction.
struct SessionOptions {
  /// Run the NNRT graph optimizer (constant folding, fusion, DCE) once at
  /// session-creation time, like ONNX Runtime's graph optimization level.
  bool enable_graph_optimizations = true;
  DeviceSpec device = DeviceSpec::Cpu();
  /// Kernel implementation set every Run() uses (see backend.h). SIMD by
  /// default: bit-identical to kReference, which stays the scalar oracle
  /// for tests and debugging.
  BackendKind backend = BackendKind::kSimd;
  /// When set, every Run() is per-op profiled and merged into this sink.
  /// Must outlive the session; the serving path points it at
  /// SessionCache::profiler().
  OpProfiler* profiler = nullptr;
};

/// An inference session: an optimized, immutable graph, the step program
/// it compiles to for the session's backend, and the device it runs on.
/// Mirrors ONNX Runtime's InferenceSession: construction does the expensive
/// work (deserialize + optimize + plan) once; Run() is then called many
/// times. Thread-compatible: concurrent Run() calls are safe because
/// buffers are per caller (RunArena).
class InferenceSession {
 public:
  /// Builds a session from an in-memory graph.
  static Result<std::unique_ptr<InferenceSession>> Create(
      Graph graph, const SessionOptions& options = SessionOptions());

  /// Builds a session from a serialized model (the model-store format).
  static Result<std::unique_ptr<InferenceSession>> FromBytes(
      const std::string& bytes, const SessionOptions& options = SessionOptions());

  /// Builds a session from an already-optimized artifact-cache graph:
  /// validates, skips the optimizer, and reports the stored compile's
  /// optimizer stats. The warm path of the createFromBinary idiom.
  static Result<std::unique_ptr<InferenceSession>> FromArtifact(
      CompiledArtifact artifact, const SessionOptions& options = SessionOptions());

  /// Runs the graph. On the accelerator device, stats->simulated_micros
  /// follows the device cost model; on CPU it equals wall time.
  Result<TensorMap> Run(const TensorMap& inputs, RunStats* stats = nullptr) const;

  /// Convenience for single-input/single-output models, over buffers of
  /// its own.
  Result<Tensor> RunSingle(const Tensor& input, RunStats* stats = nullptr) const;

  /// RunSingle over the caller's buffers: the input is bound by pointer
  /// and the result lives in `arena` until the arena's next run. The
  /// scoring hot path, where each scorer keeps one arena for its morsels.
  Result<const Tensor*> RunSingle(const Tensor& input, RunArena* arena,
                                  RunStats* stats = nullptr) const;

  const Graph& graph() const { return graph_; }
  const DeviceSpec& device() const { return device_; }
  BackendKind backend() const { return backend_; }
  const GraphOptStats& optimization_stats() const { return opt_stats_; }

  /// Serializes the (optimized) graph back to model bytes.
  std::string ToBytes() const;

 private:
  InferenceSession(Graph graph, const SessionOptions& options,
                   GraphOptStats opt_stats)
      : graph_(std::move(graph)),
        device_(options.device),
        backend_(options.backend),
        profiler_(options.profiler),
        opt_stats_(opt_stats) {}

  /// Compiles graph_ for the session's backend; every constructor path
  /// runs it once, after graph_ is in place.
  static Result<std::unique_ptr<InferenceSession>> Finish(
      std::unique_ptr<InferenceSession> session);
  Status RunPlan(const Tensor* const* inputs, std::size_t num_inputs,
                 RunArena* arena, RunStats* stats) const;
  Status CheckSingleInOut() const;

  Graph graph_;
  DeviceSpec device_;
  BackendKind backend_;
  OpProfiler* profiler_;
  GraphOptStats opt_stats_;
  ExecutionPlan plan_;
};

/// Counter snapshot for SHOW STATS. All monotonic except `entries`.
struct SessionCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Fresh builds from model bytes (artifact misses/rejects end up here).
  std::uint64_t compiles = 0;
  /// Compiles that ran the graph optimizer — the expensive step the
  /// artifact cache exists to skip; zero on a warm-artifact cold start.
  std::uint64_t graph_optimizations = 0;
  std::uint64_t artifact_hits = 0;
  std::uint64_t artifact_writes = 0;
  /// Artifacts present but unusable (corrupt/truncated/version mismatch),
  /// recompiled and rewritten.
  std::uint64_t artifact_rejects = 0;
  std::uint64_t entries = 0;
};

/// LRU cache of inference sessions keyed by model name/version. This is the
/// SQL Server-side "model and inference-session caching" that makes Raven
/// beat standalone ONNX Runtime on small requests (paper §5 observation ii):
/// repeated inference queries reuse the session instead of re-deserializing
/// and re-optimizing the model. Thread-safe.
///
/// Builds are single-flight: concurrent GetOrCreate calls for the same key
/// elect one builder, everyone else blocks for its result — so a thundering
/// herd on a cold model compiles (and writes its artifact) exactly once.
/// With an ArtifactCache attached, a miss checks disk before compiling:
/// memory → artifact file → compile.
class SessionCache {
 public:
  explicit SessionCache(std::size_t capacity = 32,
                        std::shared_ptr<ArtifactCache> artifacts = nullptr)
      : capacity_(capacity), artifacts_(std::move(artifacts)) {}

  /// Returns the cached session for `key`, or builds one from `bytes` via
  /// the provided options, inserting it (and evicting the least recently
  /// used entry if at capacity).
  Result<std::shared_ptr<InferenceSession>> GetOrCreate(
      const std::string& key, const std::string& bytes,
      const SessionOptions& options = SessionOptions());

  /// Same, but the model bytes are produced on demand — a cache hit never
  /// pays the serialization. The serving path keys sessions by the plan's
  /// precomputed graph fingerprint, so re-serializing the whole model per
  /// query just to build a key it already has would dominate small-request
  /// latency (the overhead Fig 3's session caching exists to remove).
  Result<std::shared_ptr<InferenceSession>> GetOrCreate(
      const std::string& key, const std::function<std::string()>& bytes_fn,
      const SessionOptions& options = SessionOptions());

  /// Artifact-aware variant: on a memory miss, tries the attached
  /// ArtifactCache at `fingerprint` before compiling, and persists the
  /// optimized graph there after a fresh compile. `fingerprint` 0 means
  /// "unknown" and skips the artifact path entirely.
  Result<std::shared_ptr<InferenceSession>> GetOrCreate(
      const std::string& key, std::uint64_t fingerprint,
      const std::function<std::string()>& bytes_fn,
      const SessionOptions& options = SessionOptions());

  /// Removes a cached session (e.g. when a model is updated
  /// transactionally).
  void Invalidate(const std::string& key);

  /// Attaches (or replaces) the on-disk artifact tier.
  void AttachArtifacts(std::shared_ptr<ArtifactCache> artifacts);
  std::shared_ptr<ArtifactCache> artifacts() const;

  /// Resizes the in-memory tier, evicting LRU entries if shrinking below
  /// the current size. Capacity 0 = pass-through (build every miss, cache
  /// nothing) — used to disable session reuse without disabling serving.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  std::size_t size() const;
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  SessionCacheStats stats() const;

  /// Shared per-op profiling sink for sessions built through this cache
  /// (wired up by the serving path via SessionOptions::profiler).
  OpProfiler& profiler() { return profiler_; }
  const OpProfiler& profiler() const { return profiler_; }

 private:
  struct BuildState {
    bool done = false;
    Status status;  // OK + null session means "builder failed, retry".
    std::shared_ptr<InferenceSession> session;
  };

  /// The miss path: artifact load (when attached and fingerprinted) or
  /// fresh compile + artifact store. Runs outside mu_.
  Result<std::shared_ptr<InferenceSession>> Build(
      ArtifactCache* artifacts, std::uint64_t fingerprint,
      const std::function<std::string()>& bytes_fn,
      const SessionOptions& options);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t capacity_;
  std::shared_ptr<ArtifactCache> artifacts_;
  // MRU-first list of keys plus index into it.
  std::list<std::string> lru_;
  std::unordered_map<std::string,
                     std::pair<std::shared_ptr<InferenceSession>,
                               std::list<std::string>::iterator>>
      entries_;
  // In-flight builds, single-flight per key.
  std::unordered_map<std::string, std::shared_ptr<BuildState>> building_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> compiles_{0};
  std::atomic<std::uint64_t> graph_optimizations_{0};
  std::atomic<std::uint64_t> artifact_hits_{0};
  std::atomic<std::uint64_t> artifact_writes_{0};
  std::atomic<std::uint64_t> artifact_rejects_{0};
  OpProfiler profiler_;
};

}  // namespace raven::nnrt

#endif  // RAVEN_NNRT_SESSION_H_
