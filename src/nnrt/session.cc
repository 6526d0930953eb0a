#include "nnrt/session.h"

#include "common/timer.h"

namespace raven::nnrt {

Result<std::unique_ptr<InferenceSession>> InferenceSession::Create(
    Graph graph, const SessionOptions& options) {
  RAVEN_RETURN_IF_ERROR(graph.Validate());
  GraphOptStats opt_stats;
  if (options.enable_graph_optimizations) {
    RAVEN_RETURN_IF_ERROR(OptimizeGraph(&graph, &opt_stats));
  }
  return Finish(std::unique_ptr<InferenceSession>(
      new InferenceSession(std::move(graph), options, opt_stats)));
}

Result<std::unique_ptr<InferenceSession>> InferenceSession::FromBytes(
    const std::string& bytes, const SessionOptions& options) {
  BinaryReader reader(bytes);
  RAVEN_ASSIGN_OR_RETURN(Graph graph, Graph::Deserialize(&reader));
  return Create(std::move(graph), options);
}

Result<std::unique_ptr<InferenceSession>> InferenceSession::FromArtifact(
    CompiledArtifact artifact, const SessionOptions& options) {
  // Validate defensively — the artifact passed magic/version/checksum, but a
  // graph that fails validation must still fall back to a fresh compile
  // rather than reach Run().
  RAVEN_RETURN_IF_ERROR(artifact.graph.Validate());
  return Finish(std::unique_ptr<InferenceSession>(new InferenceSession(
      std::move(artifact.graph), options, artifact.opt_stats)));
}

Result<std::unique_ptr<InferenceSession>> InferenceSession::Finish(
    std::unique_ptr<InferenceSession> session) {
  RAVEN_ASSIGN_OR_RETURN(
      session->plan_,
      ExecutionPlan::Build(session->graph_, GetBackend(session->backend_)));
  return session;
}

Status InferenceSession::RunPlan(const Tensor* const* inputs,
                                 std::size_t num_inputs, RunArena* arena,
                                 RunStats* stats) const {
  RunStats local;
  RunStats* run_stats = stats != nullptr ? stats : &local;
  RAVEN_RETURN_IF_ERROR(plan_.Run(inputs, num_inputs, arena, run_stats,
                                  /*profile_ops=*/profiler_ != nullptr));
  if (device_.type == DeviceType::kAccelerator) {
    run_stats->simulated_micros =
        device_.launch_overhead_us + run_stats->flops / device_.flops_per_us;
  }
  if (profiler_ != nullptr) profiler_->Merge(run_stats->per_op);
  return Status::OK();
}

Result<TensorMap> InferenceSession::Run(const TensorMap& inputs,
                                        RunStats* stats) const {
  std::vector<const Tensor*> bound;
  for (const auto& name : plan_.input_names()) {
    auto it = inputs.find(name);
    if (it == inputs.end()) {
      return Status::InvalidArgument("missing graph input '" + name + "'");
    }
    bound.push_back(&it->second);
  }
  RunArena arena;
  RAVEN_RETURN_IF_ERROR(RunPlan(bound.data(), bound.size(), &arena, stats));
  return plan_.TakeOutputs(&arena);
}

Status InferenceSession::CheckSingleInOut() const {
  if (graph_.inputs().size() != 1 || graph_.outputs().size() != 1) {
    return Status::InvalidArgument(
        "RunSingle requires a single-input/single-output graph");
  }
  return Status::OK();
}

Result<Tensor> InferenceSession::RunSingle(const Tensor& input,
                                           RunStats* stats) const {
  RAVEN_RETURN_IF_ERROR(CheckSingleInOut());
  RunArena arena;
  const Tensor* bound = &input;
  RAVEN_RETURN_IF_ERROR(RunPlan(&bound, 1, &arena, stats));
  return plan_.TakeOutput(&arena, 0);
}

Result<const Tensor*> InferenceSession::RunSingle(const Tensor& input,
                                                  RunArena* arena,
                                                  RunStats* stats) const {
  RAVEN_RETURN_IF_ERROR(CheckSingleInOut());
  const Tensor* bound = &input;
  RAVEN_RETURN_IF_ERROR(RunPlan(&bound, 1, arena, stats));
  return &plan_.Output(*arena, 0);
}

std::string InferenceSession::ToBytes() const {
  BinaryWriter writer;
  graph_.Serialize(&writer);
  return writer.Release();
}

Result<std::shared_ptr<InferenceSession>> SessionCache::GetOrCreate(
    const std::string& key, const std::string& bytes,
    const SessionOptions& options) {
  return GetOrCreate(key, /*fingerprint=*/0, [&bytes]() { return bytes; },
                     options);
}

Result<std::shared_ptr<InferenceSession>> SessionCache::GetOrCreate(
    const std::string& key, const std::function<std::string()>& bytes_fn,
    const SessionOptions& options) {
  return GetOrCreate(key, /*fingerprint=*/0, bytes_fn, options);
}

Result<std::shared_ptr<InferenceSession>> SessionCache::GetOrCreate(
    const std::string& key, std::uint64_t fingerprint,
    const std::function<std::string()>& bytes_fn,
    const SessionOptions& options) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.first;
    }
    auto bit = building_.find(key);
    if (bit == building_.end()) break;  // No builder — this thread becomes it.
    // Single-flight: wait for the in-flight build instead of duplicating the
    // compile. Waiters take the built session straight from the BuildState
    // (not the LRU), so this holds even at capacity 0 or after an eviction.
    std::shared_ptr<BuildState> state = bit->second;
    cv_.wait(lock, [&state] { return state->done; });
    if (!state->status.ok()) return state->status;
    if (state->session != nullptr) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return state->session;
    }
    // Builder vanished without a result (should not happen) — retry.
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  auto state = std::make_shared<BuildState>();
  building_.emplace(key, state);
  std::shared_ptr<ArtifactCache> artifacts = artifacts_;
  lock.unlock();

  auto built = Build(artifacts.get(), fingerprint, bytes_fn, options);

  lock.lock();
  building_.erase(key);
  state->done = true;
  if (built.ok()) {
    state->session = *built;
  } else {
    state->status = built.status();
  }
  cv_.notify_all();
  if (!built.ok()) return built.status();
  if (capacity_ > 0) {
    // No other thread can have inserted `key` (all inserts funnel through the
    // builder), but an Invalidate may have raced — inserting fresh is correct
    // either way.
    lru_.push_front(key);
    entries_[key] = {state->session, lru_.begin()};
    while (entries_.size() > capacity_) {
      entries_.erase(lru_.back());
      lru_.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return state->session;
}

Result<std::shared_ptr<InferenceSession>> SessionCache::Build(
    ArtifactCache* artifacts, std::uint64_t fingerprint,
    const std::function<std::string()>& bytes_fn,
    const SessionOptions& options) {
  const bool use_artifacts = artifacts != nullptr && fingerprint != 0;
  if (use_artifacts) {
    auto loaded = artifacts->Load(fingerprint);
    if (loaded.ok()) {
      auto session =
          InferenceSession::FromArtifact(std::move(*loaded), options);
      if (session.ok()) {
        artifact_hits_.fetch_add(1, std::memory_order_relaxed);
        return std::shared_ptr<InferenceSession>(std::move(*session));
      }
      artifact_rejects_.fetch_add(1, std::memory_order_relaxed);
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      // Present but corrupt/truncated/stale — recompile and rewrite below.
      artifact_rejects_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  RAVEN_ASSIGN_OR_RETURN(auto session,
                         InferenceSession::FromBytes(bytes_fn(), options));
  compiles_.fetch_add(1, std::memory_order_relaxed);
  if (options.enable_graph_optimizations) {
    graph_optimizations_.fetch_add(1, std::memory_order_relaxed);
  }
  std::shared_ptr<InferenceSession> shared = std::move(session);
  if (use_artifacts && options.enable_graph_optimizations) {
    // Best-effort: a failed write (disk full, read-only dir) costs the next
    // cold start a compile, never a query.
    if (artifacts
            ->Store(fingerprint, shared->graph(), shared->optimization_stats())
            .ok()) {
      artifact_writes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return shared;
}

void SessionCache::Invalidate(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.erase(it->second.second);
    entries_.erase(it);
  }
}

void SessionCache::AttachArtifacts(std::shared_ptr<ArtifactCache> artifacts) {
  std::lock_guard<std::mutex> lock(mu_);
  artifacts_ = std::move(artifacts);
}

std::shared_ptr<ArtifactCache> SessionCache::artifacts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return artifacts_;
}

void SessionCache::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::size_t SessionCache::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

std::size_t SessionCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

SessionCacheStats SessionCache::stats() const {
  SessionCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.compiles = compiles_.load(std::memory_order_relaxed);
  s.graph_optimizations =
      graph_optimizations_.load(std::memory_order_relaxed);
  s.artifact_hits = artifact_hits_.load(std::memory_order_relaxed);
  s.artifact_writes = artifact_writes_.load(std::memory_order_relaxed);
  s.artifact_rejects = artifact_rejects_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.entries = entries_.size();
  }
  return s;
}

}  // namespace raven::nnrt
