#ifndef RAVEN_NNRT_ARTIFACT_CACHE_H_
#define RAVEN_NNRT_ARTIFACT_CACHE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "nnrt/graph.h"
#include "nnrt/graph_optimizer.h"

namespace raven::nnrt {

/// A graph that already went through OptimizeGraph, plus the optimizer's
/// stats so warm-started sessions report what the original compile did.
struct CompiledArtifact {
  Graph graph;
  GraphOptStats opt_stats;
};

/// On-disk cache of compiled (optimized) NNRT graphs, keyed by
/// `IrNode::nn_graph_fingerprint` — the rwkv-qualcomm saveBinary /
/// createFromBinary idiom. One immutable file per fingerprint under `dir`
/// (`nn_<fingerprint-hex>.rnna`); writers stage to a unique temp file and
/// rename() into place, so concurrent servers and workers sharing a
/// directory never observe partial artifacts. There is no in-process
/// eviction: files are content-addressed and tiny (the serialized graph),
/// so operators prune the directory externally (see docs/OPERATIONS.md).
///
/// Load() rejects — rather than trusts — anything suspicious: bad magic,
/// future format version, fingerprint mismatch, truncation, or checksum
/// failure all come back as errors so SessionCache falls back to a fresh
/// compile and rewrites the artifact.
///
/// Fingerprints come from std::hash over the serialized graph bytes, so
/// artifacts are valid only for the same binary/build that wrote them;
/// kFormatVersion bumps whenever the graph serialization format or the
/// optimizer's output changes. Version 2: optimized graphs carry Featurize
/// nodes and fused-ReLU Gemms, and the stats gain `relus_fused` and
/// `featurizers_fused`; v1 artifacts are rejected and recompiled.
class ArtifactCache {
 public:
  static constexpr std::uint32_t kFormatVersion = 2;

  /// Creates `dir` (and parents) lazily on first Store.
  explicit ArtifactCache(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Path the artifact for `fingerprint` lives at (whether or not it exists).
  std::string PathFor(std::uint64_t fingerprint) const;

  /// NotFound when no artifact exists; any other error means the file is
  /// present but unusable (corrupt/truncated/stale) and should be recompiled.
  Result<CompiledArtifact> Load(std::uint64_t fingerprint) const;

  /// Atomically persists an optimized graph (temp file + rename). Safe to
  /// race from multiple threads and processes; last writer wins with an
  /// identical payload.
  Status Store(std::uint64_t fingerprint, const Graph& graph,
               const GraphOptStats& opt_stats) const;

 private:
  std::string dir_;
};

/// Fingerprint of a serialized NNRT graph: std::hash of the bytes with 0
/// remapped to 1 (0 means "no fingerprint" throughout the engine). The same
/// function ir.cc stamps into IrNode::nn_graph_fingerprint, exposed here so
/// raven_worker derives identical artifact keys from received model bytes.
std::uint64_t FingerprintGraphBytes(const std::string& bytes);

}  // namespace raven::nnrt

#endif  // RAVEN_NNRT_ARTIFACT_CACHE_H_
