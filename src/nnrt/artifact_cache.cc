#include "nnrt/artifact_cache.h"

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>

#include "common/serialize.h"

namespace raven::nnrt {
namespace {

constexpr char kMagic[] = "RAVEN_NNRT_ARTIFACT";

/// FNV-1a over 8-byte words (tail bytes one at a time). Word striding cuts
/// the dependency chain 8x versus the byte-serial variant — artifacts are
/// hundreds of KB and this runs on every cold-start Load — with the same
/// corruption-detection quality (it is a checksum, not a MAC). Part of the
/// pinned format: changing it means bumping kFormatVersion.
std::uint64_t Fnv1a(const char* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, data + i, 8);
    h ^= word;
    h *= 1099511628211ull;
  }
  for (; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

std::string HexFingerprint(std::uint64_t fingerprint) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return std::string(buf);
}

/// mkdir -p. EEXIST is success; other failures surface from the fopen that
/// follows, with better context.
void EnsureDir(const std::string& dir) {
  std::string partial;
  for (std::size_t i = 0; i <= dir.size(); ++i) {
    if (i == dir.size() || dir[i] == '/') {
      if (!partial.empty() && partial != "/") {
        ::mkdir(partial.c_str(), 0755);
      }
    }
    if (i < dir.size()) partial.push_back(dir[i]);
  }
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) {
      return Status::NotFound("no artifact at " + path);
    }
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError("read " + path);
  return out;
}

Status WriteWholeFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flush_failed = std::fclose(f) != 0;
  if (written != bytes.size() || flush_failed) {
    ::unlink(path.c_str());
    return Status::IoError("write " + path);
  }
  return Status::OK();
}

}  // namespace

ArtifactCache::ArtifactCache(std::string dir) : dir_(std::move(dir)) {}

std::string ArtifactCache::PathFor(std::uint64_t fingerprint) const {
  return dir_ + "/nn_" + HexFingerprint(fingerprint) + ".rnna";
}

Result<CompiledArtifact> ArtifactCache::Load(std::uint64_t fingerprint) const {
  RAVEN_ASSIGN_OR_RETURN(std::string bytes, ReadWholeFile(PathFor(fingerprint)));
  // The trailing u64 is an FNV-1a checksum of everything before it.
  if (bytes.size() < sizeof(std::uint64_t)) {
    return Status::InvalidArgument("artifact truncated");
  }
  const std::size_t payload_size = bytes.size() - sizeof(std::uint64_t);
  std::uint64_t stored_checksum;
  std::memcpy(&stored_checksum, bytes.data() + payload_size,
              sizeof(stored_checksum));
  if (Fnv1a(bytes.data(), payload_size) != stored_checksum) {
    return Status::InvalidArgument("artifact checksum mismatch");
  }
  BinaryReader reader(bytes.data(), payload_size);
  RAVEN_ASSIGN_OR_RETURN(std::string magic, reader.ReadString());
  if (magic != kMagic) {
    return Status::InvalidArgument("artifact bad magic");
  }
  RAVEN_ASSIGN_OR_RETURN(std::uint32_t version, reader.ReadU32());
  if (version != kFormatVersion) {
    return Status::InvalidArgument("artifact format version " +
                                   std::to_string(version) + ", expected " +
                                   std::to_string(kFormatVersion));
  }
  RAVEN_ASSIGN_OR_RETURN(std::uint64_t stored_fp, reader.ReadU64());
  if (stored_fp != fingerprint) {
    return Status::InvalidArgument("artifact fingerprint mismatch");
  }
  CompiledArtifact artifact;
  RAVEN_ASSIGN_OR_RETURN(std::uint64_t folded, reader.ReadU64());
  RAVEN_ASSIGN_OR_RETURN(std::uint64_t identities, reader.ReadU64());
  RAVEN_ASSIGN_OR_RETURN(std::uint64_t dead, reader.ReadU64());
  RAVEN_ASSIGN_OR_RETURN(std::uint64_t fused, reader.ReadU64());
  RAVEN_ASSIGN_OR_RETURN(std::uint64_t relus, reader.ReadU64());
  RAVEN_ASSIGN_OR_RETURN(std::uint64_t featurizers, reader.ReadU64());
  artifact.opt_stats.constants_folded = static_cast<std::size_t>(folded);
  artifact.opt_stats.identities_removed = static_cast<std::size_t>(identities);
  artifact.opt_stats.dead_nodes_removed = static_cast<std::size_t>(dead);
  artifact.opt_stats.gemms_fused = static_cast<std::size_t>(fused);
  artifact.opt_stats.relus_fused = static_cast<std::size_t>(relus);
  artifact.opt_stats.featurizers_fused = static_cast<std::size_t>(featurizers);
  RAVEN_ASSIGN_OR_RETURN(std::string graph_bytes, reader.ReadString());
  BinaryReader graph_reader(graph_bytes);
  RAVEN_ASSIGN_OR_RETURN(artifact.graph, Graph::Deserialize(&graph_reader));
  return artifact;
}

Status ArtifactCache::Store(std::uint64_t fingerprint, const Graph& graph,
                            const GraphOptStats& opt_stats) const {
  BinaryWriter writer;
  writer.WriteString(kMagic);
  writer.WriteU32(kFormatVersion);
  writer.WriteU64(fingerprint);
  writer.WriteU64(static_cast<std::uint64_t>(opt_stats.constants_folded));
  writer.WriteU64(static_cast<std::uint64_t>(opt_stats.identities_removed));
  writer.WriteU64(static_cast<std::uint64_t>(opt_stats.dead_nodes_removed));
  writer.WriteU64(static_cast<std::uint64_t>(opt_stats.gemms_fused));
  writer.WriteU64(static_cast<std::uint64_t>(opt_stats.relus_fused));
  writer.WriteU64(static_cast<std::uint64_t>(opt_stats.featurizers_fused));
  BinaryWriter graph_writer;
  graph.Serialize(&graph_writer);
  writer.WriteString(graph_writer.buffer());
  writer.WriteU64(Fnv1a(writer.buffer().data(), writer.buffer().size()));

  EnsureDir(dir_);
  // Stage into a path unique per process AND per call, then rename: readers
  // only ever see complete files, and racing writers cannot clobber each
  // other's temp files.
  static std::atomic<std::uint64_t> temp_seq{0};
  const std::string final_path = PathFor(fingerprint);
  const std::string temp_path =
      final_path + ".tmp." + std::to_string(static_cast<long>(::getpid())) +
      "." + std::to_string(temp_seq.fetch_add(1, std::memory_order_relaxed));
  RAVEN_RETURN_IF_ERROR(WriteWholeFile(temp_path, writer.buffer()));
  if (::rename(temp_path.c_str(), final_path.c_str()) != 0) {
    const Status status =
        Status::IoError("rename " + temp_path + ": " + std::strerror(errno));
    ::unlink(temp_path.c_str());
    return status;
  }
  return Status::OK();
}

std::uint64_t FingerprintGraphBytes(const std::string& bytes) {
  const std::uint64_t h = std::hash<std::string>{}(bytes);
  return h == 0 ? 1 : h;
}

}  // namespace raven::nnrt
