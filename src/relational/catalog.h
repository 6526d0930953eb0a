#ifndef RAVEN_RELATIONAL_CATALOG_H_
#define RAVEN_RELATIONAL_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "relational/table.h"

namespace raven::relational {

class BlockTable;

/// A stored model: the pipeline script (the paper's Python source), the
/// serialized trained pipeline bytes, and a version stamp. Storing models
/// alongside data is the paper's central governance argument (§1): models
/// inherit transactional updates, versioning, and auditability.
struct StoredModel {
  std::string name;
  std::string script;
  std::string pipeline_bytes;
  std::int64_t version = 1;
  /// Changes with every insert or update of any model and never repeats,
  /// unlike `version`, which restarts at 1 when a dropped name is inserted
  /// again: what caches of a model's derived state key on.
  std::int64_t stamp = 0;
};

/// Database catalog: named tables plus a model store with transactional
/// (atomic, versioned, audited) model updates. Thread-safe.
class Catalog {
 public:
  Catalog() = default;

  // -- Tables -------------------------------------------------------------
  Status RegisterTable(const std::string& name, Table table);
  Result<const Table*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  // -- On-disk tables -------------------------------------------------------
  // Block-based (.rvc) tables registered alongside in-memory ones. The two
  // registries share one namespace: a name resolves to exactly one kind,
  // and registration in either checks both. Planning code that only needs
  // shape/schema goes through TableSchema/TableShape so it stays agnostic
  // to where the rows live.
  Status RegisterDiskTable(const std::string& name,
                           std::shared_ptr<const BlockTable> table);
  Result<std::shared_ptr<const BlockTable>> GetDiskTable(
      const std::string& name) const;
  bool HasDiskTable(const std::string& name) const;
  std::vector<std::string> DiskTableNames() const;

  /// True when `name` resolves as either table kind (FROM-clause check).
  bool HasAnyTable(const std::string& name) const;
  /// Column names of either table kind.
  Result<std::vector<std::string>> TableSchema(const std::string& name) const;
  /// (num_rows, num_columns) of either table kind.
  Result<std::pair<std::int64_t, std::int64_t>> TableShape(
      const std::string& name) const;

  // -- Model store ----------------------------------------------------------
  /// INSERT INTO scoring_models: fails if the name exists (use UpdateModel).
  Status InsertModel(const std::string& name, const std::string& script,
                     const std::string& pipeline_bytes);
  /// Atomically replaces a model, bumping its version and notifying
  /// invalidation listeners (e.g. the inference-session cache).
  Status UpdateModel(const std::string& name, const std::string& script,
                     const std::string& pipeline_bytes);
  Status DropModel(const std::string& name);
  Result<StoredModel> GetModel(const std::string& name) const;
  /// The model's StoredModel::stamp, without copying its script or bytes.
  Result<std::int64_t> ModelStamp(const std::string& name) const;
  bool HasModel(const std::string& name) const;
  std::vector<std::string> ModelNames() const;

  /// Versioned cache key "<name>@v<version>" for the session cache.
  Result<std::string> ModelCacheKey(const std::string& name) const;

  /// Audit log of model-store mutations ("INSERT name v1", ...).
  const std::vector<std::string>& AuditLog() const { return audit_log_; }

  /// Registers a callback fired (with the model name) on update/drop.
  void AddInvalidationListener(std::function<void(const std::string&)> fn) {
    listeners_.push_back(std::move(fn));
  }

  /// Monotonic catalog version, bumped by every table or model mutation.
  /// Plan caches key on it so any catalog change makes previously optimized
  /// plans unreachable (they were planned against stale schemas/models).
  std::int64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

 private:
  void Notify(const std::string& name);
  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }

  std::atomic<std::int64_t> version_{1};
  mutable std::mutex mu_;
  std::map<std::string, Table> tables_;
  std::map<std::string, std::shared_ptr<const BlockTable>> disk_tables_;
  std::map<std::string, StoredModel> models_;
  std::int64_t last_model_stamp_ = 0;
  std::vector<std::string> audit_log_;
  std::vector<std::function<void(const std::string&)>> listeners_;
};

}  // namespace raven::relational

#endif  // RAVEN_RELATIONAL_CATALOG_H_
