#include "relational/catalog.h"

#include "relational/block_table.h"

namespace raven::relational {

Status Catalog::RegisterTable(const std::string& name, Table table) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(name) > 0 || disk_tables_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already registered");
  }
  tables_.emplace(name, std::move(table));
  BumpVersion();
  return Status::OK();
}

Result<const Table*> Catalog::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' not found");
  }
  return &it->second;
}

bool Catalog::HasTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(name) > 0;
}

std::vector<std::string> Catalog::TableNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, table] : tables_) {
    (void)table;
    out.push_back(name);
  }
  return out;
}

Status Catalog::RegisterDiskTable(const std::string& name,
                                  std::shared_ptr<const BlockTable> table) {
  if (table == nullptr) {
    return Status::InvalidArgument("disk table '" + name + "' is null");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(name) > 0 || disk_tables_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already registered");
  }
  disk_tables_.emplace(name, std::move(table));
  BumpVersion();
  return Status::OK();
}

Result<std::shared_ptr<const BlockTable>> Catalog::GetDiskTable(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = disk_tables_.find(name);
  if (it == disk_tables_.end()) {
    return Status::NotFound("disk table '" + name + "' not found");
  }
  return it->second;
}

bool Catalog::HasDiskTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_tables_.count(name) > 0;
}

std::vector<std::string> Catalog::DiskTableNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, table] : disk_tables_) {
    (void)table;
    out.push_back(name);
  }
  return out;
}

bool Catalog::HasAnyTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(name) > 0 || disk_tables_.count(name) > 0;
}

Result<std::vector<std::string>> Catalog::TableSchema(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it != tables_.end()) return it->second.ColumnNames();
  auto dit = disk_tables_.find(name);
  if (dit != disk_tables_.end()) return dit->second->ColumnNames();
  return Status::NotFound("table '" + name + "' not found");
}

Result<std::pair<std::int64_t, std::int64_t>> Catalog::TableShape(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it != tables_.end()) {
    return std::make_pair(it->second.num_rows(), it->second.num_columns());
  }
  auto dit = disk_tables_.find(name);
  if (dit != disk_tables_.end()) {
    return std::make_pair(dit->second->num_rows(),
                          dit->second->num_columns());
  }
  return Status::NotFound("table '" + name + "' not found");
}

Status Catalog::InsertModel(const std::string& name, const std::string& script,
                            const std::string& pipeline_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (models_.count(name) > 0) {
    return Status::AlreadyExists("model '" + name +
                                 "' already exists; use UpdateModel");
  }
  models_[name] =
      StoredModel{name, script, pipeline_bytes, 1, ++last_model_stamp_};
  audit_log_.push_back("INSERT model '" + name + "' v1");
  BumpVersion();
  return Status::OK();
}

Status Catalog::UpdateModel(const std::string& name, const std::string& script,
                            const std::string& pipeline_bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = models_.find(name);
    if (it == models_.end()) {
      return Status::NotFound("model '" + name + "' not found");
    }
    it->second.script = script;
    it->second.pipeline_bytes = pipeline_bytes;
    it->second.version += 1;
    it->second.stamp = ++last_model_stamp_;
    audit_log_.push_back("UPDATE model '" + name + "' v" +
                         std::to_string(it->second.version));
  }
  BumpVersion();
  Notify(name);
  return Status::OK();
}

Status Catalog::DropModel(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = models_.find(name);
    if (it == models_.end()) {
      return Status::NotFound("model '" + name + "' not found");
    }
    models_.erase(it);
    audit_log_.push_back("DROP model '" + name + "'");
  }
  BumpVersion();
  Notify(name);
  return Status::OK();
}

Result<StoredModel> Catalog::GetModel(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(name);
  if (it == models_.end()) {
    return Status::NotFound("model '" + name + "' not found");
  }
  return it->second;
}

Result<std::int64_t> Catalog::ModelStamp(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(name);
  if (it == models_.end()) {
    return Status::NotFound("model '" + name + "' not found");
  }
  return it->second.stamp;
}

bool Catalog::HasModel(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.count(name) > 0;
}

std::vector<std::string> Catalog::ModelNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, model] : models_) {
    (void)model;
    out.push_back(name);
  }
  return out;
}

Result<std::string> Catalog::ModelCacheKey(const std::string& name) const {
  RAVEN_ASSIGN_OR_RETURN(StoredModel model, GetModel(name));
  return model.name + "@v" + std::to_string(model.version);
}

void Catalog::Notify(const std::string& name) {
  for (const auto& fn : listeners_) fn(name);
}

}  // namespace raven::relational
