#include "storage/catalog.h"

#include "util/hash.h"

namespace hique {

uint64_t Catalog::StatsVersion() const {
  // Order-independent mix (unordered_map iteration order must not matter):
  // XOR of per-table digests, each binding the table's name to its version.
  uint64_t version = 0;
  for (const auto& [name, table] : tables_) {
    uint64_t digest = HashBytes(name.data(), name.size());
    version ^= HashMix64(digest + table->stats_version() + 1);
  }
  return version;
}

Result<Table*> Catalog::CreateTable(const std::string& name, Schema schema) {
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table " + name + " already exists");
  }
  auto table = std::make_unique<Table>(name, std::move(schema));
  Table* raw = table.get();
  tables_[name] = std::move(table);
  return raw;
}

Result<Table*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named " + name);
  return it->second.get();
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(name) != 0;
}

Status Catalog::DropTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named " + name);
  tables_.erase(it);
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

}  // namespace hique
