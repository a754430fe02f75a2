#ifndef HIQUE_STORAGE_CATALOG_H_
#define HIQUE_STORAGE_CATALOG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/table.h"
#include "util/status.h"

namespace hique {

/// The system catalogue: table name -> Table, plus schema lookup for the
/// binder. Single-threaded by design (each query runs in its own engine
/// instance in the paper's client-server model; concurrency control is an
/// orthogonal aspect the paper explicitly leaves untouched).
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty table. Fails if the name exists.
  Result<Table*> CreateTable(const std::string& name, Schema schema);

  Result<Table*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  Status DropTable(const std::string& name);

  std::vector<std::string> TableNames() const;

  /// Catalog-wide statistics version: changes whenever any table's
  /// statistics are recomputed (or a table is created/dropped). The engine
  /// prefixes compiled-plan cache keys with it, so a stats refresh
  /// invalidates stale cached libraries instead of letting them serve until
  /// LRU eviction. Mixes per-table versions with the table-name hash so two
  /// different refresh patterns never collide into the same version.
  uint64_t StatsVersion() const;

 private:
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace hique

#endif  // HIQUE_STORAGE_CATALOG_H_
