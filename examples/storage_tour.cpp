// Storage-layer tour: the substrates under the query engine — file-backed
// tables through the LRU buffer manager and catalogue statistics (paper §IV
// "Storage layer").
//
//   $ ./build/examples/storage_tour

#include <cstdio>

#include "exec/engine.h"
#include "storage/buffer_manager.h"
#include "storage/catalog.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace hique;

int main() {
  std::string dir = env::ProcessTempDir() + "/storage_tour";
  if (!env::MakeDirs(dir).ok()) return 1;

  // 1. A buffer pool backing an on-disk table. Main-memory query execution
  // pins a table's pages for the whole query (paper §VI), so the pool must
  // cover the working set — 1024 frames = 4 MB here.
  BufferManager buffer_manager(1024);
  Schema schema;
  schema.AddColumn("id", Type::Int32());
  schema.AddColumn("score", Type::Double());
  auto table_or = Table::CreateFileBacked("events", schema, &buffer_manager,
                                          dir + "/events.db");
  if (!table_or.ok()) {
    std::printf("create failed: %s\n", table_or.status().ToString().c_str());
    return 1;
  }

  Catalog catalog;
  Table* events = catalog.AdoptTable(std::move(table_or).value()).value();

  Rng rng(2024);
  const int kRows = 100000;
  WallTimer timer;
  for (int i = 0; i < kRows; ++i) {
    if (!events
             ->AppendRow({Value::Int32(static_cast<int32_t>(
                              rng.NextBounded(1000))),
                          Value::Double(rng.NextDouble() * 100)})
             .ok()) {
      return 1;
    }
  }
  std::printf("loaded %d rows into a file-backed table in %.2fs "
              "(%llu pages, pool hits=%llu misses=%llu evictions=%llu)\n",
              kRows, timer.ElapsedSeconds(),
              (unsigned long long)events->NumPages(),
              (unsigned long long)buffer_manager.hit_count(),
              (unsigned long long)buffer_manager.miss_count(),
              (unsigned long long)buffer_manager.eviction_count());

  // 2. Statistics drive the optimizer (here: 1000 distinct ids -> map agg).
  if (!events->ComputeStats().ok()) return 1;
  std::printf("stats: rows=%llu, id distinct=%llu [%s..%s]\n",
              (unsigned long long)events->stats().rows,
              (unsigned long long)events->stats().columns[0].distinct,
              events->stats().columns[0].min.ToString().c_str(),
              events->stats().columns[0].max.ToString().c_str());

  // 3. Queries over file-backed tables work exactly like memory-resident
  // ones: the executor pins the pages for the duration of the query.
  HiqueEngine engine(&catalog);
  Session session = engine.OpenSession({});
  auto result = session.Query(
      "select count(*) as n, avg(score) as avg_score from events "
      "where id < 10");
  if (!result.ok()) {
    std::printf("query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("\nquery over the file-backed table:\n%s\n",
              result.value().ToString().c_str());
  return 0;
}
