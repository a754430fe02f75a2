// Storage-layer tour: the substrates under the query engine — in-memory
// NSM tables of 4 KiB pages and catalogue statistics (paper §IV "Storage
// layer").
//
//   $ ./build/examples/storage_tour

#include <cstdio>

#include "exec/engine.h"
#include "storage/catalog.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace hique;

int main() {
  // 1. A table of fixed-length tuples packed into 4 KiB pages. Main-memory
  // query execution holds a table's pages for the whole query (paper §VI).
  Catalog catalog;
  Schema schema;
  schema.AddColumn("id", Type::Int32());
  schema.AddColumn("score", Type::Double());
  auto table_or = catalog.CreateTable("events", schema);
  if (!table_or.ok()) {
    std::printf("create failed: %s\n", table_or.status().ToString().c_str());
    return 1;
  }
  Table* events = table_or.value();

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
  std::printf("loaded %d rows in %.2fs (%llu pages, %u tuples per page)\n",
              kRows, timer.ElapsedSeconds(),
              (unsigned long long)events->NumPages(),
              events->tuples_per_page());

  // 2. Statistics drive the optimizer (here: 1000 distinct ids -> map agg).
  if (!events->ComputeStats().ok()) return 1;
  std::printf("stats: rows=%llu, id distinct=%llu [%s..%s]\n",
              (unsigned long long)events->stats().rows,
              (unsigned long long)events->stats().columns[0].distinct,
              events->stats().columns[0].min.ToString().c_str(),
              events->stats().columns[0].max.ToString().c_str());

  // 3. A query: the executor snapshots the table's pages for the duration
  // of the query and hands them to the generated code.
  HiqueEngine engine(&catalog);
  Session session = engine.OpenSession({});
  auto result = session.Query(
      "select count(*) as n, avg(score) as avg_score from events "
      "where id < 10");
  if (!result.ok()) {
    std::printf("query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("\nquery over the table:\n%s\n",
              result.value().ToString().c_str());
  return 0;
}
