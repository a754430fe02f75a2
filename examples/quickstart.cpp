// Quickstart: create a table, load rows, open a client session and run SQL
// through the holistic engine — blocking, prepared and streaming-cursor —
// then inspect results and the generated code statistics.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "exec/engine.h"
#include "storage/catalog.h"

using namespace hique;

int main() {
  // 1. Create a catalogue and a table.
  Catalog catalog;
  Schema schema;
  schema.AddColumn("id", Type::Int32());
  schema.AddColumn("city", Type::Char(12));
  schema.AddColumn("temp", Type::Double());
  schema.AddColumn("day", Type::Date());
  Table* weather = catalog.CreateTable("weather", schema).value();

  // 2. Load some rows.
  struct Row {
    int id;
    const char* city;
    double temp;
    int y, m, d;
  };
  Row rows[] = {
      {1, "Edinburgh", 9.5, 2009, 11, 2},  {2, "Edinburgh", 7.25, 2009, 11, 3},
      {3, "Athens", 18.0, 2009, 11, 2},    {4, "Athens", 19.5, 2009, 11, 3},
      {5, "Edinburgh", 6.0, 2009, 11, 4},  {6, "Athens", 17.25, 2009, 11, 4},
      {7, "Sao Paulo", 24.0, 2009, 11, 2}, {8, "Sao Paulo", 26.5, 2009, 11, 3},
  };
  for (const Row& r : rows) {
    Status s = weather->AppendRow({Value::Int32(r.id),
                                   Value::Char(r.city, 12),
                                   Value::Double(r.temp),
                                   Value::Date(DateToDays(r.y, r.m, r.d))});
    if (!s.ok()) {
      std::printf("append failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  // Statistics feed the optimizer's algorithm selection (map vs hybrid
  // aggregation, fine vs coarse partitioning).
  (void)weather->ComputeStats();

  // 3. Ask HIQUE through a client session. The engine parses, optimizes,
  // *generates C++ source for this exact query*, compiles it to a shared
  // library, dlopens it and runs it (paper ICDE'10, Fig. 2). Sessions
  // carry per-client settings (planner overrides, parallelism, cursor
  // buffer bound) and are the gateway to the streaming API below.
  EngineOptions options;
  options.keep_source = true;  // retain the generated code for inspection
  HiqueEngine engine(&catalog, options);
  Session session = engine.OpenSession({});

  const char* sql =
      "select city, count(*) as days, avg(temp) as avg_temp, "
      "min(temp) as coldest from weather "
      "where day >= date '2009-11-02' group by city order by avg_temp desc";
  auto result = session.Query(sql);
  if (!result.ok()) {
    std::printf("query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("=== results ===\n%s\n", result.value().ToString().c_str());
  std::printf("=== plan ===\n%s\n", result.value().plan_text.c_str());
  std::printf("=== preparation cost (paper Table III) ===\n");
  const QueryTimings& t = result.value().timings;
  std::printf("parse %.2fms | optimize %.2fms | generate %.2fms | "
              "compile %.0fms | execute %.2fms\n",
              t.parse_ms, t.optimize_ms, t.generate_ms, t.compile_ms,
              t.execute_ms);
  std::printf("generated source: %lld bytes, shared library: %lld bytes\n",
              static_cast<long long>(result.value().source_bytes),
              static_cast<long long>(result.value().library_bytes));
  std::printf("\nfirst lines of the generated code:\n");
  const std::string& src = result.value().generated_source;
  size_t shown = 0, pos = 0;
  while (shown < 6 && pos < src.size()) {
    size_t nl = src.find('\n', pos);
    if (nl == std::string::npos) break;
    std::printf("  %s\n", src.substr(pos, nl - pos).c_str());
    pos = nl + 1;
    ++shown;
  }

  // 4. Prepared statements: compile the template once, execute it for any
  // `?` binding. Execute skips parse/optimize/generate/compile entirely and
  // runs the pinned entry point — no dlopen on the hot path.
  auto stmt = session.Prepare(
      "select city, avg(temp) as avg_temp from weather "
      "where temp >= ? group by city");
  if (!stmt.ok()) {
    std::printf("prepare failed: %s\n", stmt.status().ToString().c_str());
    return 1;
  }
  std::printf("\n=== prepared statement (temp >= ?) ===\n");
  for (double threshold : {7.0, 18.0}) {
    auto r = session.Execute(stmt.value(), {Value::Double(threshold)});
    if (!r.ok()) {
      std::printf("execute failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("threshold %.1f -> %lld group(s), execute %.2fms "
                "(parse+optimize+compile: 0ms)\n%s\n",
                threshold, static_cast<long long>(r.value().NumRows()),
                r.value().timings.execute_ms, r.value().ToString().c_str());
  }

  // 5. Streaming cursor: rows arrive page-at-a-time through a bounded
  // buffer, so a result of any size flows at O(1) result memory. Closing
  // the cursor early cancels the rest of the query.
  std::printf("=== streaming cursor ===\n");
  auto rs = session.QueryStream(
      "select id, city, temp from weather where temp > 5.0");
  if (!rs.ok()) {
    std::printf("stream failed: %s\n", rs.status().ToString().c_str());
    return 1;
  }
  ResultSet cursor = std::move(rs).value();
  while (cursor.Next()) {
    std::printf("  row %lld: id=%s city=%s temp=%s\n",
                static_cast<long long>(cursor.rows_read()),
                cursor.Get(0).ToString().c_str(),
                cursor.Get(1).ToString().c_str(),
                cursor.Get(2).ToString().c_str());
  }
  if (!cursor.status().ok()) {
    std::printf("stream failed: %s\n", cursor.status().ToString().c_str());
    return 1;
  }
  std::printf("streamed %lld rows, peak resident result pages: %u\n",
              static_cast<long long>(cursor.rows_read()),
              cursor.peak_result_pages());
  return 0;
}
