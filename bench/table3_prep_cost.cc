// Table III reproduction: query preparation cost for TPC-H Q1/Q3/Q10 —
// parse / optimize / generate times, compilation time at -O0 and -O2, and
// the generated source / shared-library sizes. Extended with a
// prepared-statement column: the Execute-only latency after Prepare paid
// the whole pipeline once, vs a full Query() pipeline run — quantifying how
// much of the paper's per-query preparation cost prepared statements remove.
// Expected shape (paper): parse+optimize+generate < 25 ms total; -O2
// compilation a few hundred ms and 2-3x the -O0 time; artefacts tens of KB.

#include <algorithm>
#include <cstdio>

#include "bench_support/flags.h"
#include "bench_support/micro_data.h"
#include "exec/engine.h"
#include "tpch/tpch.h"
#include "util/env.h"
#include "util/timer.h"

using namespace hique;

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  double sf = flags.GetDouble("sf", 0.01);

  std::printf("Table III: query preparation cost (TPC-H, SF=%.2f for "
              "catalogue statistics)\n\n", sf);

  Catalog catalog;
  tpch::TpchOptions topts;
  topts.scale_factor = sf;
  Status load = tpch::LoadTpch(&catalog, topts);
  if (!load.ok()) {
    std::printf("load failed: %s\n", load.ToString().c_str());
    return 1;
  }

  struct QuerySpec {
    const char* name;
    std::string sql;
  };
  std::vector<QuerySpec> queries = {{"Q1", tpch::Query1Sql()},
                                    {"Q3", tpch::Query3Sql()},
                                    {"Q10", tpch::Query10Sql()}};

  bench::ResultPrinter table({"query", "parse (ms)", "optimize (ms)",
                              "generate (ms)", "compile -O0 (ms)",
                              "compile -O2 (ms)", "source (bytes)",
                              "library -O2 (bytes)", "full query (ms)",
                              "exec-only (ms)"});
  for (const auto& q : queries) {
    double parse_ms = 0, optimize_ms = 0, generate_ms = 0;
    double compile_o0 = 0, compile_o2 = 0;
    int64_t src_bytes = 0, lib_bytes = 0;
    double full_query_ms = 0, exec_only_ms = 0;
    for (int opt : {0, 2}) {
      EngineOptions eopts;
      eopts.gen_dir = env::ProcessTempDir() + "/table3";
      // Paper-reproduction runs measure the fully specialized per-literal
      // code, not the production parameterized variant.
      eopts.hoist_constants = false;
      eopts.compile.opt_level = opt;
      eopts.max_cached_queries = 0;
      HiqueEngine engine(&catalog, eopts);
      auto res = engine.Query(q.sql);
      if (!res.ok()) {
        std::printf("%s: %s\n", q.name, res.status().ToString().c_str());
        return 1;
      }
      const QueryTimings& t = res.value().timings;
      if (opt == 0) {
        compile_o0 = t.compile_ms;
      } else {
        compile_o2 = t.compile_ms;
        parse_ms = t.parse_ms;
        optimize_ms = t.optimize_ms;
        generate_ms = t.generate_ms;
        src_bytes = res.value().source_bytes;
        lib_bytes = res.value().library_bytes;
      }
    }
    // Prepared-statement comparison: Prepare pays the pipeline once at -O2,
    // then Execute runs the pinned entry point with zero parse/optimize/
    // generate/compile and no dlopen. `full query (ms)` is the end-to-end
    // latency of a cache-disabled Query() (the paper's one-shot regime);
    // `exec-only (ms)` is the best repeated Execute on a prepared handle.
    {
      EngineOptions eopts;
      eopts.gen_dir = env::ProcessTempDir() + "/table3";
      eopts.compile.opt_level = 2;
      eopts.tiered_compilation = false;  // measure the -O2 tier directly
      HiqueEngine engine(&catalog, eopts);

      {
        EngineOptions one_shot = eopts;
        one_shot.max_cached_queries = 0;
        HiqueEngine fresh(&catalog, one_shot);
        WallTimer full_timer;
        auto full = fresh.Query(q.sql);
        full_query_ms = full_timer.ElapsedMillis();
        if (!full.ok()) {
          std::printf("%s: %s\n", q.name, full.status().ToString().c_str());
          return 1;
        }
      }

      auto stmt = engine.Prepare(q.sql);
      if (!stmt.ok()) {
        std::printf("%s: %s\n", q.name, stmt.status().ToString().c_str());
        return 1;
      }
      exec_only_ms = 1e30;
      for (int rep = 0; rep < 3; ++rep) {
        // Wall-clock around the whole Execute call: parameter binding +
        // execution (the engine's execute_ms alone excludes binding).
        WallTimer exec_timer;
        auto r = engine.Execute(stmt.value());
        double elapsed_ms = exec_timer.ElapsedMillis();
        if (!r.ok()) {
          std::printf("%s: %s\n", q.name, r.status().ToString().c_str());
          return 1;
        }
        exec_only_ms = std::min(exec_only_ms, elapsed_ms);
      }
    }

    char p[32], o[32], g[32], c0[32], c2[32], fq[32], eo[32];
    std::snprintf(p, sizeof(p), "%.1f", parse_ms);
    std::snprintf(o, sizeof(o), "%.1f", optimize_ms);
    std::snprintf(g, sizeof(g), "%.1f", generate_ms);
    std::snprintf(c0, sizeof(c0), "%.0f", compile_o0);
    std::snprintf(c2, sizeof(c2), "%.0f", compile_o2);
    std::snprintf(fq, sizeof(fq), "%.1f", full_query_ms);
    std::snprintf(eo, sizeof(eo), "%.2f", exec_only_ms);
    table.AddRow({q.name, p, o, g, c0, c2, std::to_string(src_bytes),
                  std::to_string(lib_bytes), fq, eo});
  }
  table.Print();
  return 0;
}
