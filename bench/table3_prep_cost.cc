// Table III reproduction: query preparation cost for TPC-H Q1/Q3/Q10 —
// parse / optimize / generate times, compilation time at -O0 and -O2, and
// the generated source / shared-library sizes. Extended with a
// prepared-statement column: the Execute-only latency after Prepare paid
// the whole pipeline once, vs a full Query() pipeline run — quantifying how
// much of the paper's per-query preparation cost prepared statements remove.
// Expected shape (paper): parse+optimize+generate < 25 ms total; -O2
// compilation a few hundred ms and 2-3x the -O0 time; artefacts tens of KB.
//
// --repeat=N compiles every query N times at each level and reports the
// median with its interquartile range; --json=FILE writes the same numbers,
// stamped with the host's core count and the commit of the working
// directory. bench/table3_pairs.py runs two builds alternately and
// collects their outputs into BENCH_table3.json, the tracked compile-cost
// datapoint.

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_e2e/e2e_util.h"
#include "bench_support/flags.h"
#include "bench_support/git_commit.h"
#include "bench_support/json.h"
#include "bench_support/micro_data.h"
#include "exec/engine.h"
#include "tpch/tpch.h"
#include "util/env.h"
#include "util/timer.h"

using namespace hique;

namespace {

/// Median and interquartile range of one column's samples.
struct Spread {
  double median, q1, q3;

  explicit Spread(const std::vector<double>& v)
      : median(e2e::Median(v)),
        q1(e2e::Quantile(v, 0.25)),
        q3(e2e::Quantile(v, 0.75)) {}

  std::string Json() const {
    return bench::JsonObj()
        .Num("median", median)
        .Num("q1", q1)
        .Num("q3", q3)
        .Render();
  }
};

std::string Cell(const Spread& s, int repeat) {
  char buf[64];
  if (repeat == 1) {
    std::snprintf(buf, sizeof(buf), "%.1f", s.median);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f [%.1f-%.1f]", s.median, s.q1, s.q3);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  double sf = flags.GetDouble("sf", 0.01);
  int repeat = static_cast<int>(flags.GetInt("repeat", 1));
  if (repeat < 1) {
    std::fprintf(stderr, "--repeat must be at least 1\n");
    return 2;
  }
  std::string json_path = flags.GetString("json", "");

  std::printf("Table III: query preparation cost (TPC-H, SF=%.2f for "
              "catalogue statistics; times in ms, median [IQR] of %d)\n\n",
              sf, repeat);

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

  bench::ResultPrinter table({"query", "parse", "optimize", "generate",
                              "compile -O0", "compile -O2", "source (bytes)",
                              "library -O2 (bytes)", "full query",
                              "exec-only"});
  bench::JsonArr json_queries;
  for (const auto& q : queries) {
    std::vector<double> parse_ms, optimize_ms, generate_ms, compile_o0,
        compile_o2, full_query_ms, exec_only_ms;
    int64_t src_bytes = 0, lib_bytes = 0;
    // Cache-disabled engines compile every statement at their final level:
    // the paper's one-shot regime. `full query` is the end-to-end latency
    // of the -O2 Query() call.
    for (int rep = 0; rep < repeat; ++rep) {
      for (int opt : {0, 2}) {
        EngineOptions eopts;
        eopts.gen_dir = env::ProcessTempDir() + "/table3";
        eopts.compile.opt_level = opt;
        eopts.max_cached_queries = 0;
        HiqueEngine engine(&catalog, eopts);
        WallTimer full_timer;
        auto res = engine.Query(q.sql);
        double elapsed_ms = full_timer.ElapsedMillis();
        if (!res.ok()) {
          std::printf("%s: %s\n", q.name, res.status().ToString().c_str());
          return 1;
        }
        const QueryTimings& t = res.value().timings;
        if (opt == 0) {
          compile_o0.push_back(t.compile_ms);
          continue;
        }
        compile_o2.push_back(t.compile_ms);
        parse_ms.push_back(t.parse_ms);
        optimize_ms.push_back(t.optimize_ms);
        generate_ms.push_back(t.generate_ms);
        full_query_ms.push_back(elapsed_ms);
        src_bytes = res.value().source_bytes;
        lib_bytes = res.value().library_bytes;
      }
    }
    // Prepared-statement comparison: Prepare pays the pipeline once, then
    // Execute runs the pinned entry point with zero parse/optimize/
    // generate/compile and no dlopen. `exec-only` is the wall time of a
    // repeated Execute on the prepared handle, timed once the -O2 tier
    // (scheduled by the first, untimed Execute) has been swapped in.
    {
      EngineOptions eopts;
      eopts.gen_dir = env::ProcessTempDir() + "/table3";
      eopts.compile.opt_level = 2;
      HiqueEngine engine(&catalog, eopts);
      auto stmt = engine.Prepare(q.sql);
      if (!stmt.ok()) {
        std::printf("%s: %s\n", q.name, stmt.status().ToString().c_str());
        return 1;
      }
      for (int rep = -1; rep < std::max(repeat, 3); ++rep) {
        // Wall-clock around the whole Execute call: parameter binding +
        // execution (the engine's execute_ms alone excludes binding).
        WallTimer exec_timer;
        auto r = engine.Execute(stmt.value());
        double elapsed_ms = exec_timer.ElapsedMillis();
        if (!r.ok()) {
          std::printf("%s: %s\n", q.name, r.status().ToString().c_str());
          return 1;
        }
        if (rep < 0) {
          engine.WaitForTierUpgrades();
          continue;
        }
        if (r.value().library_opt_level != eopts.compile.opt_level) {
          std::printf("%s: timed Execute ran at -O%d\n", q.name,
                      r.value().library_opt_level);
          return 1;
        }
        exec_only_ms.push_back(elapsed_ms);
      }
    }

    Spread parse(parse_ms), optimize(optimize_ms), generate(generate_ms),
        c0(compile_o0), c2(compile_o2), full(full_query_ms),
        exec_only(exec_only_ms);
    table.AddRow({q.name, Cell(parse, repeat), Cell(optimize, repeat),
                  Cell(generate, repeat), Cell(c0, repeat), Cell(c2, repeat),
                  std::to_string(src_bytes), std::to_string(lib_bytes),
                  Cell(full, repeat), Cell(exec_only, repeat)});
    json_queries.Add(bench::JsonObj()
                         .Str("name", q.name)
                         .Add("parse_ms", parse.Json())
                         .Add("optimize_ms", optimize.Json())
                         .Add("generate_ms", generate.Json())
                         .Add("compile_o0_ms", c0.Json())
                         .Add("compile_o2_ms", c2.Json())
                         .Add("full_query_ms", full.Json())
                         .Add("exec_only_ms", exec_only.Json())
                         .Int("source_bytes", src_bytes)
                         .Int("library_o2_bytes", lib_bytes)
                         .Render());
  }
  table.Print();

  if (!json_path.empty()) {
    std::string doc =
        bench::JsonObj()
            .Str("bench", "table3_prep_cost")
            .Num("scale_factor", sf)
            .Int("repeat", repeat)
            .Int("nproc",
                 static_cast<int64_t>(std::thread::hardware_concurrency()))
            .Str("commit", bench::GitCommit())
            .Add("queries", json_queries.Render())
            .Render();
    if (!bench::WriteJsonFile(json_path, doc)) return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
