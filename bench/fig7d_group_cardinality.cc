// Fig. 7(d) reproduction: aggregation vs grouping-attribute cardinality.
// Input 1M x 72B tuples, two SUMs, one grouping attribute whose distinct
// count sweeps 10..100k. Series: sort/hybrid/map aggregation, each as
// iterators and as HIQUE generated code.
// Expected shape: map aggregation wins while its directory + aggregate
// arrays stay cache-resident (small group counts) and degrades past that;
// sort/hybrid are only mildly affected by group count, with hybrid best at
// high cardinality (factor ~2 over map at 100k groups in the paper).

#include <cstdio>

#include "bench_support/flags.h"
#include "bench_support/micro_data.h"
#include "exec/engine.h"
#include "iterator/volcano_engine.h"
#include "util/env.h"

using namespace hique;

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  uint64_t rows = static_cast<uint64_t>(1000000 * scale);

  std::vector<int64_t> cardinalities = {10, 100, 1000, 10000, 100000};

  std::printf("Fig. 7(d): grouping attribute cardinality (input=%llu "
              "tuples, two SUMs; time in seconds)\n\n",
              static_cast<unsigned long long>(rows));
  bench::ResultPrinter table({"groups", "Sort-Iter", "Hybrid-Iter",
                              "Map-Iter", "Sort-HIQUE", "Hybrid-HIQUE",
                              "Map-HIQUE"});

  Catalog catalog;
  EngineOptions eopts;
  eopts.gen_dir = env::ProcessTempDir() + "/fig7d";
  // Each sweep point pins its plan and compiles it fresh, uncached.
  eopts.max_cached_queries = 0;
  HiqueEngine hique(&catalog, eopts);
  auto query_with = [&](const std::string& sql,
                        const plan::PlannerOptions& popts) {
    SessionOptions so;
    so.override_planner = true;
    so.planner = popts;
    return hique.OpenSession(so).Query(sql);
  };
  iter::VolcanoEngine volcano(&catalog, iter::Mode::kOptimized);

  for (int64_t groups : cardinalities) {
    std::string name = "g" + std::to_string(groups);
    bench::MicroTableSpec spec;
    spec.rows = rows;
    spec.key_domain = groups;
    spec.seed = 500 + groups;
    (void)bench::MakeMicroTable(&catalog, name, spec).value();

    std::string sql = "select " + name + "_k, sum(" + name + "_a) as s1, "
                      "sum(" + name + "_b) as s2 from " + name +
                      " group by " + name + "_k";

    auto run_with = [&](plan::AggAlgo algo, bool use_hique)
        -> Result<double> {
      plan::PlannerOptions popts;
      popts.force_agg_algo = algo;
      // Let map aggregation run at every point so the crossover is visible
      // (the default cache-derived budget would refuse the largest points).
      popts.map_agg_max_cells = 1u << 20;
      // Match the paper: hybrid partitions on hash, not dense values.
      popts.fine_partition_max_domain = 0;
      if (use_hique) {
        auto r = query_with(sql, popts);
        if (!r.ok()) return r.status();
        return r.value().exec_stats.execute_seconds;
      }
      auto r = volcano.Query(sql, popts);
      if (!r.ok()) return r.status();
      return r.value().stats.execute_seconds;
    };

    std::vector<std::string> row = {std::to_string(groups)};
    for (bool use_hique : {false, true}) {
      for (plan::AggAlgo algo : {plan::AggAlgo::kSort,
                                 plan::AggAlgo::kHybridHashSort,
                                 plan::AggAlgo::kMap}) {
        auto r = run_with(algo, use_hique);
        if (!r.ok()) {
          // Map aggregation legitimately refuses when directories cannot
          // apply at this scale (sparse high-cardinality domain).
          row.push_back("n/a");
          continue;
        }
        row.push_back(bench::Sec(r.value()));
      }
    }
    table.AddRow(std::move(row));
    (void)catalog.DropTable(name);
  }
  table.Print();
  return 0;
}
