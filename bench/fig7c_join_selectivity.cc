// Fig. 7(c) reproduction: join predicate selectivity. Two 1M x 72B tables;
// the number of inner tuples matching each outer tuple sweeps 1..1000
// (log10 steps). Series: merge/hybrid x iterators/HIQUE.
// Expected shape: the iterator/holistic gap widens as output explodes
// (join evaluation cost overtakes the shared staging cost), reaching ~5x at
// 1000 matches/outer. Join output is never materialized (scalar-aggregation
// fusion), matching the paper's no-materialization methodology.

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
  bool full = flags.GetBool("full", false);
  uint64_t rows = static_cast<uint64_t>(1000000 * scale);

  std::vector<int64_t> matches = full ? std::vector<int64_t>{1, 10, 100, 1000}
                                      : std::vector<int64_t>{1, 10, 100};

  std::printf("Fig. 7(c): join selectivity (%llu x %llu tuples; time in "
              "seconds)%s\n\n",
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(rows),
              full ? "" : " [pass --full for the 1000-matches point]");
  bench::ResultPrinter table({"matches/outer", "Merge-Iterators",
                              "Hybrid-Iterators", "Merge-HIQUE",
                              "Hybrid-HIQUE"});

  Catalog catalog;
  EngineOptions eopts;
  eopts.gen_dir = env::ProcessTempDir() + "/fig7c";
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

  for (int64_t match : matches) {
    int64_t domain = static_cast<int64_t>(rows) / match;
    if (domain < 1) domain = 1;
    std::string oname = "o" + std::to_string(match);
    std::string iname = "i" + std::to_string(match);
    bench::MicroTableSpec spec;
    spec.rows = rows;
    spec.key_domain = domain;
    spec.seed = 300 + match;
    (void)bench::MakeMicroTable(&catalog, oname, spec).value();
    spec.seed = 400 + match;
    (void)bench::MakeMicroTable(&catalog, iname, spec).value();

    std::string sql = "select count(*) as cnt, sum(" + iname + "_a) as s "
                      "from " + oname + ", " + iname + " where " + oname +
                      "_k = " + iname + "_k";

    std::vector<std::string> row = {std::to_string(match)};
    for (plan::JoinAlgo algo : {plan::JoinAlgo::kMerge,
                                plan::JoinAlgo::kHybridHashSortMerge}) {
      plan::PlannerOptions popts;
      popts.force_join_algo = algo;
      popts.fine_partition_max_domain = 0;
      auto vr = volcano.Query(sql, popts);
      if (!vr.ok()) {
        std::printf("volcano: %s\n", vr.status().ToString().c_str());
        return 1;
      }
      row.push_back(bench::Sec(vr.value().stats.execute_seconds));
    }
    for (plan::JoinAlgo algo : {plan::JoinAlgo::kMerge,
                                plan::JoinAlgo::kHybridHashSortMerge}) {
      plan::PlannerOptions popts;
      popts.force_join_algo = algo;
      popts.fine_partition_max_domain = 0;
      auto hr = query_with(sql, popts);
      if (!hr.ok()) {
        std::printf("hique: %s\n", hr.status().ToString().c_str());
        return 1;
      }
      row.push_back(bench::Sec(hr.value().exec_stats.execute_seconds));
    }
    table.AddRow(std::move(row));
    (void)catalog.DropTable(oname);
    (void)catalog.DropTable(iname);
  }
  table.Print();
  return 0;
}
