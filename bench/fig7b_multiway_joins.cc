// Fig. 7(b) reproduction: multi-way joins / join teams. One 1M-tuple table
// joined with 2..8 tables of 100k tuples each on a single join attribute;
// output cardinality stays 1M. Series: binary merge join as iterators,
// binary merge join as HIQUE code, HIQUE join team (merge), HIQUE join team
// (hybrid).
// Expected shape: team evaluation (one deeply nested loop, no intermediate
// materialization) wins, with the gap growing with the number of tables
// (paper: 3.32x over iterators at 8 tables).

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
  int max_tables = static_cast<int>(flags.GetInt("max_tables", 8));
  uint64_t big_rows = static_cast<uint64_t>(1000000 * scale);
  int64_t domain = static_cast<int64_t>(100000 * scale);

  std::printf("Fig. 7(b): multi-way joins on one key (big=%llu, small=%lld "
              "each, output=big; time in seconds)\n\n",
              static_cast<unsigned long long>(big_rows),
              static_cast<long long>(domain));

  Catalog catalog;
  bench::MicroTableSpec big_spec;
  big_spec.rows = big_rows;
  big_spec.key_domain = domain;
  big_spec.seed = 7;
  (void)bench::MakeMicroTable(&catalog, "big", big_spec).value();
  for (int t = 1; t < max_tables; ++t) {
    bench::MicroTableSpec small_spec;
    small_spec.rows = static_cast<uint64_t>(domain);
    small_spec.key_domain = domain;
    small_spec.unique_dense = true;
    small_spec.seed = 70 + t;
    (void)bench::MakeMicroTable(&catalog, "t" + std::to_string(t), small_spec)
        .value();
  }

  EngineOptions eopts;
  eopts.gen_dir = env::ProcessTempDir() + "/fig7b";
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

  bench::ResultPrinter table({"tables", "Merge-Iterators",
                              "Merge-HIQUE (binary)", "Merge-HIQUE (team)",
                              "Hybrid-HIQUE (team)"});

  for (int k = 2; k <= max_tables; ++k) {
    // k tables total: big + (k-1) smalls, all equi-joined on the key.
    std::string from = "big";
    std::string where;
    for (int t = 1; t < k; ++t) {
      from += ", t" + std::to_string(t);
      if (t > 1) where += " and ";
      where += "big_k = t" + std::to_string(t) + "_k";
    }
    std::string sql = "select count(*) as cnt, sum(big_a) as s from " + from +
                      " where " + where;

    std::vector<std::string> row = {std::to_string(k)};
    {
      plan::PlannerOptions popts;
      popts.enable_join_teams = false;
      popts.force_join_algo = plan::JoinAlgo::kMerge;
      auto vr = volcano.Query(sql, popts);
      if (!vr.ok()) {
        std::printf("volcano: %s\n", vr.status().ToString().c_str());
        return 1;
      }
      row.push_back(bench::Sec(vr.value().stats.execute_seconds));
    }
    {
      plan::PlannerOptions popts;
      popts.enable_join_teams = false;
      popts.force_join_algo = plan::JoinAlgo::kMerge;
      auto hr = query_with(sql, popts);
      if (!hr.ok()) {
        std::printf("hique binary: %s\n", hr.status().ToString().c_str());
        return 1;
      }
      row.push_back(bench::Sec(hr.value().exec_stats.execute_seconds));
    }
    {
      plan::PlannerOptions popts;
      popts.enable_join_teams = true;
      popts.force_join_algo = plan::JoinAlgo::kMerge;
      auto hr = query_with(sql, popts);
      if (!hr.ok()) {
        std::printf("hique team merge: %s\n", hr.status().ToString().c_str());
        return 1;
      }
      row.push_back(bench::Sec(hr.value().exec_stats.execute_seconds));
    }
    {
      plan::PlannerOptions popts;
      popts.enable_join_teams = true;
      popts.force_join_algo = plan::JoinAlgo::kHybridHashSortMerge;
      popts.fine_partition_max_domain = 0;
      auto hr = query_with(sql, popts);
      if (!hr.ok()) {
        std::printf("hique team hybrid: %s\n", hr.status().ToString().c_str());
        return 1;
      }
      row.push_back(bench::Sec(hr.value().exec_stats.execute_seconds));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  return 0;
}
