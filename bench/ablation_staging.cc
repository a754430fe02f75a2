// Ablation benches for the staging design choices DESIGN.md calls out:
//  (1) hybrid-join partition count M: the paper sizes partitions to ~L2/2;
//      this sweep shows the U-shape (few partitions -> sort dominates;
//      too many -> scatter and per-partition overhead dominate).
//  (2) fine vs coarse partitioning on a dense key domain: fine partitioning
//      skips the JIT sort and key comparisons entirely (paper §V-B).
//  (3) scalar-aggregation fusion on/off: the cost of materializing a join
//      result nobody needs (paper's no-materialization methodology).

#include <cstdio>

#include "bench_support/flags.h"
#include "bench_support/micro_data.h"
#include "exec/engine.h"
#include "util/cache_info.h"
#include "util/env.h"

using namespace hique;

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  uint64_t rows = static_cast<uint64_t>(1000000 * scale);

  Catalog catalog;
  EngineOptions eopts;
  eopts.gen_dir = env::ProcessTempDir() + "/ablation";
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

  // Dense domain so both fine and coarse partitioning apply.
  int64_t domain = static_cast<int64_t>(rows / 10) + 1;
  bench::MicroTableSpec spec;
  spec.rows = rows;
  spec.key_domain = domain;
  spec.seed = 61;
  (void)bench::MakeMicroTable(&catalog, "ao", spec).value();
  spec.seed = 62;
  (void)bench::MakeMicroTable(&catalog, "ai", spec).value();
  std::string sql =
      "select count(*) as cnt, sum(ai_a) as s from ao, ai where ao_k = ai_k";

  std::printf("Ablation 1: hybrid-join partition count (input %llu x %llu "
              "72B tuples; host L2 = %zu KB; the planner default targets "
              "partitions of ~L2/2)\n\n",
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(rows),
              HostCacheInfo().l2_bytes / 1024);
  {
    bench::ResultPrinter table({"partitions", "largest partition (KB)",
                                "time (s)"});
    for (uint32_t parts : {2u, 8u, 32u, 128u, 512u, 2048u, 8192u}) {
      plan::PlannerOptions popts;
      popts.force_join_algo = plan::JoinAlgo::kHybridHashSortMerge;
      popts.fine_partition_max_domain = 0;
      popts.force_partitions = parts;
      auto r = query_with(sql, popts);
      if (!r.ok()) {
        std::printf("M=%u: %s\n", parts, r.status().ToString().c_str());
        return 1;
      }
      uint64_t part_kb = rows * 24 / parts / 1024;  // staged record ~24B
      table.AddRow({std::to_string(parts), std::to_string(part_kb),
                    bench::Sec(r.value().exec_stats.execute_seconds)});
    }
    table.Print();
  }

  std::printf("\nAblation 2: fine vs coarse partitioning on a dense key "
              "domain (%lld values)\n\n", static_cast<long long>(domain));
  {
    bench::ResultPrinter table({"staging", "time (s)"});
    {
      plan::PlannerOptions popts;
      popts.force_join_algo = plan::JoinAlgo::kHybridHashSortMerge;
      popts.fine_partition_max_domain = domain + 1;  // allow fine
      auto r = query_with(sql, popts);
      if (!r.ok()) {
        std::printf("fine: %s\n", r.status().ToString().c_str());
        return 1;
      }
      table.AddRow({"fine (value map, no JIT sort)",
                    bench::Sec(r.value().exec_stats.execute_seconds)});
    }
    {
      plan::PlannerOptions popts;
      popts.force_join_algo = plan::JoinAlgo::kHybridHashSortMerge;
      popts.fine_partition_max_domain = 0;  // force coarse
      auto r = query_with(sql, popts);
      if (!r.ok()) {
        std::printf("coarse: %s\n", r.status().ToString().c_str());
        return 1;
      }
      table.AddRow({"coarse (hash) + JIT partition sort",
                    bench::Sec(r.value().exec_stats.execute_seconds)});
    }
    table.Print();
  }

  std::printf("\nAblation 3: scalar-aggregation fusion (avoiding join-output "
              "materialization)\n\n");
  {
    bench::ResultPrinter table({"plan", "time (s)"});
    // Fused: the default plan for this query.
    {
      plan::PlannerOptions popts;
      popts.fine_partition_max_domain = 0;
      auto r = query_with(sql, popts);
      if (!r.ok()) {
        std::printf("fused: %s\n", r.status().ToString().c_str());
        return 1;
      }
      table.AddRow({"fused (accumulate in join loops)",
                    bench::Sec(r.value().exec_stats.execute_seconds)});
    }
    // Unfused: group by a constant-ish key forces a real aggregation over a
    // materialized join result. Grouping on ao_v (10k distinct) keeps the
    // aggregation itself cheap; the added cost is the materialization.
    {
      std::string sql2 =
          "select ao_v, count(*) as cnt, sum(ai_a) as s from ao, ai "
          "where ao_k = ai_k group by ao_v";
      plan::PlannerOptions popts;
      popts.fine_partition_max_domain = 0;
      auto r = query_with(sql2, popts);
      if (!r.ok()) {
        std::printf("unfused: %s\n", r.status().ToString().c_str());
        return 1;
      }
      table.AddRow({"materialize join output, then aggregate",
                    bench::Sec(r.value().exec_stats.execute_seconds)});
    }
    table.Print();
  }
  return 0;
}
