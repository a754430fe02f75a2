// Scalar-vs-SIMD kernel probe: times representative workloads (selective
// scans, group-by, selective join, TPC-H Q6) through two engines that
// differ only in EngineOptions::simd. Development tool behind the
// BENCH_fig8.json perf datapoint.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "exec/engine.h"
#include "tests/test_util.h"
#include "tpch/tpch.h"
#include "util/env.h"

using namespace hique;

int main(int argc, char** argv) {
  double sf = argc > 1 ? atof(argv[1]) : 0.1;
  uint64_t rows = argc > 2 ? strtoull(argv[2], nullptr, 10) : 2000000;
  Catalog catalog;
  tpch::TpchOptions topts;
  topts.scale_factor = sf;
  if (!tpch::LoadTpch(&catalog, topts).ok()) return 1;
  testing::MakeIntTable(&catalog, "mr", rows, 100000, 5);
  testing::MakeIntTable(&catalog, "ms", rows / 4, 100000, 6);
  auto mk = [&](bool simd, const char* dir) {
    EngineOptions o;
    o.gen_dir = env::ProcessTempDir() + dir;
    o.threads = 1;
    o.compile.opt_level = 2;
    o.simd = simd;
    return o;
  };
  HiqueEngine scalar(&catalog, mk(false, "/probe_s"));
  HiqueEngine simd(&catalog, mk(true, "/probe_v"));
  struct Spec { const char* name; std::string sql; };
  Spec specs[] = {
      {"li_stream", "select sum(l_quantity) as s from lineitem"},
      {"q6", tpch::Query6Sql()},
      {"scan_sel50", "select count(*) as c from mr where mr_v < 500"},
      {"scan_sel50_sum",
       "select count(*) as c, sum(mr_d) as sd from mr where mr_v < 500"},
      {"scan_sel05", "select count(*) as c from mr where mr_v < 50"},
      {"groupby",
       "select mr_k, count(*) as c, sum(mr_d) as sd from mr group by mr_k"},
      {"sel_join",
       "select count(*) as c, sum(ms_d) as sd from mr, ms "
       "where mr_k = ms_k and mr_v >= 250 and mr_v < 750 and mr_d < 10000 "
       "and ms_v >= 250 and ms_v < 750"},
  };
  for (const Spec& s : specs) {
    double ts = 1e100, tv = 1e100;
    // Run -1 is the untimed warm-up; the -O2 tier is swapped in after it.
    for (int r = -1; r < 7; ++r) {
      auto a = scalar.Query(s.sql);
      auto b = simd.Query(s.sql);
      if (!a.ok() || !b.ok()) { std::printf("%s failed\n", s.name); return 1; }
      if (r < 0) {
        scalar.WaitForTierUpgrades();
        simd.WaitForTierUpgrades();
        continue;
      }
      ts = std::min(ts, a.value().exec_stats.execute_seconds);
      tv = std::min(tv, b.value().exec_stats.execute_seconds);
    }
    std::printf("%-16s scalar=%.6f simd=%.6f speedup=%.2fx\n", s.name, ts,
                tv, ts / tv);
  }
  std::printf("simd_level=%d\n", simd.simd_level());
  return 0;
}
