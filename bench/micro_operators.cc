// google-benchmark microbenchmarks for the public storage / engine
// primitives: page-wise scans, statistics, and end-to-end engine
// comparison on a small fixed query.

#include <benchmark/benchmark.h>

#include "bench_support/micro_data.h"
#include "column/column_engine.h"
#include "exec/engine.h"
#include "iterator/volcano_engine.h"
#include "util/env.h"

namespace {

using namespace hique;

struct Fixture {
  Catalog catalog;
  std::unique_ptr<HiqueEngine> hique;
  std::unique_ptr<iter::VolcanoEngine> volcano;
  std::unique_ptr<col::ColumnEngine> column;
  std::string sql;

  Fixture() {
    bench::MicroTableSpec spec;
    spec.rows = 100000;
    spec.key_domain = 1000;
    spec.seed = 99;
    (void)bench::MakeMicroTable(&catalog, "m", spec).value();
    EngineOptions eopts;
    eopts.gen_dir = env::ProcessTempDir() + "/microops";
    hique = std::make_unique<HiqueEngine>(&catalog, eopts);
    volcano =
        std::make_unique<iter::VolcanoEngine>(&catalog, iter::Mode::kGeneric);
    column = std::make_unique<col::ColumnEngine>(&catalog);
    (void)column->Decompose("m");
    sql = "select m_k, sum(m_a) as s, count(*) as c from m group by m_k";
    // Warm the compiled-query cache so the engine benchmark measures
    // execution, not compilation.
    (void)hique->Query(sql);
  }
};

Fixture& GetFixture() {
  static Fixture* f = new Fixture();
  return *f;
}

void BM_TableScan(benchmark::State& state) {
  Fixture& f = GetFixture();
  Table* t = f.catalog.GetTable("m").value();
  for (auto _ : state) {
    uint64_t checksum = 0;
    (void)t->ForEachTuple([&](const uint8_t* tuple) {
      int32_t v;
      std::memcpy(&v, tuple, 4);
      checksum += static_cast<uint64_t>(v);
    });
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(t->NumTuples()));
}
BENCHMARK(BM_TableScan);

void BM_ComputeStats(benchmark::State& state) {
  Fixture& f = GetFixture();
  Table* t = f.catalog.GetTable("m").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(t->ComputeStats().ok());
  }
}
BENCHMARK(BM_ComputeStats);

void BM_EngineHique(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    auto r = f.hique->Query(f.sql);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r.value().NumRows());
  }
}
BENCHMARK(BM_EngineHique);

void BM_EngineVolcanoGeneric(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    auto r = f.volcano->Query(f.sql);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r.value().stats.rows);
  }
}
BENCHMARK(BM_EngineVolcanoGeneric);

void BM_EngineColumn(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    auto r = f.column->Query(f.sql);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r.value().table->NumTuples());
  }
}
BENCHMARK(BM_EngineColumn);

}  // namespace

BENCHMARK_MAIN();
