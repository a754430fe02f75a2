// Runtime compilation / execution layer tests: compiler driver, dlopen
// executor, arena, compiled-query cache, and the map-overflow re-planning
// path (stale statistics).

#include <gtest/gtest.h>

#include "exec/arena.h"
#include "exec/compiler.h"
#include "exec/engine.h"
#include "tests/test_util.h"
#include "util/env.h"

namespace hique {
namespace {

TEST(ArenaTest, AlignmentAndGrowth) {
  Arena arena;
  void* a = arena.Allocate(1);
  void* b = arena.Allocate(100);
  void* c = arena.Allocate(10 << 20);  // exceeds one block
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 64, 0u);
  EXPECT_GE(arena.total_allocated(), (10u << 20));
}

TEST(CompilerTest, CompilesValidSource) {
  std::string dir = env::ProcessTempDir() + "/compiler_test";
  exec::CompileOptions opts;
  auto result = exec::CompileToSharedLibrary(
      "extern \"C\" int forty_two() { return 42; }", dir, "ok", opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().library_bytes, 0);
  EXPECT_TRUE(env::FileExists(result.value().library_path));
}

TEST(CompilerTest, ReportsCompileErrors) {
  std::string dir = env::ProcessTempDir() + "/compiler_test";
  exec::CompileOptions opts;
  auto result = exec::CompileToSharedLibrary("this is not C++", dir, "bad",
                                             opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCompileError);
}

TEST(CompilerTest, OptLevelChangesArtifact) {
  std::string dir = env::ProcessTempDir() + "/compiler_test";
  std::string src = R"(
extern "C" double work(double x) {
  double acc = 0;
  for (int i = 0; i < 1000; ++i) acc += x * i;
  return acc;
}
)";
  exec::CompileOptions o0;
  o0.opt_level = 0;
  exec::CompileOptions o2;
  o2.opt_level = 2;
  auto r0 = exec::CompileToSharedLibrary(src, dir, "o0", o0);
  auto r2 = exec::CompileToSharedLibrary(src, dir, "o2", o2);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(r0.value().library_bytes, 0);
  EXPECT_GT(r2.value().library_bytes, 0);
}

TEST(EngineTest, CompiledCacheReuse) {
  Catalog catalog;
  testing::MakeIntTable(&catalog, "t", 500, 10, 3);
  HiqueEngine engine(&catalog);
  std::string sql = "select t_k, count(*) from t group by t_k";
  auto first = engine.Query(sql);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().cache_stats.entries, 1u);
  EXPECT_EQ(first.value().cache_stats.misses, 1u);
  EXPECT_FALSE(first.value().cache_hit);
  EXPECT_GT(first.value().timings.compile_ms, 0.0);
  auto second = engine.Query(sql);
  ASSERT_TRUE(second.ok());
  CacheStats stats = second.value().cache_stats;
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 1u);
  // A cache hit pays no generation or compilation.
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_EQ(second.value().timings.generate_ms, 0.0);
  EXPECT_EQ(second.value().timings.compile_ms, 0.0);
  EXPECT_EQ(second.value().plan_signature, first.value().plan_signature);
  EXPECT_EQ(first.value().NumRows(), second.value().NumRows());
}

TEST(EngineTest, MapOverflowReplansWithHybrid) {
  Catalog catalog;
  Table* t = testing::MakeIntTable(&catalog, "t", 200, 4, 5);
  // Make the statistics stale: claim 4 distinct keys, then insert many new
  // ones. Map aggregation's directories will overflow at run time and the
  // engine must transparently re-plan with hybrid aggregation.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int32(1000 + i), Value::Int32(i),
                              Value::Double(i), Value::Char("x", 8)})
                    .ok());
  }
  t->mutable_stats().valid = true;  // keep the stale statistics

  std::string sql = "select t_k, count(*), sum(t_v) from t group by t_k";
  auto expected = ref::ExecuteSql(sql, catalog);
  ASSERT_TRUE(expected.ok());

  HiqueEngine engine(&catalog);
  auto r = engine.Query(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<ref::Row> actual;
  for (auto& row : r.value().Rows()) actual.push_back(row);
  Status cmp = ref::CompareRowSets(expected.value(), actual, false);
  EXPECT_TRUE(cmp.ok()) << cmp.ToString();
  // The replanned query must not use map aggregation.
  EXPECT_EQ(r.value().plan_text.find("agg map"), std::string::npos)
      << r.value().plan_text;

  // The fallback library is aliased under the overflowing plan's signature:
  // repeating the query hits the cache instead of re-executing to overflow.
  auto repeat = engine.Query(sql);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_TRUE(repeat.value().cache_hit);
  std::vector<ref::Row> repeat_rows;
  for (auto& row : repeat.value().Rows()) repeat_rows.push_back(row);
  Status repeat_cmp = ref::CompareRowSets(expected.value(), repeat_rows,
                                          false);
  EXPECT_TRUE(repeat_cmp.ok()) << repeat_cmp.ToString();
}

TEST(EngineTest, UncachedArtefactsDeletedAfterExecution) {
  Catalog catalog;
  testing::MakeIntTable(&catalog, "t", 100, 5, 9);
  std::string gen_dir = env::ProcessTempDir() + "/gen_cleanup";
  {
    EngineOptions opts;
    opts.gen_dir = gen_dir;
    HiqueEngine engine(&catalog, opts);
    // Cached artefacts live exactly as long as a library holds them.
    ASSERT_TRUE(engine.Query("select count(*) from t").ok());
    engine.WaitForTierUpgrades();
  }
  // Engine destroyed: every library unloaded, gen dir empty again.
  auto files = env::ListDir(gen_dir);
  ASSERT_TRUE(files.ok());
  EXPECT_TRUE(files.value().empty());

  // max_cached_queries = 0 turns the cache off: nothing is kept, nothing is
  // tiered, and the artefacts go with the query instead of piling up in
  // the gen dir run after run.
  EngineOptions uncached;
  uncached.gen_dir = gen_dir;
  uncached.max_cached_queries = 0;
  {
    HiqueEngine engine(&catalog, uncached);
    auto r = engine.Query("select count(*) from t");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().cache_stats.entries, 0u);
    EXPECT_EQ(r.value().library_opt_level, uncached.compile.opt_level);
    files = env::ListDir(gen_dir);
    ASSERT_TRUE(files.ok());
    EXPECT_TRUE(files.value().empty())
        << files.value().size() << " artefacts left behind";
  }

  // A cached engine at opt_level 0 is already at its final tier: a miss
  // compiles once at -O0 and schedules no upgrade.
  EngineOptions o0;
  o0.gen_dir = gen_dir;
  o0.compile.opt_level = 0;
  HiqueEngine engine(&catalog, o0);
  auto r = engine.Query("select count(*) from t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  engine.WaitForTierUpgrades();
  EXPECT_EQ(engine.CacheStats().tier_upgrades, 0u);
  auto again = engine.Query("select count(*) from t");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again.value().cache_hit);
  EXPECT_EQ(again.value().library_opt_level, 0);
}

TEST(EngineTest, KeepSourceRetainsArtefacts) {
  Catalog catalog;
  testing::MakeIntTable(&catalog, "t", 100, 5, 10);
  std::string gen_dir = env::ProcessTempDir() + "/gen_keep";
  {
    EngineOptions opts;
    opts.gen_dir = gen_dir;
    opts.keep_source = true;
    opts.max_cached_queries = 0;
    HiqueEngine engine(&catalog, opts);
    ASSERT_TRUE(engine.Query("select count(*) from t").ok());
  }
  auto files = env::ListDir(gen_dir);
  ASSERT_TRUE(files.ok());
  EXPECT_FALSE(files.value().empty());
}

TEST(EngineTest, EnginesSharingAGenDirRunTheirOwnLibraries) {
  Catalog catalog;
  testing::MakeIntTable(&catalog, "t", 100, 5, 12);
  // Default options: both engines write their artefacts into the process's
  // one default gen dir. dlopen of a path that is already loaded returns
  // the loaded library, so artefact names must not repeat across engines.
  HiqueEngine a(&catalog);
  HiqueEngine b(&catalog);
  // The prepared statement pins `a`'s first library (through a tier swap
  // too) while `b` compiles and loads its own first library.
  auto count = a.Prepare("select count(*) from t");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  Status s = testing::CheckAgainstReference(
      &b, "select t_k, t_v from t where t_v < 500");
  EXPECT_TRUE(s.ok()) << s.ToString();
  auto n = a.Execute(count.value());
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_EQ(n.value().NumRows(), 1);
  EXPECT_EQ(n.value().Rows()[0][0].AsInt64(), 100);
}

TEST(EngineTest, KeepSourceExposesGeneratedCode) {
  Catalog catalog;
  testing::MakeIntTable(&catalog, "t", 100, 5, 6);
  EngineOptions opts;
  opts.keep_source = true;
  HiqueEngine engine(&catalog, opts);
  auto r = engine.Query("select t_k from t where t_v < 100");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().generated_source.find("hique_query_main"),
            std::string::npos);
  EXPECT_NE(r.value().generated_source.find("hq_stage_base<"),
            std::string::npos);
}

TEST(EngineTest, SoftwareCountersPopulated) {
  Catalog catalog;
  testing::MakeIntTable(&catalog, "t", 2000, 10, 7);
  HiqueEngine engine(&catalog);
  auto r = engine.Query("select count(*) from t");
  ASSERT_TRUE(r.ok());
  // Generated code touches every page exactly once for this query.
  Table* t = catalog.GetTable("t").value();
  EXPECT_EQ(r.value().exec_stats.pages_touched, t->NumPages());
  EXPECT_EQ(r.value().exec_stats.rows, 1);
}

TEST(EngineTest, PlannerErrorsSurface) {
  Catalog catalog;
  testing::MakeIntTable(&catalog, "t", 100, 5, 8);
  HiqueEngine engine(&catalog);
  EXPECT_FALSE(engine.Query("select nothere from t").ok());
  EXPECT_FALSE(engine.Query("not even sql").ok());
}

}  // namespace
}  // namespace hique
