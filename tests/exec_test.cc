// Runtime compilation / execution layer tests: compiler driver, dlopen
// executor, arena, compiled-query cache, and the map-overflow re-planning
// path (stale statistics).

#include <elf.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>

#include "exec/arena.h"
#include "exec/compiled_library.h"
#include "exec/compiler.h"
#include "exec/compiler_internal.h"
#include "exec/engine.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "util/env.h"

namespace hique {
namespace {

TEST(ArenaTest, AlignmentAndGrowth) {
  exec::ArenaPool pool;
  exec::Arena arena(&pool, 0);
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

constexpr uint64_t kBlock = exec::ArenaPool::kBlockSize;

/// One simulated execution: arena slot s takes blocks[s] blocks (one
/// 3 MB request each, so every request opens a block) and returns the
/// block addresses per slot, in the order taken.
struct PoolRun {
  std::vector<std::vector<void*>> blocks;
  uint64_t fresh = 0;
};
PoolRun RunOnPool(exec::ArenaPool* pool, const std::vector<int>& blocks) {
  PoolRun run;
  {
    std::vector<std::unique_ptr<exec::Arena>> arenas;
    for (uint32_t s = 0; s < blocks.size(); ++s) {
      arenas.push_back(std::make_unique<exec::Arena>(pool, s));
      run.blocks.emplace_back();
      for (int i = 0; i < blocks[s]; ++i) {
        void* p = arenas[s]->Allocate(3u << 20);
        EXPECT_NE(p, nullptr);
        run.blocks[s].push_back(p);
      }
    }
    for (const auto& a : arenas) run.fresh += a->fresh_bytes();
  }
  pool->EndExecution();
  return run;
}

TEST(ArenaPoolTest, SecondRunTakesEveryBlockFromItsSlotInOrder) {
  exec::ArenaPool pool;
  const std::vector<int> shape = {3, 2, 4};
  PoolRun first = RunOnPool(&pool, shape);
  EXPECT_EQ(first.fresh, 9 * kBlock);
  EXPECT_EQ(pool.pooled_bytes(), 9 * kBlock);
  PoolRun second = RunOnPool(&pool, shape);
  EXPECT_EQ(second.fresh, 0u);
  EXPECT_EQ(second.blocks, first.blocks);
  // A smaller run takes the head of each slot's order; the next full run
  // still finds every block where it was.
  PoolRun small = RunOnPool(&pool, {1, 1, 1});
  EXPECT_EQ(small.fresh, 0u);
  for (size_t s = 0; s < shape.size(); ++s) {
    EXPECT_EQ(small.blocks[s][0], first.blocks[s][0]);
  }
  EXPECT_EQ(RunOnPool(&pool, shape).blocks, first.blocks);
  // A slot that needs more than it used takes another slot's spare
  // blocks before it goes to the OS.
  PoolRun shifted = RunOnPool(&pool, {5, 0, 4});
  EXPECT_EQ(shifted.fresh, 0u);
}

// Copies between the starts of two blocks must not alias loads with
// stores, so no two of a run's fresh blocks share their page offset.
TEST(ArenaPoolTest, FreshBlocksStartAtDifferentPageOffsets) {
  exec::ArenaPool pool;
  std::set<uintptr_t> offsets;
  for (const auto& slot : RunOnPool(&pool, {8, 8}).blocks) {
    for (void* b : slot) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
      offsets.insert(reinterpret_cast<uintptr_t>(b) % 4096);
    }
  }
  EXPECT_EQ(offsets.size(), 16u);
}

TEST(ArenaPoolTest, OversizedRequestsBypassThePool) {
  exec::ArenaPool pool;
  for (int run = 0; run < 2; ++run) {
    {
      exec::Arena arena(&pool, 0);
      ASSERT_NE(arena.Allocate(kBlock + 1), nullptr);
      EXPECT_EQ(arena.fresh_bytes(), kBlock + 64);
    }
    pool.EndExecution();
    EXPECT_EQ(pool.pooled_bytes(), 0u);
  }
}

TEST(ArenaPoolTest, PooledBlocksAreChargedToTheBudget) {
  exec::ArenaPool pool;
  RunOnPool(&pool, {2});
  std::atomic<int64_t> budget{static_cast<int64_t>(kBlock)};
  {
    exec::Arena arena(&pool, 0, &budget);
    ASSERT_NE(arena.Allocate(3u << 20), nullptr);
    EXPECT_EQ(arena.fresh_bytes(), 0u);  // the first block was pooled
    EXPECT_EQ(budget.load(), 0);
    EXPECT_EQ(arena.Allocate(3u << 20), nullptr);  // HQ_ERR_OOM
    EXPECT_EQ(budget.load(), 0);
  }
  pool.EndExecution();
}

TEST(ArenaPoolTest, OneOffLargeRunIsFreedAfterTheWindow) {
  exec::ArenaPool pool;
  RunOnPool(&pool, {6, 2});
  EXPECT_EQ(pool.pooled_bytes(), 8 * kBlock);
  for (size_t i = 1; i < exec::ArenaPool::kWindow; ++i) {
    EXPECT_EQ(RunOnPool(&pool, {1}).fresh, 0u);
    EXPECT_EQ(pool.pooled_bytes(), 8 * kBlock) << "after " << i << " runs";
  }
  RunOnPool(&pool, {1});
  EXPECT_EQ(pool.pooled_bytes(), kBlock);
}

/// What the process's arena pools hold (hique_arena_pool_bytes).
int64_t PooledGauge() {
  return obs::Registry::Global().GetGauge("hique_arena_pool_bytes", "")
      ->Value();
}

TEST(ArenaPoolTest, BlocksAreFreedWithThePool) {
  const int64_t before = PooledGauge();
  {
    exec::ArenaPool pool;
    RunOnPool(&pool, {2, 1});
    EXPECT_EQ(PooledGauge(), before + static_cast<int64_t>(3 * kBlock));
  }
  EXPECT_EQ(PooledGauge(), before);
}

/// Two 200k-row tables joined through coarse partitioning: staging and
/// partitioning take several arena blocks, no single request a whole one.
void MakeJoinTables(Catalog* catalog) {
  testing::MakeIntTable(catalog, "r", 200000, 200000, 21);
  testing::MakeIntTable(catalog, "s", 200000, 200000, 22);
}
const char* kJoinSql = "select count(*) from r, s where r_k = s_k";

TEST(ArenaPoolTest, WarmEngineRunTakesNoFreshBlocks) {
  Catalog catalog;
  MakeJoinTables(&catalog);
  EngineOptions opts;
  opts.threads = 1;
  HiqueEngine engine(&catalog, opts);
  auto first = engine.Query(kJoinSql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const exec::ExecStats& cold = first.value().exec_stats;
  ASSERT_GT(cold.arena_bytes, kBlock);
  EXPECT_GT(cold.arena_fresh_bytes, kBlock);
  auto second = engine.Query(kJoinSql);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().exec_stats.arena_bytes, cold.arena_bytes);
  EXPECT_EQ(second.value().exec_stats.arena_fresh_bytes, 0u);
}

TEST(ArenaPoolTest, BudgetOfOneBlockFailsOnTheSecondPooledRun) {
  Catalog catalog;
  MakeJoinTables(&catalog);
  EngineOptions opts;
  opts.threads = 1;
  opts.arena_limit_bytes = kBlock;
  const int64_t before = PooledGauge();
  HiqueEngine engine(&catalog, opts);
  for (int run = 0; run < 2; ++run) {
    // The second run's first block comes from the pool; its second still
    // exceeds the budget.
    auto r = engine.Query(kJoinSql);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("out of memory"), std::string::npos)
        << r.status().ToString();
    EXPECT_EQ(PooledGauge(), before + static_cast<int64_t>(kBlock));
  }
}

TEST(ArenaPoolTest, BlocksAreFreedWithTheEngine) {
  Catalog catalog;
  MakeJoinTables(&catalog);
  EngineOptions opts;
  opts.threads = 1;
  const int64_t before = PooledGauge();
  {
    HiqueEngine engine(&catalog, opts);
    auto r = engine.Query(kJoinSql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(PooledGauge(),
              before + static_cast<int64_t>(
                           r.value().exec_stats.arena_fresh_bytes));
  }
  EXPECT_EQ(PooledGauge(), before);
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

/// Sets an environment variable for one scope, restoring the old value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, old_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

/// True once `pid` has exited (gone, or a zombie awaiting its reaper).
bool ProcessGone(pid_t pid) {
  auto stat = env::ReadFile("/proc/" + std::to_string(pid) + "/stat");
  if (!stat.ok()) return true;
  size_t paren = stat.value().rfind(')');
  return paren != std::string::npos && paren + 2 < stat.value().size() &&
         stat.value()[paren + 2] == 'Z';
}

/// Names of the undefined symbols in the dynamic symbol table of the
/// 64-bit ELF shared library at `path`.
std::vector<std::string> UndefinedDynamicSymbols(const std::string& path) {
  std::vector<std::string> names;
  auto file = env::ReadFile(path);
  if (!file.ok()) return names;
  const std::string& bytes = file.value();
  if (bytes.size() < sizeof(Elf64_Ehdr)) return names;
  Elf64_Ehdr eh;
  std::memcpy(&eh, bytes.data(), sizeof(eh));
  auto section = [&](size_t i) {
    Elf64_Shdr sh;
    std::memcpy(&sh, bytes.data() + eh.e_shoff + i * eh.e_shentsize,
                sizeof(sh));
    return sh;
  };
  for (size_t i = 0; i < eh.e_shnum; ++i) {
    Elf64_Shdr symtab = section(i);
    if (symtab.sh_type != SHT_DYNSYM) continue;
    Elf64_Shdr strtab = section(symtab.sh_link);
    for (size_t off = symtab.sh_entsize; off < symtab.sh_size;
         off += symtab.sh_entsize) {
      Elf64_Sym sym;
      std::memcpy(&sym, bytes.data() + symtab.sh_offset + off, sizeof(sym));
      if (sym.st_shndx == SHN_UNDEF) {
        names.emplace_back(bytes.data() + strtab.sh_offset + sym.st_name);
      }
    }
  }
  return names;
}

TEST(CompilerTest, HungCompilerIsKilledAtTheDeadline) {
  std::string dir = env::ProcessTempDir() + "/compiler_hang";
  ASSERT_TRUE(env::MakeDirs(dir).ok());
  // A "compiler" that never finishes and has a child of its own, as g++
  // has cc1plus: the deadline must take down the whole process group.
  const std::string stub = dir + "/sleepy-cxx";
  const std::string pid_file = dir + "/grandchild.pid";
  ASSERT_TRUE(env::WriteFile(stub, "#!/bin/sh\nsleep 30 &\necho $! > '" +
                                       pid_file + "'\nwait\n")
                  .ok());
  ASSERT_EQ(chmod(stub.c_str(), 0755), 0);
  ScopedEnv cxx("HIQUE_CXX", stub);
  exec::CompileOptions opts;
  opts.keep_source = false;
  const double deadline_s = 1;
  auto start = std::chrono::steady_clock::now();
  auto result = exec::internal::CompileWithDeadline(
      "extern \"C\" int f() { return 1; }", dir, "hung", opts, deadline_s);
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCompileError);
  EXPECT_NE(result.status().message().find("deadline"), std::string::npos)
      << result.status().message();
  EXPECT_LT(elapsed, deadline_s + 2);
  EXPECT_FALSE(env::FileExists(dir + "/hung.so"));
  EXPECT_FALSE(env::FileExists(dir + "/hung.cc"));
  // The compiler was reaped: this process has no child left.
  int status = 0;
  EXPECT_EQ(waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
  // And its own child died with it.
  auto pid_text = env::ReadFile(pid_file);
  ASSERT_TRUE(pid_text.ok());
  const pid_t grandchild = std::atoi(pid_text.value().c_str());
  ASSERT_GT(grandchild, 0);
  for (int i = 0; i < 200 && !ProcessGone(grandchild); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(ProcessGone(grandchild));
}

TEST(CompilerTest, CompilerInheritsNoHostDescriptor) {
  std::string dir = env::ProcessTempDir() + "/compiler_fds";
  ASSERT_TRUE(env::MakeDirs(dir).ok());
  // A descriptor opened without O_CLOEXEC, as the server's sockets are.
  const std::string marker = dir + "/host-only-marker";
  ASSERT_TRUE(env::WriteFile(marker, "").ok());
  const int fd = open(marker.c_str(), O_RDONLY);
  ASSERT_GT(fd, STDERR_FILENO);
  // The stub prints what its copy of `fd` refers to, if anything; a failed
  // compile returns the log in its message.
  const std::string stub = dir + "/fd-cxx";
  ASSERT_TRUE(env::WriteFile(stub, "#!/bin/sh\necho stub ran\nreadlink "
                                   "/proc/$$/fd/" + std::to_string(fd) +
                                       "\nexit 1\n")
                  .ok());
  ASSERT_EQ(chmod(stub.c_str(), 0755), 0);
  ScopedEnv cxx("HIQUE_CXX", stub);
  auto result = exec::CompileToSharedLibrary(
      "extern \"C\" int f() { return 1; }", dir, "fds",
      exec::CompileOptions());
  close(fd);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("stub ran"), std::string::npos)
      << result.status().message();
  EXPECT_EQ(result.status().message().find("host-only-marker"),
            std::string::npos)
      << result.status().message();
}

TEST(CompilerTest, MissingCompilerIsACompileError) {
  std::string dir = env::ProcessTempDir() + "/compiler_test";
  ScopedEnv cxx("HIQUE_CXX", dir + "/no-such-compiler");
  auto result = exec::CompileToSharedLibrary(
      "extern \"C\" int f() { return 1; }", dir, "missing",
      exec::CompileOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCompileError);
  EXPECT_FALSE(env::FileExists(dir + "/missing.so"));
}

TEST(CompilerTest, MultiWordCompilerCommand) {
  // HIQUE_CXX="ccache g++" style: the command is split on whitespace.
  std::string dir = env::ProcessTempDir() + "/compiler_test";
  ScopedEnv cxx("HIQUE_CXX", "env " + exec::RuntimeCompilerPath());
  auto result = exec::CompileToSharedLibrary(
      "extern \"C\" int f() { return 1; }", dir, "multiword",
      exec::CompileOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(env::FileExists(result.value().library_path));
}

TEST(CompilerTest, GenDirWithSpaceAndQuote) {
  // No shell parses the command line, so no path needs quoting.
  std::string dir = env::ProcessTempDir() + "/it's a gen dir";
  auto result = exec::CompileToSharedLibrary(
      "extern \"C\" int f() { return 1; }", dir, "quoted",
      exec::CompileOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto lib = exec::CompiledLibrary::Load(std::move(result).value(), "f", "",
                                         2, /*unlink_on_unload=*/true);
  EXPECT_TRUE(lib.ok()) << lib.status().ToString();
}

TEST(CompilerTest, LeanLinkResolvesCompilerHelpers) {
  // At -O0 without -mpopcnt, __builtin_popcountll calls libgcc's
  // __popcountdi2. Only -lgcc after the source links it into the library
  // (before it, the archive is scanned while nothing is undefined yet), and
  // -nostdlib leaves out the crt files' references: the library needs
  // nothing from its host.
  std::string dir = env::ProcessTempDir() + "/compiler_test";
  exec::CompileOptions opts;
  opts.opt_level = 0;
  auto result = exec::CompileToSharedLibrary(
      "extern \"C\" long hq_pop(unsigned long long x) {\n"
      "  return __builtin_popcountll(x);\n"
      "}\n",
      dir, "popcount", opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(UndefinedDynamicSymbols(result.value().library_path),
            std::vector<std::string>{});
  auto lib = exec::CompiledLibrary::Load(std::move(result).value(), "hq_pop",
                                         "", 0, /*unlink_on_unload=*/true);
  ASSERT_TRUE(lib.ok()) << lib.status().ToString();
  auto pop = reinterpret_cast<long (*)(unsigned long long)>(
      lib.value()->entry());
  EXPECT_EQ(pop(0xF0F0ull), 8);
}

TEST(CompilerTest, UnresolvedSymbolIsATypedLoadError) {
  // The lean link leaves undefined symbols to the host; one the host lacks
  // fails the dlopen, which comes back as a status, not a crash.
  std::string dir = env::ProcessTempDir() + "/compiler_test";
  auto result = exec::CompileToSharedLibrary(
      "extern \"C\" int hq_not_in_any_host();\n"
      "extern \"C\" int f() { return hq_not_in_any_host(); }\n",
      dir, "unresolved", exec::CompileOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(UndefinedDynamicSymbols(result.value().library_path),
            std::vector<std::string>{"hq_not_in_any_host"});
  auto lib = exec::CompiledLibrary::Load(std::move(result).value(), "f", "",
                                         2, /*unlink_on_unload=*/true);
  ASSERT_FALSE(lib.ok());
  EXPECT_EQ(lib.status().code(), StatusCode::kExecError);
  EXPECT_NE(lib.status().message().find("hq_not_in_any_host"),
            std::string::npos)
      << lib.status().message();
}

TEST(EngineTest, TiersUpOnFirstReuseOnly) {
  Catalog catalog;
  testing::MakeIntTable(&catalog, "t", 300, 10, 4);
  const std::string sql = "select t_k, count(*) from t group by t_k";
  {
    // A statement that never repeats never pays for the -O2 compile.
    HiqueEngine engine(&catalog);
    ASSERT_TRUE(engine.Query(sql).ok());
    engine.WaitForTierUpgrades();
    EXPECT_EQ(engine.CacheStats().tier_upgrades, 0u);
    // Its first reuse schedules exactly one upgrade; later ones none.
    auto again = engine.Query(sql);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_TRUE(again.value().cache_hit);
    engine.WaitForTierUpgrades();
    EXPECT_EQ(engine.CacheStats().tier_upgrades, 1u);
    auto tiered = engine.Query(sql);
    ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
    EXPECT_EQ(tiered.value().library_opt_level, 2);
    engine.WaitForTierUpgrades();
    EXPECT_EQ(engine.CacheStats().tier_upgrades, 1u);
  }
  {
    // Prepare compiles the plan; the first Execute is its reuse.
    HiqueEngine engine(&catalog);
    auto stmt = engine.Prepare(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    engine.WaitForTierUpgrades();
    EXPECT_EQ(engine.CacheStats().tier_upgrades, 0u);
    ASSERT_TRUE(engine.Execute(stmt.value()).ok());
    engine.WaitForTierUpgrades();
    EXPECT_EQ(engine.CacheStats().tier_upgrades, 1u);
    auto tiered = engine.Execute(stmt.value());
    ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
    EXPECT_EQ(tiered.value().library_opt_level, 2);
  }
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
