// Intra-query parallelism tests: partition-parallel execution over the
// shared exec::WorkerPool must be *bit-identical* to serial execution —
// the task decomposition is fixed by the data, so the result bytes, the
// row order, and the deterministic software counters may not depend on
// the thread count. Also covers clean cancellation (worker OOM) and the
// thread-count-independence of the generated source.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "codegen/runtime_abi.h"
#include "exec/engine.h"
#include "exec/worker_pool.h"
#include "tests/test_util.h"
#include "tpch/tpch.h"

namespace hique {
namespace {

/// A Zipfian-skewed int table: key popularity follows a power law (the
/// heaviest key draws a few percent of all rows), which is exactly the
/// workload where a static decomposition leaves one task carrying a fat
/// key group while the rest idle.
Table* MakeSkewedIntTable(Catalog* catalog, const std::string& name,
                          uint64_t rows, int64_t key_domain, uint64_t seed) {
  Schema schema;
  schema.AddColumn(name + "_k", Type::Int32());
  schema.AddColumn(name + "_v", Type::Int32());
  schema.AddColumn(name + "_d", Type::Double());
  Table* t = catalog->CreateTable(name, schema).value();
  Rng rng(seed);
  for (uint64_t i = 0; i < rows; ++i) {
    // Inverse-CDF of a power law: u^2 piles the mass onto the low keys.
    double u = static_cast<double>(rng.NextBounded(1u << 20)) / (1u << 20);
    auto k = static_cast<int32_t>(u * u * static_cast<double>(key_domain));
    if (k >= key_domain) k = static_cast<int32_t>(key_domain) - 1;
    int32_t v = static_cast<int32_t>(rng.NextBounded(1000));
    (void)t->AppendRow({Value::Int32(k), Value::Int32(v),
                        Value::Double(v * 0.25 + k)});
  }
  HQ_CHECK(t->ComputeStats().ok());
  return t;
}

/// Raw result tuples, in emission order: byte-exact comparison material.
std::vector<std::string> ResultTuples(const QueryResult& r) {
  std::vector<std::string> rows;
  if (!r.table) return rows;
  uint32_t sz = r.table->schema().TupleSize();
  (void)r.table->ForEachTuple([&](const uint8_t* tuple) {
    rows.emplace_back(reinterpret_cast<const char*>(tuple), sz);
  });
  return rows;
}

class ParallelExecTest : public ::testing::Test {
 public:
  static Catalog& SharedCatalog() {
    static Catalog* catalog = [] {
      auto* c = new Catalog();
      tpch::TpchOptions opts;
      opts.scale_factor = 0.005;
      HQ_CHECK(tpch::LoadTpch(c, opts).ok());
      // Micro tables exercise joins/groupings beyond the TPC-H trio.
      testing::MakeIntTable(c, "pr", 20000, 50, 7);
      testing::MakeIntTable(c, "ps", 30000, 50, 8);
      // Zipfian tables: large enough that the optimizer picks par_tasks > 1
      // (>= 2 * 8192 rows), skewed enough that range tasks are unbalanced.
      MakeSkewedIntTable(c, "zr", 24000, 4000, 11);
      MakeSkewedIntTable(c, "zs", 36000, 4000, 12);
      return c;
    }();
    return *catalog;
  }

  static EngineOptions Options(uint32_t threads) {
    // Each engine gets a private gen dir: artifact names restart at q0 per
    // engine, so two engines sharing a directory would collide.
    EngineOptions o;
    o.threads = threads;
    // -O0, so nothing tiers up: each matrix point compiles once, quickly;
    // parallel correctness is independent of the compiler opt level.
    o.compile.opt_level = 0;
    return o;
  }

  static std::vector<std::string> Queries() {
    return {
        tpch::Query1Sql(),
        tpch::Query3Sql(),
        tpch::Query10Sql(),
        // Hybrid join + grouped aggregation + order by.
        "select pr_k, count(*) as c, sum(ps_v) as sv from pr, ps "
        "where pr_k = ps_k group by pr_k order by pr_k",
        // Fused scalar aggregation over a join, double-summed: the fold
        // order of the per-task partials must not depend on threads.
        "select count(*) as c, sum(ps_d) as sd from pr, ps "
        "where pr_k = ps_k",
        // Map aggregation with a sparse (CHAR) directory.
        "select pr_pad, count(*) as c, min(pr_v) as mn from pr "
        "group by pr_pad",
    };
  }
};

TEST_F(ParallelExecTest, ResultsBitIdenticalAcrossThreadCounts) {
  Catalog& catalog = SharedCatalog();
  std::vector<std::string> queries = Queries();

  std::vector<std::vector<std::string>> baseline_rows;
  std::vector<exec::ExecStats> baseline_stats;
  {
    HiqueEngine serial(&catalog, Options(1));
    for (const auto& sql : queries) {
      auto r = serial.Query(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      baseline_rows.push_back(ResultTuples(r.value()));
      baseline_stats.push_back(r.value().exec_stats);
    }
  }

  for (uint32_t threads : {2u, 8u}) {
    HiqueEngine engine(&catalog, Options(threads));
    EXPECT_EQ(engine.threads(), threads);
    for (size_t q = 0; q < queries.size(); ++q) {
      auto r = engine.Query(queries[q]);
      ASSERT_TRUE(r.ok()) << queries[q] << ": " << r.status().ToString();
      // Bit-identical: same rows, same order, byte for byte.
      EXPECT_EQ(ResultTuples(r.value()), baseline_rows[q])
          << "threads=" << threads << " query: " << queries[q];
      // Metrics are race-free by design (per-worker counter blocks summed
      // at the barrier) and deterministic: serial and parallel runs report
      // identical values.
      EXPECT_EQ(r.value().exec_stats.tuples_emitted,
                baseline_stats[q].tuples_emitted)
          << "threads=" << threads << " query: " << queries[q];
      EXPECT_EQ(r.value().exec_stats.pages_touched,
                baseline_stats[q].pages_touched)
          << "threads=" << threads << " query: " << queries[q];
    }
  }
}

TEST_F(ParallelExecTest, SkewedParallelTailsBitIdenticalAcrossThreadCounts) {
  // The formerly-serial tails — ORDER BY final output, merge-join probe,
  // sorted grouped scan, fused-agg fold — over Zipfian-skewed keys: rows
  // AND deterministic metrics (barrier/task counts included) must be
  // bit-identical at threads 1, 2, and 8, and every query must actually
  // decompose into more tasks than barriers (no serial tail left).
  Catalog& catalog = SharedCatalog();
  const std::vector<std::string> queries = {
      // Parallel row build + splitter k-way page merge.
      "select zr_k, zr_v, zr_d from zr order by zr_d desc, zr_k, zr_v",
      // Range-split merge join, materializing.
      "select zr_k, zr_v, zs_v from zr, zs where zr_k = zs_k",
      // Merge join fused with scalar aggregation (task-ordered FP fold).
      "select count(*) as c, sum(zs_d) as sd from zr, zs where zr_k = zs_k",
      // Sorted grouped scan split at group boundaries.
      "select zr_k, count(*) as c, sum(zs_d) as sd from zr, zs "
      "where zr_k = zs_k group by zr_k",
  };

  auto options = [](uint32_t threads) {
    EngineOptions o = Options(threads);
    o.planner.force_join_algo = plan::JoinAlgo::kMerge;
    return o;
  };

  std::vector<std::vector<std::string>> baseline_rows;
  std::vector<exec::ExecStats> serial_stats;
  {
    HiqueEngine serial(&catalog, options(1));
    for (const auto& sql : queries) {
      auto r = serial.Query(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      baseline_rows.push_back(ResultTuples(r.value()));
      serial_stats.push_back(r.value().exec_stats);
      // More tasks than barriers <=> at least one barrier ran a genuine
      // multi-task decomposition, even in the serial engine (the
      // decomposition is data-driven, not thread-driven).
      EXPECT_GT(r.value().exec_stats.par_tasks,
                r.value().exec_stats.par_barriers)
          << sql;
    }
  }

  // Barrier/task counts are compared within the parallel regime: base-table
  // staging takes a barrier-free serial fast path at num_workers == 1, so
  // threads=1 legitimately reports fewer barriers (rows and row-level
  // counters still match it exactly).
  std::vector<exec::ExecStats> par_stats;
  for (uint32_t threads : {2u, 8u}) {
    HiqueEngine engine(&catalog, options(threads));
    for (size_t q = 0; q < queries.size(); ++q) {
      auto r = engine.Query(queries[q]);
      ASSERT_TRUE(r.ok()) << queries[q] << ": " << r.status().ToString();
      EXPECT_EQ(ResultTuples(r.value()), baseline_rows[q])
          << "threads=" << threads << " query: " << queries[q];
      const exec::ExecStats& s = r.value().exec_stats;
      EXPECT_EQ(s.tuples_emitted, serial_stats[q].tuples_emitted)
          << "threads=" << threads << " query: " << queries[q];
      EXPECT_EQ(s.pages_touched, serial_stats[q].pages_touched)
          << "threads=" << threads << " query: " << queries[q];
      EXPECT_GT(s.par_tasks, s.par_barriers)
          << "threads=" << threads << " query: " << queries[q];
      if (threads == 2) {
        par_stats.push_back(s);
      } else {
        EXPECT_EQ(s.par_barriers, par_stats[q].par_barriers)
            << "threads=" << threads << " query: " << queries[q];
        EXPECT_EQ(s.par_tasks, par_stats[q].par_tasks)
            << "threads=" << threads << " query: " << queries[q];
        EXPECT_EQ(s.helper_calls, par_stats[q].helper_calls)
            << "threads=" << threads << " query: " << queries[q];
      }
    }
  }
}

TEST_F(ParallelExecTest, SkewedOrderByMatchesReferenceWithLimit) {
  // LIMIT prunes the k-way merge to a prefix of the destination ranges;
  // verify the prefix against the reference executor's stable sort.
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, Options(4));
  EXPECT_TRUE(testing::CheckAgainstReference(
                  &engine,
                  "select zr_k, zr_v from zr order by zr_k, zr_v limit 100",
                  /*respect_order=*/true)
                  .ok());
}

TEST_F(ParallelExecTest, EffectiveThreadsAreClamped) {
  // An absurd thread request is clamped against hardware concurrency and
  // surfaced through the effective executor width, not taken literally.
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, Options(100000));
  uint32_t hw = std::thread::hardware_concurrency();
  uint32_t cap = std::max(16u, 2 * (hw ? hw : 1));
  EXPECT_LE(engine.threads(), cap);
  EXPECT_GE(engine.threads(), 1u);
}

TEST_F(ParallelExecTest, BarrierDrainsOnMultipleExecutors) {
  // Canary for the barrier contract: a 16-task job on a 3-worker pool must
  // be drained by more than one live executor. If lazy job pruning or the
  // chunked claim path ever wedges all but one thread, the second slot
  // never shows up and this times out into a failure.
  exec::WorkerPool pool(3);
  ASSERT_EQ(pool.num_executors(), 4u);
  std::atomic<uint32_t> slot_mask{0};
  std::atomic<int> timeouts{0};
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(10);
  bool ok = pool.ParallelFor(16, [&](uint32_t slot, uint32_t) -> int32_t {
    slot_mask.fetch_or(1u << slot, std::memory_order_acq_rel);
    // Hold the task until a second executor has joined the job, so the
    // barrier cannot be drained single-threadedly under the deadline.
    while (__builtin_popcount(slot_mask.load(std::memory_order_acquire)) <
           2) {
      if (std::chrono::steady_clock::now() > deadline) {
        timeouts.fetch_add(1, std::memory_order_relaxed);
        return 0;  // release the barrier; the counter fails the test
      }
      std::this_thread::yield();
    }
    return 0;
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(timeouts.load(), 0)
      << "16-task barrier was drained by a single executor";
  EXPECT_GE(__builtin_popcount(slot_mask.load()), 2);
}

TEST_F(ParallelExecTest, GeneratedSourceIndependentOfThreadCount) {
  Catalog& catalog = SharedCatalog();
  EngineOptions serial_opts = Options(1);
  serial_opts.keep_source = true;
  EngineOptions parallel_opts = Options(8);
  parallel_opts.keep_source = true;
  HiqueEngine serial(&catalog, serial_opts);
  HiqueEngine parallel(&catalog, parallel_opts);

  for (const std::string& sql : {
           std::string("select pr_k, count(*) as c from pr, ps "
                       "where pr_k = ps_k group by pr_k"),
           // The new parallel tails: splitter ORDER BY merge and the
           // range-split merge join must emit thread-count-free source too.
           std::string("select zr_k, zr_v from zr order by zr_v, zr_k"),
           std::string("select zr_k, zs_v from zr, zs where zr_k = zs_k"),
       }) {
    auto a = serial.Query(sql);
    auto b = parallel.Query(sql);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    // The threads knob is pure runtime scheduling: one compiled library
    // (and one plan signature) serves every thread count.
    EXPECT_EQ(a.value().plan_signature, b.value().plan_signature) << sql;
    EXPECT_EQ(a.value().generated_source, b.value().generated_source) << sql;
  }
}

TEST_F(ParallelExecTest, WorkerOomCancelsQueryCleanly) {
  Catalog& catalog = SharedCatalog();
  EngineOptions opts = Options(8);
  // Staging fits, but the join's per-task output vectors blow through the
  // shared budget inside worker tasks: the failing worker records
  // HQ_ERR_OOM, the remaining tasks are cancelled at the barrier, and the
  // query fails with a clean status. (The budget is charged per arena
  // block, so it caps real scratch memory.)
  opts.arena_limit_bytes = 24ull << 20;
  HiqueEngine engine(&catalog, opts);
  auto r = engine.Query(
      "select count(*) as c, sum(ps_d) as sd, pr_v from pr, ps "
      "where pr_v = ps_v group by pr_v");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("out of memory"), std::string::npos)
      << r.status().ToString();

  // The engine (and its pool) stay healthy: the same query at an
  // unconstrained engine still runs.
  HiqueEngine healthy(&catalog, Options(8));
  auto ok = healthy.Query("select count(*) as c from pr");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().NumRows(), 1);
}

TEST_F(ParallelExecTest, CachedFusedAggRepeatsAreStable) {
  // Regression: the seed kept fused-join aggregate registers in file-scope
  // statics, so a cached library re-executed with stale accumulator state.
  // The per-task accumulator blocks are per-execution by construction.
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, Options(2));
  const std::string sql =
      "select count(*) as c, sum(ps_d) as sd from pr, ps where pr_k = ps_k";
  auto first = engine.Query(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = engine.Query(sql);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_EQ(ResultTuples(first.value()), ResultTuples(second.value()));
}

/// A table whose statistics are stale over a sparse group key: they claim
/// the four keys 0, 1000, 2000 and 3000, which fill the first map task's
/// range (HQ_PAR_PAGE_GRAIN full pages). The second task's range, appended
/// after the statistics, holds `late` keys the statistics never saw.
Table* MakeStaleSparseTable(Catalog* catalog, int late) {
  Schema schema;
  schema.AddColumn("st_k", Type::Int32());
  schema.AddColumn("st_v", Type::Int32());
  schema.AddColumn("st_d", Type::Double());
  Table* t = catalog->CreateTable("st", schema).value();
  const uint64_t task_rows =
      uint64_t{HQ_PAR_PAGE_GRAIN} * t->tuples_per_page();
  Rng rng(31);
  auto append = [&](int64_t k) {
    auto v = static_cast<int32_t>(rng.NextBounded(1000));
    (void)t->AppendRow({Value::Int32(static_cast<int32_t>(k)),
                        Value::Int32(v), Value::Double(v * 0.1 - 3.7)});
  };
  for (uint64_t i = 0; i < task_rows; ++i) append(i % 4 * 1000);
  HQ_CHECK(t->ComputeStats().ok());
  for (uint64_t i = 0; i < task_rows; ++i) append(5000 + i % late * 1000);
  t->mutable_stats().valid = true;  // keep the stale statistics
  return t;
}

TEST_F(ParallelExecTest, StaleSparseMapOverflowReplansAtFoldAndScan) {
  // Four late keys: each task's keys fit its own four-key directory, but
  // their union does not, so the overflow surfaces when the fold re-keys
  // task 1's cells into block 0. Five: task 1 overflows while scanning.
  // Either way the engine re-plans with hybrid aggregation, and the repeat
  // hits the fallback library aliased under the map plan's signature.
  const std::string sql =
      "select st_k, count(*), sum(st_d), min(st_v) from st group by st_k";
  for (int late : {4, 5}) {
    SCOPED_TRACE("late keys=" + std::to_string(late));
    Catalog catalog;
    Table* t = MakeStaleSparseTable(&catalog, late);
    ASSERT_EQ(t->NumPages(), 2u * HQ_PAR_PAGE_GRAIN);
    auto expected = ref::ExecuteSql(sql, catalog);
    ASSERT_TRUE(expected.ok());
    std::vector<std::string> serial;
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      HiqueEngine engine(&catalog, Options(threads));
      for (int run = 0; run < 2; ++run) {
        auto r = engine.Query(sql);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        if (run == 0) {
          EXPECT_EQ(r.value().plan_text.find("agg map"), std::string::npos)
              << r.value().plan_text;
        }
        EXPECT_EQ(r.value().cache_hit, run == 1);
        std::vector<ref::Row> rows;
        for (auto& row : r.value().Rows()) rows.push_back(row);
        Status cmp = ref::CompareRowSets(expected.value(), rows, false);
        EXPECT_TRUE(cmp.ok()) << cmp.ToString();
        if (threads == 1 && run == 0) serial = ResultTuples(r.value());
        EXPECT_EQ(ResultTuples(r.value()), serial);
      }
    }
  }
}

TEST_F(ParallelExecTest, ConcurrentClientsShareWorkerPool) {
  // Multiple client threads each running partition-parallel queries
  // through one engine: jobs interleave on the shared pool; every client
  // must see exact results (exercised under TSan in CI with HQ_THREADS=4).
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, Options(4));
  const std::string sql =
      "select pr_k, count(*) as c from pr, ps where pr_k = ps_k "
      "group by pr_k order by pr_k";
  auto expected = engine.Query(sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  std::vector<std::string> expected_rows = ResultTuples(expected.value());

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::vector<Status> failures(kClients, Status::OK());
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 3; ++i) {
        auto r = engine.Query(sql);
        if (!r.ok()) {
          failures[c] = r.status();
          return;
        }
        if (ResultTuples(r.value()) != expected_rows) {
          failures[c] = Status::ExecError("row mismatch on client " +
                                          std::to_string(c));
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const Status& s : failures) EXPECT_TRUE(s.ok()) << s.ToString();
}

}  // namespace
}  // namespace hique
