// Write-path system tests: the txn/ delta store + DML executor + snapshot
// semantics + background compaction, exercised through every public
// surface — the DeltaStore directly, the DML executor, the engine/session
// layer, and the TPC-H refresh streams — always cross-checked against the
// reference executor, which recomputes over the same merged
// (base + delta) state through Table::ForEachTuple.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "exec/engine.h"
#include "ref/reference.h"
#include "storage/buffer_manager.h"
#include "storage/catalog.h"
#include "tests/test_util.h"
#include "tpch/tpch.h"
#include "txn/compactor.h"
#include "txn/delta_store.h"
#include "txn/dml.h"
#include "util/env.h"

namespace hique {
namespace {

EngineOptions Options(uint32_t threads, bool compression = false) {
  EngineOptions o;
  o.threads = threads;
  o.compression = compression;
  return o;
}

// ---- DeltaStore unit coverage ---------------------------------------------

TEST(DeltaStoreTest, InsertSealAndSnapshot) {
  txn::DeltaStore delta(/*tuple_size=*/8, /*tuples_per_page=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    uint8_t tuple[8];
    std::memcpy(tuple, &i, 8);
    delta.Insert(tuple);  // row id: kDeltaIdBase + i (insertion order)
  }
  EXPECT_EQ(delta.inserts(), 10u);
  EXPECT_EQ(delta.live_inserts(), 10u);
  EXPECT_EQ(delta.delta_pages(), 3u);  // 4 + 4 + 2

  std::vector<Page*> out;
  std::vector<std::shared_ptr<const void>> hold;
  uint64_t live = delta.SnapshotMerged({}, &out, &hold);
  EXPECT_EQ(live, 10u);
  uint64_t seen = 0;
  for (Page* p : out) seen += p->num_tuples;
  EXPECT_EQ(seen, 10u);
}

TEST(DeltaStoreTest, DeleteFiltersSnapshotsCopyOnWrite) {
  txn::DeltaStore delta(/*tuple_size=*/8, /*tuples_per_page=*/4);
  for (uint64_t i = 0; i < 6; ++i) {
    uint8_t tuple[8];
    std::memcpy(tuple, &i, 8);
    delta.Insert(tuple);
  }
  // Snapshot BEFORE the delete: must keep seeing all six rows after it.
  std::vector<Page*> before;
  std::vector<std::shared_ptr<const void>> hold_before;
  EXPECT_EQ(delta.SnapshotMerged({}, &before, &hold_before), 6u);

  EXPECT_EQ(delta.Delete({txn::kDeltaIdBase + 1, txn::kDeltaIdBase + 4}), 2u);
  EXPECT_EQ(delta.Delete({txn::kDeltaIdBase + 1}), 0u);  // already dead
  EXPECT_EQ(delta.live_inserts(), 4u);

  uint64_t seen_before = 0;
  for (Page* p : before) seen_before += p->num_tuples;
  EXPECT_EQ(seen_before, 6u);  // old snapshot unaffected (COW)

  std::vector<Page*> after;
  std::vector<std::shared_ptr<const void>> hold_after;
  EXPECT_EQ(delta.SnapshotMerged({}, &after, &hold_after), 4u);
  uint64_t seen_after = 0;
  for (Page* p : after) seen_after += p->num_tuples;
  EXPECT_EQ(seen_after, 4u);
}

// ---- DML through the engine ------------------------------------------------

class DmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::MakeIntTable(&catalog_, "r", 500, 50, /*seed=*/7);
    testing::MakeIntTable(&catalog_, "s", 300, 50, /*seed=*/11);
  }
  Catalog catalog_;
};

TEST_F(DmlTest, InsertReportsRowsAffectedAndIsVisible) {
  HiqueEngine engine(&catalog_);
  auto ins = engine.Query(
      "insert into r values (1000, 1, 1.5, 'x'), (1001, 2, 2.5, 'y')");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(ins.value().rows_affected, 2);
  auto count =
      engine.Query("select count(*) from r where r_k >= 1000");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().Rows()[0][0].AsInt64(), 2);
  EXPECT_TRUE(
      testing::CheckAgainstReference(&engine, "select r_k, r_v, r_d from r")
          .ok());
}

TEST_F(DmlTest, DeleteFiltersBaseRows) {
  HiqueEngine engine(&catalog_);
  auto before = engine.Query("select count(*) from r where r_k < 10");
  ASSERT_TRUE(before.ok());
  int64_t doomed = before.value().Rows()[0][0].AsInt64();
  ASSERT_GT(doomed, 0);

  auto del = engine.Query("delete from r where r_k < 10");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del.value().rows_affected, doomed);

  auto after = engine.Query("select count(*) from r where r_k < 10");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().Rows()[0][0].AsInt64(), 0);
  EXPECT_TRUE(testing::CheckAgainstReference(
                  &engine, "select r_k, r_v from r where r_v < 500")
                  .ok());
}

TEST_F(DmlTest, UpdateEvaluatesOverOldRowImage) {
  HiqueEngine engine(&catalog_);
  auto sum_before = engine.Query("select sum(r_v) from r where r_k = 3");
  auto n = engine.Query("select count(*) from r where r_k = 3");
  ASSERT_TRUE(sum_before.ok());
  ASSERT_TRUE(n.ok());
  int64_t rows = n.value().Rows()[0][0].AsInt64();
  ASSERT_GT(rows, 0);

  auto upd = engine.Query("update r set r_v = r_v + 100 where r_k = 3");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(upd.value().rows_affected, rows);

  auto sum_after = engine.Query("select sum(r_v) from r where r_k = 3");
  ASSERT_TRUE(sum_after.ok());
  EXPECT_EQ(sum_after.value().Rows()[0][0].AsInt64(),
            sum_before.value().Rows()[0][0].AsInt64() + 100 * rows);
  EXPECT_TRUE(testing::CheckAgainstReference(
                  &engine, "select r_k, r_v, r_pad from r")
                  .ok());
}

TEST_F(DmlTest, PreparedDmlReturnsRowsAffected) {
  HiqueEngine engine(&catalog_);
  Session session = engine.OpenSession({});
  auto stmt =
      session.Prepare("insert into r values (2000, 5, 0.5, 'pp')");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt.value().num_placeholders(), 0u);
  auto r1 = session.Execute(stmt.value());
  auto r2 = session.Execute(stmt.value());
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().rows_affected, 1);
  EXPECT_EQ(r2.value().rows_affected, 1);
  auto count = engine.Query("select count(*) from r where r_k = 2000");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().Rows()[0][0].AsInt64(), 2);
}

TEST_F(DmlTest, DmlCursorIsPreFinished) {
  HiqueEngine engine(&catalog_);
  Session session = engine.OpenSession({});
  auto rs = session.QueryStream("delete from r where r_k = 49");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_FALSE(rs.value().Next());  // no rows — ends immediately
  EXPECT_TRUE(rs.value().status().ok());
  EXPECT_GE(rs.value().rows_affected(), 0);
  auto mat = rs.value().Materialize();
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(mat.value().rows_affected, rs.value().rows_affected());
}

TEST_F(DmlTest, RejectionsAreTypedNotAsserted) {
  HiqueEngine engine(&catalog_);
  // Unknown table.
  auto r1 = engine.Query("insert into nosuch values (1)");
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kNotFound);
  // Read-only (system/bench) table.
  catalog_.GetTable("s").value()->SetReadOnly(true);
  auto r2 = engine.Query("delete from s where s_k = 1");
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
  catalog_.GetTable("s").value()->SetReadOnly(false);
  // Arity mismatch.
  auto r3 = engine.Query("insert into r values (1, 2)");
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kBindError);
  // Unknown column.
  auto r4 = engine.Query("update r set bogus = 1 where r_k = 0");
  ASSERT_FALSE(r4.ok());
  EXPECT_EQ(r4.status().code(), StatusCode::kBindError);
  // Placeholders are a prepared-read feature; DML rejects them at parse.
  auto r5 = engine.Query("delete from r where r_k = ?");
  ASSERT_FALSE(r5.ok());
  EXPECT_EQ(r5.status().code(), StatusCode::kParseError);
  // Type mismatch: CHAR literal into an INT column.
  auto r6 = engine.Query("insert into r values ('x', 1, 1.0, 'p')");
  ASSERT_FALSE(r6.ok());
  EXPECT_EQ(r6.status().code(), StatusCode::kBindError);
  // Malformed statement text.
  auto r7 = engine.Query("insert into r valves (1)");
  ASSERT_FALSE(r7.ok());
  EXPECT_EQ(r7.status().code(), StatusCode::kParseError);
}

TEST(DmlFileBackedTest, FileBackedTablesRejectDml) {
  // The pool must outlive the catalog: a file-backed table unpins its tail
  // write page on destruction.
  BufferManager bm(16);
  Catalog catalog;
  Schema schema;
  schema.AddColumn("f_k", Type::Int32());
  auto table = Table::CreateFileBacked(
      "f", schema, &bm, env::ProcessTempDir() + "/txn_dml_fb.db");
  ASSERT_TRUE(table.ok());
  Table* t = catalog.AdoptTable(std::move(table).value()).value();
  ASSERT_TRUE(t->AppendRow({Value::Int32(1)}).ok());
  HiqueEngine engine(&catalog);
  auto r = engine.Query("delete from f where f_k = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotImplemented);
}

// ---- Snapshot visibility ---------------------------------------------------

TEST_F(DmlTest, OpenCursorKeepsItsSnapshotAcrossInserts) {
  HiqueEngine engine(&catalog_);
  Session session = engine.OpenSession({});
  auto base = engine.Query("select count(*) from r");
  ASSERT_TRUE(base.ok());
  int64_t base_rows = base.value().Rows()[0][0].AsInt64();

  auto rs = session.QueryStream("select r_k, r_v from r");
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rs.value().Next());  // producer launched => snapshot pinned

  auto ins = engine.Query("insert into r values (7777, 1, 1.0, 'z')");
  ASSERT_TRUE(ins.ok());

  int64_t streamed = 1;
  while (rs.value().Next()) ++streamed;
  ASSERT_TRUE(rs.value().status().ok());
  EXPECT_EQ(streamed, base_rows);  // the insert is invisible to the cursor

  auto after = engine.Query("select count(*) from r");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().Rows()[0][0].AsInt64(), base_rows + 1);
}

TEST_F(DmlTest, SnapshotSurvivesDeleteAndCompaction) {
  HiqueEngine engine(&catalog_);
  Session session = engine.OpenSession({});
  auto base = engine.Query("select count(*) from r");
  ASSERT_TRUE(base.ok());
  int64_t base_rows = base.value().Rows()[0][0].AsInt64();

  auto rs = session.QueryStream("select r_k from r");
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rs.value().Next());

  ASSERT_TRUE(engine.Query("delete from r where r_k < 25").ok());
  Table* r = catalog_.GetTable("r").value();
  ASSERT_TRUE(r->Compact(/*recompress=*/false).ok());

  int64_t streamed = 1;
  while (rs.value().Next()) ++streamed;
  ASSERT_TRUE(rs.value().status().ok());
  EXPECT_EQ(streamed, base_rows);  // pre-delete snapshot, fully intact
}

// ---- Compaction ------------------------------------------------------------

TEST_F(DmlTest, CompactionFoldsDeltaAndInvalidatesCachedPlans) {
  HiqueEngine engine(&catalog_);
  const std::string q = "select sum(r_v), count(*) from r where r_k < 40";
  // The first write makes r writable. Under HQ_COMPRESS that decompresses
  // it, a layout change that re-keys cached plans, so the cache is primed
  // only after it.
  ASSERT_TRUE(engine.Query("insert into r values (39, 9, 9.0, 'q')").ok());
  auto first = engine.Query(q);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().cache_hit);
  auto second = engine.Query(q);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit);

  ASSERT_TRUE(engine.Query("insert into r values (39, 8, 8.0, 'q')").ok());
  ASSERT_TRUE(engine.Query("delete from r where r_k = 38").ok());
  // DML on a writable table must NOT invalidate the cache — merge-on-read
  // serves it.
  auto merged = engine.Query(q);
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged.value().cache_hit);
  EXPECT_TRUE(testing::CheckAgainstReference(&engine, q).ok());

  Table* r = catalog_.GetTable("r").value();
  ASSERT_NE(r->delta(), nullptr);
  EXPECT_GT(r->delta()->inserts(), 0u);
  auto live = engine.Query("select count(*) from r");
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(engine.compactor()->CompactNow("r").ok());
  // The delta is folded into the base. A recompressing compaction drops
  // the emptied store altogether (a compressed base carries none).
  EXPECT_EQ(r->NumTuples(),
            static_cast<uint64_t>(live.value().Rows()[0][0].AsInt64()));
  if (r->delta() != nullptr) {
    EXPECT_EQ(r->delta()->inserts(), 0u);
    EXPECT_EQ(r->delta()->deleted_base(), 0u);
  }

  // Compaction bumped the stats version: the cached plan is re-keyed.
  auto recompiled = engine.Query(q);
  ASSERT_TRUE(recompiled.ok());
  EXPECT_FALSE(recompiled.value().cache_hit);
  EXPECT_TRUE(testing::CheckAgainstReference(&engine, q).ok());
}

TEST_F(DmlTest, BackgroundCompactorFoldsAfterThreshold) {
  HiqueEngine engine(&catalog_);
  txn::Compactor compactor(&catalog_, /*recompress=*/false,
                           /*threshold=*/1);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(engine
                    .Query("insert into r values (" + std::to_string(i) +
                           ", 1, 1.0, 'c')")
                    .ok());
  }
  Table* r = catalog_.GetTable("r").value();
  compactor.NotifyWrite("r");
  compactor.Stop();  // drains the queue before returning
  EXPECT_GT(compactor.compactions(), 0u);
  EXPECT_EQ(r->delta()->inserts(), 0u);
  EXPECT_TRUE(testing::CheckAgainstReference(
                  &engine, "select r_k, count(*) from r group by r_k")
                  .ok());
}

// ---- Concurrency (TSan-covered) -------------------------------------------

TEST_F(DmlTest, ConcurrentAppendVsCompiledScan) {
  HiqueEngine engine(&catalog_, Options(2));
  const std::string q = "select sum(r_v), count(*) from r where r_k < 40";
  ASSERT_TRUE(engine.Query(q).ok());  // compile once up front

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < 300 && failures.load() == 0; ++i) {
      auto r = engine.Query("insert into r values (" + std::to_string(i % 50) +
                            ", 2, 2.0, 'w')");
      if (!r.ok()) failures.fetch_add(1);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto r = engine.Query(q);
        if (!r.ok()) {
          failures.fetch_add(1);
          break;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(testing::CheckAgainstReference(&engine, q).ok());
}

TEST_F(DmlTest, CompactionUnderConcurrentReadsAndWrites) {
  HiqueEngine engine(&catalog_, Options(2));
  const std::string q = "select r_k, sum(r_v) from r group by r_k";
  ASSERT_TRUE(engine.Query(q).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread churn([&] {
    for (int i = 0; i < 60 && failures.load() == 0; ++i) {
      auto ins = engine.Query("insert into r values (" +
                              std::to_string(i % 50) + ", 3, 3.0, 'k')");
      if (!ins.ok()) failures.fetch_add(1);
      if (i % 5 == 0) {
        auto del = engine.Query("delete from r where r_v = 3 and r_k = " +
                                std::to_string(i % 50));
        if (!del.ok()) failures.fetch_add(1);
      }
      if (!engine.compactor()->CompactNow("r").ok()) failures.fetch_add(1);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto res = engine.Query(q);
        // Stale-plan restarts are internal; callers only ever see success.
        if (!res.ok()) {
          failures.fetch_add(1);
          break;
        }
      }
    });
  }
  churn.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(testing::CheckAgainstReference(&engine, q).ok());
}

// ---- TPC-H refresh streams -------------------------------------------------

struct RefreshConfig {
  uint32_t threads;
  bool compress;
};

class RefreshTest : public ::testing::TestWithParam<RefreshConfig> {};

std::string RefreshName(
    const ::testing::TestParamInfo<RefreshConfig>& info) {
  return "t" + std::to_string(info.param.threads) +
         (info.param.compress ? "_compress" : "_nsm");
}

TEST_P(RefreshTest, Rf1ThenRf2MatchesReferenceOnQ1AndQ6) {
  const RefreshConfig& cfg = GetParam();
  Catalog catalog;
  tpch::TpchOptions load;
  load.scale_factor = 0.002;
  ASSERT_TRUE(tpch::LoadTpch(&catalog, load).ok());
  HiqueEngine engine(&catalog, Options(cfg.threads, cfg.compress));

  auto apply = [&](const tpch::RefreshBatch& batch) {
    for (const std::string& stmt : batch.statements) {
      auto r = engine.Query(stmt);
      ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n  stmt: " << stmt;
      EXPECT_GT(r.value().rows_affected, 0) << stmt;
    }
  };
  auto check = [&] {
    EXPECT_TRUE(testing::CheckAgainstReference(&engine, tpch::Query1Sql(),
                                               /*respect_order=*/true)
                    .ok());
    EXPECT_TRUE(
        testing::CheckAgainstReference(&engine, tpch::Query6Sql()).ok());
  };

  tpch::RefreshBatch rf1 = tpch::MakeRf1(load.scale_factor, load.seed, 0);
  ASSERT_FALSE(rf1.statements.empty());
  apply(rf1);
  check();

  tpch::RefreshBatch rf2 = tpch::MakeRf2(load.scale_factor, load.seed, 0);
  apply(rf2);
  check();

  // Fold everything back into fresh base pages (re-running the codec
  // chooser when compression is on) and verify the merged state survived.
  for (const char* name : {"orders", "lineitem"}) {
    ASSERT_TRUE(engine.compactor()->CompactNow(name).ok());
  }
  check();
}

INSTANTIATE_TEST_SUITE_P(Matrix, RefreshTest,
                         ::testing::Values(RefreshConfig{1, false},
                                           RefreshConfig{2, false},
                                           RefreshConfig{8, false},
                                           RefreshConfig{1, true},
                                           RefreshConfig{2, true},
                                           RefreshConfig{8, true}),
                         RefreshName);

TEST(RefreshStreamTest, BatchesAreDeterministicAndDisjoint) {
  tpch::RefreshBatch a = tpch::MakeRf1(0.01, 42, 0);
  tpch::RefreshBatch b = tpch::MakeRf1(0.01, 42, 0);
  EXPECT_EQ(a.statements, b.statements);
  EXPECT_EQ(a.orders, 15u);
  EXPECT_GE(a.lineitems, a.orders);
  tpch::RefreshBatch c = tpch::MakeRf1(0.01, 42, 1);
  EXPECT_NE(a.statements, c.statements);
  tpch::RefreshBatch d = tpch::MakeRf2(0.01, 42, 0);
  EXPECT_EQ(d.statements.size(), 2u);
  EXPECT_EQ(d.orders, 15u);
}

}  // namespace
}  // namespace hique
